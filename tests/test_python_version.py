"""Every module of the package parses on the oldest Python it declares.

`pyproject.toml` declares `requires-python = ">=3.10"`. A test run on a
newer interpreter accepts newer syntax, so each module is parsed here
with `ast.parse(..., feature_version=...)` set to that oldest version.
(A pattern `re` takes only on a newer Python is pinned in
`test_thread_log.py`.)
"""

import ast
import re
from pathlib import Path

import pytest

import twinproto

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(twinproto.__file__).parent


def oldest_python():
    """The (major, minor) that `requires-python` names as its floor."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    assert found is not None, "pyproject.toml declares no Python floor"
    return int(found[1]), int(found[2])


def parses_on_the_oldest_python(source, name="<source>"):
    ast.parse(source, filename=name, feature_version=oldest_python())


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_each_module_parses_on_the_oldest_python(path):
    parses_on_the_oldest_python(path.read_text(encoding="utf-8"), str(path))


def test_newer_syntax_is_refused():
    # `except*` came in 3.11
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        parses_on_the_oldest_python(
            "try:\n    pass\nexcept* ValueError:\n    pass\n")
