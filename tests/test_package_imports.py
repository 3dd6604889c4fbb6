"""The package loads a module only when something uses it.

An isolated run's plant process imports the plant, and nothing of the
harness that starts it: `twinproto/__init__.py` resolves its exported
names on first use instead of importing the harness up front.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinproto
from twinproto import harness

# modules the plant process never runs
NOT_IN_THE_PLANT = ("harness", "config", "mapek", "bus", "cli", "template")


def test_the_plant_process_imports_only_the_plant():
    imports = [line for line in harness._CHILD_CODE.splitlines()
               if "plant_process_main" in line and "import" in line]
    assert len(imports) == 1
    src = str(Path(twinproto.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = imports[0] + "\nimport sys\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "twinproto.control" in loaded
    assert sorted(loaded & {f"twinproto.{name}"
                            for name in NOT_IN_THE_PLANT}) == []


@pytest.mark.parametrize("name", twinproto.__all__)
def test_every_export_is_its_defining_modules_object(name):
    value = getattr(twinproto, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("twinproto.")
    assert getattr(module, name) is value
    assert getattr(twinproto, name) is value  # the second lookup too


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinproto.no_such_name
    assert not hasattr(twinproto, "no_such_name")
