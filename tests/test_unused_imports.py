"""Every name a package module imports at module level, it uses.

A module-level import that its module never loads is dead weight: a name
kept for callers that should import it from where it is defined, or one a
change left behind. The scan collects, for each module in `src/`, the names
its top-level `import` and `from ... import` statements bind, and fails on
one that no load of a plain name in that module refers to. A name its
module lists in `__all__` is exported, which is a use. `from __future__`
imports bind no name the module loads, so they are exempt.
"""

from __future__ import annotations

import ast

from test_generator_calls import package_sources


def unused_imports(sources: dict) -> list:
    """`where name` of each module-level imported name in `sources` (file
    name -> source text) that its module never loads."""
    found = []
    for where, text in sources.items():
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        loaded.update(exported(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) \
                    and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        found.append(f"{where}:{stmt.lineno} {name}")
    return found


def exported(tree) -> list:
    """The strings of a module-level `__all__ = [...]` in `tree`."""
    return [elt.value for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]
            for elt in stmt.value.elts if isinstance(elt, ast.Constant)]


def test_the_scan_finds_a_planted_unused_import():
    source = ("from __future__ import annotations\n"
              "\n"
              "import os.path\n"
              "import json as js\n"
              "from typing import Callable, NamedTuple\n"
              "from .control import main, start\n"
              "\n"
              "def run(hook: Callable) -> None:\n"
              "    main = os.path.join\n"  # a store, not a load
              "    return js.dumps(start(hook))\n")
    assert unused_imports({"m.py": source}) == [
        "m.py:5 NamedTuple", "m.py:6 main"]


def test_a_name_in_all_is_exported_and_no_other_is():
    source = ("from .config import RunConfig, Scenario\n"
              "\n"
              "__all__ = [\"RunConfig\", \"__version__\"]\n")
    assert unused_imports({"m.py": source}) == ["m.py:1 Scenario"]


def test_every_module_uses_what_it_imports():
    assert unused_imports(package_sources()) == []
