"""No generator function in the package is called for nothing.

Calling a generator function only makes a generator; its body runs when the
generator is driven (`yield from`, `spawn`, `drive`). A call whose result is
dropped, as a statement of its own, does nothing at all: a dropped send
loses its frame without an error. This scan finds the package's generator
functions by name and fails on any call statement that names one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import twinproto

PACKAGE = Path(twinproto.__file__).resolve().parent

_OTHER_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef)


def _yields(fn) -> bool:
    """Whether `fn`'s own body yields (nested functions are their own)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, _OTHER_SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _functions(trees):
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dropped_generator_calls(sources: dict) -> list:
    """`where name` for each call statement naming a generator function
    defined in `sources` (file name -> source text)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    generators = {fn.name for fn in _functions(trees.values())
                  if _yields(fn)}
    return [f"{name}:{node.lineno} {_called_name(node.value)}"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and _called_name(node.value) in generators]


def package_sources() -> dict:
    return {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8")
            for p in sorted(PACKAGE.rglob("*.py"))}


def test_the_scan_finds_a_dropped_generator_call():
    source = ("def forward(msg):\n"
              "    yield msg\n"
              "\n"
              "def handler(msg):\n"
              "    forward(msg)\n"
              "    return (yield from forward(msg))\n")
    assert dropped_generator_calls({"m.py": source}) == ["m.py:5 forward"]


def test_no_generator_call_in_the_package_is_dropped():
    assert dropped_generator_calls(package_sources()) == []


def test_generator_and_plain_functions_do_not_share_a_name():
    # the scan matches calls by name, so each name must be one kind only
    trees = [ast.parse(text) for text in package_sources().values()]
    generators, plain = set(), set()
    for fn in _functions(trees):
        (generators if _yields(fn) else plain).add(fn.name)
    assert {"serve", "receive", "pause"} <= generators
    assert generators & plain == set()
