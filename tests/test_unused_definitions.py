"""Every function and class the package defines is used by the package.

A definition that nothing in `src/` names is dead weight, or is kept for a
caller outside the package: the acceptance gate, a test or the benchmark.
The scan collects every name the package loads, as a plain name or as an
attribute, and fails on a definition named nowhere unless ALLOWED gives
its outside caller. A name loaded only inside definitions of that same
name, like a property that returns `self._inner.<its own name>`, does not
count as a use. Dunder methods are called by Python itself and are
skipped.
"""

from __future__ import annotations

import ast

from test_generator_calls import package_sources

# name -> the caller outside `src/` that keeps it
ALLOWED = {
    "EventBus": "C5 in the acceptance gate",
    "subscribe": "C5",
    "producer": "C5",
    "execute_loop": "C5",
    "fold_commands": "C1-C9",
    "unframe": "C1-C9",
    "tick": "tests, and the benchmark's replay digest",
    "write_manifest": "tests",
    "is_frame": "C1, C3 and C6 (the acceptance gate's `frame_walk`), and "
                "tests",
    "read_thread_file": "C1, C3 and C6 (`frame_walk`), tests, and the "
                        "benchmark's traced `thread_log.parse`",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(sources: dict) -> dict:
    """name -> `where` of each function or class defined in `sources`
    (file name -> source text) that no name or attribute there refers
    to, outside definitions of that name."""
    defined, named = {}, set()

    def scan(node, where, enclosing):
        if isinstance(node, DEFINITIONS):
            defined.setdefault(node.name, f"{where}:{node.lineno}")
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            named.add(node.attr)
        for child in ast.iter_child_nodes(node):
            scan(child, where, enclosing)

    for where, text in sources.items():
        scan(ast.parse(text), where, frozenset())
    return {name: where for name, where in defined.items()
            if name not in named
            and not (name.startswith("__") and name.endswith("__"))}


def test_the_scan_finds_a_planted_unused_definition():
    source = ("class Driver:\n"
              "    def __init__(self):\n"
              "        self.sent = 0\n"
              "\n"
              "    def forward(self, msg):\n"
              "        self.sent += 1\n"
              "\n"
              "    def send(self, msg):\n"
              "        self.forward(msg)\n"
              "\n"
              "def make():\n"
              "    return Driver()\n")
    assert unreferenced_definitions({"m.py": source}) == {
        "send": "m.py:8", "make": "m.py:11"}


def test_the_scan_sees_through_a_property_that_forwards_to_itself():
    source = ("class Tap:\n"
              "    def __init__(self, inner):\n"
              "        self._inner = inner\n"
              "\n"
              "    @property\n"
              "    def name(self):\n"
              "        return self._inner.name\n"
              "\n"
              "    @property\n"
              "    def closed(self):\n"
              "        return self._inner.closed\n"
              "\n"
              "def label(inner):\n"
              "    return Tap(inner).name\n"
              "\n"
              "print(label)\n")
    # `name` has a caller besides itself, `closed` has none
    assert unreferenced_definitions({"m.py": source}) == {"closed": "m.py:10"}


def test_every_definition_in_the_package_has_a_caller():
    unused = unreferenced_definitions(package_sources())
    assert sorted(set(unused) - set(ALLOWED)) == [], unused
    # a name the package now uses, or no longer defines, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []
