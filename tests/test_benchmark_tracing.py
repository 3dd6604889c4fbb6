"""The benchmark's tracing targets exist: every method and function that
`perfbench/tracing.py` wraps can be wrapped, and every wrapper comes off.

The benchmark's own tests are not part of this suite, so without this test a
renamed or deleted traced name would only show when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, imported by path."""
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_traced_target_is_wrapped_and_restored():
    tracing = load_tracing()
    with tracing.Patches(tracing.Recorder()) as patches:
        tracing.install_probe(patches)
        tracing.install_layers(patches)  # a missing target raises here
    assert patches.restored is True
