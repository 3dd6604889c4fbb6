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


def load_workloads():
    """perfbench/workloads.py imported by path; it imports its sibling
    modules (`hostspeed`, `tracing`) by name, so perfbench/ is on the path
    while it loads, and the modules it added are taken off afterwards."""
    name = "_perfbench_workloads"
    bench = str(TRACING.parent)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(name,
                                                  TRACING.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    sys.path.insert(0, bench)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
        for added in set(sys.modules) - before:
            if not added.startswith("twinproto"):
                del sys.modules[added]
    return module


def test_a_traced_lockstep_mission_session_matches_the_untraced_one(
        tmp_path):
    # the benchmark's contract with the package: the probe's count of
    # measurements sent matches what the twin saw, every wrapper installs,
    # and tracing moves no slice
    workloads = load_workloads()
    mission = workloads.LockstepMission(1, tmp_path, injects=1)
    plain = mission.session(trace=False)
    traced = mission.session(trace=True)
    for out in (plain, traced):
        assert out.problems == []
        assert out.failed == 0
        assert out.frames > 0
    assert traced.digest == plain.digest
    assert traced.layers["runtime.spawns"][0] == 7
    # each frame is encoded once, where it is made, and decoded only by its
    # two receive loops, the plant's control and the device or twin it is
    # for; the tap checks its kind without decoding it
    assert traced.layers["messages.encodes_per_frame"][0] == 1.0
    assert traced.layers["messages.decodes_per_frame"][0] == 2.0


# the benchmark's lockstep digests for seed 1, as its runs report them; a
# change that moves one changes what every earlier figure was measured on
PINNED_DIGESTS = {
    "LockstepReplay":
        "1ce4305261ed67bcc878747283bfb64184b6f9e33c8ddb2e9b5af274af17dd13",
    "LockstepMission":
        "b2a5e802b4e2b2ddbbb85ccd847dd50e5b564a9e4520d6196d778ca7caa69cf5",
}


def test_the_benchmarks_lockstep_digests_hold(tmp_path):
    workloads = load_workloads()
    for name, digest in PINNED_DIGESTS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        out = getattr(workloads, name)(1, workdir).session(trace=False)
        assert out.problems == []
        assert out.failed == 0
        assert (name, out.digest) == (name, digest)
