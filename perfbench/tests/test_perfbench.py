"""Smoke tests of the benchmark at tiny sizes, and its extractors.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twinproto import RunConfig, run_scenario
from twinproto.thread_log import read_thread_file

import run
import tracing
from workloads import (ACTIVE, STANDBY, IsolateBurst, LockstepMission,
                       LockstepReplay, WallBurst, WORKLOADS,
                       convergence_ticks, frame_counts, read_lines)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

HAND_WRITTEN = (
    "seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
    "seq=2 ts=100 dir=DT2PT kind=CMD hex=010032\n"
    "seq=3 ts=102 dir=PT2DT kind=STA hex=2001\n"
    "seq=4 ts=103 dir=PT2DT kind=MEA hex=1000000309\n"
    f"seq=5 ts=103 dir=DT2PT kind=NOTE hex={b'gate rejected'.hex()}\n"
    "seq=6 ts=300 dir=DT2PT kind=CMD hex=010000\n"
    "seq=7 ts=300 dir=PT2DT kind=STA hex=2000\n"
)


def test_extractors_on_a_hand_written_thread(tmp_path):
    path = tmp_path / "hand.thread"
    path.write_text(HAND_WRITTEN)
    lines = read_lines(path)
    assert frame_counts(lines) == {"PT2DT": 4, "DT2PT": 2}
    # the status at tick 0 predates the second inject and must not count
    injects = [(100, ACTIVE), (300, STANDBY), (400, ACTIVE)]
    assert convergence_ticks(lines, injects) == [2, 0, None]
    # the package's reader agrees with the spec-side parser
    records = read_thread_file(path)
    assert [(r.seq, r.ts, r.direction.value, r.kind, r.payload)
            for r in records] == [tuple(vars(ln).values()) for ln in lines]


def test_generated_inputs_follow_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert LockstepMission(4, a).data == LockstepMission(4, b).data
    assert LockstepMission(4, a).data != LockstepMission(5, b).data
    LockstepReplay(4, a, lines=300)
    LockstepReplay(4, b, lines=300)
    assert ((a / "replay.thread").read_text()
            == (b / "replay.thread").read_text())
    WallBurst(4, a, commands=30)
    WallBurst(4, b, commands=30)
    assert (a / "burst.rec").read_text() == (b / "burst.rec").read_text()


def test_mission_spends_the_same_ticks_active_for_every_seed(tmp_path):
    def active_ticks(seed):
        m = LockstepMission(seed, tmp_path)
        ticks = [t for t, _ in m.injects] + [m.data["steps"][-1]["at_ms"]]
        return sum(ticks[i + 1] - ticks[i]
                   for i in range(0, len(ticks) - 1, 2))

    spans = [active_ticks(seed) for seed in range(10)]
    total = sum(LockstepMission.PHASE_TICKS)
    assert all(total <= s <= total + 4 * LockstepMission.JITTER_TICKS
               for s in spans)


def package_namespaces():
    """Every attribute of every twinproto module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("twinproto"):
            seen[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == name:
                    seen[f"{name}.{attr}"] = dict(vars(obj))
    return seen


def same_objects(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys()
        and all(a[k][x] is b[k][x] for x in a[k]) for k in a)


@pytest.mark.parametrize("make", [
    lambda d: LockstepMission(1, d, injects=2),
    lambda d: WallBurst(1, d, commands=20),
    lambda d: IsolateBurst(1, d, commands=20),
    lambda d: LockstepReplay(1, d, lines=300),
], ids=["lockstep-mission", "wall-burst", "isolate-burst", "lockstep-replay"])
def test_sessions_pass_untraced_and_traced(tmp_path, make):
    workload = make(tmp_path)
    before = package_namespaces()
    plain = workload.session()
    traced = workload.session(trace=True)
    assert same_objects(before, package_namespaces()), "wrappers left behind"
    for out in (plain, traced):
        assert out.problems == []
        assert out.failed == 0 and out.attempted > 0 and out.frames > 0
        assert out.setup_s is not None and 0 < out.setup_s < out.call_s
    assert set(traced.layers) == {n for n, _, _ in tracing.PER_LAYER} - {
        "trace.overhead_ratio"}
    if workload.lockstep:
        assert traced.digest == plain.digest
    assert traced.layers["messages.decodes_per_frame"][0] > 0


def test_mission_layers_count_the_loop(tmp_path):
    out = LockstepMission(2, tmp_path, injects=2).session(trace=True)
    layers = {k: v for k, (v, _) in out.layers.items()}
    assert layers["mapek.plans_per_inject"] >= 1
    assert layers["control.handles_per_frame"] == 1
    assert layers["thread_log.appends_per_frame"] == 1
    assert layers["runtime.ticks"] > 0
    assert out.converge and None not in out.converge


def test_an_escaping_exception_fails_the_session_and_ends_the_run(tmp_path):
    mission = LockstepMission(1, tmp_path, injects=2)

    def call():  # the lockstep safety limit fires at once
        return run_scenario(mission.scenario, RunConfig(
            run_timeout_s=1e-9, thread_file=str(mission.thread_path)))

    mission.call = call
    warmup, plain, traced = run.measure(mission, seconds=60, trace=False)
    assert warmup.error and plain == [] and traced == []
    assert warmup.failed == warmup.attempted > 0
    assert "RuntimeError" in warmup.problems[0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,table", [("0", run.END_TO_END),
                                         ("1", tracing.PER_LAYER)])
def test_command_line_prints_one_result_line(trace, table):
    proc = bench("--workload", "lockstep-replay", "--seed", "3",
                 "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(name, unit) for name, unit, _ in table]
    assert not list(ROOT.glob(".perfbench-tmp-*"))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "wall-burst", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_factor_restores_the_cpu_mask():
    import hostspeed
    mask = os.sched_getaffinity(0)
    assert hostspeed.factor() > 0
    assert os.sched_getaffinity(0) == mask
