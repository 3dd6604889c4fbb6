"""End-to-end scenario runs, record/replay, the suite runner, and the CLI."""

import dataclasses
import gc
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from twinproto import control, harness
from twinproto.bus import EventBus
from twinproto.cli import BUNDLED_SUITE, main
from twinproto.config import (EXPECTATIONS, Expectations, RunConfig,
                              load_scenario, parse_scenario)
from twinproto.errors import ConfigError, RecordingMissing
from twinproto.mapek import ExecuteGate, ModelKeeper
from twinproto.messages import command, encode_message
from twinproto.statemachine import State
from twinproto.thread_log import (ThreadDirection, ThreadLog,
                                  load_checked_recordings, read_thread_file)
from twinproto.harness import (
    SessionResult,
    expectations_settled,
    record_session,
    replay_thread,
    run_scenario,
    run_suite,
)
from twinproto.runtime import ClockMode, LockstepRuntime, WallRuntime
from twinproto.template import write_manifest
from twinproto.transport import MAX_FRAME_PAYLOAD


def scenario(**over):
    path = over.pop("path", None)
    data = {
        "name": "case",
        "mode": "twin",
        "clock": "lockstep",
        "seed": 1,
        "duration_ms": 400,
        "steps": [
            {"at_ms": 0, "do": "command", "value": 50},
            {"at_ms": 100, "do": "command", "value": 0},
            {"at_ms": 200, "do": "command", "value": -1},
        ],
        "expect": {"final_status": "OFF"},
    }
    data.update(over)
    return parse_scenario(data, path=path)


def write_scenario(path, **over):
    data = {
        "name": path.stem,
        "mode": "twin",
        "clock": "lockstep",
        "seed": 1,
        "duration_ms": 400,
        "steps": [
            {"at_ms": 0, "do": "command", "value": 50},
            {"at_ms": 100, "do": "command", "value": 0},
            {"at_ms": 200, "do": "command", "value": -1},
        ],
        "expect": {"final_status": "OFF"},
    }
    data.update(over)
    path.write_text(json.dumps(data, indent=1))
    return path


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_twin_mission_reaches_off():
    result = run_scenario(scenario(expect={"final_status": "OFF",
                                           "model_state": "OFF",
                                           "converged": True,
                                           "uplink_frames": 3}))
    assert result.ok, result.failures
    assert result.final_status == "OFF"
    assert result.model_state == "OFF"
    # boot status plus one ack per command
    assert result.pt2dt_frames == 4
    assert result.dt2pt_frames == 3
    assert result.thread_lines == 7
    assert result.gate_committed == 0  # passthrough commands skip planning


def test_empty_shadow_scenario_threads_only_the_boot():
    result = run_scenario(scenario(mode="shadow", steps=[],
                                   expect={"final_status": "STANDBY",
                                           "uplink_frames": 0}))
    assert result.ok, result.failures
    assert result.pt2dt_frames == 1
    assert result.dt2pt_frames == 0
    assert result.thread_lines == 1
    assert result.converged is None or result.converged


def test_pt_wall_run_with_measurements():
    sc = scenario(mode="pt", clock="wall", duration_ms=500,
                  steps=[{"at_ms": 0, "do": "command", "value": 30},
                         {"at_ms": 150, "do": "command", "value": 0}],
                  measurements=[[60, 123], [80, -5]],
                  expect={"final_status": "STANDBY", "min_statuses": 3})
    result = run_scenario(sc)
    assert result.ok, result.failures
    assert result.statuses_seen == 3
    assert result.thread_lines == 0  # no observer, no record


def test_twin_injection_scenario_converges():
    sc = scenario(steps=[{"at_ms": 0, "do": "inject", "value": 50},
                         {"at_ms": 150, "do": "inject", "value": 0}],
                  expect={"final_status": "STANDBY", "model_state": "STANDBY",
                          "converged": True})
    result = run_scenario(sc)
    assert result.ok, result.failures
    assert result.dt2pt_frames >= 2
    assert result.gate_committed == result.dt2pt_frames
    assert result.gate_rejected == 0


def test_gate_rejections_are_counted_and_noted():
    # kill the device, then edit the model to a goal it cannot reach
    sc = scenario(duration_ms=300,
                  steps=[{"at_ms": 0, "do": "command", "value": -1},
                         {"at_ms": 100, "do": "set_model", "value": 1}],
                  expect={"final_status": "OFF", "converged": False,
                          "gate_rejections_min": 1, "uplink_frames": 1})
    result = run_scenario(sc)
    assert result.ok, result.failures
    assert result.model_state == "ACTIVE"
    assert result.gate_committed == 0


def threads_settle_to(count, within_s=5.0):
    """Wait until only `count` threads are alive; True if they got there."""
    deadline = time.monotonic() + within_s
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count() == count


# a lockstep twin run whose script never settles: it would take 10 000 s of
# logical time, so the wall-time safety limit ends it
FOREVER = {"duration_ms": 10_000_000, "expect": {}}


def test_safety_limit_is_a_fail_verdict_and_leaks_no_threads():
    before = threading.active_count()
    result = run_scenario(scenario(**FOREVER), RunConfig(run_timeout_s=0.2))
    assert result.ok is False
    assert "safety limit" in result.failures[0]
    assert "op:script=" in result.failures[0]  # the task dump
    assert threads_settle_to(before)


def test_a_halted_lockstep_run_returns_only_once_its_thread_tasks_end():
    # the sensor never goes ACTIVE, so the script skips its 30000 entries
    # in one slice that never parks; the 1 ms limit halts the run inside
    # that slice, and the run must wait for it, not return at once
    sc = scenario(steps=[], measurements=[[1, n] for n in range(30000)],
                  **FOREVER)
    for _ in range(10):
        result = run_scenario(sc, RunConfig(run_timeout_s=0.001))
        assert "safety limit" in result.failures[0]
        assert [t.name for t in threading.enumerate()
                if t.name in ("op:script", "measurement-script")] == []


def test_replay_safety_limit_is_a_fail_verdict(tmp_path):
    # long enough that feeding it outlasts, many times over, the interval
    # for which the interpreter lets the feeder's thread run before the
    # run's own thread sees its 1 ms limit
    thread = tmp_path / "long.thread"
    lines = ["seq=1 ts=0 dir=PT2DT kind=STA hex=2000"]
    lines += [f"seq={n} ts={n} dir=PT2DT kind=MEA hex=10{n:08x}"
              for n in range(2, 20002)]
    thread.write_text("\n".join(lines) + "\n")
    before = threading.active_count()
    result = replay_thread(thread, timeout_s=0.001)
    assert result.ok is False
    assert "safety limit" in result.failures[0]
    assert "replay:feeder=" in result.failures[0]
    # the halted feeder stops within a frame, and replay waits for it
    assert result.measurements_seen < 20000
    assert result.frames_fed == \
        result.statuses_seen + result.measurements_seen
    assert "replay:feeder" not in [t.name for t in threading.enumerate()]
    assert threads_settle_to(before)


@pytest.mark.parametrize("clock", ["lockstep", "wall"])
def test_a_crashed_thread_task_fails_the_run_and_leaks_no_threads(
        monkeypatch, clock):
    # the measurement script is the plant's one thread task; what escapes
    # it is kept by its task and read into the verdict
    def broken_script(*args):
        raise RuntimeError("script broke")

    monkeypatch.setattr(control, "run_measurement_script", broken_script)
    before = threading.active_count()
    result = run_scenario(scenario(mode="shadow", clock=clock,
                                   duration_ms=100, steps=[],
                                   measurements=[[10, 1]], expect={}))
    assert result.ok is False
    assert result.failures == [
        "task measurement-script crashed: RuntimeError('script broke')"]
    assert threads_settle_to(before)


def kill_plant_child(monkeypatch, tmp_path):
    """A wall isolated twin whose plant process is killed 0.4 s in."""
    children = []
    start = harness._start_plant_process
    assemble = harness.assemble_twin

    def start_and_keep(*args):
        started = start(*args)
        children.append(started[0])
        return started

    def assemble_and_arm(rt, *args, **kwargs):
        # the twin is assembled once the child is forked
        def killer():
            rt.sleep_ms(400)
            os.kill(children[0][0], signal.SIGKILL)

        rt.spawn(killer, name="killer")
        return assemble(rt, *args, **kwargs)

    monkeypatch.setattr(harness, "_start_plant_process", start_and_keep)
    monkeypatch.setattr(harness, "assemble_twin", assemble_and_arm)
    periods = [(50, 0)[i % 2] for i in range(279)] + [-1]
    steps = [{"at_ms": 5 * i, "do": "command", "value": v}
             for i, v in enumerate(periods)]
    return (scenario(clock="wall", duration_ms=2000, steps=steps),
            RunConfig(isolate=True, run_timeout_s=10),
            "plant process exit code -9")


def cut_tunnel(monkeypatch, tmp_path):
    """A wall emulated twin under a 2500-command burst; `bridge:drv` is
    closed 5 ms in."""
    start_plant = harness._start_plant

    def start_and_cut(rt, *args):
        plant = start_plant(rt, *args)

        def cutter():
            rt.sleep_ms(5)
            plant.sensor_driver.conn.close()

        rt.spawn(cutter, name="cutter")
        return plant

    monkeypatch.setattr(harness, "_start_plant", start_and_cut)
    rec = tmp_path / "burst.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 2502)))
    steps = [{"at_ms": 0, "do": "command", "value": 0}] * 2500
    return (scenario(clock="wall", duration_ms=5000, steps=steps,
                     recording="burst.rec", path=tmp_path / "case.json",
                     expect={"min_statuses": 2501, "uplink_frames": 2500}),
            RunConfig(run_timeout_s=10), "bridge:drv")


def close_uplink_in_commit(monkeypatch, tmp_path):
    """A lockstep twin whose uplink closes inside the gate's commit."""
    twins = []
    assemble = harness.assemble_twin
    enforce = ExecuteGate.enforce

    def assemble_and_keep(*args, **kwargs):
        twins.append(assemble(*args, **kwargs))
        return twins[-1]

    def enforce_then_close(self, plan):
        cmd = enforce(self, plan)
        twins[0].uplink_driver.conn.close()
        return cmd

    monkeypatch.setattr(harness, "assemble_twin", assemble_and_keep)
    monkeypatch.setattr(ExecuteGate, "enforce", enforce_then_close)
    return (scenario(steps=[{"at_ms": 10, "do": "inject", "value": 50}],
                     expect={"converged": True}),
            RunConfig(run_timeout_s=10), "link:peer-down")


@pytest.mark.parametrize("inject", [kill_plant_child, cut_tunnel,
                                    close_uplink_in_commit],
                         ids=["plant-killed", "tunnel-cut", "uplink-closed"])
def test_a_broken_link_fails_the_run_promptly_and_leaks_no_threads(
        monkeypatch, tmp_path, inject):
    before = threading.active_count()
    sc, cfg, named = inject(monkeypatch, tmp_path)
    result = run_scenario(sc, cfg)
    assert result.ok is False
    assert any(named in f for f in result.failures), result.failures
    # a broken link is no straggler, no crash and no hole in the record
    assert not [f for f in result.failures
                if any(bad in f for bad in ("never finished", "crashed",
                                            "record incomplete"))], \
        result.failures
    assert result.elapsed_s < cfg.run_timeout_s / 2
    assert threads_settle_to(before)


@pytest.mark.parametrize("clock", ["wall", "lockstep"])
def test_a_twin_burst_past_the_old_cycle_bound_completes(tmp_path, clock):
    # 5000 commands at once, beyond the 4096 frames that four links of 1024
    # buffer: the run config's queue_capacity sizes the cycle's links
    rec = tmp_path / "burst.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 5002)))
    steps = [{"at_ms": 0, "do": "command", "value": 0}] * 5000
    sc = scenario(clock=clock, duration_ms=20000, steps=steps,
                  recording="burst.rec", path=tmp_path / "case.json",
                  expect={"min_statuses": 5001, "uplink_frames": 5000})
    result = run_scenario(sc, RunConfig(run_timeout_s=20))
    assert result.ok, result.failures
    assert result.elapsed_s < 10


@pytest.mark.parametrize("clock, timeout_s, reason", [
    ("wall", 1, "tasks never finished"),
    ("lockstep", 10, "lockstep deadlock"),
])
def test_a_twin_burst_past_the_cycle_bound_fails_and_leaks_no_threads(
        tmp_path, clock, timeout_s, reason):
    # four links of 64 frames hold 256: a 500-command burst fills the cycle
    rec = tmp_path / "burst.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 502)))
    before = threading.active_count()
    sc = scenario(clock=clock, duration_ms=20000,
                  steps=[{"at_ms": 0, "do": "command", "value": 0}] * 500,
                  recording="burst.rec", path=tmp_path / "case.json",
                  expect={"uplink_frames": 500})
    result = run_scenario(sc, RunConfig(queue_capacity=64,
                                        run_timeout_s=timeout_s))
    assert result.ok is False
    assert reason in result.failures[0]
    assert "op:script" in result.failures[0]
    assert threading.active_count() == before


def test_a_lockstep_twin_deadlock_names_the_links_of_its_cycle(tmp_path):
    # the burst that overfills the cycle above; each parked task's state
    # names the link it waits on, so the dump shows the cycle's four links
    rec = tmp_path / "burst.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 502)))
    sc = scenario(duration_ms=20000,
                  steps=[{"at_ms": 0, "do": "command", "value": 0}] * 500,
                  recording="burst.rec", path=tmp_path / "case.json",
                  expect={"uplink_frames": 500})
    result = run_scenario(sc, RunConfig(queue_capacity=64, run_timeout_s=10))
    assert result.ok is False
    dump = result.failures[0]
    assert "lockstep deadlock" in dump
    for link in ("link:peer-down->link:pt-down",   # the twin's uplink
                 "bridge:drv->bridge:dev",         # commands to the device
                 "bridge:dev->bridge:drv",         # its responses
                 "link:pt-up->link:peer-up"):      # the plant's outbound
        assert f"=put-wait({link})" in dump, link
    assert "=put-wait(twin-uplink:token)" in dump  # the ingest loop


def bundled(prefix):
    path = next(BUNDLED_SUITE.glob(f"{prefix}-*.json"))
    return load_scenario(path, {"clock": "lockstep"})


def drop_tapped_append(monkeypatch, direction, nth):
    """The thread loses the `nth` frame its taps hand it in `direction`."""
    append, seen = ThreadLog.append_message, []

    def append_but_one(self, ts, dir_, payload):
        if dir_ is direction:
            seen.append(payload)
            if len(seen) == nth:
                return None
        return append(self, ts, dir_, payload)

    monkeypatch.setattr(ThreadLog, "append_message", append_but_one)


def record_lost_from_ingest(monkeypatch, tmp_path):
    drop_tapped_append(monkeypatch, ThreadDirection.PT2DT, 2)
    return bundled("01"), RunConfig(), [
        "record incomplete: 3 ingest frames recorded, driver saw 4",
        "thread sha256 1ad9afddb490a813ea2d862706fc3cb1273762164b07dbb1d76f16"
        "95dc2e0645, want ffaa7b58f23251637f118cd8f47ce5af2ae039a27a7b954af0d5"
        "4775d155bb3f"]


def record_lost_from_uplink(monkeypatch, tmp_path):
    drop_tapped_append(monkeypatch, ThreadDirection.DT2PT, 2)
    return bundled("01"), RunConfig(), [
        "record incomplete: 2 uplink frames recorded, driver sent 3",
        "uplink frames 2, want 3",
        "thread sha256 a8a67b90714a6217f2a061cafb6d2132d8c540fbf4a9e42e03152a"
        "5e2ab48e67, want ffaa7b58f23251637f118cd8f47ce5af2ae039a27a7b954af0d5"
        "4775d155bb3f"]


def shadow_thread_gains_a_command(monkeypatch, tmp_path):
    append = ThreadLog.append_message

    def append_and_add_one(self, ts, dir_, payload):
        record = append(self, ts, dir_, payload)
        if record.seq == 1:  # the boot status
            append(self, ts, ThreadDirection.DT2PT,
                   encode_message(command(50)))
        return record

    monkeypatch.setattr(ThreadLog, "append_message", append_and_add_one)
    return bundled("04"), RunConfig(), [
        "shadow produced 1 uplink frames",
        "uplink frames 1, want 0",
        "thread sha256 16e332f0bd5f4e29635900845886ce155789356f04fe460ee46841"
        "18b77f970f, want 33e5783c19505f27c81bd9f317295806b8f304c0797a9b87a36f"
        "29d579dfadd9"]


def uplink_closed_in_commit(monkeypatch, tmp_path):
    sc, cfg, _ = close_uplink_in_commit(monkeypatch, tmp_path)
    return sc, cfg, ["op:script lost its link: link:peer-down: write after "
                     "close",
                     "converged False, want True"]


def cut_sensor_link(monkeypatch, mode):
    """A lockstep `mode` mission whose sensor link closes 50 ms in."""
    start_plant = harness._start_plant

    def start_and_cut(rt, *args):
        plant = start_plant(rt, *args)

        def cutter():
            rt.sleep_ms(50)
            plant.sensor_driver.conn.close()

        rt.spawn(cutter, name="cutter")
        return plant

    monkeypatch.setattr(harness, "_start_plant", start_and_cut)
    return scenario(mode=mode), RunConfig()


def sensor_link_cut_under_pt(monkeypatch, tmp_path):
    # the plant's drivers report the loss; the operator's watch does not
    sc, cfg = cut_sensor_link(monkeypatch, "pt")
    return sc, cfg, ["op:script lost its link: link:peer-down: peer closed",
                     "sensor-driver lost its link: ptyB: stream closed",
                     "tx-driver lost its link: ptyB: write after close",
                     "final status ACTIVE, want OFF"]


def sensor_link_cut_under_twin(monkeypatch, tmp_path):
    sc, cfg = cut_sensor_link(monkeypatch, "twin")
    return sc, cfg, ["op:script lost its link: link:peer-down: peer closed",
                     "sensor-driver lost its link: ptyB: stream closed",
                     "tx-driver lost its link: ptyB: write after close",
                     "twin-ingest lost its link: link:peer-up: stream closed",
                     "final status ACTIVE, want OFF"]


def cycle_bound_deadlock(monkeypatch, tmp_path):
    rec = tmp_path / "burst.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 502)))
    sc = scenario(duration_ms=20000,
                  steps=[{"at_ms": 0, "do": "command", "value": 0}] * 500,
                  recording="burst.rec", path=tmp_path / "case.json",
                  expect={"uplink_frames": 500})
    return sc, RunConfig(queue_capacity=64, run_timeout_s=10), [
        "lockstep deadlock: twin:ingest=put-wait(twin-uplink:token), "
        "twin:poll=put-wait(twin-uplink:token), "
        "sensor-driver:device=put-wait(bridge:dev->bridge:drv), "
        "sensor-driver:recv=put-wait(link:pt-up->link:peer-up), "
        "tx-driver:recv=put-wait(bridge:drv->bridge:dev), "
        "op:script=put-wait(link:peer-down->link:pt-down)",
        "uplink frames 259, want 500"]


def dry_emulator(monkeypatch, tmp_path):
    rec = tmp_path / "boot-only.rec"
    rec.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n")
    sc = scenario(recording="boot-only.rec", path=tmp_path / "case.json",
                  steps=[{"at_ms": 0, "do": "inject", "value": 50},
                         {"at_ms": 100, "do": "inject", "value": 0}],
                  expect={"final_status": "STANDBY"})
    return sc, RunConfig(), [f"recording {rec} ran dry: all 1 frames "
                             f"served, 3 commands unanswered"]


@pytest.mark.parametrize("case", [
    record_lost_from_ingest, record_lost_from_uplink,
    shadow_thread_gains_a_command, uplink_closed_in_commit,
    sensor_link_cut_under_pt, sensor_link_cut_under_twin,
    cycle_bound_deadlock, dry_emulator,
], ids=lambda case: case.__name__.replace("_", "-"))
def test_a_failing_lockstep_run_reports_exactly_these_reasons(
        monkeypatch, tmp_path, case):
    # every reason the hop chains give, and the reasons beside them, in the
    # order the run finds them; the record checks fire on no other test
    sc, cfg, want = case(monkeypatch, tmp_path)
    result = run_scenario(sc, cfg)
    assert result.failures == want
    assert result.ok is False


@pytest.mark.parametrize("content, reason", [
    pytest.param(None, "unusable", id="missing"),
    pytest.param(b"\xff\xfe not text\n", "unusable", id="not-utf8"),
    pytest.param(b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                 b"seq=2 ts=5 dir=PT2DT kind=STA hex=20zz\n",
                 "at seq/line 2", id="corrupt"),
    pytest.param(b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                 b"seq=2 ts=1 dir=DT2PT kind=STA hex=2001\n",
                 "at seq/line 2: bad record line: "
                 "DT2PT record cannot carry STA",
                 id="clash"),
    pytest.param(b"seq=1 ts=0 dir=DT2PT kind=NOTE hex=6869\n",
                 "holds no frames", id="note-only"),
    pytest.param(b"", "holds no frames", id="empty"),
])
@pytest.mark.parametrize("isolate", [False, True])
def test_unusable_recording_is_a_fail_verdict_before_any_task(
        tmp_path, monkeypatch, content, reason, isolate):
    rec = tmp_path / "plant.rec"
    if content is not None:
        rec.write_bytes(content)

    def made_before_the_check(*args, **kwargs):
        raise AssertionError("made before the recording check")

    # no link, socket, child or twin: the check comes before all of them
    for name in ("connect_pair", "_start_plant_process", "assemble_twin"):
        monkeypatch.setattr(harness, name, made_before_the_check)
    monkeypatch.setattr(socket, "socketpair", made_before_the_check)
    sc = scenario(recording="plant.rec", path=tmp_path / "case.json",
                  clock="wall" if isolate else "lockstep")
    result = run_scenario(sc, RunConfig(isolate=isolate))
    assert result.ok is False
    assert len(result.failures) == 1
    assert str(rec) in result.failures[0]
    assert reason in result.failures[0]


@pytest.mark.parametrize("isolate", [False, True])
def test_a_dry_emulator_fails_the_run_naming_the_recording(tmp_path, isolate):
    # the recording holds only the boot status: every command finds it dry,
    # while the model still converges on STANDBY once the goal is withdrawn
    rec = tmp_path / "boot-only.rec"
    rec.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n")
    sc = scenario(recording="boot-only.rec", path=tmp_path / "case.json",
                  clock="wall" if isolate else "lockstep",
                  steps=[{"at_ms": 0, "do": "inject", "value": 50},
                         {"at_ms": 100, "do": "inject", "value": 0}],
                  expect={"final_status": "STANDBY"})
    result = run_scenario(sc, RunConfig(isolate=isolate))
    assert result.ok is False
    assert result.converged is True
    assert result.pt2dt_frames == 1  # the boot status, then nothing
    assert result.dt2pt_frames >= 1
    assert len(result.failures) == 1
    assert f"recording {rec} ran dry: all 1 frames served" \
        in result.failures[0]
    if not isolate:  # under isolation the count stays in the child
        assert f"{result.dt2pt_frames} commands unanswered" \
            in result.failures[0]


def test_expectation_mismatch_fails_the_run():
    result = run_scenario(scenario(expect={"final_status": "ACTIVE"}))
    assert not result.ok
    assert any("final status" in f for f in result.failures)
    assert "FAIL" in result.summary_line()


def test_every_expectation_field_has_exactly_one_table_row():
    rows = sorted(row.key for row in EXPECTATIONS)
    assert rows == sorted(f.name for f in dataclasses.fields(Expectations))
    result_fields = {f.name for f in dataclasses.fields(SessionResult)}
    assert all(row.result in result_fields for row in EXPECTATIONS)


# what the default mission scenario meets; the digest is left out because
# it depends on where the run settles
MISSION_MET = {"final_status": "OFF", "model_state": "OFF", "converged": True,
               "uplink_frames": 3, "min_statuses": 4, "gate_rejections_min": 0}


@pytest.mark.parametrize("key,bad", [
    ("final_status", "ACTIVE"),
    ("model_state", "STANDBY"),
    ("converged", False),
    ("uplink_frames", 4),
    ("min_statuses", 5),
    ("gate_rejections_min", 1),
    ("thread_sha256", "0" * 64),
])
def test_each_violated_expectation_fails_the_run_naming_it(key, bad):
    assert run_scenario(scenario(expect=MISSION_MET)).ok
    result = run_scenario(scenario(expect={**MISSION_MET, key: bad}))
    assert not result.ok
    assert len(result.failures) == 1, result.failures
    assert key.replace("_", " ") in result.failures[0]
    assert result.summary_line().startswith("FAIL")


@pytest.mark.parametrize("expect,got,settled", [
    ({}, {}, False),
    # reached is enough to stop; the verdict then wants it exact
    ({"uplink_frames": 3}, {"dt2pt_frames": 4}, True),
    ({"uplink_frames": 3}, {"dt2pt_frames": 2}, False),
    # only a run that must end converged waits for it
    ({"converged": True}, {"converged": True}, True),
    ({"converged": True}, {"converged": None}, False),
    ({"converged": False}, {"converged": False}, False),
    ({"converged": False, "final_status": "OFF"},
     {"converged": True, "final_status": "OFF"}, True),
    # the digest is only known at the end, so it never waits
    ({"thread_sha256": "0" * 64}, {"thread_sha256": "0" * 64}, False),
    # a floor a deployment without twin or record already meets settles
    ({"gate_rejections_min": 0}, {}, True),
    ({"min_statuses": 2, "final_status": "OFF"},
     {"statuses_seen": 2, "final_status": "STANDBY"}, False),
])
def test_settle_poll_rules(expect, got, settled):
    result = SessionResult("case", "twin", "lockstep", 1, **got)
    assert expectations_settled(Expectations(**expect), result) is settled


def test_lockstep_same_seed_same_digest_different_seed_same_outcome():
    a = run_scenario(scenario(seed=11))
    b = run_scenario(scenario(seed=11))
    c = run_scenario(scenario(seed=12))
    assert a.ok and b.ok and c.ok
    assert a.thread_sha256 == b.thread_sha256
    assert c.final_status == a.final_status == "OFF"


# ---------------------------------------------------------------------------
# record -> dtp -> replay
# ---------------------------------------------------------------------------

def test_record_then_run_dtp_from_the_recording(tmp_path):
    rec = tmp_path / "mission.rec"
    recorded = record_session(scenario(mode="pt"), record_path=rec)
    assert recorded.ok, recorded.failures
    assert rec.exists()

    sc_file = write_scenario(tmp_path / "replayed.json", mode="dtp",
                             recording="mission.rec")
    result = run_scenario(load_scenario(sc_file))
    assert result.ok, result.failures
    assert result.final_status == "OFF"
    assert result.statuses_seen == 4


def test_record_rejects_dtp_and_model_steps(tmp_path):
    with pytest.raises(ConfigError, match="real-backed"):
        record_session(scenario(mode="dtp", recording="x.rec"),
                       record_path=tmp_path / "a.rec")
    sc = scenario(steps=[{"at_ms": 0, "do": "inject", "value": 5}])
    with pytest.raises(ConfigError, match="command steps"):
        record_session(sc, record_path=tmp_path / "b.rec")
    with pytest.raises(TypeError, match="record_path"):  # a required keyword
        record_session(scenario(mode="shadow"))


@pytest.mark.parametrize("mode", ["shadow", "twin"],
                         ids=["emulated-shadow", "emulated-twin"])
def test_record_needs_a_real_backed_run(tmp_path, mode):
    # a recording of the emulator would only copy the recording it plays;
    # it is refused before anything starts (dtp: see the test above)
    assert record_session(scenario(mode="pt"),
                          record_path=tmp_path / "mission.rec").ok
    out = tmp_path / "out.rec"
    with pytest.raises(ConfigError, match="real-backed"):
        record_session(scenario(mode=mode, recording="mission.rec",
                                path=tmp_path / "case.json"),
                       record_path=out)
    assert not out.exists()


def test_record_keeps_a_configured_thread_file_and_copies_it(tmp_path):
    thread, rec = tmp_path / "run.thread", tmp_path / "run.rec"
    recorded = record_session(scenario(mode="pt"),
                              RunConfig(thread_file=str(thread)),
                              record_path=rec)
    assert recorded.ok, recorded.failures
    assert recorded.mode == "shadow"
    assert rec.read_bytes() == thread.read_bytes()
    # the same file twice: the run writes it once and nothing is copied
    again = record_session(scenario(mode="pt"),
                           RunConfig(thread_file=str(rec)), record_path=rec)
    assert again.thread_sha256 == recorded.thread_sha256
    assert rec.read_bytes() == thread.read_bytes()


@pytest.mark.parametrize("run, reason", [
    pytest.param(lambda sc: run_scenario(sc, RunConfig(thread_file="a\0b")),
                 "thread_file", id="run-thread-file"),
    pytest.param(lambda sc: record_session(sc, record_path="a\0b"),
                 "record_path", id="record-path"),
    pytest.param(lambda sc: record_session(
        sc, RunConfig(thread_file="own.thread"), record_path="a\0b"),
        "record_path", id="record-path-beside-a-thread-file"),
])
def test_a_nul_byte_in_a_library_path_is_refused_before_the_run(
        tmp_path, monkeypatch, run, reason):
    # the OS takes no path with a NUL byte: refused as broken input, with
    # no task started and no file made
    monkeypatch.chdir(tmp_path)
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=f"{reason} must be a path with "
                                          f"no NUL byte"):
        run(scenario(mode="pt"))
    assert threading.active_count() == threads
    assert os.listdir(tmp_path) == []


# 300 commands at once, ending OFF: the thread passes 8 KiB, so the file's
# buffer spills during the run as well as at close
BURST = [{"at_ms": 0, "do": "command", "value": value}
         for value in [50, 0] * 149 + [50, -1]]


def assert_whole_thread_file(path, result):
    """`path` holds the run's whole thread, each line once."""
    data = path.read_bytes()
    assert len(data) > 8192
    assert hashlib.sha256(data).hexdigest() == result.thread_sha256
    assert [rec.seq for rec in read_thread_file(path)] == \
        list(range(1, result.thread_lines + 1))


@pytest.mark.parametrize("clock, isolate", [
    ("lockstep", False), ("wall", False), ("wall", True),
], ids=["lockstep", "wall", "isolated"])
def test_a_recorded_burst_leaves_a_whole_thread_file(tmp_path, clock,
                                                     isolate):
    # an isolated run forks with the file open: only this process writes it
    thread, rec = tmp_path / "run.thread", tmp_path / "run.rec"
    sc = scenario(clock=clock, duration_ms=20000, steps=BURST,
                  expect={"final_status": "OFF", "uplink_frames": 300})
    result = record_session(sc, RunConfig(thread_file=str(thread),
                                          isolate=isolate), record_path=rec)
    assert result.ok, result.failures
    assert_whole_thread_file(thread, result)
    assert rec.read_bytes() == thread.read_bytes()


def test_a_failed_run_leaves_a_whole_thread_file(tmp_path):
    rec = tmp_path / "short.rec"
    rec.write_text("".join(f"seq={n} ts={n} dir=PT2DT kind=STA hex=2000\n"
                           for n in range(1, 101)))
    thread = tmp_path / "run.thread"
    sc = scenario(duration_ms=20000, recording="short.rec",
                  path=tmp_path / "case.json", expect={},
                  steps=[{"at_ms": 0, "do": "command", "value": 0}] * 300)
    result = run_scenario(sc, RunConfig(thread_file=str(thread)))
    assert len(result.failures) == 1
    assert f"recording {rec} ran dry" in result.failures[0]
    assert_whole_thread_file(thread, result)


def test_a_raise_out_of_the_run_still_closes_a_whole_thread_file(
        tmp_path, monkeypatch):
    sc = scenario(duration_ms=20000, steps=BURST,
                  expect={"final_status": "OFF"})
    whole = tmp_path / "whole.thread"
    assert run_scenario(sc, RunConfig(thread_file=str(whole))).ok
    run_to_verdict = harness._run_to_verdict

    def then_raise(*args):
        run_to_verdict(*args)
        raise RuntimeError("raised after the run")

    monkeypatch.setattr(harness, "_run_to_verdict", then_raise)
    thread = tmp_path / "raised.thread"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="raised after the run") \
                as raised:
            run_scenario(sc, RunConfig(thread_file=str(thread)))
        # read while the raise's frames still hold the run's log
        data = thread.read_bytes()
        del raised
        gc.collect()  # a file left open would warn as it is collected
    assert [w.message for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    # the same seed makes the same thread, and every record of it was
    # appended before the raise
    assert data == whole.read_bytes()
    assert len(read_thread_file(thread)) == len(read_thread_file(whole))


def paced_wall_replay(tmp_path):
    """A paced wall replay of ten frames a second apart: its feeder would
    feed for 9 s."""
    lines = ["seq=1 ts=5000000000 dir=PT2DT kind=STA hex=2001"]
    lines += [f"seq={n} ts={(n + 4) * 1_000_000_000} dir=PT2DT "
              f"kind=MEA hex=10{n:08x}" for n in range(2, 11)]
    thread = tmp_path / "paced.thread"
    thread.write_text("\n".join(lines) + "\n")
    return replay_thread(thread, clock=ClockMode.WALL)


# a minute of scenario: the run's tasks would outlive the test by far
LONG = {"duration_ms": 60_000, "expect": {},
        "measurements": [[t, t] for t in range(0, 60_000, 50)]}

RUNS_CUT_SHORT = {
    "wall twin": lambda tmp_path: run_scenario(scenario(clock="wall", **LONG)),
    "lockstep twin": lambda tmp_path: run_scenario(scenario(**LONG)),
    "isolated twin": lambda tmp_path: run_scenario(
        scenario(clock="wall", **LONG), RunConfig(isolate=True)),
    "paced wall replay": paced_wall_replay,
}


@pytest.mark.parametrize("run", sorted(RUNS_CUT_SHORT))
def test_a_raise_before_the_run_ends_every_task_of_it(tmp_path, monkeypatch,
                                                      run):
    # the tasks are running (wall) or waiting for their first slice
    # (lockstep) when the raise comes: none of them may outlive it
    def raise_first(*args):
        raise RuntimeError("raised before the run")

    monkeypatch.setattr(harness, "_run_to_verdict", raise_first)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="raised before the run"):
        RUNS_CUT_SHORT[run](tmp_path)
    assert [t.name for t in threading.enumerate() if t not in before] == []


@pytest.mark.parametrize("mode", ["pt", "dtp"])
def test_thread_file_needs_a_shadow_or_twin_run(tmp_path, mode):
    # the operator holds both links of a pt or dtp run, so nothing is
    # tapped: such a run used to pass and write no file
    assert record_session(scenario(mode="pt"),
                          record_path=tmp_path / "mission.rec").ok
    out = tmp_path / "out.thread"
    recording = {"recording": "mission.rec"} if mode == "dtp" else {}
    with pytest.raises(ConfigError, match="thread_file needs a shadow or "
                                          f"twin run; a {mode} run"):
        run_scenario(scenario(mode=mode, path=tmp_path / "case.json",
                              **recording),
                     RunConfig(thread_file=str(out)))
    assert not out.exists()


def test_pt_and_dtp_count_the_measurements_they_see(tmp_path):
    measured = dict(duration_ms=100, expect={},
                    steps=[{"at_ms": 0, "do": "command", "value": 50}],
                    measurements=[[10, 1], [20, 2], [30, 3]])
    rec = tmp_path / "measured.rec"
    shadow = record_session(scenario(mode="shadow", **measured),
                            record_path=rec)
    pt = run_scenario(scenario(mode="pt", **measured))
    dtp = run_scenario(scenario(mode="dtp", recording=str(rec), **measured))
    assert [r.ok for r in (shadow, pt, dtp)] == [True] * 3
    assert [r.measurements_seen for r in (shadow, pt, dtp)] == [3, 3, 3]
    assert [r.statuses_seen for r in (shadow, pt, dtp)] == [2, 2, 2]
    # the operator's watch keeps a model, but a pt or dtp result reports none
    assert [(r.model_state, r.converged) for r in (pt, dtp)] == \
        [(None, None)] * 2


def test_replay_reproduces_the_recorded_walk(tmp_path):
    thread = tmp_path / "mission.thread"
    run = run_scenario(scenario(), RunConfig(thread_file=str(thread)))
    assert run.ok, run.failures

    result = replay_thread(thread)
    assert result.ok, result.failures
    assert result.frames_fed == run.pt2dt_frames
    assert result.trajectory == ["ACTIVE", "STANDBY", "OFF"]
    assert result.final_state == "OFF"


def capture_runtimes(monkeypatch):
    """The list every runtime the harness makes is appended to."""
    real, runtimes = harness.make_runtime, []

    def make_runtime(clock, seed):
        runtimes.append(real(clock, seed))
        return runtimes[-1]

    monkeypatch.setattr(harness, "make_runtime", make_runtime)
    return runtimes


@pytest.mark.parametrize("start,gaps,sleep_ms", [
    # wall records carry monotonic_ns; frames are fed at their time since
    # the first frame, floored to whole ms, so sub-millisecond gaps add up
    (5_000_000_000, [500_000, 500_000, 500_000, 2_000_000, 2_000_000], 5),
    # lockstep records carry ticks from 0, one per millisecond
    (0, [10, 10, 10, 10, 10], 50),
    # wall again: no single gap reaches a millisecond, yet 20 ms pass
    (5_000_000_000, [500_000] * 40, 20),
])
def test_replay_paces_in_the_thread_files_time_unit(tmp_path, monkeypatch,
                                                    start, gaps, sleep_ms):
    runtimes = capture_runtimes(monkeypatch)
    ts = [start]
    for gap in gaps:
        ts.append(ts[-1] + gap)
    lines = [f"seq=1 ts={ts[0]} dir=PT2DT kind=STA hex=2000"]
    lines += [f"seq={n} ts={t} dir=PT2DT kind=MEA hex=10{n:08x}"
              for n, t in enumerate(ts[1:], start=2)]
    thread = tmp_path / "paced.thread"
    thread.write_text("\n".join(lines) + "\n")
    result = replay_thread(thread, paced=True)
    assert result.ok, result.failures
    # the last frame is fed at its due tick, and nothing runs after it
    assert runtimes[0].tick == sleep_ms


def test_a_paced_wall_replay_may_outlast_its_timeout(tmp_path):
    # the frames span 1 s; the safety limit runs `timeout_s` past the last
    # one's due time, not from the start
    lines = ["seq=1 ts=5000000000 dir=PT2DT kind=STA hex=2001"]
    lines += [f"seq={n} ts={5_000_000_000 + 500_000_000 * (n - 1)} "
              f"dir=PT2DT kind=MEA hex=10{n:08x}" for n in (2, 3)]
    thread = tmp_path / "paced.thread"
    thread.write_text("\n".join(lines) + "\n")
    result = replay_thread(thread, clock=ClockMode.WALL, timeout_s=0.5)
    assert result.ok, result.failures
    assert result.frames_fed == 3


def test_an_unpaced_lockstep_replay_ends_at_tick_0(tmp_path, monkeypatch):
    # the feeder hands every frame to the shadow's engine in one slice and
    # ends, with no timer in the run
    runtimes = capture_runtimes(monkeypatch)
    lines = ["seq=1 ts=0 dir=PT2DT kind=STA hex=2001"]
    lines += [f"seq={n} ts={n} dir=PT2DT kind=MEA hex=10{n:08x}"
              for n in range(2, 3001)]
    thread = tmp_path / "long.thread"
    thread.write_text("\n".join(lines) + "\n")
    result = replay_thread(thread, clock=ClockMode.LOCKSTEP, seed=1)
    assert result.ok, result.failures
    assert result.frames_fed == 3000
    assert result.statuses_seen + result.measurements_seen == 3000
    assert result.trajectory == ["ACTIVE"]
    assert runtimes[0].tick == 0


@pytest.mark.parametrize("clock", [ClockMode.LOCKSTEP, ClockMode.WALL])
def test_replay_counts_an_undecodable_frame_as_consumed(tmp_path, clock):
    # the feeder skips the RAW frame, which does not decode; it must not
    # wait for the monitor to see it
    thread = tmp_path / "raw.thread"
    thread.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                      "seq=2 ts=1 dir=PT2DT kind=RAW hex=ff\n"
                      "seq=3 ts=2 dir=PT2DT kind=STA hex=2001\n")
    started = time.monotonic()
    result = replay_thread(thread, clock=clock, timeout_s=3.0)
    assert time.monotonic() - started < 1.0
    assert result.ok, result.failures
    assert result.frames_fed == 3
    assert result.statuses_seen == 2
    assert result.trajectory == ["ACTIVE"]


def test_replay_feeds_raw_frames_and_never_a_note(tmp_path):
    # RAW frames are fed and the feeder skips them, as they do not decode;
    # NOTE lines, in either direction, and DT2PT frames are never fed
    thread = tmp_path / "mixed.thread"
    thread.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                      "seq=2 ts=1 dir=PT2DT kind=NOTE hex=6869\n"
                      "seq=3 ts=2 dir=PT2DT kind=RAW hex=ff\n"
                      "seq=4 ts=3 dir=DT2PT kind=CMD hex=010032\n"
                      "seq=5 ts=4 dir=DT2PT kind=NOTE hex=6f6b\n"
                      "seq=6 ts=5 dir=PT2DT kind=STA hex=2001\n"
                      "seq=7 ts=6 dir=PT2DT kind=MEA hex=100000002a\n"
                      "seq=8 ts=7 dir=PT2DT kind=RAW hex=2007\n"
                      "seq=9 ts=8 dir=DT2PT kind=RAW hex=ee\n"
                      "seq=10 ts=9 dir=PT2DT kind=STA hex=2001\n")
    result = replay_thread(thread, clock=ClockMode.LOCKSTEP, seed=1)
    assert result.ok, result.failures
    assert result.frames_fed == 6
    assert (result.statuses_seen, result.measurements_seen) == (3, 1)
    assert result.trajectory == ["ACTIVE"]


@pytest.mark.parametrize("clock", [ClockMode.LOCKSTEP, ClockMode.WALL])
def test_a_replay_spawns_only_its_feeder_and_makes_no_channel(
        tmp_path, monkeypatch, clock):
    calls = []
    for kind in (LockstepRuntime, WallRuntime):
        for attr in ("spawn", "channel"):
            def called(self, *args, _real=getattr(kind, attr), _attr=attr,
                       **kwargs):
                calls.append((_attr, kwargs.get("name")))
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(kind, attr, called)
    thread = tmp_path / "walk.thread"
    thread.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                      "seq=2 ts=1 dir=PT2DT kind=STA hex=2001\n")
    result = replay_thread(thread, clock=clock)
    assert result.ok, result.failures
    assert calls == [("spawn", "replay:feeder")]


def test_a_replay_whose_model_leaves_the_record_walk_fails(tmp_path,
                                                           monkeypatch):
    class DeafToOff(ModelKeeper):
        """A keeper whose model never follows a report of OFF."""

        def observe(self, obs, ts):
            if obs is State.OFF:
                obs = self.model.current
            return super().observe(obs, ts)

    monkeypatch.setattr(harness, "ModelKeeper", DeafToOff)
    thread = tmp_path / "walk.thread"
    thread.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                      "seq=2 ts=1 dir=PT2DT kind=STA hex=2001\n"
                      "seq=3 ts=2 dir=PT2DT kind=STA hex=2002\n")
    result = replay_thread(thread)
    assert result.ok is False
    assert result.failures == ["trajectory ['ACTIVE'] != record walk "
                               "['ACTIVE', 'OFF']"]
    assert result.final_state == "ACTIVE"


def test_a_raw_frame_larger_than_a_link_carries_rejects_the_file(tmp_path):
    # no link carries a payload over MAX_FRAME_PAYLOAD, so no record of one
    # is read, for a replay or as a recording; one of that size is
    def thread_with_raw(size):
        path = tmp_path / f"raw{size}.thread"
        path.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                        f"seq=2 ts=1 dir=PT2DT kind=RAW hex={'ff' * size}\n"
                        "seq=3 ts=2 dir=PT2DT kind=STA hex=2001\n")
        return path

    result = replay_thread(thread_with_raw(MAX_FRAME_PAYLOAD))
    assert result.ok, result.failures
    assert (result.frames_fed, result.statuses_seen) == (3, 2)
    big = thread_with_raw(MAX_FRAME_PAYLOAD + 1)
    why = (f"at seq/line 2: bad record line: RAW payload of "
           f"{MAX_FRAME_PAYLOAD + 1} bytes, over the {MAX_FRAME_PAYLOAD} a "
           f"link carries")
    with pytest.raises(ConfigError) as rejected:
        replay_thread(big)
    assert str(rejected.value) == f"record file rejected {why}"
    with pytest.raises(RecordingMissing) as unusable:
        load_checked_recordings(big)
    assert str(unusable.value) == f"recording {big} unusable {why}"


def test_replay_rejects_corrupt_files(tmp_path):
    missing = tmp_path / "none.thread"
    with pytest.raises(ConfigError, match="cannot read"):
        replay_thread(missing)
    bad = tmp_path / "bad.thread"
    bad.write_text("seq=1 ts=0 dir=SIDEWAYS kind=STA hex=2001\n")
    with pytest.raises(ConfigError, match="rejected"):
        replay_thread(bad)
    bad.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                   "seq=2 ts=1 dir=DT2PT kind=STA hex=2001\n")
    with pytest.raises(ConfigError, match="rejected at seq/line 2: .*"
                                          "DT2PT record cannot carry STA"):
        replay_thread(bad)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_suite_runs_everything_sorted(tmp_path):
    write_scenario(tmp_path / "b-mission.json")
    write_scenario(tmp_path / "a-quiet.json", mode="shadow", steps=[],
                   expect={"final_status": "STANDBY", "uplink_frames": 0})
    results = run_suite(tmp_path)
    assert [r.name for r in results] == ["a-quiet", "b-mission"]
    assert all(r.ok for r in results)


def test_run_suite_forces_lockstep(tmp_path):
    write_scenario(tmp_path / "wall.json", clock="wall")
    results = run_suite(tmp_path, force_lockstep=True)
    assert results[0].clock == "lockstep"
    assert results[0].ok


# planned, noop, mirrored, strays and the model trajectory (tick, state) of
# each bundled scenario that has a twin-side deployment: counters the thread
# digest does not cover
SUITE_COUNTERS = {
    "01-mission-twin-emulated":
        (0, 26, 3, 0, [(0, "ACTIVE"), (500, "STANDBY"), (900, "OFF")]),
    "03-shadow-quiet": (0, 0, 0, 0, []),
    "04-shadow-watch": (0, 0, 2, 0, [(0, "ACTIVE"), (300, "STANDBY")]),
    "05-twin-inject":
        (3, 15, 0, 0, [(60, "ACTIVE"), (260, "STANDBY"), (460, "OFF")]),
    "06-twin-gate-reject": (1, 4, 1, 0, [(0, "OFF"), (100, "ACTIVE")]),
}


def test_bundled_suite_engine_counters_are_pinned(monkeypatch):
    deployed = []

    def keep(assemble):
        def assemble_and_keep(*args, **kwargs):
            deployed.append(assemble(*args, **kwargs))
            return deployed[-1]
        return assemble_and_keep

    monkeypatch.setattr(harness, "assemble_twin", keep(harness.assemble_twin))
    monkeypatch.setattr(harness, "assemble_shadow",
                        keep(harness.assemble_shadow))
    counters = {}
    for result in run_suite(BUNDLED_SUITE, force_lockstep=True):
        assert result.ok, result.failures
        if result.mode in ("shadow", "twin"):  # deployed in suite order
            twin = deployed.pop(0)
            counters[result.name] = (
                twin.plan_stats.planned, twin.plan_stats.noop,
                twin.keeper.mirrored_count, twin.monitor_stats.strays,
                [(ts, s.name) for ts, s in twin.keeper.trajectory])
    assert counters == SUITE_COUNTERS


def test_the_bundled_suite_passes_without_the_event_bus(monkeypatch):
    # no deployment emits: drivers call control and the engine directly
    def emit(self, topic, item):
        raise AssertionError(f"emit on {topic}")

    monkeypatch.setattr(EventBus, "emit", emit)
    results = run_suite(BUNDLED_SUITE, force_lockstep=True)
    assert [r.failures for r in results if not r.ok] == []


def test_run_suite_empty_dir_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no scenario files"):
        run_suite(tmp_path)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_run_twin_ok(tmp_path, capsys):
    sc = write_scenario(tmp_path / "mission.json")
    assert main(["run-twin", "--scenario", str(sc)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_cli_run_writes_thread_file_with_out(tmp_path):
    sc = write_scenario(tmp_path / "mission.json")
    outdir = tmp_path / "out"
    assert main(["run-twin", "--scenario", str(sc),
                 "--out", str(outdir)]) == 0
    assert (outdir / "mission.thread").exists()


def test_cli_mode_and_seed_overrides(tmp_path, capsys):
    sc = write_scenario(tmp_path / "mission.json", clock="wall",
                        duration_ms=1500)
    assert main(["run-twin", "--scenario", str(sc),
                 "--mode", "lockstep", "--seed", "9"]) == 0
    assert "clock=lockstep" in capsys.readouterr().out


def test_cli_rejects_model_steps_outside_twin(tmp_path, capsys):
    sc = write_scenario(tmp_path / "inject.json",
                        steps=[{"at_ms": 0, "do": "inject", "value": 5}],
                        expect={})
    assert main(["run-shadow", "--scenario", str(sc)]) == 2
    assert "twin mode" in capsys.readouterr().err


def test_cli_missing_scenario_is_exit_2(tmp_path, capsys):
    assert main(["run-pt", "--scenario", str(tmp_path / "ghost.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_thread_file_on_a_pt_run_is_exit_2(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    sc = write_scenario(suite / "mission.json", mode="pt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(tmp_path / "out.thread")}))
    assert main(["run-pt", "--scenario", str(sc), "--config", str(cfg)]) == 2
    assert "keeps no thread" in capsys.readouterr().err
    # the suite runner too: one file for every case would keep the last
    assert main(["ci-test", str(suite), "--config", str(cfg)]) == 2
    assert "keeps no thread" in capsys.readouterr().err
    assert not (tmp_path / "out.thread").exists()


def test_cli_ci_test_refuses_the_suite_before_running_any_case(tmp_path,
                                                                capsys):
    # the bundled suite's first case is a twin, its second a pt run
    out = tmp_path / "out.thread"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(out)}))
    assert main(["ci-test", "--config", str(cfg)]) == 2
    assert "keeps no thread" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failed_expectation_is_exit_1(tmp_path, capsys):
    sc = write_scenario(tmp_path / "wrong.json",
                        expect={"final_status": "ACTIVE"})
    assert main(["run-twin", "--scenario", str(sc)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert '"failures"' in out  # machine-readable summary on failure


def test_cli_record_and_replay_round_trip(tmp_path, capsys):
    sc = write_scenario(tmp_path / "mission.json", mode="shadow")
    assert main(["record", "--scenario", str(sc),
                 "--out", str(tmp_path)]) == 0
    rec = tmp_path / "mission.rec"
    assert rec.exists()
    capsys.readouterr()

    thread_out = tmp_path / "threads"
    assert main(["run-twin", "--scenario",
                 str(write_scenario(tmp_path / "again.json")),
                 "--out", str(thread_out)]) == 0
    capsys.readouterr()
    assert main(["replay", str(thread_out / "again.thread")]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_cli_ci_test_suite(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_scenario(suite / "01-mission.json")
    write_scenario(suite / "02-quiet.json", mode="shadow", steps=[],
                   expect={"final_status": "STANDBY"})
    assert main(["ci-test", str(suite)]) == 0
    out = capsys.readouterr().out
    assert "2/2 scenarios passed" in out

    write_scenario(suite / "03-broken.json",
                   expect={"final_status": "ACTIVE"})
    assert main(["ci-test", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL 03-broken" in out
    assert "2/3 scenarios passed" in out


def test_bundled_ci_test_is_clean_under_dev_mode_and_warnings_as_errors():
    # covers what pytest's warning filters cannot see: a child interpreter's
    # teardown, such as a socket or file left open at exit
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "twinproto",
         "ci-test"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""


def test_cli_ci_test_safety_limit_fails_one_case_and_runs_the_next(
        tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_scenario(suite / "01-forever.json", **FOREVER)
    write_scenario(suite / "02-mission.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"run_timeout_s": 0.2}))
    assert main(["ci-test", str(suite), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "FAIL 01-forever" in captured.out
    assert "safety limit" in captured.out
    assert "PASS 02-mission" in captured.out
    assert "1/2 scenarios passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_ci_test_corrupt_recording_fails_one_case_and_runs_the_next(
        tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "bad.rec").write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
                                   "seq=2 ts=0 dir=PT2DT kind=STA hex=2x01\n")
    write_scenario(suite / "01-corrupt.json", recording="bad.rec")
    write_scenario(suite / "02-mission.json")
    before = threading.active_count()
    assert main(["ci-test", str(suite)]) == 1
    captured = capsys.readouterr()
    assert "FAIL 01-corrupt" in captured.out
    assert "bad.rec unusable at seq/line 2" in captured.out
    assert "PASS 02-mission" in captured.out
    assert "1/2 scenarios passed" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert threads_settle_to(before)


def test_cli_template_validate(tmp_path, capsys):
    thread = tmp_path / "cap.thread"
    run = run_scenario(scenario(mode="shadow"),
                       RunConfig(thread_file=str(thread)))
    assert run.ok, run.failures
    manifest = tmp_path / "plant.ini"
    write_manifest(manifest, "plant", thread)
    assert main(["template-validate", str(manifest)]) == 0
    assert "manifest ok" in capsys.readouterr().out

    manifest.write_text(manifest.read_text().replace("initial = STANDBY",
                                                     "initial = OFF"))
    assert main(["template-validate", str(manifest)]) == 1
    assert "model-mismatch" in capsys.readouterr().out
