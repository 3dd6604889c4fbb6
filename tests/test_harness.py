"""End-to-end scenario runs, record/replay, the suite runner, and the CLI."""

import dataclasses
import json
import threading
import time

import pytest

from twinproto import harness
from twinproto.cli import main
from twinproto.config import Expectations, RunConfig, parse_scenario
from twinproto.errors import ConfigError
from twinproto.harness import (
    EXPECTATIONS,
    SessionResult,
    expectations_settled,
    record_session,
    replay_thread,
    run_scenario,
    run_suite,
    thread_digest,
)
from twinproto.template import write_manifest


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


def test_replay_safety_limit_is_a_fail_verdict(tmp_path):
    thread = tmp_path / "long.thread"
    lines = ["seq=1 ts=0 dir=PT2DT kind=STA hex=2000"]
    lines += [f"seq={n} ts={n} dir=PT2DT kind=MEA hex=10{n:08x}"
              for n in range(2, 5002)]
    thread.write_text("\n".join(lines) + "\n")
    before = threading.active_count()
    result = replay_thread(thread, timeout_s=0.001)
    assert result.ok is False
    assert "safety limit" in result.failures[0]
    assert "replay:feeder=" in result.failures[0]
    assert threads_settle_to(before)


def test_expectation_mismatch_fails_the_run():
    result = run_scenario(scenario(expect={"final_status": "ACTIVE"}))
    assert not result.ok
    assert any("final status" in f for f in result.failures)
    assert "FAIL" in result.summary_line()


def test_every_expectation_field_has_exactly_one_table_row():
    rows = sorted(row.field for row in EXPECTATIONS)
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
    from twinproto.config import load_scenario

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
    with pytest.raises(ConfigError, match="output path"):
        record_session(scenario(mode="shadow"))


def test_replay_reproduces_the_recorded_walk(tmp_path):
    thread = tmp_path / "mission.thread"
    run = run_scenario(scenario(), RunConfig(thread_file=str(thread)))
    assert run.ok, run.failures

    result = replay_thread(thread)
    assert result.ok, result.failures
    assert result.frames_fed == run.pt2dt_frames
    assert result.trajectory == ["ACTIVE", "STANDBY", "OFF"]
    assert result.final_state == "OFF"


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
    real, runtimes = harness.make_runtime, []

    def make_runtime(clock, seed):
        runtimes.append(real(clock, seed))
        return runtimes[-1]

    monkeypatch.setattr(harness, "make_runtime", make_runtime)
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
    # the feeder then polls every tick until the shadow has consumed all
    assert sleep_ms <= runtimes[0].tick < sleep_ms + 20


def test_replay_rejects_corrupt_files(tmp_path):
    missing = tmp_path / "none.thread"
    with pytest.raises(ConfigError, match="cannot read"):
        replay_thread(missing)
    bad = tmp_path / "bad.thread"
    bad.write_text("seq=1 ts=0 dir=SIDEWAYS kind=STA hex=2001\n")
    with pytest.raises(ConfigError, match="rejected"):
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


def test_cli_template_validate(tmp_path, capsys):
    thread = tmp_path / "cap.thread"
    run = run_scenario(scenario(mode="shadow"),
                       RunConfig(thread_file=str(thread),
                                 record_file=str(tmp_path / "cap.rec")))
    assert run.ok, run.failures
    manifest = tmp_path / "plant.ini"
    write_manifest(manifest, "plant", tmp_path / "cap.rec")
    assert main(["template-validate", str(manifest)]) == 0
    assert "manifest ok" in capsys.readouterr().out

    manifest.write_text(manifest.read_text().replace("initial = STANDBY",
                                                     "initial = OFF"))
    assert main(["template-validate", str(manifest)]) == 1
    assert "model-mismatch" in capsys.readouterr().out
