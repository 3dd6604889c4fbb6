"""The plant gives identical results in-process and as a separate OS process.

Isolated runs put the whole plant in a child interpreter and carry both
links over real loopback TCP; nothing about the protocol or the engine may
care about the difference. The parent makes both links and hands the child
its ends, so every way a start can fail is the parent's to clean up.
"""

import errno
import gc
import json
import subprocess
import sys
import threading
import time
import warnings

import pytest

from twinproto import harness
from twinproto.cli import main
from twinproto.config import RunConfig, parse_scenario
from twinproto.control import plant_process_main
from twinproto.errors import ConfigError
from twinproto.harness import run_scenario
from twinproto.messages import decode_message, status
from twinproto.runtime import WallRuntime
from twinproto.thread_log import ThreadDirection, read_thread_file
from twinproto.transport import SocketEndpoint, loopback_pair


def mission(**over):
    data = {
        "name": "iso-mission",
        "mode": "twin",
        "clock": "wall",
        "seed": 5,
        "duration_ms": 2000,
        "steps": [
            {"at_ms": 0, "do": "command", "value": 50},
            {"at_ms": 150, "do": "command", "value": 0},
            {"at_ms": 300, "do": "command", "value": -1},
        ],
        "expect": {"final_status": "OFF"},
    }
    data.update(over)
    return parse_scenario(data)


def payload_walk(thread_path):
    per_dir = {ThreadDirection.PT2DT: [], ThreadDirection.DT2PT: []}
    for rec in read_thread_file(thread_path):
        if rec.is_frame:
            per_dir[rec.direction].append(rec.payload)
    return per_dir


def test_isolated_twin_matches_in_process(tmp_path):
    local_thread = tmp_path / "local.thread"
    remote_thread = tmp_path / "remote.thread"
    expect = {"final_status": "OFF", "uplink_frames": 3, "min_statuses": 4}

    local = run_scenario(mission(expect=expect),
                         RunConfig(thread_file=str(local_thread)))
    assert local.ok, local.failures

    remote = run_scenario(mission(expect=expect),
                          RunConfig(thread_file=str(remote_thread),
                                    isolate=True))
    assert remote.ok, remote.failures

    assert remote.final_status == local.final_status == "OFF"
    assert remote.model_state == local.model_state == "OFF"
    assert remote.pt2dt_frames == local.pt2dt_frames == 4
    assert remote.dt2pt_frames == local.dt2pt_frames == 3
    # byte-for-byte the same conversation in each direction
    assert payload_walk(remote_thread) == payload_walk(local_thread)


def test_isolated_dtp_replays_a_recording(tmp_path):
    from twinproto.harness import record_session

    rec = tmp_path / "cap.rec"
    captured = record_session(mission(mode="pt"), record_path=rec)
    assert captured.ok, captured.failures

    sc = mission(name="iso-dtp", mode="dtp", recording=str(rec),
                 expect={"final_status": "OFF", "min_statuses": 4})
    result = run_scenario(sc, RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.final_status == "OFF"
    assert result.statuses_seen == 4


def test_an_isolated_run_needs_no_pythonpath(monkeypatch):
    # the child imports the package this process runs from the directory
    # its command line names, so the environment need not name it too
    monkeypatch.delenv("PYTHONPATH", raising=False)
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.final_status == "OFF"


def long_script(n=10000):
    """A wall twin whose measurement script holds `n` entries: its options
    outgrow what one command-line argument may hold (128 KiB on Linux) and
    a pipe's buffer (64 KiB). The script is done long before the last step
    ends the run."""
    return mission(name="iso-script", duration_ms=3000,
                   steps=[{"at_ms": 0, "do": "command", "value": 50},
                          {"at_ms": 1000, "do": "command", "value": 50}],
                   measurements=[[50, 1_000_000 + i] for i in range(n)],
                   expect={"final_status": "ACTIVE", "min_statuses": 3})


def test_a_long_measurement_script_runs_isolated():
    result = run_scenario(long_script(), RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.measurements_seen == 10000


def test_a_plant_process_that_dies_before_reading_is_refused(monkeypatch):
    # the child exits without reading its options, so writing them breaks
    # the pipe; the refusal leaves no pipe or process open
    monkeypatch.setattr(harness, "_plant_process_argv",
                        lambda: [sys.executable, "-S", "-c", "pass"])
    raised, unclosed = raised_and_unclosed(long_script(),
                                           RunConfig(isolate=True))
    assert raised == (ConfigError, "plant process could not start: "
                                   "[Errno 32] Broken pipe")
    assert unclosed == []


def test_an_isolated_emulator_that_runs_dry_fails_with_the_dry_reason(
        tmp_path):
    # the child's exit code is all the parent learns of a dry emulator, so
    # it must survive the child's exit without interpreter finalization
    rec = tmp_path / "boot-only.rec"
    rec.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n")
    sc = mission(name="iso-dry", recording=str(rec),
                 steps=[{"at_ms": 0, "do": "inject", "value": 50},
                        {"at_ms": 100, "do": "inject", "value": 0}],
                 expect={"final_status": "STANDBY"})
    result = run_scenario(sc, RunConfig(isolate=True))
    assert result.failures == [f"recording {rec} ran dry: all 1 frames "
                               f"served, commands unanswered"]


def test_isolation_requires_the_wall_clock():
    sc = mission(clock="lockstep")
    with pytest.raises(ConfigError, match="wall clock"):
        run_scenario(sc, RunConfig(isolate=True))


def raised_and_unclosed(sc, cfg):
    """The (type, text) of what `run_scenario` raised, and the
    ResourceWarnings of what it left open, once nothing refers to it."""
    raised = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            run_scenario(sc, cfg)
        except Exception as exc:  # its traceback holds the sockets
            raised = type(exc), str(exc)
        gc.collect()
    return raised, [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)]


def keep_links(monkeypatch, fail_at=None):
    """The list of every socket the harness's `loopback_pair` calls make;
    the call numbered `fail_at` (from 1) fails as if no descriptor were
    left, and makes none."""
    made = []

    def pair_and_keep():
        if len(made) // 2 + 1 == fail_at:
            raise OSError(errno.EMFILE, "Too many open files")
        made.extend(loopback_pair())
        return made[-2:]

    monkeypatch.setattr(harness, "loopback_pair", pair_and_keep)
    return made


def keep_children(monkeypatch):
    """The list of every plant process the harness starts."""
    children = []
    spawn = harness._spawn_plant_process

    def spawn_and_keep(*args):
        children.append(spawn(*args))
        return children[-1]

    monkeypatch.setattr(harness, "_spawn_plant_process", spawn_and_keep)
    return children


def closed(socks):
    return [sock.fileno() for sock in socks] == [-1] * len(socks)


def refused_on_the_command_line(tmp_path, capsys):
    """What `run-twin` with `isolate` returns and writes on stderr."""
    scenario = tmp_path / "mission.json"
    scenario.write_text(json.dumps({"name": "mission", "mode": "twin",
                                    "clock": "wall", "duration_ms": 300,
                                    "steps": []}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"isolate": True}))
    code = main(["run-twin", "--scenario", str(scenario),
                 "--config", str(config)])
    return code, capsys.readouterr().err


def test_a_plant_process_that_cannot_start_is_refused_closing_every_socket(
        monkeypatch, tmp_path, capsys):
    def cannot_start(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    made = keep_links(monkeypatch)
    monkeypatch.setattr(harness, "_spawn_plant_process", cannot_start)
    reason = ("plant process could not start: [Errno 11] Resource "
              "temporarily unavailable")
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((ConfigError, reason), [])
    assert len(made) == 4 and closed(made)
    # the command line: exit code 2 with the reason, not a traceback
    code, err = refused_on_the_command_line(tmp_path, capsys)
    assert code == 2
    assert reason in err


def test_a_plant_process_that_exits_before_it_is_ready_is_refused_at_once(
        monkeypatch):
    # the child reads its options, then exits where it would say it is
    # ready: the parent sees its stdout close and does not wait out the
    # 15 s a silent child gets
    monkeypatch.setattr(harness, "_plant_process_argv", lambda: [
        sys.executable, "-S", "-c", "import sys; sys.stdin.read(); "
                                    "sys.exit(1)"])
    made = keep_links(monkeypatch)
    started = time.monotonic()
    raised, unclosed = raised_and_unclosed(mission(), RunConfig(isolate=True))
    assert time.monotonic() - started < 5.0
    assert raised == (ConfigError, "plant process exited with code 1 before "
                                   "it started")
    assert unclosed == []
    assert len(made) == 4 and closed(made)


def test_a_plant_process_that_never_says_it_is_ready_is_killed(monkeypatch):
    monkeypatch.setattr(harness, "_plant_process_argv", lambda: [
        sys.executable, "-S", "-c", "import sys, time; sys.stdin.read(); "
                                    "time.sleep(60)"])
    monkeypatch.setattr(harness, "READY_TIMEOUT_S", 0.2)
    children = keep_children(monkeypatch)
    raised, unclosed = raised_and_unclosed(mission(), RunConfig(isolate=True))
    assert raised == (ConfigError, "plant process not ready after 0.2 s")
    assert unclosed == []
    assert [child.returncode for child in children] == [-9]


def test_a_plant_process_that_never_reads_its_input_is_killed(monkeypatch):
    # its input outgrows a pipe's buffer, so writing it waits for a reader
    # that never comes: the wait is bounded as the ready byte's is, and
    # the child (kept only by the leaked-process check) is killed
    monkeypatch.setattr(harness, "_plant_process_argv", lambda: [
        sys.executable, "-S", "-c", "import time; time.sleep(60)"])
    monkeypatch.setattr(harness, "READY_TIMEOUT_S", 0.2)
    made = keep_links(monkeypatch)
    started = time.monotonic()
    raised, unclosed = raised_and_unclosed(long_script(),
                                           RunConfig(isolate=True))
    assert time.monotonic() - started < 5.0
    assert raised == (ConfigError, "plant process not ready after 0.2 s")
    assert unclosed == []
    assert len(made) == 4 and closed(made)


def test_a_plant_process_whose_code_cannot_be_made_leaves_nothing_open(
        monkeypatch):
    # making the child's input may fail with more than an OSError (a source
    # file edited since it was imported no longer compiles, say): the error
    # is raised as it is, and no socket or child is left behind
    def cannot_compile(*args):
        raise SyntaxError("invalid syntax")

    monkeypatch.setattr(harness, "_plant_process_input", cannot_compile)
    made = keep_links(monkeypatch)
    raised, unclosed = raised_and_unclosed(mission(), RunConfig(isolate=True))
    assert raised == (SyntaxError, "invalid syntax")
    assert unclosed == []
    assert len(made) == 4 and closed(made)


def test_an_unusable_recording_kills_the_plant_process_and_its_links(
        monkeypatch, tmp_path):
    # the parent checks the recording while the child starts; the refusal
    # is a FAIL verdict, with no child or socket left behind
    rec = tmp_path / "empty.rec"
    rec.write_text("")
    made = keep_links(monkeypatch)
    children = keep_children(monkeypatch)
    assert raised_and_unclosed(mission(recording=str(rec)),
                               RunConfig(isolate=True)) == (None, [])
    assert [(child.returncode is not None, child.stdout.closed)
            for child in children] == [(True, True)]
    assert len(made) == 4 and closed(made)


def test_a_second_link_that_cannot_be_made_closes_the_first(monkeypatch):
    made = keep_links(monkeypatch, fail_at=2)
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((ConfigError, "plant process link: [Errno 24] Too many open files"),
         [])
    assert len(made) == 2 and closed(made)


def test_a_link_that_cannot_be_made_is_refused_on_the_command_line(
        monkeypatch, tmp_path, capsys):
    keep_links(monkeypatch, fail_at=1)
    code, err = refused_on_the_command_line(tmp_path, capsys)
    assert code == 2
    assert "plant process link: [Errno 24] Too many open files" in err
    assert "Traceback" not in err


def test_an_isolated_plant_stops_at_the_parents_hang_up(monkeypatch):
    # the plant's half of an isolated run, on a thread here; its only timed
    # wait must be the deadline's, so nothing polls for the hang-up
    sleeps = []
    sleep_ms = WallRuntime.sleep_ms

    def recording_sleep(self, ms):
        sleeps.append(ms)
        return sleep_ms(self, ms)

    monkeypatch.setattr(WallRuntime, "sleep_ms", recording_sleep)
    (up, up_far), (down, down_far) = loopback_pair(), loopback_pair()
    # the plant owns its ends, as the child owns the descriptors it inherits
    opts = {"duration_ms": 1000, "up_fd": up_far.detach(),
            "down_fd": down_far.detach(), "measurements": [],
            "recording": None, "link_capacity": 16}
    exit_codes, readies = [], []
    plant = threading.Thread(
        target=lambda: exit_codes.append(plant_process_main(
            opts, lambda: readies.append(len(sleeps)))),
        name="plant-process-main")
    plant.start()
    up, down = SocketEndpoint(up), SocketEndpoint(down)
    assert decode_message(up.read_frame()) == status(0)  # the boot status
    # the uplink alone: no plant task but the watcher reads it, so only the
    # watcher can notice that it is gone
    up.close()
    plant.join(timeout=30.0)
    down.close()
    assert not plant.is_alive()
    assert exit_codes == [0]
    assert readies == [0]  # once, before any task ran
    assert sleeps == [opts["duration_ms"] + 2000]


def test_a_plant_process_that_never_exits_fails_the_run(monkeypatch):
    # the wait gives up on the child, which is then killed and reaped (the
    # process-leak fixture checks that)
    monkeypatch.setattr(harness, "_wait_for_exit",
                        lambda child, timeout_s: None)
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert result.ok is False
    assert result.failures == ["plant process never exited"]


def test_the_wait_for_a_plant_process_is_bounded():
    # the wait ends at EOF on the child's stdout, which its exit closes
    with subprocess.Popen([sys.executable, "-c", "import time; "
                                                 "time.sleep(60)"],
                          stdout=subprocess.PIPE) as child:
        try:
            assert harness._wait_for_exit(child, 0.05) is None
        finally:
            child.kill()
        assert harness._wait_for_exit(child, 5.0) == -9
