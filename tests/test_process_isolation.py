"""The plant gives identical results in-process and as a separate OS process.

Isolated runs put the whole plant in a forked child process and carry both
links over socket pairs; nothing about the protocol or the engine may care
about the difference. The parent makes both links and hands the child its
ends, with the recording it has already checked, so every way a start can
fail is the parent's to clean up. The child is a fork: what it inherits,
and what it must leave alone, is pinned here too.
"""

import ast
import errno
import gc
import hashlib
import json
import os
import pathlib
import resource
import signal
import socket
import threading
import time
import warnings

import pytest

from twinproto import control, harness, runtime, thread_log
from twinproto.cli import main
from twinproto.config import WAIT_MAX_S, RunConfig, parse_scenario
from twinproto.control import plant_process_main
from twinproto.errors import ConfigError
from twinproto.harness import record_session, run_scenario
from twinproto.messages import decode_message, status
from twinproto.runtime import WallRuntime
from twinproto.thread_log import ThreadDirection, read_thread_file
from twinproto.transport import SocketEndpoint


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
    rec = tmp_path / "cap.rec"
    captured = record_session(mission(mode="pt"), record_path=rec)
    assert captured.ok, captured.failures

    sc = mission(name="iso-dtp", mode="dtp", recording=str(rec),
                 expect={"final_status": "OFF", "min_statuses": 4})
    result = run_scenario(sc, RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.final_status == "OFF"
    assert result.statuses_seen == 4


@pytest.mark.parametrize("mode", ["dtp", "twin"])
def test_an_isolated_plant_plays_the_recording_its_parent_checked(
        monkeypatch, tmp_path, mode):
    # the child plays the list the parent parsed: a child that read the
    # file again would crash here, and fail the run. A twin's thread shows
    # the plant's frames, which must be those of the in-process run.
    rec = tmp_path / "cap.rec"
    assert record_session(mission(mode="pt"), record_path=rec).ok
    sc = mission(name="iso-rec", mode=mode, recording=str(rec),
                 expect={"final_status": "OFF", "min_statuses": 4})
    parent, parse_file = os.getpid(), thread_log._parse_file

    def parse_in_the_parent_only(path):
        if os.getpid() != parent:
            raise RuntimeError(f"the plant process read {path}")
        return parse_file(path)

    monkeypatch.setattr(thread_log, "_parse_file", parse_in_the_parent_only)
    seen = []
    for isolate in (False, True):
        thread = str(tmp_path / f"{isolate}.thread") if mode == "twin" \
            else None
        result = run_scenario(sc, RunConfig(isolate=isolate,
                                            thread_file=thread))
        assert result.ok, result.failures
        seen.append((result.final_status, result.statuses_seen,
                     thread and payload_walk(thread)[ThreadDirection.PT2DT]))
    assert seen[0] == seen[1]
    assert seen[0][:2] == ("OFF", 4)


def test_an_isolated_run_needs_no_pythonpath(monkeypatch):
    # the forked child runs the modules this process imported, so the
    # environment need not name the package
    monkeypatch.delenv("PYTHONPATH", raising=False)
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.final_status == "OFF"


def long_script(n=10000):
    """A wall twin whose measurement script holds `n` entries, which the
    child takes in memory. The script is done long before the last step
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
    """The list of every socket the harness's `socketpair` calls make; the
    call numbered `fail_at` (from 1) fails as if no descriptor were left,
    and makes none."""
    made = []
    socketpair = socket.socketpair

    def pair_and_keep():
        if len(made) // 2 + 1 == fail_at:
            raise OSError(errno.EMFILE, "Too many open files")
        made.extend(socketpair())
        return made[-2:]

    monkeypatch.setattr(socket, "socketpair", pair_and_keep)
    return made


def keep_children(monkeypatch):
    """The list of every plant process the harness forks, as the (pid,
    pipe) that `harness._end_plant_child` takes."""
    children = []
    start = harness._start_plant_process

    def start_and_keep(*args):
        started = start(*args)
        children.append(started[0])
        return started

    monkeypatch.setattr(harness, "_start_plant_process", start_and_keep)
    return children


def closed(socks):
    return [sock.fileno() for sock in socks] == [-1] * len(socks)


def reaped(pid):
    """True once this process has reaped its child `pid`; a child that has
    exited unreaped is reaped here, and counts as not reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_twin_on_the_command_line(tmp_path, capture):
    """What `run-twin` with `isolate` returns and writes on stderr, as the
    capture fixture `capture` reads it."""
    scenario = tmp_path / "mission.json"
    scenario.write_text(json.dumps({"name": "mission", "mode": "twin",
                                    "clock": "wall", "duration_ms": 300,
                                    "steps": []}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"isolate": True}))
    code = main(["run-twin", "--scenario", str(scenario),
                 "--config", str(config)])
    return code, capture.readouterr().err


def open_fds():
    return sorted(os.listdir("/dev/fd"))


def test_a_plant_process_that_cannot_start_is_refused_closing_every_socket(
        monkeypatch, tmp_path, capsys):
    # the fork fails as it does when no process can be made; its pipe is
    # closed with the sockets
    def cannot_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    made = keep_links(monkeypatch)
    monkeypatch.setattr(os, "fork", cannot_fork)
    reason = ("plant process could not start: [Errno 11] Resource "
              "temporarily unavailable")
    before = open_fds()
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((ConfigError, reason), [])
    assert open_fds() == before
    assert len(made) == 4 and closed(made)
    # the command line: exit code 2 with the reason, not a traceback
    code, err = run_twin_on_the_command_line(tmp_path, capsys)
    assert code == 2
    assert reason in err


def test_a_plant_process_that_raises_at_start_fails_the_run_at_once(
        monkeypatch, tmp_path, capfd):
    # the child writes its traceback and exits 1, closing its links: the
    # run ends on their loss, as at any plant exit, in a FAIL verdict
    def crash(*plant):
        raise RuntimeError("no plant here")

    monkeypatch.setattr(control, "plant_process_main", crash)
    children = keep_children(monkeypatch)
    started = time.monotonic()
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert time.monotonic() - started < 2.0
    assert result.ok is False
    assert "plant process exit code 1" in result.failures
    assert [reaped(pid) for pid, _ in children] == [True]
    err = capfd.readouterr().err
    assert err.count("Traceback") == 1
    assert err.endswith("RuntimeError: no plant here\n")
    # the command line: a failed run, exit code 1, not broken input
    code, err = run_twin_on_the_command_line(tmp_path, capfd)
    assert code == 1
    assert err.count("Traceback") == 1
    assert "RuntimeError: no plant here\n" in err


def test_a_raise_after_the_fork_reaps_the_child_and_closes_every_socket(
        monkeypatch):
    # the twin is assembled once the child is forked: a raise there hangs
    # up on the child and reaps it before it reaches the caller
    def broken_twin(*args, **kwargs):
        raise RuntimeError("no twin here")

    monkeypatch.setattr(harness, "assemble_twin", broken_twin)
    made = keep_links(monkeypatch)
    children = keep_children(monkeypatch)
    before = open_fds()
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((RuntimeError, "no twin here"), [])
    assert [reaped(pid) for pid, _ in children] == [True]
    assert len(made) == 4 and closed(made)
    assert open_fds() == before


def test_a_raise_out_of_an_isolated_run_reaps_the_child_and_closes_its_pipe(
        monkeypatch):
    # the run has ended, and the raise comes before its verdict: the child
    # is still reaped, and its pipe closed, before the caller sees the raise
    run_to_verdict = harness._run_to_verdict

    def then_raise(*args):
        run_to_verdict(*args)
        raise RuntimeError("raised after the run")

    monkeypatch.setattr(harness, "_run_to_verdict", then_raise)
    children = keep_children(monkeypatch)
    before = open_fds()
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((RuntimeError, "raised after the run"), [])
    [(pid, _)] = children
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert open_fds() == before


def test_an_isolated_burst_through_links_of_two_frames_passes():
    # each socket link holds at most 2 unsent frames, and its sender drains
    # them into the kernel whatever the twin's token holder waits for, so
    # the cross-direction cycle through the child does not deadlock, where
    # in one process four links of 2 frames stop this burst
    sc = mission(name="iso-burst", duration_ms=5000,
                 steps=[{"at_ms": 0, "do": "command", "value": 0}] * 200,
                 expect={"min_statuses": 201, "uplink_frames": 200})
    result = run_scenario(sc, RunConfig(isolate=True, queue_capacity=2,
                                        run_timeout_s=10.0))
    assert result.ok, result.failures


def test_an_isolated_burst_past_the_cycle_bound_fails_at_the_run_timeout(
        monkeypatch):
    # past the cycle's bound (see mapek) the burst stalls, and the run
    # fails as it does in one process: at `run_timeout_s`, naming the stuck
    # tasks. The child keeps no bound of its own that could end it first,
    # hang up on the parent and leave only a failed send to report.
    # `stop` then waits UNWIND_S for the writer blocked on the downlink;
    # shortened here.
    monkeypatch.setattr(runtime, "UNWIND_S", 0.1)
    sc = mission(name="iso-stall", duration_ms=50,
                 steps=[{"at_ms": 0, "do": "command", "value": 0}] * 3000,
                 expect={})
    result = run_scenario(sc, RunConfig(isolate=True, queue_capacity=2,
                                        run_timeout_s=2.5))
    assert result.failures[0].startswith("tasks never finished: ")
    assert "op:script" in result.failures[0]
    assert not any("send failed" in failure for failure in result.failures)


def test_the_plant_process_holds_only_stdio_its_links_and_its_pipe(
        monkeypatch):
    # the child reports its open descriptors on its uplink; the one that is
    # neither stdio nor a link is the pipe whose read end the parent holds
    def report_fds(up, down, *plant):
        up_fd, down_fd = up._sock.fileno(), down._sock.fileno()
        fds = {}
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                fds[fd] = os.fstat(fd).st_ino
            except OSError:  # the listing's own descriptor, closed by now
                pass
        os.write(up_fd, json.dumps(
            [up_fd, down_fd, sorted(fds.items())]).encode())
        return 0

    monkeypatch.setattr(control, "plant_process_main", report_fds)
    made = keep_links(monkeypatch)
    child, up, down = harness._start_plant_process(mission(), None, 16)
    pipe = os.fstat(child[1]).st_ino
    try:
        report = b""
        while chunk := made[0].recv(65536):  # EOF at the child's exit
            report += chunk
    finally:
        up.close()
        down.close()
        rc = harness._end_plant_child(child, 5.0)
    assert rc == 0
    up_fd, down_fd, fds = json.loads(report)
    fds = dict(fds)
    assert {up_fd, down_fd} <= fds.keys()
    assert [ino for fd, ino in fds.items()
            if fd not in (0, 1, 2, up_fd, down_fd)] == [pipe]


def test_an_isolated_twins_thread_file_holds_each_record_once(
        monkeypatch, tmp_path):
    # the thread file is open, with a record written, when the child is
    # forked, and the child shares its open file: a child that wrote to it,
    # or went on with the parent's session instead of exiting, would show
    # there. It must hold each record once and hash to the run's digest.
    open_log = harness._open_thread_log

    def open_with_a_note(scenario, cfg):
        log = open_log(scenario, cfg)
        log.append_note(0, "before the fork")
        return log

    monkeypatch.setattr(harness, "_open_thread_log", open_with_a_note)
    path = tmp_path / "iso.thread"
    result = run_scenario(mission(), RunConfig(thread_file=str(path),
                                               isolate=True))
    assert result.ok, result.failures
    data = path.read_bytes()
    assert data.count(b" kind=NOTE ") == 1
    assert len(data.splitlines()) == result.thread_lines
    assert hashlib.sha256(data).hexdigest() == result.thread_sha256


def test_the_plant_process_runs_a_monkeypatched_measurement_script(
        monkeypatch):
    # the child is a fork, so it runs the functions this process has, as
    # patched, not the code on disk: this one sends the script's first
    # entry only
    script = control.run_measurement_script
    monkeypatch.setattr(control, "run_measurement_script",
                        lambda rt, sensor, conn, entries:
                        script(rt, sensor, conn, entries[:1]))
    sc = mission(measurements=[[100, 7], [110, 8], [120, 9]],
                 expect={"final_status": "OFF"})
    result = run_scenario(sc, RunConfig(isolate=True))
    assert result.ok, result.failures
    assert result.measurements_seen == 1


def with_a_thread_holding(lock, run):
    """What `run()` returns while another thread holds `lock`."""
    taken, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            taken.set()
            release.wait(timeout=30.0)

    holder = threading.Thread(target=hold, name="lock-holder")
    holder.start()
    try:
        assert taken.wait(timeout=30.0)
        return run()
    finally:
        release.set()
        holder.join(timeout=30.0)
        assert not holder.is_alive()


def test_an_isolated_run_beside_another_thread_ends_in_a_verdict():
    result = with_a_thread_holding(
        threading.Lock(), lambda: run_scenario(mission(),
                                               RunConfig(isolate=True)))
    assert result.ok, result.failures
    assert result.final_status == "OFF"


def test_a_child_blocked_on_a_lock_held_at_the_fork_fails_the_run(
        monkeypatch):
    # the thread that holds the lock does not exist in the child, so the
    # child never exits: the parent's wait for it ends at `run_timeout_s`,
    # and the child is killed and reaped
    lock = threading.Lock()

    def blocked(*plant):
        with lock:
            return 0

    monkeypatch.setattr(control, "plant_process_main", blocked)
    children = keep_children(monkeypatch)
    sc = mission(duration_ms=200, steps=[], expect={})
    started = time.monotonic()
    result = with_a_thread_holding(
        lock, lambda: run_scenario(sc, RunConfig(isolate=True,
                                                 run_timeout_s=1.0)))
    assert time.monotonic() - started < 10.0
    assert result.ok is False
    assert result.failures == ["plant process never exited"]
    assert [reaped(pid) for pid, _ in children] == [True]


def test_a_second_link_that_cannot_be_made_closes_the_first(monkeypatch):
    made = keep_links(monkeypatch, fail_at=2)
    assert raised_and_unclosed(mission(), RunConfig(isolate=True)) == \
        ((ConfigError, "plant process link: [Errno 24] Too many open files"),
         [])
    assert len(made) == 2 and closed(made)


def test_a_link_that_cannot_be_made_is_refused_on_the_command_line(
        monkeypatch, tmp_path, capsys):
    keep_links(monkeypatch, fail_at=1)
    code, err = run_twin_on_the_command_line(tmp_path, capsys)
    assert code == 2
    assert "plant process link: [Errno 24] Too many open files" in err
    assert "Traceback" not in err


def run_plant_until_hang_up(measurements=()):
    """`plant_process_main` on a thread here, handed the far-end sockets of
    two socket pairs this test holds, as the forked child is: the test reads
    the plant's boot status, then closes the uplink. Returns the plant's
    exit codes and what it raised."""
    (up, up_far), (down, down_far) = socket.socketpair(), socket.socketpair()
    # a plant that fails leaves this test's reads waiting: they time out
    up.settimeout(10.0)
    down.settimeout(10.0)
    # the plant owns its ends, as the child owns the sockets it inherits
    plant_up = SocketEndpoint(up_far, name="plant:up")
    plant_down = SocketEndpoint(down_far, name="plant:down")
    exit_codes, raised = [], []

    def run_plant():
        try:
            exit_codes.append(plant_process_main(
                plant_up, plant_down, list(measurements), None, 16))
        except BaseException as exc:
            raised.append(exc)

    plant = threading.Thread(target=run_plant, name="plant-process-main")
    plant.start()
    up, down = SocketEndpoint(up), SocketEndpoint(down)
    assert decode_message(up.read_frame()) == status(0)  # the boot status
    # the uplink alone: no plant task reads it, so only the thread that
    # called `plant_process_main` can notice that it is gone
    up.close()
    plant.join(timeout=30.0)
    down.close()
    assert not plant.is_alive()
    return exit_codes, raised


def test_an_isolated_plant_stops_at_the_parents_hang_up(monkeypatch):
    # the hang-up alone ends it: no timed wait bounds its life, and
    # nothing polls for the hang-up
    sleeps = []
    sleep_ms = WallRuntime.sleep_ms

    def recording_sleep(self, ms):
        sleeps.append(ms)
        return sleep_ms(self, ms)

    monkeypatch.setattr(WallRuntime, "sleep_ms", recording_sleep)
    exit_codes, raised = run_plant_until_hang_up()
    assert raised == []
    assert exit_codes == [0]
    assert sleeps == []


def test_a_plant_whose_task_crashed_exits_1_naming_the_task(
        monkeypatch, capsys):
    def broken_script(*args):
        raise RuntimeError("script broke")

    monkeypatch.setattr(control, "run_measurement_script", broken_script)
    exit_codes, raised = run_plant_until_hang_up(measurements=[(10, 1)])
    assert raised == []
    assert exit_codes == [1]
    assert capsys.readouterr().err == \
        "plant task measurement-script: RuntimeError('script broke')\n"


def test_a_plant_process_that_never_exits_fails_the_run(monkeypatch):
    # the parent's wait for a child that outlives the run ends at
    # `run_timeout_s`; the child is then killed and reaped
    monkeypatch.setattr(control, "plant_process_main",
                        lambda *plant: time.sleep(60))
    children = keep_children(monkeypatch)
    sc = mission(duration_ms=200, steps=[], expect={})
    started = time.monotonic()
    result = run_scenario(sc, RunConfig(isolate=True, run_timeout_s=1.0))
    assert time.monotonic() - started < 10.0
    assert result.failures == ["plant process never exited"]
    assert [reaped(pid) for pid, _ in children] == [True]


def test_the_wait_for_a_plant_process_is_bounded(monkeypatch):
    # the wait ends at EOF on the child's pipe, which its exit closes, or
    # at its timeout, when it kills the child; either way it reaps the
    # child and closes the pipe
    before = open_fds()

    def end(plant_main, timeout_s):
        monkeypatch.setattr(control, "plant_process_main", plant_main)
        child, up, down = harness._start_plant_process(mission(), None, 16)
        up.close()
        down.close()
        started = time.monotonic()
        rc = harness._end_plant_child(child, timeout_s)
        assert reaped(child[0])
        return rc, time.monotonic() - started

    rc, waited = end(lambda *plant: time.sleep(60), 0.05)
    assert rc is None and waited < 5.0
    rc, waited = end(lambda *plant: 7, 5.0)
    assert rc == 7 and waited < 5.0
    assert open_fds() == before


def test_the_wait_for_a_plant_process_takes_the_longest_run_timeout(
        monkeypatch):
    # the longest `run_timeout_s` a config takes is far past the longest
    # wait `poll` takes, a C int of milliseconds
    monkeypatch.setattr(control, "plant_process_main", lambda *plant: 7)
    child, up, down = harness._start_plant_process(mission(), None, 16)
    up.close()
    down.close()
    assert harness._end_plant_child(child, WAIT_MAX_S) == 7
    assert reaped(child[0])


def test_an_isolated_run_past_1024_descriptors_ends_in_a_verdict(
        monkeypatch):
    # `select` refuses a descriptor at or past FD_SETSIZE (1024); the wait
    # for the child must take its pipe there, and reap it
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1100:
        pytest.skip(f"the hard RLIMIT_NOFILE, {hard}, leaves no room for "
                    f"descriptors past 1024")
    children = keep_children(monkeypatch)
    held = []
    try:
        if soft != resource.RLIM_INFINITY and soft < 1100:
            resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
        while not held or held[-1] < 1024:  # the lowest free one each time
            held.append(os.open(os.devnull, os.O_RDONLY))
        before = open_fds()
        result = run_scenario(mission(), RunConfig(isolate=True))
        assert result.ok, result.failures
        [(pid, pipe)] = children
        assert pipe > 1024 and reaped(pid)
        assert open_fds() == before
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_a_plant_process_that_exits_cleanly_at_start_fails_the_run(
        monkeypatch):
    # exit code 0 with no plant served: the lost links fail the run, as at
    # any plant exit, and the child is reaped
    monkeypatch.setattr(control, "plant_process_main", lambda *plant: 0)
    children = keep_children(monkeypatch)
    started = time.monotonic()
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert time.monotonic() - started < 2.0
    assert result.ok is False
    assert any("lost its link" in failure for failure in result.failures)
    assert not any(failure.startswith("plant process")
                   for failure in result.failures)
    assert [reaped(pid) for pid, _ in children] == [True]


def test_a_plant_process_killed_by_a_signal_fails_the_run(monkeypatch):
    # a signal the parent did not send is the child's exit code, negated,
    # and not "never exited": only the parent's own kill reads as that
    def terminated(*plant):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(60)

    monkeypatch.setattr(control, "plant_process_main", terminated)
    children = keep_children(monkeypatch)
    result = run_scenario(mission(), RunConfig(isolate=True))
    assert result.ok is False
    assert f"plant process exit code {-signal.SIGTERM}" in result.failures
    assert "plant process never exited" not in result.failures
    assert [reaped(pid) for pid, _ in children] == [True]


def test_only_one_function_reaps_or_kills_a_plant_process():
    # `os.fork` appears once in the package, in `_start_plant_process`, and
    # `waitpid` and SIGKILL once each, both in `_end_plant_child`, so every
    # child is started one way, and no pid is reaped twice or signalled
    # after its reap
    src = pathlib.Path(harness.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in (
                        "fork", "waitpid", "SIGKILL"):
                    found.append((path.name, func.name, node.attr))
    assert sorted(found) == [("harness.py", "_end_plant_child", "SIGKILL"),
                             ("harness.py", "_end_plant_child", "waitpid"),
                             ("harness.py", "_start_plant_process", "fork")]


def test_the_plant_process_starts_no_task_and_keeps_no_timer():
    # the parent alone ends an isolated plant, by hanging up: the child's
    # entry spawns nothing and waits on no clock, so the parent's
    # `run_timeout_s` is the run's one bound
    tree = ast.parse(pathlib.Path(control.__file__).read_text())
    [entry] = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "plant_process_main"]
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(entry) if isinstance(node, ast.Call)}
    assert "read_frame" in called  # the one read that waits for hang-up
    assert called.isdisjoint({"spawn", "sleep_ms", "pause"})


def calls_by_function(node, func=None):
    """(enclosing function, called name) of each call under `node`, where
    the name is what a plain or attribute call names last."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            called = child.func
            yield func, getattr(called, "attr", getattr(called, "id", None))
        yield from calls_by_function(child, func)


def test_only_one_function_makes_a_socket_link():
    # nothing in the package listens, accepts, binds or connects: an
    # isolated run's links are the socket pairs `_start_plant_process`
    # makes before it forks, and no port is ever opened
    src = pathlib.Path(harness.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for func, name in calls_by_function(ast.parse(path.read_text())):
            if name in ("listen", "accept", "bind", "connect",
                        "create_connection", "socketpair"):
                found.append((path.name, func, name))
    assert found == [("harness.py", "_start_plant_process", "socketpair")]
