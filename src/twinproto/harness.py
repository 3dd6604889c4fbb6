"""Session harness: stand up a deployment, run the operator script, judge it.

One entry point per concern:

    run_scenario   execute a scenario end to end, return a SessionResult
    replay_thread  rebuild a counterpart's trajectory from a record file
    run_suite      execute every scenario in a directory (the bundled gate)

The harness owns everything the component modules deliberately do not:
wiring links between the physical side and the twin side, tapping those
links into the interchange record, pacing the operator's steps, tearing the
whole thing down, and reducing the run to a machine-checkable verdict.

Mode map (who hangs off the plant's two external links), and the hop
chains `_wire` builds, each direction's relays in frame order:

    pt      real sensor, operator holds both links
    dtp     emulated sensor behind the bridge, operator holds both links
    (both)  the operator watches the uplink through a shadow's engine,
            untapped, whose model the result leaves out
            PT2DT sensor-driver, tx-driver, op-watch
            DT2PT tx-driver, sensor-driver, device
    shadow  ingest link feeds a monitor/analyze deployment; the command
            link stays with the operator, untapped; no uplink object
            PT2DT sensor-driver, tx-driver, tap, shadow-ingest
            DT2PT tx-driver, sensor-driver, device
    twin    ingest link feeds the full engine; the command link IS the
            engine's uplink; the operator talks to the model only
            PT2DT sensor-driver, tx-driver, tap, twin-ingest
            DT2PT twin-uplink, tap, tx-driver, sensor-driver, device

Under isolation the plant's hops (sensor-driver, tx-driver, device) run in
the plant process, and the chains hold only this process's.
"""

from __future__ import annotations

import contextlib
import gc
import os
import select
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import control
from .config import (EXPECTATIONS, OBSERVED, Expectations, RunConfig,
                     Scenario, load_scenario)
from .control import EXIT_RECORDING_DRY, _start_plant
from .devices import DeviceDriver
from .errors import (CodecError, ConfigError, ConnectionClosed, KernelHalted,
                     RecordingMissing, ThreadLogError)
from .mapek import DigitalTwin, ModelKeeper, assemble_shadow, assemble_twin
from .messages import command, decode_message, encode_message, status
from .runtime import ClockMode, make_runtime
from .statemachine import STATE_OF_CODE, State
from .thread_log import (
    TappedEndpoint,
    ThreadDirection,
    ThreadLog,
    load_checked_recordings,
    read_thread_file,
    thread_digest,
    where_in_file,
)
from .transport import (Protocol, SocketEndpoint, connect_pair,
                        loopback_pair)


class _Verdict:
    """`fail` and `summary_line` for a result with `ok` and `failures`."""

    def fail(self, msg):
        self.ok = False
        self.failures.append(msg)

    def summary_line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        tail = "" if self.ok else "  [" + "; ".join(self.failures) + "]"
        return f"{verdict} {self._describe()}{tail}"


@dataclass
class SessionResult(_Verdict):
    name: str
    mode: str
    clock: str
    seed: int
    ok: bool = True
    failures: list = field(default_factory=list)
    final_status: str | None = None
    model_state: str | None = None
    converged: bool | None = None
    statuses_seen: int = 0
    measurements_seen: int = 0
    pt2dt_frames: int = 0
    dt2pt_frames: int = 0
    gate_committed: int = 0
    gate_rejected: int = 0
    thread_lines: int = 0
    thread_sha256: str | None = None
    elapsed_s: float = 0.0

    def _describe(self):
        return (f"{self.name} mode={self.mode} clock={self.clock} "
                f"seed={self.seed} status={self.final_status} "
                f"frames={self.pt2dt_frames}/{self.dt2pt_frames} "
                f"({self.elapsed_s:.2f}s)")


def _expected(expect: Expectations, result: SessionResult):
    """(row, got, want) for every row of `EXPECTATIONS` the scenario sets."""
    for row in EXPECTATIONS:
        want = getattr(expect, row.key)
        if want is not None:
            yield row, getattr(result, row.result), want


def expectations_settled(expect: Expectations, result: SessionResult) -> bool:
    """True once every row that waits is met and at least one row waits."""
    waits = [row.poll(got, want)
             for row, got, want in _expected(expect, result)]
    waits = [met for met in waits if met is not None]
    return bool(waits) and all(waits)


def _check_expectations(expect: Expectations, result: SessionResult):
    for row, got, want in _expected(expect, result):
        if not row.verdict(got, want):
            result.fail(f"{row.key.replace('_', ' ')} {got}, want {want}")


class _Hop(NamedTuple):
    """One relay on a direction's chain. `counts()` reads what it has taken
    in, handed on and skipped; `loop` is the driver whose receive loop
    keeps the link loss that ended it (`closed_by`), if the hop reports
    one; the last PT2DT hop's `observer` is the `DigitalTwin` that took
    the frames in, which counts them in `monitor_stats` and keeps
    `last_observed`."""

    name: str
    counts: Callable[[], tuple]
    loop: DeviceDriver | None = None
    observer: object = None


def _tap(log, direction):
    """The tap on `direction`: it records each frame it hands on."""
    def counts():
        frames = log.frame_counts()[direction]
        return frames, frames, 0
    return _Hop("tap", counts)


@dataclass
class _Wiring:
    """What `_wire` stood up: the operator's ends of the plant's links, what
    hangs off them, and each direction's chain of hops."""

    up: object = None
    down: object = None
    recording_path: str | None = None  # the emulator's recording, if any
    recording_frames: int = 0
    child: tuple | None = None  # the plant process's (pid, pipe)
    sender: object = None  # the task that sends on `down`, if it is a socket
    log: ThreadLog | None = None
    twin: DigitalTwin | None = None
    pt2dt: tuple = ()
    dt2pt: tuple = ()


def check_run_config(scenario: Scenario, cfg: RunConfig):
    """Raise ConfigError if `cfg` cannot run `scenario`; touches nothing."""
    if cfg.thread_file and scenario.mode not in OBSERVED:
        # the operator holds both links of a pt or dtp run: nothing taps
        # them, so there is no thread to write
        raise ConfigError(f"thread_file needs a shadow or twin run; a "
                          f"{scenario.mode} run keeps no thread")
    if cfg.isolate and scenario.clock is not ClockMode.WALL:
        raise ConfigError("isolated runs need the wall clock; "
                          "lockstep scheduling cannot cross processes")


def _open_thread_log(scenario: Scenario, cfg: RunConfig):
    """A shadow or twin run's ThreadLog, else None. Raises ConfigError
    naming `cfg.thread_file` if that file cannot be written."""
    if scenario.mode not in OBSERVED:
        return None
    try:
        return ThreadLog(path=cfg.thread_file)
    except OSError as exc:
        raise ConfigError(f"cannot write thread_file {cfg.thread_file}: "
                          f"{exc.strerror}") from None


def run_scenario(scenario: Scenario, config: RunConfig | None = None) -> SessionResult:
    cfg = config if config is not None else RunConfig()
    check_run_config(scenario, cfg)
    log = _open_thread_log(scenario, cfg)  # before any task or child starts
    result = SessionResult(scenario.name, scenario.mode, scenario.clock.value,
                           scenario.seed)
    started = time.monotonic()
    wiring = _Wiring(log=log)
    plant_exit = 0  # an in-process plant has none
    try:
        rt = make_runtime(scenario.clock, scenario.seed)
        try:
            _wire(rt, scenario, cfg, wiring)
        except RecordingMissing as exc:  # no task or child process is left
            result.fail(str(exc))
            result.elapsed_s = time.monotonic() - started
            return result
        _drive(rt, scenario, cfg, wiring, result)
        _collect(wiring, result)
    finally:
        try:  # a raise too: the plant's child must not outlive the run
            if wiring.child is not None:
                wiring.up.close()
                wiring.down.close()
                plant_exit = _end_plant_child(wiring.child,
                                              cfg.run_timeout_s)
                if wiring.sender is not None:
                    # a send the child left blocked failed at its exit, so
                    # the sender has ended or is ending: the socket is
                    # released before the run returns or raises
                    wiring.sender.thread.join()
        finally:
            if log is not None:
                log.close()  # the thread file's one flush, on every path
    if plant_exit is None:
        result.fail("plant process never exited")
    elif plant_exit == EXIT_RECORDING_DRY:  # the count stayed in the child
        result.fail(_ran_dry(wiring))
    elif plant_exit != 0:
        result.fail(f"plant process exit code {plant_exit}")
    if log is not None:
        records = log.records
        result.thread_lines = len(records)
        result.thread_sha256 = thread_digest(records)
        _check_record(wiring, result)
    _check_expectations(scenario.expect, result)
    result.elapsed_s = time.monotonic() - started
    return result


def _wire(rt, scenario: Scenario, cfg: RunConfig, wiring: _Wiring):
    """Fill `wiring`: links, then the observing deployment, then the plant
    (in-process), then the hop chains: the one place that names a shape's
    hops.

    The recording is checked first, before any link, task or child
    exists; an isolated plant's child then loads its own copy. `wiring`
    holds the child from its fork on, so the caller ends it whatever
    raises after.
    """
    log = wiring.log
    wiring.recording_path = _recording_path(scenario)
    recording = load_checked_recordings(wiring.recording_path)
    wiring.recording_frames = len(recording) if recording else 0
    # who holds the far ends of the plant's two links depends on mode. With
    # isolation on, the plant lives in a child OS process and the links are
    # real loopback TCP; otherwise everything shares this runtime.
    if cfg.isolate:
        wiring.child, wiring.up, wiring.down = _start_plant_process(
            scenario, cfg.queue_capacity)
        wiring.sender = wiring.down.start_sender(rt, cfg.queue_capacity)
    else:
        up_plant, wiring.up = connect_pair(rt, "link:pt-up", "link:peer-up",
                                           Protocol.TCP, cfg.queue_capacity)
        wiring.down, down_plant = connect_pair(rt, "link:peer-down",
                                               "link:pt-down", Protocol.TCP,
                                               cfg.queue_capacity)
    up_peer, down_peer = wiring.up, wiring.down

    down = ()  # no twin: the operator writes the commands, untapped
    if log is None:  # pt, dtp: the operator watches the plant's uplink
        # through a shadow's engine, which `_drive` starts; the link is
        # the operator's, so the watch reports no loss: the plant's
        # drivers, or the plant process's exit code, report it
        reader = DeviceDriver(up_peer, command_set=frozenset(),
                              name="op-watch")
        up = (_Hop(reader.name, reader.stats.received,
                   observer=DigitalTwin(rt, ModelKeeper(), reader)),)
    else:
        ingest = TappedEndpoint(up_peer, log, rt,
                                read_dir=ThreadDirection.PT2DT)
        if scenario.mode == "twin":
            uplink = TappedEndpoint(down_peer, log, rt,
                                    write_dir=ThreadDirection.DT2PT)
            wiring.twin = assemble_twin(
                rt, None, ingest, uplink, thread_log=log,
                twinning_period_ms=cfg.twinning_period_ms)
            sender = wiring.twin.uplink_driver
            down = (_Hop(sender.name, sender.stats.forwarded, sender),
                    _tap(log, ThreadDirection.DT2PT))
        else:
            wiring.twin = assemble_shadow(rt, ingest)
        reader = wiring.twin.ingest_driver
        up = (_tap(log, ThreadDirection.PT2DT),
              _Hop(reader.name, reader.stats.received, reader,
                   wiring.twin))

    if not cfg.isolate:
        plant = _start_plant(rt, recording, up_plant, down_plant,
                             scenario.measurements or None,
                             cfg.queue_capacity)
        sensor, tx = plant.sensor_driver, plant.tx_driver
        up = (_Hop(sensor.name, sensor.stats.received, sensor),
              _Hop(tx.name, tx.stats.forwarded, tx), *up)
        down += (_Hop(tx.name, tx.stats.received, tx),
                 _Hop(sensor.name, sensor.stats.forwarded, sensor),
                 _Hop("device", plant.device_stats.counts))
    wiring.pt2dt, wiring.dt2pt = up, down


def _recording_path(scenario: Scenario):
    # a recording means the plant runs on the emulator, whatever is attached
    # above it; dtp is just the bare-operator case of that (pt takes none)
    if scenario.recording:
        return str(scenario.resolve(scenario.recording))
    return None


def _drive(rt, scenario: Scenario, cfg: RunConfig, wiring: _Wiring,
           result: SessionResult):
    """Run the operator's script to the end or to settling, then tear down."""
    twin = wiring.twin
    if twin is None:  # pt/dtp: the operator holds the plant's uplink
        rt.spawn(wiring.pt2dt[-1].observer.ingest_loop(), name="op:watch")

    def apply_step(step):
        if step.action == "command":
            if twin is not None and twin.has_uplink:
                twin.send_command(command(step.value))
            else:
                wiring.down.write_frame(encode_message(command(step.value)))
        elif step.action == "inject":
            twin.inject_model_change(command(step.value))
        else:  # set_model: direct model-state edit
            twin.inject_model_change(status(step.value))

    def script():
        t0 = rt.now_ns()
        for step in scenario.steps:
            delay = step.at_ms - rt.ms_since(t0)
            if delay > 0:
                rt.sleep_ms(delay)
            apply_step(step)
        while rt.ms_since(t0) < scenario.duration_ms:
            _collect(wiring, result)
            if (expectations_settled(scenario.expect, result)
                    or _link_losses(wiring)):
                break
            rt.sleep_ms(2)

    def operator():
        # the operator's steps write the uplink inline (a twin's engine runs
        # on this task), so a closed link can end the script anywhere; every
        # path still tears the session down
        try:
            script()
        except ConnectionClosed as exc:
            if not rt.stopping:  # else a halted kernel closed the links
                result.fail(f"op:script lost its link: {exc}")
        finally:
            if not rt.stopping:
                for loss in _link_losses(wiring):
                    result.fail(loss)
            wiring.up.close()
            wiring.down.close()
            rt.shutdown()  # closes an in-process plant's links too

    rt.spawn(operator, name="op:script")
    _run_to_verdict(rt, cfg.run_timeout_s, result)
    for hop in wiring.dt2pt:  # only an emulator leaves commands unanswered
        taken, handed, skipped = hop.counts()
        if taken > handed + skipped:
            result.fail(_ran_dry(wiring, taken - handed - skipped))


def _link_losses(wiring: _Wiring) -> list:
    """One failure reason per driver whose receive loop a closed link ended;
    every driver that runs one is on the PT2DT chain.

    Read before teardown, every entry is a link lost mid-run. A socket
    downlink whose sender lost frames the writers had handed it is one too.
    """
    losses = [f"{hop.name} lost its link: {hop.loop.closed_by}"
              for hop in wiring.pt2dt
              if hop.loop is not None and hop.loop.closed_by is not None]
    if isinstance(wiring.down, SocketEndpoint) and wiring.down.send_failed:
        losses.append(f"{wiring.down.name}: send failed")
    return losses


def _ran_dry(wiring: _Wiring, unanswered=None) -> str:
    """Failure reason for an emulator that ran out of recorded responses."""
    what = "commands" if unanswered is None else f"{unanswered} commands"
    return (f"recording {wiring.recording_path} ran dry: all "
            f"{wiring.recording_frames} frames served, {what} unanswered")


def _collect(wiring: _Wiring, result: SessionResult):
    """Read live deployment state into `result`.

    Called from every settle poll, so it takes no digest and copies no
    records: every read is a field or a lock-guarded counter.
    """
    observer = wiring.pt2dt[-1].observer
    stats, final = observer.monitor_stats, observer.last_observed
    twin = wiring.twin
    if twin is not None:
        result.model_state = twin.model_state().name
        result.converged = twin.converged
        if twin.gate is not None:
            result.gate_committed = twin.gate.committed
            result.gate_rejected = twin.gate.rejected
    result.statuses_seen = stats.statuses
    result.measurements_seen = stats.measurements
    result.final_status = final.name if final is not None else None
    if wiring.log is not None:
        counts = wiring.log.frame_counts()
        result.pt2dt_frames = counts[ThreadDirection.PT2DT]
        result.dt2pt_frames = counts[ThreadDirection.DT2PT]


def _run_to_verdict(rt, timeout_s, result):
    """Run the runtime to the end; a halted kernel is a failure, not a raise."""
    try:
        stragglers = rt.run(timeout=timeout_s)
    except KernelHalted as exc:
        stragglers = []
        result.fail(str(exc))
    if stragglers:
        result.fail(f"tasks never finished: {stragglers}")
    for task_name, err in rt.task_errors():
        result.fail(f"task {task_name} crashed: {err!r}")


def _check_record(wiring, result):
    """Every frame the twin side read or wrote is in the record. A tap is
    the connection of the twin's driver beside it, so both count the same
    frames: the ingest loop after the PT2DT tap takes in what that tap
    hands on, and the uplink driver before a DT2PT tap hands on what that
    tap takes in. With no DT2PT tap, as in a shadow, none is recorded."""
    tap, ingest = wiring.pt2dt[-2:]  # PT2DT ends in the ingest loop
    recorded, saw = tap.counts()[1], ingest.counts()[0]
    if recorded != saw:
        result.fail(f"record incomplete: {recorded} "
                    f"ingest frames recorded, driver saw {saw}")
    if not any(hop.name == "tap" for hop in wiring.dt2pt):
        if result.dt2pt_frames != 0:
            result.fail(f"{result.mode} produced {result.dt2pt_frames} "
                        f"uplink frames")
        return
    uplink, tap = wiring.dt2pt[:2]  # DT2PT starts at the uplink driver
    recorded, sent = tap.counts()[0], uplink.counts()[1]
    if recorded != sent:
        result.fail(f"record incomplete: {recorded} "
                    f"uplink frames recorded, driver sent {sent}")


def check_recordable(scenario: Scenario, cfg: RunConfig) -> Scenario:
    """Raise ConfigError if `record` cannot run `scenario` under `cfg`;
    touches nothing. Returns the scenario it runs: a pt one as a shadow."""
    for step in scenario.steps:
        if step.action != "command":
            raise ConfigError("recording scenarios may only use command steps")
    if _recording_path(scenario) is not None:
        raise ConfigError("record needs a real-backed run; this scenario "
                          "plays a recording")
    lifted = replace(scenario, mode="shadow") if scenario.mode == "pt" \
        else scenario
    check_run_config(lifted, cfg)
    return lifted


def record_session(scenario: Scenario, config: RunConfig | None = None, *,
                   record_path) -> SessionResult:
    """Run a real-backed observing session with its thread at `record_path`.

    A recording is a thread file, which loads straight back as emulator
    recordings: capture once against the real sensor, replay forever. A pt
    scenario runs as a shadow. A config that names its own thread file
    keeps it, and the file is copied to `record_path` afterwards; the
    record path is opened before the run, so one that cannot be written is
    refused with nothing run.
    """
    cfg = config if config is not None else RunConfig()
    lifted = check_recordable(scenario, cfg)
    if not cfg.thread_file or \
            Path(cfg.thread_file).resolve() == Path(record_path).resolve():
        return run_scenario(lifted, replace(cfg, thread_file=str(record_path)))
    made = not Path(record_path).exists()
    try:
        out = open(record_path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write record file {record_path}: "
                          f"{exc.strerror}") from None
    with out:
        try:
            result = run_scenario(lifted, cfg)
        except ConfigError:  # refused before it ran: leave no recording
            if made:
                Path(record_path).unlink()
            raise
        with open(cfg.thread_file, "rb") as thread:
            shutil.copyfileobj(thread, out)
    return result


# ---------------------------------------------------------------------------
# Isolated plant process
# ---------------------------------------------------------------------------

# The plant's child is a fork of this process (`_start_plant_process`), so
# isolation is POSIX-only. This process holds the read end of a pipe whose
# write end only the child keeps, and which carries nothing: EOF on it is
# the child's exit, and `_end_plant_child` waits for that in one `poll`,
# with no thread and no loop.


def _start_plant_process(scenario: Scenario, link_capacity: int):
    """Fork the plant's child on the far ends of two loopback links that
    this process makes: (child, up_peer, down_peer), where `child` is the
    (pid, pipe) that `_end_plant_child` takes, `pipe` the read end of the
    child's pipe. A refusal is a ConfigError and leaves no socket or pipe
    open and no child running.

    The fork's hazards, and how they are settled:
    - Output: this process flushes `sys.stdout` and `sys.stderr` first, so
      the child inherits no pending bytes. The child writes only its own
      failure lines, through a `sys.stderr` of its own on descriptor 2,
      and flushes them before `os._exit`, which flushes nothing else: a
      file this process has open, such as the thread file, is written by
      this process alone. The thread file's buffer is empty here anyway:
      no record is appended before `_drive` starts the tasks.
    - Descriptors: the child closes every one but stdio, its two links and
      its pipe, from a list taken before the fork, so that it closes
      exactly what was open.
    - Objects: the child runs this process's modules as they are, a
      monkeypatched function included. It freezes the garbage collector's
      view of what it inherited (`gc.freeze`), so nothing of this process
      is finalized in it, and it never unwinds this process's frames.
    - Threads: only the forking thread lives on in the child, and a lock
      another thread held at the fork stays held there. A child that
      blocks on one never exits, and `_end_plant_child` kills it after
      `run_timeout_s`, with a FAIL verdict. No wait of this process for
      the child is unbounded.
    """
    socks, pipe = [], ()
    try:
        for _ in range(2):
            socks += loopback_pair()
        up, up_far, down, down_far = socks
        recording = _recording_path(scenario)
        pipe = os.pipe()
        fds = [int(fd) for fd in os.listdir("/dev/fd")]
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _run_plant_child(up_far, down_far, pipe[1], fds,
                             scenario.duration_ms, scenario.measurements,
                             recording, link_capacity)
    except BaseException as exc:  # only this process gets here
        for sock in socks:
            sock.close()
        for fd in pipe:
            os.close(fd)
        if not isinstance(exc, OSError):
            raise
        if len(socks) < 4:
            raise ConfigError(f"plant process link: {exc}") from None
        raise ConfigError(f"plant process could not start: {exc}") from None
    # socket.close(): a shutdown would end the child's links too
    up_far.close()
    down_far.close()
    os.close(pipe[1])
    return ((pid, pipe[0]), SocketEndpoint(up, name="link:peer-up"),
            SocketEndpoint(down, name="link:peer-down"))


def _run_plant_child(up_far, down_far, pipe_fd: int, fds: list, *plant):
    """The forked child's whole life (see `_start_plant_process`): it runs
    `plant_process_main` on the sockets it inherited, and ends in
    `os._exit` with its exit code, or 1 on a raise."""
    rc = 1
    try:
        gc.freeze()
        keep = {0, 1, 2, up_far.fileno(), down_far.fileno(), pipe_fd}
        for fd in fds:
            if fd not in keep:
                with contextlib.suppress(OSError):  # the listing's own fd
                    os.close(fd)
        sys.stderr = open(2, "w", closefd=False)
        rc = control.plant_process_main(
            SocketEndpoint(up_far, name="plant:up"),
            SocketEndpoint(down_far, name="plant:down"), *plant)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(rc)


def _end_plant_child(child, timeout_s):
    """Wait up to `timeout_s` for the plant child's exit to close its pipe,
    else kill it; reap it, close the pipe, and return its exit code, or
    None if it had to be killed. The one `waitpid` of the child comes
    after every signal to it, so no signal can reach a reused pid."""
    pid, pipe = child
    try:
        poller = select.poll()  # select() refuses a pipe past FD_SETSIZE
        poller.register(pipe, select.POLLIN)
        # at most poll's C int of ms, some 24 days, with the same verdict
        exited = poller.poll(min(timeout_s * 1000, 2**31 - 1))
        if not exited:
            os.kill(pid, signal.SIGKILL)
        rc = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(pipe)
    return rc if exited else None


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult(_Verdict):
    path: str
    ok: bool = True
    failures: list = field(default_factory=list)
    frames_fed: int = 0
    statuses_seen: int = 0
    measurements_seen: int = 0
    final_state: str | None = None
    trajectory: list = field(default_factory=list)  # state names, in order

    def _describe(self):
        return (f"replay {self.path} frames={self.frames_fed} "
                f"final={self.final_state} "
                f"trajectory={'>'.join(self.trajectory)}")


# one second of `monotonic_ns`; a lockstep thread would need 11 days of ticks
WALL_TS_MIN = 1_000_000_000


# read once a record by `_replay_plan` (see messages._STATUS)
_PT2DT, _STANDBY = ThreadDirection.PT2DT, State.STANDBY


def _replay_plan(records):
    """One pass over a record file: the PT2DT frames to feed, in order, and
    the state walk they imply, by name: each distinct change from STANDBY.

    The records come from `read_thread_file`, which has checked every
    (dir, kind) pair and that every STA payload is a valid STATUS, so every
    PT2DT record but a NOTE is a frame, and a status's state is its code
    byte."""
    frames, walk = [], []
    feed = frames.append
    current = _STANDBY
    for rec in records:  # fields by index: 2 direction, 3 kind, 4 payload
        if rec[2] is _PT2DT:
            kind = rec[3]
            if kind != "NOTE":
                feed(rec)
                if kind == "STA":
                    state = STATE_OF_CODE[rec[4][1]]
                    if state is not current:
                        walk.append(state._name_)
                        current = state
    return frames, walk


def replay_thread(path, clock: ClockMode = ClockMode.LOCKSTEP, seed: int = 0,
                  paced: bool | None = None, timeout_s: float = 30.0) -> ReplayResult:
    """Feed a record file's PT2DT frames into a fresh shadow's engine.

    The shadow sees exactly what the original one saw, so its model must
    walk the same states. Its one task, `replay:feeder`, decodes each frame
    for `DigitalTwin.ingest` and skips one that does not decode, as an
    ingest driver would. `paced` feeds each frame at its recorded time since
    the first frame, in whole milliseconds, with every gap capped at one
    second (defaults on for the wall clock, off for lockstep, where the
    logical clock makes pacing meaningless). The time unit is decided once
    per file: wall records carry `monotonic_ns`, so a file whose last frame
    is at or past WALL_TS_MIN holds nanoseconds; lockstep records carry
    ticks counted from 0, one per millisecond.
    """
    try:
        records = read_thread_file(path)  # grammar and ordering enforced here
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read record file: {exc}") from None
    except ThreadLogError as exc:
        raise ConfigError(f"record file rejected{where_in_file(exc)}: {exc}") \
            from None
    frames, want_walk = _replay_plan(records)
    result = ReplayResult(str(path))
    if paced is None:
        paced = clock is ClockMode.WALL
    ts_per_ms = 1_000_000 if frames and frames[-1].ts >= WALL_TS_MIN else 1
    due_ms, due = [], 0  # paced: when to feed each frame, gaps capped at 1 s
    if paced:
        for prev, rec in zip(frames[:1] + frames, frames):
            due += min(rec.ts - prev.ts, 1000 * ts_per_ms)
            due_ms.append(due // ts_per_ms)

    rt = make_runtime(clock, seed)
    shadow = DigitalTwin(rt, ModelKeeper(), None)  # no driver, no uplink
    skipped = 0  # frames that do not decode

    def feeder():  # a shadow's `ingest` returns None: it has no more to run
        nonlocal skipped
        t0, dues = rt.now_ns(), iter(due_ms)
        for rec in frames:
            if rt.stopping:  # a halted run; a paced sleep raises instead
                return
            if paced:
                delay = next(dues) - rt.ms_since(t0)
                if delay > 0:
                    rt.sleep_ms(delay)
            try:
                msg = decode_message(rec.payload)
            except CodecError:  # skipped, as an ingest driver skips it
                skipped += 1
                continue
            shadow.ingest(msg, rec.payload)

    rt.spawn(feeder, name="replay:feeder")
    # the safety limit runs from the last frame's due time
    _run_to_verdict(rt, timeout_s + due / ts_per_ms / 1000, result)

    stats = shadow.monitor_stats  # a halted run fed only what these count
    result.frames_fed = (stats.statuses + stats.measurements + stats.strays
                         + skipped)
    result.statuses_seen = stats.statuses
    result.measurements_seen = stats.measurements
    result.final_state = shadow.model_state()._name_
    result.trajectory = [s._name_ for _, s in shadow.keeper.trajectory]
    if result.trajectory != want_walk:
        result.fail(f"trajectory {result.trajectory} != record walk {want_walk}")
    return result


# ---------------------------------------------------------------------------
# Bundled scenario suite
# ---------------------------------------------------------------------------

def run_suite(suite_dir, config: RunConfig | None = None,
              force_lockstep: bool = False):
    """Run every scenario file in a directory, sorted by name.

    `force_lockstep` is what the CI gate uses: every case runs on the
    logical clock no matter what the file says, so the whole suite is
    deterministic and fast. Every case is loaded and checked against
    `config` before the first one runs, so a suite the config cannot run
    is refused with nothing run and no thread file written. So is a
    `thread_file` on a suite of more than one case: every case would
    overwrite the one file, which would keep only the last.
    """
    paths = sorted(Path(suite_dir).glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files in {suite_dir}")
    cfg = config if config is not None else RunConfig()
    scenarios = []
    overrides = {"clock": ClockMode.LOCKSTEP.value} if force_lockstep else None
    for p in paths:
        scenario = load_scenario(p, overrides)
        check_run_config(scenario, cfg)
        scenarios.append(scenario)
    if cfg.thread_file and len(scenarios) > 1:
        raise ConfigError(f"thread_file names one file for {len(scenarios)} "
                          f"cases, and each case would overwrite the last")
    return [run_scenario(scenario, cfg) for scenario in scenarios]
