"""Session harness: stand up a deployment, run the operator script, judge it.

One entry point per concern:

    run_scenario   execute a scenario end to end, return a SessionResult
    replay_thread  rebuild a counterpart's trajectory from a record file
    run_suite      execute every scenario in a directory (the bundled gate)

The harness owns everything the component modules deliberately do not:
wiring links between the physical side and the twin side, tapping those
links into the interchange record, pacing the operator's steps, tearing the
whole thing down, and reducing the run to a machine-checkable verdict.

Mode map (who hangs off the plant's two external links):

    pt      real sensor, operator holds both links
    dtp     emulated sensor behind the bridge, operator holds both links
    shadow  ingest link feeds a monitor/analyze deployment; the command
            link stays with the operator; no uplink object exists
    twin    ingest link feeds the full engine; the command link IS the
            engine's uplink; the operator talks to the model only
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from operator import eq, ge

from .bus import EventBus
from .config import Expectations, RunConfig, Scenario
from .control import PlantAssembly, SensorBacking, assemble_plant
from .errors import CodecError, ConfigError, KernelHalted, ThreadLogError
from .mapek import DigitalTwin, assemble_shadow, assemble_twin
from .messages import MessageKind, command, encode_message, decode_message, status
from .runtime import ClockMode, make_runtime
from .statemachine import State
from .thread_log import (
    TappedEndpoint,
    ThreadDirection,
    ThreadLog,
    load_recordings,
    read_thread_file,
    write_recording_file,
)
from .transport import Protocol, TcpListener, connect_pair, tcp_connect


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


def _when_true(got, want):
    # a run that must end converged is waited for; one that must not is
    # only judged at the end
    return got is True if want else None


# One row per `Expectations` field: the `SessionResult` field it judges, the
# verdict rule that passes or fails the finished run, and the poll rule that
# says whether a running session may stop: True or False, or None when the
# row does not wait. A run settles once every row that waits is met.
Expectation = namedtuple("Expectation", "field result verdict poll")
EXPECTATIONS = (
    Expectation("final_status", "final_status", eq, eq),
    Expectation("model_state", "model_state", eq, eq),
    Expectation("converged", "converged", eq, _when_true),
    Expectation("uplink_frames", "dt2pt_frames", eq, ge),  # stop once reached
    Expectation("min_statuses", "statuses_seen", ge, ge),
    Expectation("gate_rejections_min", "gate_rejected", ge, ge),
    # the digest is only known once the run is over
    Expectation("thread_sha256", "thread_sha256", eq, lambda got, want: None),
)


def _expected(expect: Expectations, result: SessionResult):
    """(row, got, want) for every expectation the scenario sets."""
    for row in EXPECTATIONS:
        want = getattr(expect, row.field)
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
            result.fail(f"{row.field.replace('_', ' ')} {got}, want {want}")


def thread_digest(log: ThreadLog) -> str:
    """Stable content hash of a whole interchange record."""
    h = hashlib.sha256()
    for rec in log.records:
        h.update(rec.format_line().encode("utf-8"))
    return h.hexdigest()


@dataclass
class _Wiring:
    """What `_wire` stood up: the operator's ends of the plant's links, and
    what hangs off them."""

    up: object
    down: object
    child: subprocess.Popen | None = None
    log: ThreadLog | None = None
    twin: DigitalTwin | None = None
    plant: PlantAssembly | None = None
    observed: list = field(default_factory=list)  # statuses seen (pt/dtp)


def run_scenario(scenario: Scenario, config: RunConfig | None = None) -> SessionResult:
    cfg = config if config is not None else RunConfig()
    result = SessionResult(scenario.name, scenario.mode, scenario.clock.value,
                           scenario.seed)
    started = time.monotonic()
    rt = make_runtime(scenario.clock, scenario.seed)
    wiring = _wire(rt, scenario, cfg)
    _drive(rt, scenario, cfg, wiring, result)
    _collect(wiring, result)
    if wiring.log is not None:
        wiring.log.close()
        records = wiring.log.records
        result.thread_lines = len(records)
        result.thread_sha256 = thread_digest(wiring.log)
        _check_thread_invariants(scenario.mode, wiring.twin, result)
        if cfg.record_file:
            write_recording_file(records, cfg.record_file)
    _check_expectations(scenario.expect, result)
    result.elapsed_s = time.monotonic() - started
    return result


def _wire(rt, scenario: Scenario, cfg: RunConfig) -> _Wiring:
    """Links, then the observing deployment, then the plant (in-process)."""
    # who holds the far ends of the plant's two links depends on mode. With
    # isolation on, the plant lives in a child OS process and the links are
    # real loopback TCP; otherwise everything shares this runtime.
    child = None
    if cfg.isolate:
        if scenario.clock is not ClockMode.WALL:
            raise ConfigError("isolated runs need the wall clock; "
                              "lockstep scheduling cannot cross processes")
        up_listener = TcpListener("127.0.0.1", 0)
        down_listener = TcpListener("127.0.0.1", 0)
        child = _spawn_plant_process(scenario, up_listener.address[1],
                                     down_listener.address[1])
        try:
            up_peer = up_listener.accept(name="link:peer-up", timeout=15.0)
            down_peer = down_listener.accept(name="link:peer-down",
                                             timeout=15.0)
        except Exception:
            child.kill()
            child.wait()
            raise ConfigError("plant process never connected") from None
        finally:
            up_listener.close()
            down_listener.close()
    else:
        up_plant, up_peer = connect_pair(rt, "link:pt-up", "link:peer-up",
                                         Protocol.TCP)
        down_peer, down_plant = connect_pair(rt, "link:peer-down",
                                             "link:pt-down", Protocol.TCP)
    wiring = _Wiring(up_peer, down_peer, child=child)

    if scenario.mode in ("shadow", "twin"):
        wiring.log = ThreadLog(path=cfg.thread_file)
        dt_bus = EventBus(rt, cfg.queue_capacity)
        ingest = TappedEndpoint(up_peer, wiring.log, rt,
                                read_dir=ThreadDirection.PT2DT)
        if scenario.mode == "twin":
            uplink = TappedEndpoint(down_peer, wiring.log, rt,
                                    write_dir=ThreadDirection.DT2PT)
            wiring.twin = assemble_twin(
                rt, dt_bus, ingest, uplink, thread_log=wiring.log,
                twinning_period_ms=cfg.twinning_period_ms)
        else:
            wiring.twin = assemble_shadow(rt, dt_bus, ingest)

    if not cfg.isolate:
        wiring.plant = _start_plant(
            rt, EventBus(rt, cfg.queue_capacity), _recording_path(scenario),
            up_plant, down_plant, scenario.measurements or None)
    return wiring


def _recording_path(scenario: Scenario):
    # a recording means the plant runs on the emulator, whatever is attached
    # above it; dtp is just the bare-operator case of that
    if scenario.mode == "dtp" or scenario.recording:
        return str(scenario.resolve(scenario.recording))
    return None


def _start_plant(rt, bus, recording_path, outbound, inbound, script):
    """The plant on its emulator if given a recording path, else real."""
    backing, recording = SensorBacking.REAL, None
    if recording_path is not None:
        backing = SensorBacking.EMULATED
        recording = load_recordings(recording_path)
    return assemble_plant(rt, bus, backing, recording=recording,
                          outbound=outbound, inbound=inbound,
                          measurement_script=script)


def _drive(rt, scenario: Scenario, cfg: RunConfig, wiring: _Wiring,
           result: SessionResult):
    """Run the operator's script to the end or to settling, then tear down."""
    twin = wiring.twin

    def watch_up():
        while True:
            payload = wiring.up.read_frame()
            try:
                msg = decode_message(payload)
            except CodecError:
                continue
            if msg.kind is MessageKind.STATUS:
                wiring.observed.append(State(msg.value))

    if twin is None:  # pt/dtp: the operator holds the plant's uplink
        rt.spawn(watch_up, name="op:watch")

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

    def operator():
        t0 = rt.now_ns()
        for step in scenario.steps:
            delay = step.at_ms - rt.ms_since(t0)
            if delay > 0:
                rt.sleep_ms(delay)
            apply_step(step)
        while rt.ms_since(t0) < scenario.duration_ms:
            _collect(wiring, result)
            if expectations_settled(scenario.expect, result):
                break
            rt.sleep_ms(2)
        if wiring.plant is not None:
            wiring.plant.stop()
        else:
            wiring.up.close()
            wiring.down.close()
        rt.shutdown()

    rt.spawn(operator, name="op:script")
    _run_to_verdict(rt, cfg.run_timeout_s, result)
    if wiring.child is not None:
        try:
            rc = wiring.child.wait(timeout=cfg.run_timeout_s)
        except subprocess.TimeoutExpired:
            wiring.child.kill()
            wiring.child.wait()
            result.fail("plant process never exited")
        else:
            if rc != 0:
                result.fail(f"plant process exit code {rc}")


def _collect(wiring: _Wiring, result: SessionResult):
    """Read live deployment state into `result`.

    Called from every settle poll, so it takes no digest and copies no
    records: every read is a field or a lock-guarded counter.
    """
    twin = wiring.twin
    if twin is not None:
        final = twin.keeper.last_observed
        result.model_state = twin.model_state().name
        result.converged = twin.converged
        result.statuses_seen = twin.monitor_stats.statuses
        result.measurements_seen = twin.monitor_stats.measurements
        if twin.gate is not None:
            result.gate_committed = twin.gate.committed
            result.gate_rejected = twin.gate.rejected
    else:
        final = wiring.observed[-1] if wiring.observed else None
        result.statuses_seen = len(wiring.observed)
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


def _check_thread_invariants(mode, twin, result):
    """The record must be complete and the mode's direction rules must hold."""
    ingested = (twin.ingest_driver.stats.relayed_in
                + twin.ingest_driver.stats.skipped_in)
    if result.pt2dt_frames != ingested:
        result.fail(f"record incomplete: {result.pt2dt_frames} "
                    f"ingest frames recorded, driver saw {ingested}")
    if mode == "shadow":
        if twin.has_uplink:
            result.fail("shadow deployment holds an uplink object")
        if result.dt2pt_frames != 0:
            result.fail(f"shadow produced {result.dt2pt_frames} uplink frames")
    if mode == "twin":
        sent = twin.uplink_driver.stats.relayed_out
        if result.dt2pt_frames != sent:
            result.fail(f"record incomplete: {result.dt2pt_frames} "
                        f"uplink frames recorded, driver sent {sent}")


def record_session(scenario: Scenario, config: RunConfig | None = None,
                   record_path=None) -> SessionResult:
    """Run a real-backed observing session and persist the ingest half.

    The output file loads straight back as emulator recordings, which is
    the whole point: capture once against the real sensor, replay forever.
    """
    if scenario.mode == "dtp" or scenario.recording:
        raise ConfigError("recording needs a real-backed run, "
                          "not an emulator-backed one")
    for step in scenario.steps:
        if step.action != "command":
            raise ConfigError("recording scenarios may only use command steps")
    lifted = scenario if scenario.mode in ("shadow", "twin") \
        else replace(scenario, mode="shadow")
    cfg = replace(config if config is not None else RunConfig())
    if record_path is not None:
        cfg.record_file = str(record_path)
    if not cfg.record_file:
        raise ConfigError("record needs an output path")
    return run_scenario(lifted, cfg)


# ---------------------------------------------------------------------------
# Isolated plant process
# ---------------------------------------------------------------------------

_CHILD_CODE = ("import sys\n"
               "from twinproto.harness import plant_process_main\n"
               "sys.exit(plant_process_main(sys.argv[1]))\n")


def _spawn_plant_process(scenario: Scenario, up_port: int, down_port: int):
    opts = {
        "seed": scenario.seed,
        "duration_ms": scenario.duration_ms,
        "up_port": up_port,
        "down_port": down_port,
        "measurements": [list(p) for p in scenario.measurements],
        "recording": _recording_path(scenario),
    }
    return subprocess.Popen([sys.executable, "-c", _CHILD_CODE,
                             json.dumps(opts)])


def plant_process_main(raw: str) -> int:
    """Child half of an isolated run: the whole plant behind two TCP links.

    Lives until the scenario duration plus a grace period, then tears itself
    down. The parent hanging up early just makes the link drivers exit; the
    deadline still bounds the process lifetime.
    """
    opts = json.loads(raw)
    rt = make_runtime(ClockMode.WALL, opts.get("seed", 0))
    bus = EventBus(rt)
    up = tcp_connect("127.0.0.1", opts["up_port"], name="plant:up")
    down = tcp_connect("127.0.0.1", opts["down_port"], name="plant:down")
    script = [tuple(p) for p in opts.get("measurements", [])] or None
    plant = _start_plant(rt, bus, opts.get("recording"), up, down, script)

    def deadline():
        rt.sleep_ms(opts["duration_ms"] + 2000)
        plant.stop()
        rt.shutdown()

    def hangup_watch():
        # the parent closing either link is the end of the session
        while not (up.closed or down.closed):
            rt.sleep_ms(100)
        plant.stop()
        rt.shutdown()

    rt.spawn(deadline, name="plant:deadline")
    rt.spawn(hangup_watch, name="plant:hangup")
    stragglers = rt.run(timeout=opts["duration_ms"] / 1000.0 + 10.0)
    bad = False
    for task_name, err in rt.task_errors():
        print(f"plant task {task_name}: {err!r}", file=sys.stderr)
        bad = True
    if stragglers:
        print(f"plant stragglers: {stragglers}", file=sys.stderr)
        bad = True
    return 1 if bad else 0


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


def reference_trajectory(records) -> list:
    """State walk a record file implies: distinct changes from the initial."""
    walk = []
    current = State.STANDBY
    for rec in records:
        if rec.direction is ThreadDirection.PT2DT and rec.kind == "STA":
            s = State(decode_message(rec.payload).value)
            if s is not current:
                walk.append(s)
                current = s
    return walk


def replay_thread(path, clock: ClockMode = ClockMode.LOCKSTEP, seed: int = 0,
                  paced: bool | None = None, timeout_s: float = 30.0) -> ReplayResult:
    """Feed a record file into a fresh offline shadow deployment.

    The shadow sees exactly what the original one saw, so its model must
    walk the same states. `paced` feeds each frame at its recorded time
    since the first frame, in whole milliseconds, with every gap capped at
    one second (defaults on for the wall clock, off for lockstep, where the
    logical clock makes pacing meaningless). The time unit is decided once
    per file: wall records carry `monotonic_ns`, so a file whose last frame
    is at or past WALL_TS_MIN holds nanoseconds; lockstep records carry
    ticks counted from 0, one per millisecond.
    """
    result = ReplayResult(str(path))
    try:
        records = read_thread_file(path)  # grammar and ordering enforced here
    except OSError as exc:
        raise ConfigError(f"cannot read record file: {exc}") from None
    except ThreadLogError as exc:
        raise ConfigError(f"record file rejected: {exc}") from None
    frames = [r for r in records
              if r.direction is ThreadDirection.PT2DT and r.is_frame]
    if paced is None:
        paced = clock is ClockMode.WALL
    ts_per_ms = 1_000_000 if frames and frames[-1].ts >= WALL_TS_MIN else 1

    rt = make_runtime(clock, seed)
    bus = EventBus(rt)
    feed_end, dt_end = connect_pair(rt, "replay:feed", "replay:ingest",
                                    Protocol.TCP)
    shadow = assemble_shadow(rt, bus, dt_end, name="replay")
    stats = shadow.monitor_stats

    def consumed():
        return stats.statuses + stats.measurements + stats.strays

    def feeder():
        t0 = rt.now_ns()
        due = 0  # recorded time since the first frame, gaps capped at 1 s
        prev_ts = frames[0].ts if frames else 0
        for rec in frames:
            if paced:
                due += min(rec.ts - prev_ts, 1000 * ts_per_ms)
                prev_ts = rec.ts
                delay = due // ts_per_ms - rt.ms_since(t0)
                if delay > 0:
                    rt.sleep_ms(delay)
            feed_end.write_frame(rec.payload)
        while consumed() < len(frames):
            rt.sleep_ms(1)
        rt.shutdown()

    rt.spawn(feeder, name="replay:feeder")
    _run_to_verdict(rt, timeout_s, result)

    result.frames_fed = len(frames)
    result.statuses_seen = stats.statuses
    result.measurements_seen = stats.measurements
    result.final_state = shadow.model_state().name
    result.trajectory = [s.name for _, s in shadow.keeper.trajectory]
    if consumed() != len(frames):
        result.fail(f"consumed {consumed()} of {len(frames)} frames")
    want_walk = [s.name for s in reference_trajectory(records)]
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
    deterministic and fast.
    """
    from pathlib import Path

    from .config import load_scenario

    paths = sorted(Path(suite_dir).glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files in {suite_dir}")
    results = []
    for p in paths:
        scenario = load_scenario(p)
        if force_lockstep and scenario.clock is not ClockMode.LOCKSTEP:
            scenario = replace(scenario, clock=ClockMode.LOCKSTEP)
        results.append(run_scenario(scenario, config))
    return results
