"""Twin-side engine: monitor, analyze, plan, execute around a state model.

The engine consumes the physical side's traffic from one ingest connection
and keeps a model of the counterpart device. The four MAPE-K stages are
function calls on a `DigitalTwin`, which has no task of its own: the ingest
driver's receive loop calls `ingest` (monitor, then the rest) for every
frame, the twinning poll calls `recheck` (analyze onward, against the last
report), and the operator calls `send_command`. Each runs on its caller's
task. The work that can park (taking the token, the uplink send) is a
generator: `ingest` and `recheck` return it for the calling task to run (the
receive loop and the poll are generator tasks), and the plain calls
`inject_model_change` and `send_command` run it with the runtime's blocking
driver. A measurement, or a status in a shadow, takes no token, so `ingest`
returns None for it.

    monitor   classify a frame from the counterpart: status / measurement
    analyze   compare an observation (ingested or re-checked) with the model
    plan      derive a corrective command on divergence
    execute   simulation gate, then the command encoded and handed to the
              uplink driver's `forward`, the one place a twin encodes

In a twin, analyze, plan and execute and every uplink write run holding a
token, a `runtime.channel(1)`: one task at a time decides and writes, so the
plan and gate counts stay exact and the thread's DT2PT order is the wire
order. A send can park on a full link while the token is held; a task
waiting for the token then parks too (under lockstep it yields its slice)
instead of blocking its thread on a raw lock.

With no queue in front of control or the engine, the cross-direction cycle
(token holder -> downlink -> control on `tx-driver:recv` -> sensor command
link -> device -> response link -> control on `sensor-driver:recv` ->
outbound link -> ingest loop waiting for the token) buffers only its four
links, each sized by the run config's `queue_capacity`: 4 x 4096 = 16384
frames at the default. It deadlocks only if that many frames are in flight
at once (commands or their responses, the boot status, scripted
measurements); a burst of 3000 commands puts about 3001 in it. A longer
burst needs a larger `queue_capacity`. Past the bound the run fails naming
the stuck tasks: at once under lockstep, at `run_timeout_s` on the wall
clock. With the plant isolated, the downlink and the outbound link are
sockets. Each holds up to `queue_capacity` unsent frames on top of what
the kernel's socket buffers hold, and its sender task moves queued frames
on into those buffers whatever the token holder waits for.

Two deployment shapes share this code. A shadow runs monitor and analyze
only and holds NO uplink connection object: nothing in the process is
capable of writing toward the physical side, so the one-way property is
structural rather than a policy that could regress. A full twin adds plan,
execute, an uplink driver and a periodic re-check, making model edits
propagate to the device and device drift propagate back into the model.

Divergence handling follows one rule: the side that changed last wins. An
observed state change with no pending goal updates the model (the model
follows its counterpart). An operator model edit marks a goal; observations
stop updating the model until the counterpart reports the goal state, and
the plan and execute stages push it there.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .devices import DeviceDriver
from .errors import GateRejected
from .messages import (OP_COMMAND, Message, MessageKind, command,
                       encode_message)
from .runtime import drive
from .statemachine import (STATE_OF_CODE, State, TwinState, process_event,
                           transition)

# read once a frame by `DigitalTwin.ingest`, once a plan by
# `command_for_goal` (see messages._STATUS)
_MEASUREMENT, _STATUS = MessageKind.MEASUREMENT, MessageKind.STATUS
_ACTIVE, _STANDBY = State.ACTIVE, State.STANDBY

# corrective command toward ACTIVE uses this sampling period
PLAN_DEFAULT_PERIOD = 50
DEFAULT_TWINNING_PERIOD_MS = 40


@dataclass
class AnalysisResult:
    """One comparison of the counterpart against the model."""

    ts: int
    pt_state: State
    model_state: State      # after resolution (mirror updates included)
    equal: bool
    mirrored: bool = False  # agreement came from following the counterpart


@dataclass
class PlanResult:
    ts: int
    command: Message
    goal: State
    observed: State


@dataclass
class MonitorStats:
    statuses: int = 0
    measurements: int = 0
    strays: int = 0  # inbound frames that make no sense from a counterpart


@dataclass
class PlanStats:
    noop: int = 0
    planned: int = 0


class ModelKeeper:
    """Serialized access to the model state and its history."""

    def __init__(self):
        self._lock = threading.Lock()
        self.model = TwinState()
        self.goal_pending = False
        self.last_observed = None  # State reported most recently, or None
        self.trajectory = []       # (ts, State) at every model change
        self.mirrored_count = 0

    def note_observation(self, state: State):
        with self._lock:
            self.last_observed = state

    def observe(self, obs: State, ts: int) -> AnalysisResult:
        """Resolve one observation against the model.

        Match: done (a pending goal is hereby reached). Mismatch with a goal
        pending: hold the model, report divergence. Mismatch without a goal:
        the model follows the counterpart.
        """
        with self._lock:
            if obs is self.model.current:
                self.goal_pending = False
                return AnalysisResult(ts, obs, self.model.current, True)
            if self.goal_pending:
                return AnalysisResult(ts, obs, self.model.current, False)
            # what a STATUS event does to the model, without building one
            self.model = TwinState(obs, self.model.period)
            self.trajectory.append((ts, self.model.current))
            self.mirrored_count += 1
            return AnalysisResult(ts, obs, self.model.current, True,
                                  mirrored=True)

    def inject(self, cmd: Message, ts: int) -> State:
        """Operator edit: apply a command to the model only."""
        with self._lock:
            self.model = process_event(self.model, cmd)
            self.trajectory.append((ts, self.model.current))
            self.goal_pending = self.last_observed is not self.model.current
            return self.model.current

    def snapshot(self) -> TwinState:
        with self._lock:
            return self.model

    @property
    def converged(self) -> bool:
        with self._lock:
            return not self.goal_pending


def command_for_goal(goal: State) -> Message:
    if goal is _ACTIVE:
        return command(PLAN_DEFAULT_PERIOD)
    if goal is _STANDBY:
        return command(0)
    return command(-1)


class ExecuteGate:
    """Commit gate: a corrective command must prove itself on a copy first.

    The candidate is applied to a throwaway copy of the counterpart's last
    reported state using the pure transition rule; only an exact landing on
    the goal state lets it through to the uplink.
    """

    def __init__(self, keeper: ModelKeeper):
        self.keeper = keeper
        self.committed = 0
        self.rejected = 0

    def enforce(self, plan: PlanResult) -> Message:
        pt = self.keeper.last_observed
        if pt is None:
            pt = plan.observed
        simulated = transition(pt, plan.command.value)
        if simulated is not plan.goal:
            self.rejected += 1
            raise GateRejected(
                f"simulated {pt.name} + cmd({plan.command.value}) -> "
                f"{simulated.name}, want {plan.goal.name}"
            )
        self.committed += 1
        return plan.command


# ---------------------------------------------------------------------------
# Execute, and the deployments it runs in
# ---------------------------------------------------------------------------

def execute(runtime, gate, plan, send, thread_log=None):
    """Gate one plan: a committed command is passed to `send`, and what
    `send` returns is returned (a generator, from a driver's `forward`, is
    the caller's to run); a rejected one leaves a NOTE in the thread."""
    try:
        cmd = gate.enforce(plan)
    except GateRejected as exc:
        if thread_log is not None:
            thread_log.append_note(runtime.now_ns(), f"gate rejected: {exc}")
        return None
    return send(cmd)


def execute_loop(runtime, gate, sub, out_execute, thread_log=None):
    """The execute step alone, fed plans by a subscription, committing to
    the `out_execute` producer."""
    while True:
        execute(runtime, gate, sub.consume(), out_execute.emit, thread_log)


class DigitalTwin:
    """One running twin or shadow deployment, and its MAPE-K engine.

    Without an uplink (a shadow, a pt or dtp run's watch, or a replay,
    which calls `ingest` with no ingest driver) the engine ends at analysis.
    In a twin, analysis onward and every uplink write hold the token, and a
    ConnectionClosed from the uplink reaches the calling task.
    """

    def __init__(self, runtime, keeper, ingest_driver, uplink_driver=None,
                 gate=None, thread_log=None):
        self._rt = runtime
        self.keeper = keeper
        self.ingest_driver = ingest_driver
        self.uplink_driver = uplink_driver
        self.gate = gate
        self.monitor_stats = MonitorStats()
        self.plan_stats = PlanStats()
        self._thread_log = thread_log
        self._token = None
        if uplink_driver is not None:
            self._token = runtime.channel(1, f"{uplink_driver.name}:token")

    @property
    def has_uplink(self) -> bool:
        return self.uplink_driver is not None

    @property
    def converged(self) -> bool:
        return self.keeper.converged

    @property
    def last_observed(self) -> State | None:
        return self.keeper.last_observed

    def model_state(self) -> State:
        return self.keeper.snapshot().current

    def ingest_loop(self):
        """The ingest driver's receive loop, calling `ingest` on each frame:
        the generator for the caller to spawn."""
        return self.ingest_driver.receive(self.ingest)

    def ingest(self, msg: Message, payload: bytes):
        """Monitor one frame from the counterpart: count it, and a status
        goes on to analysis. Returns None, or in a twin the generator that
        analyzes onward, for the caller to run. The bytes are not needed:
        the tap has recorded them."""
        stats, kind = self.monitor_stats, msg.kind
        if kind is _MEASUREMENT:  # the common frame, tested first
            stats.measurements += 1
            return None
        if kind is not _STATUS:
            stats.strays += 1  # commands never arrive from the counterpart
            return None
        stats.statuses += 1
        obs = STATE_OF_CODE[msg.value]
        self.keeper.note_observation(obs)
        return self._analyze(obs)

    def recheck(self):
        """Re-run analysis against the latest report from the counterpart.
        Returns None, or in a twin the generator that analyzes onward, for
        the caller to run, as `ingest` does."""
        obs = self.keeper.last_observed
        if obs is None:
            return None
        return self._analyze(obs)

    def _analyze(self, obs: State):
        """Analyze; a shadow is done then (None). A twin returns the
        generator that analyzes, plans and executes holding the token."""
        if self._token is None:
            self.keeper.observe(obs, self._rt.now_ns())
            return None
        return self._holding_token(self._decide, obs)

    def _decide(self, obs: State):
        """Analyze, plan and execute; returns the uplink send's generator,
        if it has to wait. The caller holds the token."""
        res = self.keeper.observe(obs, self._rt.now_ns())
        if res.equal:
            self.plan_stats.noop += 1
            return None
        plan = PlanResult(self._rt.now_ns(),
                          command_for_goal(res.model_state),
                          res.model_state, res.pt_state)
        self.plan_stats.planned += 1
        return execute(self._rt, self.gate, plan, self._send,
                       self._thread_log)

    def _send(self, cmd: Message):
        """Encode a command and forward it on the uplink; returns what
        `forward` returns. The caller holds the token."""
        return self.uplink_driver.forward(encode_message(cmd))

    def _holding_token(self, step, arg):
        """Generator: take the token, run `step(arg)` and the generator it
        may return, give the token back."""
        token = self._token
        while (wait := token.wait_put()) is not None:
            yield wait
        token.put(None)
        try:
            work = step(arg)
            if work is not None:
                yield from work
        finally:
            token.get()

    def inject_model_change(self, cmd: Message) -> State:
        """Apply a command to the model; the engine pushes the device after it."""
        if not self.has_uplink:
            raise RuntimeError("deployment has no uplink; model edits cannot "
                               "propagate")
        goal = self.keeper.inject(cmd, self._rt.now_ns())
        work = self.recheck()
        if work is not None:
            drive(work)
        return goal

    def send_command(self, cmd: Message):
        """Operator passthrough: sent ungated, with no goal bookkeeping, in
        order with the engine's own corrections."""
        if not self.has_uplink:
            raise RuntimeError("deployment has no uplink")
        drive(self._holding_token(self._send, cmd))


def _ingest_driver(ingest_conn, name):
    return DeviceDriver(ingest_conn, command_set=frozenset(),
                        name=f"{name}-ingest")


def assemble_shadow(runtime, ingest_conn):
    """Monitor + analyze over an ingest link. No uplink object exists."""
    twin = DigitalTwin(runtime, ModelKeeper(),
                       _ingest_driver(ingest_conn, "shadow"))
    runtime.spawn(twin.ingest_loop(), name="shadow:ingest")
    return twin


def assemble_twin(runtime, bus, ingest_conn, uplink_conn, thread_log=None,
                  twinning_period_ms=DEFAULT_TWINNING_PERIOD_MS):
    """Full closed loop: the engine through execute, an uplink, a re-check.

    `bus` is ignored: the ingest loop, the poll and the operator call the
    engine directly, so a twin has no use for a bus. The parameter stays so
    that callers written against the bus-wired twin, the acceptance gate
    among them, keep working.
    """
    keeper = ModelKeeper()
    # the uplink driver never receives, so it gets no receive loop
    uplink_driver = DeviceDriver(uplink_conn,
                                 command_set=frozenset({OP_COMMAND}),
                                 name="twin-uplink")
    twin = DigitalTwin(runtime, keeper, _ingest_driver(ingest_conn, "twin"),
                       uplink_driver=uplink_driver, gate=ExecuteGate(keeper),
                       thread_log=thread_log)
    runtime.spawn(twin.ingest_loop(), name="twin:ingest")

    def twinning_poll():
        while True:
            yield from runtime.pause(twinning_period_ms)
            work = twin.recheck()
            if work is not None:
                yield from work

    runtime.spawn(twinning_poll(), name="twin:poll")
    return twin
