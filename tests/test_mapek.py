import random
import sys

import pytest

from twinproto.control import SensorBacking, assemble_plant
from twinproto.errors import GateRejected
from twinproto.mapek import (
    ExecuteGate,
    ModelKeeper,
    PLAN_DEFAULT_PERIOD,
    PlanResult,
    assemble_shadow,
    assemble_twin,
    command_for_goal,
)
from twinproto.messages import command, encode_message, measurement, status
from twinproto.runtime import LockstepRuntime, WallRuntime
from twinproto.statemachine import State
from twinproto.thread_log import TappedEndpoint, ThreadDirection, ThreadLog
from twinproto.transport import Protocol, connect_pair

from reference_fsm import ref_step

S = {"STANDBY": State.STANDBY, "ACTIVE": State.ACTIVE, "OFF": State.OFF}


# ---------------------------------------------------------------------------
# Model keeper semantics
# ---------------------------------------------------------------------------

def test_keeper_mirrors_counterpart_without_goal():
    k = ModelKeeper()
    res = k.observe(State.ACTIVE, ts=1)
    assert res.equal and res.mirrored
    assert k.model.current is State.ACTIVE
    assert k.mirrored_count == 1
    assert k.trajectory == [(1, State.ACTIVE)]


def test_keeper_match_is_not_a_mirror():
    k = ModelKeeper()
    res = k.observe(State.STANDBY, ts=1)
    assert res.equal and not res.mirrored
    assert k.trajectory == []


def test_keeper_holds_goal_until_counterpart_reports_it():
    k = ModelKeeper()
    k.note_observation(State.STANDBY)
    goal = k.inject(command(50), ts=1)
    assert goal is State.ACTIVE
    assert not k.converged
    # divergence is reported, the model does not budge
    res = k.observe(State.STANDBY, ts=2)
    assert not res.equal
    assert k.model.current is State.ACTIVE
    # the counterpart reaching the goal clears it
    res = k.observe(State.ACTIVE, ts=3)
    assert res.equal and not res.mirrored
    assert k.converged


def test_inject_matching_state_converges_immediately():
    k = ModelKeeper()
    k.note_observation(State.STANDBY)
    k.inject(command(0), ts=1)  # STANDBY -> STANDBY
    assert k.converged


def test_plan_command_per_goal():
    assert command_for_goal(State.ACTIVE) == command(PLAN_DEFAULT_PERIOD)
    assert command_for_goal(State.STANDBY) == command(0)
    assert command_for_goal(State.OFF) == command(-1)


# ---------------------------------------------------------------------------
# Execute gate
# ---------------------------------------------------------------------------

def test_gate_matches_pure_transition_oracle():
    rng = random.Random(0xD7)
    keeper = ModelKeeper()
    gate = ExecuteGate(keeper)
    states = [State.STANDBY, State.ACTIVE, State.OFF]
    for _ in range(500):
        pt = rng.choice(states)
        goal = rng.choice(states)
        value = rng.choice([-1, 0, 1, 50, rng.randrange(-100, 100)])
        plan = PlanResult(0, command(value), goal, pt)
        expected = S[ref_step(pt.name, value)] is goal
        keeper.note_observation(pt)
        try:
            gate.enforce(plan)
            passed = True
        except GateRejected:
            passed = False
        assert passed == expected, (pt, goal, value)
    assert gate.committed + gate.rejected == 500
    assert gate.rejected > 0 and gate.committed > 0


def test_gate_prefers_latest_observation():
    k = ModelKeeper()
    k.note_observation(State.OFF)  # fresher than the plan snapshot
    gate = ExecuteGate(k)
    plan = PlanResult(0, command(50), State.ACTIVE, State.STANDBY)
    with pytest.raises(GateRejected):
        gate.enforce(plan)
    assert gate.rejected == 1


# ---------------------------------------------------------------------------
# Engine: monitor stage and task sets
# ---------------------------------------------------------------------------

def test_monitor_classifies_and_counts_strays():
    rt = WallRuntime()
    _, dt_end = connect_pair(rt, "feed", "ingest", Protocol.TCP)
    shadow = assemble_shadow(rt, dt_end)
    stats = shadow.monitor_stats

    def drive():
        for msg in (status(1), measurement(42),
                    command(9),  # stray: counterparts do not send commands
                    status(2)):
            shadow.ingest(msg, encode_message(msg))
        rt.shutdown()

    rt.spawn(drive, name="drive")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    assert (stats.statuses, stats.measurements, stats.strays) == (2, 1, 1)
    assert shadow.keeper.last_observed is State.OFF
    # both statuses reached analysis, and with no goal the model followed
    assert [s for _, s in shadow.keeper.trajectory] == [State.ACTIVE,
                                                         State.OFF]


class SpawnLog:
    """A runtime stand-in that records task names and starts nothing."""

    def __init__(self, rt):
        self._rt = rt
        self.names = []

    def spawn(self, fn, name="task"):
        self.names.append(name)

    def __getattr__(self, attr):
        return getattr(self._rt, attr)


def test_deployment_task_sets():
    rt = SpawnLog(WallRuntime())
    _, ingest = connect_pair(rt, "up:pt", "up:dt", Protocol.TCP)
    uplink, _ = connect_pair(rt, "down:dt", "down:pt", Protocol.TCP)
    assemble_twin(rt, None, ingest, uplink)
    assert sorted(rt.names) == ["twin:ingest", "twin:poll"]
    rt.names.clear()
    assemble_shadow(rt, ingest)
    assert rt.names == ["shadow:ingest"]


# ---------------------------------------------------------------------------
# Full sessions: plant wired to a shadow or twin by two links
# ---------------------------------------------------------------------------

def build_session(rt, kind, twinning_period_ms=40):
    """Plant plus twin-side deployment, PT2DT and (twin only) DT2PT links."""
    log = ThreadLog()
    up_plant, up_dt = connect_pair(rt, "up:pt", "up:dt", Protocol.TCP)
    ingest = TappedEndpoint(up_dt, log, rt, read_dir=ThreadDirection.PT2DT)

    if kind == "twin":
        down_dt, down_plant = connect_pair(rt, "down:dt", "down:pt",
                                           Protocol.TCP)
        uplink = TappedEndpoint(down_dt, log, rt,
                                write_dir=ThreadDirection.DT2PT)
        twin = assemble_twin(rt, None, ingest, uplink, thread_log=log,
                             twinning_period_ms=twinning_period_ms)
        operator_down = None
    else:
        # shadow: the plant's command inlet stays with the operator
        operator_down, down_plant = connect_pair(rt, "down:op", "down:pt",
                                                 Protocol.TCP)
        twin = assemble_shadow(rt, ingest)

    plant = assemble_plant(rt, None, SensorBacking.REAL,
                           outbound=up_plant, inbound=down_plant)
    return plant, twin, log, operator_down


def await_cond(rt, pred, step_ms=2, tries=4000):
    for _ in range(tries):
        if pred():
            return True
        rt.sleep_ms(step_ms)
    return False


def test_shadow_tracks_but_cannot_push():
    rt = WallRuntime()
    plant, twin, log, op_down = build_session(rt, "shadow")
    outcome = {}

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None)
        for v in (50, 0, -1):
            op_down.write_frame(encode_message(command(v)))
        outcome["tracked"] = await_cond(
            rt, lambda: twin.keeper.last_observed is State.OFF)
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=15.0) == []
    assert rt.task_errors() == []
    assert outcome["tracked"]
    assert twin.has_uplink is False
    assert twin.uplink_driver is None
    assert twin.model_state() is State.OFF  # mirrored, not commanded
    assert twin.monitor_stats.statuses == 4  # boot + three responses
    counts = log.frame_counts()
    assert counts[ThreadDirection.PT2DT] == 4
    assert counts[ThreadDirection.DT2PT] == 0
    with pytest.raises(RuntimeError):
        twin.send_command(command(50))
    with pytest.raises(RuntimeError):
        twin.inject_model_change(command(50))


def test_twin_pushes_injected_model_changes():
    rt = WallRuntime()
    plant, twin, log, _ = build_session(rt, "twin")
    outcome = {}

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None)
        reached = []
        for cmd, want in ((command(50), State.ACTIVE),
                          (command(0), State.STANDBY),
                          (command(-1), State.OFF)):
            goal = twin.inject_model_change(cmd)
            assert goal is want
            ok = await_cond(rt, lambda: twin.converged
                            and plant.sensor.state is want)
            reached.append(ok)
        outcome["reached"] = reached
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=20.0) == []
    assert rt.task_errors() == []
    assert outcome["reached"] == [True, True, True]
    # a twinning re-check may retry an in-flight correction; every commit
    # must land on the uplink either way
    assert twin.gate.committed >= 3
    assert twin.gate.rejected == 0
    assert log.frame_counts()[ThreadDirection.DT2PT] == twin.gate.committed
    # every divergence was planned for; the model moved only by the injects
    assert twin.plan_stats.planned == twin.gate.committed
    assert [s for _, s in twin.keeper.trajectory] == [State.ACTIVE,
                                                      State.STANDBY, State.OFF]


def test_twin_direct_commands_do_not_trigger_corrections():
    rt = WallRuntime()
    plant, twin, _, _ = build_session(rt, "twin")
    outcome = {}

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None)
        for cmd, want in ((command(50), State.ACTIVE),
                          (command(0), State.STANDBY),
                          (command(-1), State.OFF)):
            twin.send_command(cmd)
            assert await_cond(rt, lambda: twin.model_state() is want)
        outcome["pt"] = plant.sensor.state
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=20.0) == []
    assert rt.task_errors() == []
    assert outcome["pt"] is State.OFF
    # the model followed the counterpart instead of fighting the operator
    assert twin.plan_stats.planned == 0
    assert twin.keeper.mirrored_count >= 3
    assert twin.gate.committed == 0


def test_dead_device_absorbs_model_commands_too():
    # a faithful model refuses what the device would refuse
    k = ModelKeeper()
    k.note_observation(State.OFF)
    k.observe(State.OFF, ts=1)  # mirror the death
    assert k.inject(command(50), ts=2) is State.OFF
    assert k.converged  # nothing to push: the model agrees it is dead


def test_twin_rejects_unreachable_goal():
    rt = WallRuntime()
    plant, twin, log, _ = build_session(rt, "twin")

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None)
        twin.send_command(command(-1))  # kill the device for real
        assert await_cond(rt, lambda: twin.model_state() is State.OFF
                          and plant.sensor.state is State.OFF)
        # direct model-state edit: only a status event can leave OFF
        goal = twin.inject_model_change(status(int(State.ACTIVE)))
        assert goal is State.ACTIVE
        assert await_cond(rt, lambda: twin.gate.rejected >= 1)
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=20.0) == []
    assert rt.task_errors() == []
    assert twin.gate.committed == 0
    assert plant.sensor.state is State.OFF
    assert not twin.converged  # honest: the goal was never reached
    notes = [r for r in log.records if r.kind == "NOTE"]
    assert notes and b"gate rejected" in notes[0].payload
    # no frame ever went down the uplink for the impossible correction
    assert log.frame_counts()[ThreadDirection.DT2PT] == 1  # just the kill


def test_twin_lockstep_injection_converges_fast():
    rt = LockstepRuntime(seed=7)
    plant, twin, log, _ = build_session(rt, "twin", twinning_period_ms=40)
    outcome = {}

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None,
                          step_ms=1, tries=100)
        t0 = rt.now_ns()
        twin.inject_model_change(command(50))
        assert await_cond(rt, lambda: twin.converged, step_ms=1, tries=100)
        outcome["ticks"] = rt.now_ns() - t0
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=30.0) == []
    assert rt.task_errors() == []
    # the whole correction round trip happens within a few logical ticks,
    # well under one twinning period
    assert outcome["ticks"] <= 3
    assert log.frame_counts()[ThreadDirection.DT2PT] == 1


@pytest.mark.parametrize("seed", [1, 2, 3, "wall"])
def test_operator_command_and_correction_share_the_uplink(seed):
    # the engine's uplink token makes one writer at a time: an operator
    # command and an inject's corrections leave in one order, the thread
    # records that order, and the plant reads it (on either clock)
    rt = WallRuntime() if seed == "wall" else LockstepRuntime(seed=seed)
    log, delivered = ThreadLog(), ThreadLog()
    up_plant, up_dt = connect_pair(rt, "up:pt", "up:dt", Protocol.TCP)
    down_dt, down_plant = connect_pair(rt, "down:dt", "down:pt", Protocol.TCP)
    twin = assemble_twin(
        rt, None,
        TappedEndpoint(up_dt, log, rt, read_dir=ThreadDirection.PT2DT),
        TappedEndpoint(down_dt, log, rt, write_dir=ThreadDirection.DT2PT),
        thread_log=log,
        # on the wall clock, re-check every tick so the poll's retries race
        # the operator's task for the uplink
        twinning_period_ms=1 if seed == "wall" else 40)
    plant = assemble_plant(
        rt, None, SensorBacking.REAL, outbound=up_plant,
        inbound=TappedEndpoint(down_plant, delivered, rt,
                               read_dir=ThreadDirection.DT2PT))
    sent = twin.uplink_driver.stats

    def operator():
        assert await_cond(rt, lambda: twin.keeper.last_observed is not None,
                          step_ms=1, tries=100)
        twin.send_command(command(0))           # passthrough, ungated
        twin.inject_model_change(command(50))   # correction toward ACTIVE
        assert await_cond(
            rt, lambda: twin.converged and plant.sensor.state is State.ACTIVE
            and delivered.frame_counts()[ThreadDirection.DT2PT]
            == sent.relayed_out, step_ms=1, tries=4000)
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=30.0) == []
    assert rt.task_errors() == []
    uplinked = [r.payload for r in log.records
                if r.direction is ThreadDirection.DT2PT and r.is_frame]
    assert len(uplinked) == sent.relayed_out
    assert uplinked == [r.payload for r in delivered.records]
    assert uplinked[0] == encode_message(command(0))
    assert encode_message(command(50)) in uplinked[1:]
    assert twin.plan_stats.planned == twin.gate.committed >= 1


def test_concurrent_uplink_writers_keep_the_thread_in_wire_order():
    # two operator tasks and the ingest loop all call the engine on the
    # wall clock; the uplink token keeps each tapped write whole, so the
    # thread's DT2PT order is the order the plant reads
    rt = WallRuntime()
    log, delivered = ThreadLog(), ThreadLog()
    up_plant, up_dt = connect_pair(rt, "up:pt", "up:dt", Protocol.TCP)
    down_dt, down_plant = connect_pair(rt, "down:dt", "down:pt", Protocol.TCP)
    twin = assemble_twin(
        rt, None,
        TappedEndpoint(up_dt, log, rt, read_dir=ThreadDirection.PT2DT),
        TappedEndpoint(down_dt, log, rt, write_dir=ThreadDirection.DT2PT),
        thread_log=log)
    plant = assemble_plant(
        rt, None, SensorBacking.REAL, outbound=up_plant,
        inbound=TappedEndpoint(down_plant, delivered, rt,
                               read_dir=ThreadDirection.DT2PT))
    n, done = 1500, []

    def writer(base):
        for i in range(n):
            twin.send_command(command(base + i))
        done.append(base)

    def stopper():
        assert await_cond(
            rt, lambda: len(done) == 2
            and delivered.frame_counts()[ThreadDirection.DT2PT] == 2 * n,
            step_ms=1, tries=20000)
        plant.stop()
        rt.shutdown()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: make races likely
    try:
        rt.spawn(lambda: writer(1), name="writer-1")
        rt.spawn(lambda: writer(10_000), name="writer-2")
        rt.spawn(stopper, name="stopper")
        assert rt.run(timeout=30.0) == []
    finally:
        sys.setswitchinterval(interval)
    assert rt.task_errors() == []
    uplinked = [r.payload for r in log.records
                if r.direction is ThreadDirection.DT2PT and r.is_frame]
    assert twin.uplink_driver.stats.relayed_out == 2 * n
    assert uplinked == [r.payload for r in delivered.records]
