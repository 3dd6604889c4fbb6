import pytest

from twinproto.bus import (
    EventBus,
    TOPIC_CONTROL_COMMAND,
    TOPIC_SENSOR_RESPONSE,
    TOPIC_TX_INBOUND,
    TOPIC_TX_OUTBOUND,
)
from twinproto.control import (
    ControlLogic,
    PlantAssembly,
    SensorBacking,
    assemble_plant,
)
from twinproto.errors import RecordingMissing
from twinproto.messages import (
    Recording,
    command,
    decode_message,
    encode_message,
    status,
)
from twinproto.runtime import LockstepRuntime, WallRuntime
from twinproto.statemachine import State
from twinproto.transport import Protocol, connect_pair


def make_control():
    rt = WallRuntime()
    bus = EventBus(rt)
    cmd_tap = bus.subscribe(TOPIC_CONTROL_COMMAND, name="tap-cmd")
    rsp_tap = bus.subscribe(TOPIC_TX_OUTBOUND, name="tap-rsp")
    ctl = ControlLogic(bus)
    return ctl, cmd_tap, rsp_tap


def test_command_sets_period_then_forwards_and_logs():
    ctl, cmd_tap, _ = make_control()
    ctl.handle_transmitter_command(command(50))
    assert ctl.period == 50
    assert cmd_tap.drain() == [command(50)]
    # the period in force when the log entry is written is the new one
    assert ctl.data_log == [("cmd", command(50))]


def test_zero_and_negative_commands_forward_but_skip_log():
    ctl, cmd_tap, _ = make_control()
    ctl.handle_transmitter_command(command(0))
    ctl.handle_transmitter_command(command(-7))
    assert ctl.period == -7
    assert cmd_tap.drain() == [command(0), command(-7)]
    assert ctl.data_log == []


def test_response_forwarded_verbatim_log_gated_on_period():
    ctl, _, rsp_tap = make_control()
    ctl.handle_sensor_response(status(0))          # period 0: not logged
    ctl.handle_transmitter_command(command(25))
    ctl.handle_sensor_response(status(1))          # period 25: logged
    ctl.handle_transmitter_command(command(0))
    ctl.handle_sensor_response(status(0))          # period 0 again: not logged
    assert rsp_tap.drain() == [status(0), status(1), status(0)]
    assert ctl.data_log == [("cmd", command(25)), ("rsp", status(1))]


def test_stray_non_command_counted_not_forwarded():
    ctl, cmd_tap, _ = make_control()
    ctl.handle_transmitter_command(status(1))
    ctl.handle_transmitter_command(command(3))
    assert ctl.stray_commands == 1
    assert cmd_tap.drain() == [command(3)]


def test_control_loops_preserve_per_path_order():
    rt = WallRuntime()
    bus = EventBus(rt)
    cmd_tap = bus.subscribe(TOPIC_CONTROL_COMMAND)
    rsp_tap = bus.subscribe(TOPIC_TX_OUTBOUND)
    ctl = ControlLogic(bus)
    cmd_in = bus.producer(TOPIC_TX_INBOUND)
    rsp_in = bus.producer(TOPIC_SENSOR_RESPONSE)
    ctl.start(rt)

    def feed():
        for v in range(1, 51):
            cmd_in.emit(command(v))
            rsp_in.emit(status(v % 3))
        while len(cmd_tap) < 50 or len(rsp_tap) < 50:
            rt.sleep_ms(1)
        rt.shutdown()

    rt.spawn(feed, name="feed")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    cmds = cmd_tap.drain()
    rsps = rsp_tap.drain()
    assert cmds == [command(v) for v in range(1, 51)]
    assert rsps == [status(v % 3) for v in range(1, 51)]
    assert ctl.period == 50
    # one queue for both topics: the log keeps the emit order across them
    assert ctl.data_log == [
        entry for v in range(1, 51)
        for entry in (("cmd", command(v)), ("rsp", status(v % 3)))
    ]


def test_owner_task_counts_a_stray_status_on_the_command_topic():
    rt = WallRuntime()
    bus = EventBus(rt)
    cmd_tap = bus.subscribe(TOPIC_CONTROL_COMMAND)
    rsp_tap = bus.subscribe(TOPIC_TX_OUTBOUND)
    ctl = ControlLogic(bus).start(rt)

    def feed():
        bus.emit(TOPIC_TX_INBOUND, status(1))       # stray: not a command
        bus.emit(TOPIC_SENSOR_RESPONSE, status(2))  # same kind, other topic
        bus.emit(TOPIC_TX_INBOUND, command(4))
        while len(cmd_tap) < 1 or len(rsp_tap) < 1:
            rt.sleep_ms(1)
        rt.shutdown()

    rt.spawn(feed, name="feed")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    assert ctl.stray_commands == 1
    assert cmd_tap.drain() == [command(4)]
    assert rsp_tap.drain() == [status(2)]
    assert ctl.data_log == [("cmd", command(4))]


MISSION = (50, 0, -1)


def drive_plant(backing, mode="wall", seed=0, recording=None, script=MISSION):
    """Assemble a plant, run an operator script against it, return transcript."""
    rt = WallRuntime() if mode == "wall" else LockstepRuntime(seed=seed)
    bus = EventBus(rt)
    up_plant, up_op = connect_pair(rt, "up:plant", "up:op", Protocol.TCP)
    down_op, down_plant = connect_pair(rt, "down:op", "down:plant", Protocol.TCP)
    plant = assemble_plant(rt, bus, backing, recording=recording,
                           outbound=up_plant, inbound=down_plant)
    frames = []

    def operator():
        frames.append(up_op.read_frame())  # boot announcement
        for v in script:
            down_op.write_frame(encode_message(command(v)))
            frames.append(up_op.read_frame())
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=15.0) == []
    assert rt.task_errors() == []
    return plant, frames


def test_real_plant_mission_reaches_off():
    plant, frames = drive_plant(SensorBacking.REAL)
    assert [decode_message(f) for f in frames] == [
        status(int(State.STANDBY)),   # boot
        status(int(State.ACTIVE)),    # after 50
        status(int(State.STANDBY)),   # after 0
        status(int(State.OFF)),       # after -1
    ]
    assert plant.sensor_state() is State.OFF
    assert plant.control.period == -1
    # only traffic under a positive period lands in the local data log
    assert plant.control.data_log == [
        ("cmd", command(50)),
        ("rsp", status(int(State.ACTIVE))),
    ]


def test_real_plant_mission_lockstep():
    plant, frames = drive_plant(SensorBacking.REAL, mode="lockstep", seed=11)
    assert [decode_message(f) for f in frames][-1] == status(int(State.OFF))
    assert plant.sensor_state() is State.OFF


def test_emulated_plant_indistinguishable_from_real():
    _, real_frames = drive_plant(SensorBacking.REAL)
    # replay material: exactly what the real sensor produced
    recording = [Recording(decode_message(f)) for f in real_frames]
    plant, emu_frames = drive_plant(SensorBacking.EMULATED, recording=recording)
    assert emu_frames == real_frames  # byte identical, boot included
    assert plant.backing is SensorBacking.EMULATED
    assert plant.sensor_state() is None  # a prototype has no real state


MISSION_RECORDING = [Recording(status(0)), Recording(status(1)),
                     Recording(status(0)), Recording(status(2))]


def test_configuration_identical_across_backings():
    real, _ = drive_plant(SensorBacking.REAL)
    emu, _ = drive_plant(SensorBacking.EMULATED, recording=MISSION_RECORDING)
    assert real.describe_configuration() == emu.describe_configuration()
    # the assemblies differ only in what hangs off the sensor link
    assert type(real.sensor) is not type(emu.sensor)
    assert real.sensor_driver.conn.name != emu.sensor_driver.conn.name


def test_backings_spawn_the_same_plant_tasks(monkeypatch):
    spawned = []
    spawn = WallRuntime.spawn

    def recording_spawn(self, fn, name="task"):
        spawned.append(name)
        return spawn(self, fn, name=name)

    monkeypatch.setattr(WallRuntime, "spawn", recording_spawn)
    drive_plant(SensorBacking.REAL)
    real = sorted(spawned)
    spawned.clear()
    drive_plant(SensorBacking.EMULATED, recording=MISSION_RECORDING)
    assert sorted(spawned) == real == sorted([
        "sensor-driver:device", "sensor-driver:recv", "sensor-driver:send",
        "tx-driver:recv", "tx-driver:send", "ctl:owner", "operator",
    ])


def test_emulated_plant_requires_recording():
    rt = WallRuntime()
    bus = EventBus(rt)
    with pytest.raises(RecordingMissing):
        assemble_plant(rt, bus, SensorBacking.EMULATED)
