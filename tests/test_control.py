import pytest

from twinproto.control import ControlLogic, SensorBacking, assemble_plant
from twinproto.errors import RecordingMissing
from twinproto.messages import (
    OP_COMMAND,
    OP_MEASUREMENT,
    OP_STATUS,
    command,
    decode_message,
    encode_message,
    status,
)
from twinproto.runtime import LockstepRuntime, WallRuntime
from twinproto.statemachine import State
from twinproto.transport import Protocol, connect_pair


def make_control():
    """Control logic whose two send callables append to lists."""
    sent_cmds, sent_rsps = [], []
    ctl = ControlLogic(sent_cmds.append, sent_rsps.append)
    return ctl, sent_cmds, sent_rsps


def frame(msg):
    """A frame as a driver hands it on: decoded, and as read."""
    return msg, encode_message(msg)


def wire(msgs):
    return [encode_message(m) for m in msgs]


def test_command_sets_period_then_forwards_and_logs():
    ctl, sent_cmds, _ = make_control()
    ctl.handle_transmitter_command(*frame(command(50)))
    assert ctl.period == 50
    assert sent_cmds == wire([command(50)])
    # the period in force when the log entry is written is the new one
    assert ctl.data_log == [("cmd", command(50))]


def test_command_is_logged_before_it_is_forwarded():
    # the response to a command is logged on another task once the command
    # is sent, so the command's entry must already be there
    log_at_send = []
    ctl = ControlLogic(lambda payload: log_at_send.append(list(ctl.data_log)),
                       lambda payload: None)
    ctl.handle_transmitter_command(*frame(command(50)))
    assert log_at_send == [[("cmd", command(50))]]


def test_zero_and_negative_commands_forward_but_skip_log():
    ctl, sent_cmds, _ = make_control()
    ctl.handle_transmitter_command(*frame(command(0)))
    ctl.handle_transmitter_command(*frame(command(-7)))
    assert ctl.period == -7
    assert sent_cmds == wire([command(0), command(-7)])
    assert ctl.data_log == []


def test_response_forwarded_verbatim_log_gated_on_period():
    ctl, _, sent_rsps = make_control()
    ctl.handle_sensor_response(*frame(status(0)))     # period 0: not logged
    ctl.handle_transmitter_command(*frame(command(25)))
    ctl.handle_sensor_response(*frame(status(1)))     # period 25: logged
    ctl.handle_transmitter_command(*frame(command(0)))
    ctl.handle_sensor_response(*frame(status(0)))     # period 0: not logged
    assert sent_rsps == wire([status(0), status(1), status(0)])
    assert ctl.data_log == [("cmd", command(25)), ("rsp", status(1))]


def test_handlers_forward_the_bytes_they_were_handed():
    # a relay never re-encodes: what goes out is the very object read
    ctl, sent_cmds, sent_rsps = make_control()
    cmd, rsp = frame(command(9)), frame(status(1))
    ctl.handle_transmitter_command(*cmd)
    ctl.handle_sensor_response(*rsp)
    assert sent_cmds[0] is cmd[1] and sent_rsps[0] is rsp[1]


def test_stray_non_command_counted_not_forwarded():
    ctl, sent_cmds, _ = make_control()
    ctl.handle_transmitter_command(*frame(status(1)))
    ctl.handle_transmitter_command(*frame(command(3)))
    assert ctl.stray_commands == 1
    assert sent_cmds == wire([command(3)])


def test_control_loops_preserve_per_path_order():
    rt = WallRuntime()
    ctl, cmds, rsps = make_control()

    def feed():
        for v in range(1, 51):
            ctl.handle_transmitter_command(*frame(command(v)))
            ctl.handle_sensor_response(*frame(status(v % 3)))
        rt.shutdown()

    rt.spawn(feed, name="feed")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    assert cmds == wire(command(v) for v in range(1, 51))
    assert rsps == wire(status(v % 3) for v in range(1, 51))
    assert ctl.period == 50
    # control runs inline on the calling task: the log keeps the call order
    # across both handlers
    assert ctl.data_log == [
        entry for v in range(1, 51)
        for entry in (("cmd", command(v)), ("rsp", status(v % 3)))
    ]


def test_a_status_on_the_command_link_is_a_stray():
    # the tx driver hands control whatever arrives inbound: a status there
    # is counted and dropped, while the sensor's own statuses pass on
    rt = WallRuntime()
    up_plant, up_op = connect_pair(rt, "up:plant", "up:op", Protocol.TCP)
    down_op, down_plant = connect_pair(rt, "down:op", "down:plant",
                                       Protocol.TCP)
    plant = assemble_plant(rt, None, SensorBacking.REAL,
                           outbound=up_plant, inbound=down_plant)
    frames = []

    def operator():
        frames.append(up_op.read_frame())  # boot announcement
        down_op.write_frame(encode_message(status(1)))  # stray
        down_op.write_frame(encode_message(command(4)))
        frames.append(up_op.read_frame())
        plant.stop()
        rt.shutdown()

    rt.spawn(operator, name="operator")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    assert plant.control.stray_commands == 1
    assert [decode_message(f) for f in frames] == [status(0), status(1)]
    assert plant.control.data_log == [("cmd", command(4)), ("rsp", status(1))]
    # the tx driver's counts are the transmitter's: 2 frames in each way
    tx = plant.tx_driver.stats
    assert (tx.relayed_in + tx.skipped_in, tx.relayed_out) == (2, 2)


def test_control_on_two_emitting_tasks_keeps_each_path_whole():
    # each driver's receive loop calls one handler; the two share its state
    rt = WallRuntime()
    ctl, cmds, rsps = make_control()
    done = []

    def feed(handle, msgs):
        for msg in msgs:
            handle(*frame(msg))
        done.append(handle)

    commands = [command(v) for v in range(1, 2001)]
    responses = [status(v % 3) for v in range(2000)]
    rt.spawn(lambda: feed(ctl.handle_transmitter_command, commands),
             name="tx")
    rt.spawn(lambda: feed(ctl.handle_sensor_response, responses),
             name="sensor")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    assert len(done) == 2
    assert cmds == wire(commands) and rsps == wire(responses)
    assert ctl.period == 2000
    # every command is logged (all periods positive), in order; responses
    # are logged only once a command has set a positive period
    assert [m for tag, m in ctl.data_log if tag == "cmd"] == commands
    logged = [m for tag, m in ctl.data_log if tag == "rsp"]
    assert logged == responses[len(responses) - len(logged):]


MISSION = (50, 0, -1)


def drive_plant(backing, mode="wall", seed=0, recording=None, script=MISSION):
    """Assemble a plant, run an operator script against it, return transcript."""
    rt = WallRuntime() if mode == "wall" else LockstepRuntime(seed=seed)
    up_plant, up_op = connect_pair(rt, "up:plant", "up:op", Protocol.TCP)
    down_op, down_plant = connect_pair(rt, "down:op", "down:plant", Protocol.TCP)
    plant = assemble_plant(rt, None, backing, recording=recording,
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
    assert plant.sensor.state is State.OFF
    assert plant.control.period == -1
    # only traffic under a positive period lands in the local data log
    assert plant.control.data_log == [
        ("cmd", command(50)),
        ("rsp", status(int(State.ACTIVE))),
    ]


def test_real_plant_mission_lockstep():
    plant, frames = drive_plant(SensorBacking.REAL, mode="lockstep", seed=11)
    assert [decode_message(f) for f in frames][-1] == status(int(State.OFF))
    assert plant.sensor.state is State.OFF


def test_emulated_plant_indistinguishable_from_real():
    _, real_frames = drive_plant(SensorBacking.REAL)
    # replay material: exactly the bytes the real sensor produced
    plant, emu_frames = drive_plant(SensorBacking.EMULATED,
                                    recording=real_frames)
    assert emu_frames == real_frames  # byte identical, boot included
    assert plant.backing is SensorBacking.EMULATED
    assert not hasattr(plant.sensor, "state")  # a prototype has no state


MISSION_RECORDING = wire([status(0), status(1), status(0), status(2)])


def configuration(plant):
    """Each driver's name, command set and protocol, then the control
    logic's type and period."""
    drivers = [(d.name, d.command_set, d.conn.protocol)
               for d in (plant.sensor_driver, plant.tx_driver)]
    return drivers, type(plant.control), plant.control.period


def test_configuration_identical_across_backings():
    # no commands: control keeps the period it starts with
    real, _ = drive_plant(SensorBacking.REAL, script=())
    emu, _ = drive_plant(SensorBacking.EMULATED, recording=MISSION_RECORDING,
                         script=())
    assert configuration(real) == configuration(emu) == (
        [("sensor-driver", frozenset({OP_COMMAND}), Protocol.RS232),
         ("tx-driver", frozenset({OP_MEASUREMENT, OP_STATUS}), Protocol.TCP)],
        ControlLogic, 0,
    )
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
        "sensor-driver:device", "sensor-driver:recv", "tx-driver:recv",
        "operator",
    ])


def test_emulated_plant_requires_recording():
    rt = WallRuntime()
    up_plant, _ = connect_pair(rt, "up:plant", "up:op", Protocol.TCP)
    _, down_plant = connect_pair(rt, "down:op", "down:plant", Protocol.TCP)
    with pytest.raises(RecordingMissing):
        assemble_plant(rt, None, SensorBacking.EMULATED, up_plant, down_plant)
