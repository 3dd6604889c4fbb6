"""Device layer tests: sensor semantics, emulator replay, serve/driver loops."""

from __future__ import annotations

import pytest

from twinproto.bus import EventBus
from twinproto.devices import (
    DeviceDriver,
    DeviceStats,
    EmulatorContext,
    EmulatorDevice,
    ReplayMode,
    SensorDevice,
    TransmitterDevice,
    device_serve,
    run_communication,
    run_measurement_script,
)
from twinproto.errors import (
    CommandRejected,
    CommandSetMismatch,
    ConnectionClosed,
    ContextExhausted,
)
from twinproto.messages import command, encode_message, measurement, status
from twinproto.runtime import WallRuntime
from twinproto.statemachine import State
from twinproto.transport import Protocol, connect_pair, open_virtual_serial_pair


def test_sensor_command_response_sequence():
    sensor = SensorDevice()
    assert sensor.execute(command(50)) == status(1)
    assert sensor.state is State.ACTIVE
    assert sensor.execute(command(0)) == status(0)
    assert sensor.execute(command(-1)) == status(2)
    # absorbed: still answers, state stays OFF
    assert sensor.execute(command(50)) == status(2)
    assert sensor.twin_state.period == 50


def test_sensor_rejects_non_commands():
    sensor = SensorDevice()
    with pytest.raises(CommandRejected):
        sensor.execute(measurement(7))
    with pytest.raises(CommandRejected):
        sensor.execute(status(1))
    assert sensor.state is State.STANDBY  # rejection leaves state untouched


def test_emulator_replays_in_order_and_never_computes():
    ctx = EmulatorContext.from_messages([status(2), status(0), measurement(9)])
    emu = EmulatorDevice(ctx)
    # a command that would drive a real sensor ACTIVE still yields the recording
    assert emu.execute(command(50)) == status(2)
    assert emu.execute(command(50)) == status(0)
    assert emu.execute(command(0)) == measurement(9)
    with pytest.raises(ContextExhausted):
        emu.execute(command(0))


def test_emulator_single_recording_then_exhausted():
    ctx = EmulatorContext.from_messages([status(1)])
    emu = EmulatorDevice(ctx)
    assert emu.execute(command(123)) == status(1)
    assert ctx.remaining == 0
    with pytest.raises(ContextExhausted):
        emu.execute(command(123))


def test_emulator_loop_mode_wraps():
    ctx = EmulatorContext.from_messages([status(0), status(1)], ReplayMode.LOOP)
    emu = EmulatorDevice(ctx)
    got = [emu.execute(command(1)) for _ in range(5)]
    assert got == [status(0), status(1), status(0), status(1), status(0)]


def test_emulator_rejects_outside_command_set():
    emu = EmulatorDevice(EmulatorContext.from_messages([status(0)]))
    with pytest.raises(CommandRejected):
        emu.execute(measurement(1))
    assert emu.context.remaining == 1  # nothing consumed on rejection


def run_serve_session(device, frames, expect, announce_boot=False):
    """Push raw frames at a served device; collect `expect` response frames."""
    rt = WallRuntime()
    dev_end, drv_end = open_virtual_serial_pair(rt)
    stats = DeviceStats()
    rt.spawn(
        lambda: device_serve(device, dev_end, announce_boot=announce_boot,
                             stats=stats),
        name="device",
    )
    responses = []

    def pump():
        for f in frames:
            drv_end.write_frame(f)

    def read():
        for _ in range(expect):
            responses.append(drv_end.read_frame())
        rt.shutdown()

    rt.spawn(pump, name="pump")
    rt.spawn(read, name="read")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    return responses, stats


def test_device_serve_roundtrip_and_malformed_skip():
    sensor = SensorDevice()
    frames = [
        encode_message(command(50)),
        b"\x7f",                      # unknown opcode: skipped, counted
        b"\x01\x00",                  # truncated: skipped, counted
        encode_message(command(-2)),
    ]
    responses, stats = run_serve_session(sensor, frames, expect=2)
    assert responses == [b"\x20\x01", b"\x20\x02"]
    assert stats.decode_errors == 2
    assert stats.served == 2


def test_device_serve_boot_announcement():
    sensor = SensorDevice()
    responses, stats = run_serve_session(sensor, [encode_message(command(5))],
                                         expect=2, announce_boot=True)
    assert responses == [b"\x20\x00", b"\x20\x01"]  # boot STANDBY, then ACTIVE


def test_device_serve_rejected_command_writes_nothing():
    sensor = SensorDevice()
    frames = [encode_message(measurement(3)), encode_message(command(0))]
    responses, stats = run_serve_session(sensor, frames, expect=1)
    assert responses == [b"\x20\x00"]
    assert stats.rejected == 1


def test_run_communication_checks_command_sets():
    rt = WallRuntime()
    bus = EventBus(rt)
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()
    driver = DeviceDriver(drv_end, bus, emit_topic="sensor.response",
                          consume_topic="ctl.command",
                          command_set=frozenset({0x10}))
    with pytest.raises(CommandSetMismatch):
        run_communication(rt, sensor, dev_end, driver)


def test_driver_relays_in_order_and_skips_junk():
    rt = WallRuntime()
    bus = EventBus(rt)
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()
    driver = DeviceDriver(drv_end, bus, emit_topic="sensor.response",
                          consume_topic="ctl.command", name="sensor-drv")
    responses = bus.subscribe("sensor.response")
    run_communication(rt, sensor, dev_end, driver)
    got = []

    def scenario():
        cmds = [command(50), command(0), command(7), command(-1), command(2)]
        for c in cmds:
            bus.emit("ctl.command", c)
        # inject a junk frame directly at the device side: driver must skip it
        dev_end.write_frame(b"\xee\xee")
        for _ in range(5):
            got.append(responses.consume())
        rt.shutdown()

    rt.spawn(scenario, name="scenario")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    assert got == [status(1), status(0), status(1), status(2), status(2)]
    assert driver.stats.relayed_out == 5
    assert driver.stats.skipped_in == 1
    assert driver.stats.relayed_in == 5


def test_record_then_replay_transcripts_match():
    """Miniature indistinguishability check at the driver boundary."""
    script = [command(50), command(0), command(3), command(0), command(-1),
              command(9)]

    def transcript(device, make_link):
        rt = WallRuntime()
        bus = EventBus(rt)
        dev_end, drv_end = make_link(rt)
        driver = DeviceDriver(drv_end, bus, emit_topic="sensor.response",
                              consume_topic="ctl.command")
        responses = bus.subscribe("sensor.response")
        run_communication(rt, device, dev_end, driver, announce_boot=True)
        got = []

        def scenario():
            for c in script:
                bus.emit("ctl.command", c)
            for _ in range(len(script) + 1):
                got.append(responses.consume())
            rt.shutdown()

        rt.spawn(scenario, name="scenario")
        assert rt.run(timeout=5.0) == []
        assert rt.task_errors() == []
        return [encode_message(m) for m in got]

    def serial_link(rt):
        return open_virtual_serial_pair(rt)

    real = transcript(SensorDevice(), serial_link)

    # recordings of the real run (boot + one response per command)
    recorded = [status(0), status(1), status(0), status(1), status(0),
                status(2), status(2)]
    assert real == [encode_message(m) for m in recorded]

    def bridged_link(rt):
        return connect_pair(rt, "bridge:dev", "bridge:drv", Protocol.RS232)

    emulated = transcript(
        EmulatorDevice(EmulatorContext.from_messages(recorded)), bridged_link
    )
    assert emulated == real


def test_measurement_script_gated_on_active():
    rt = WallRuntime()
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()
    sensor.execute(command(10))  # ACTIVE
    script = [(0, 100), (5, 200), (10, 300)]
    sent = {}
    got = []

    def run():
        sent["n"] = run_measurement_script(rt, sensor, dev_end, script)

    def read():
        for _ in range(3):
            got.append(drv_end.read_frame())

    rt.spawn(run, name="script")
    rt.spawn(read, name="read")
    assert rt.run(timeout=5.0) == []
    assert sent["n"] == 3
    assert got == [encode_message(measurement(v)) for v in (100, 200, 300)]


def test_measurement_script_skips_when_not_active():
    rt = WallRuntime()
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()  # STANDBY the whole time
    sent = {}

    def run():
        sent["n"] = run_measurement_script(rt, sensor, dev_end, [(0, 1), (2, 2)])

    rt.spawn(run, name="script")
    rt.run(timeout=5.0)
    assert sent["n"] == 0


def test_transmitter_relays_verbatim_both_ways():
    rt = WallRuntime()
    out_a, out_b = open_virtual_serial_pair(rt, "out-pt", "out-dt")
    in_a, in_b = open_virtual_serial_pair(rt, "in-dt", "in-pt")
    tx = TransmitterDevice(outbound=out_a, inbound=in_b)
    tx.write_frame(b"\x20\x01")           # PT stack -> outbound link
    assert out_b.read_frame() == b"\x20\x01"
    in_a.write_frame(b"\x01\x00\x32")     # inbound link -> PT stack
    assert tx.read_frame() == b"\x01\x00\x32"
    assert tx.stats.relayed_up == 1
    assert tx.stats.relayed_down == 1
    assert tx.protocol is Protocol.TCP
    tx.close()  # closes both links
    with pytest.raises(ConnectionClosed):
        out_b.read_frame()
    with pytest.raises(ConnectionClosed):
        in_a.write_frame(b"\x01\x00\x00")


def test_transmitter_without_outbound_drops_and_counts():
    tx = TransmitterDevice(outbound=None, inbound=None)
    tx.write_frame(b"\x20\x00")
    assert tx.stats.dropped_up == 1
    assert tx.stats.relayed_up == 0
    with pytest.raises(ConnectionClosed):
        tx.read_frame()
    tx.close()
