"""Device layer tests: sensor semantics, emulator replay, serve/driver loops."""

from __future__ import annotations

import threading

import pytest

from twinproto.devices import (
    DeviceDriver,
    DeviceStats,
    EmulatorDevice,
    SensorDevice,
    run_measurement_script,
    serve,
)
from twinproto.errors import (
    CommandRejected,
    ConnectionClosed,
    ContextExhausted,
)
from twinproto.messages import (
    command,
    encode_message,
    measurement,
    status,
)
from twinproto.runtime import LockstepRuntime, WallRuntime, drive
from twinproto.statemachine import State
from twinproto.transport import Protocol, connect_pair, open_virtual_serial_pair


def wire(msgs):
    return [encode_message(m) for m in msgs]


def test_sensor_command_response_sequence():
    sensor = SensorDevice()
    assert sensor.boot_message() == b"\x20\x00"  # answers are wire bytes
    assert sensor.execute(command(50)) == b"\x20\x01"
    assert sensor.state is State.ACTIVE
    assert sensor.execute(command(0)) == encode_message(status(0))
    assert sensor.execute(command(-1)) == encode_message(status(2))
    # absorbed: still answers, state stays OFF
    assert sensor.execute(command(50)) == encode_message(status(2))


def test_sensor_rejects_non_commands():
    sensor = SensorDevice()
    with pytest.raises(CommandRejected):
        sensor.execute(measurement(7))
    with pytest.raises(CommandRejected):
        sensor.execute(status(1))
    assert sensor.state is State.STANDBY  # rejection leaves state untouched


def test_emulator_replays_in_order_and_never_computes():
    recorded = wire([status(2), status(0), measurement(9)])
    emu = EmulatorDevice(recorded)
    # a command that would drive a real sensor ACTIVE still yields the
    # recording: the very bytes recorded, not a copy
    assert emu.execute(command(50)) is recorded[0]
    assert emu.execute(command(50)) is recorded[1]
    assert emu.execute(command(0)) is recorded[2]
    with pytest.raises(ContextExhausted):
        emu.execute(command(0))


def test_emulator_sends_the_measurements_that_follow_a_replayed_status():
    recorded = wire([status(1), measurement(7), measurement(8), status(0)])
    emu = EmulatorDevice(recorded)
    assert emu.boot_message() is recorded[0]
    assert [emu.unprompted(), emu.unprompted()] == recorded[1:3]
    assert emu.unprompted() is None  # a status is only ever an answer
    assert emu.execute(command(0)) is recorded[3]
    assert emu.unprompted() is None  # nothing left


def test_emulator_single_recording_then_exhausted():
    emu = EmulatorDevice(wire([status(1)]))
    assert emu.execute(command(123)) == encode_message(status(1))
    assert emu.cursor == 1
    with pytest.raises(ContextExhausted):
        emu.execute(command(123))


def test_emulator_rejects_outside_command_set():
    emu = EmulatorDevice(wire([status(0)]))
    with pytest.raises(CommandRejected):
        emu.execute(measurement(1))
    assert emu.cursor == 0  # nothing consumed on rejection


def run_serve_session(device, frames, expect):
    """Push raw frames at a served device; collect `expect` frames, the boot
    status first."""
    rt = WallRuntime()
    dev_end, drv_end = open_virtual_serial_pair(rt)
    stats = DeviceStats()
    rt.spawn(lambda: drive(serve(device, dev_end, stats)), name="device")
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
    responses, stats = run_serve_session(sensor, frames, expect=3)
    assert responses == [b"\x20\x00", b"\x20\x01", b"\x20\x02"]
    assert stats.decode_errors == 2
    assert stats.served == 2


def test_device_serve_boot_announcement():
    sensor = SensorDevice()
    responses, stats = run_serve_session(sensor, [encode_message(command(5))],
                                         expect=2)
    assert responses == [b"\x20\x00", b"\x20\x01"]  # boot STANDBY, then ACTIVE


def test_device_serve_rejected_command_writes_nothing():
    sensor = SensorDevice()
    frames = [encode_message(measurement(3)), encode_message(command(0))]
    responses, stats = run_serve_session(sensor, frames, expect=2)
    assert responses == [b"\x20\x00", b"\x20\x00"]  # boot, then command 0
    assert stats.rejected == 1


def serve_and_receive(rt, device, dev_end, driver, on_message):
    """A device/driver session as a plant starts one: the device's serve
    loop, then the driver's receive loop handing every frame on."""
    rt.spawn(serve(device, dev_end, DeviceStats()), name="device")
    rt.spawn(driver.receive(on_message), name="recv")


def test_driver_relays_in_order_and_skips_junk():
    rt = WallRuntime()
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()
    driver = DeviceDriver(drv_end, name="sensor-drv")
    responses = rt.channel(16)
    serve_and_receive(rt, sensor, dev_end, driver,
                      lambda msg, payload: responses.put((msg, payload)))
    got = []

    def scenario():
        cmds = [command(50), command(0), command(7), command(-1), command(2)]
        for c in wire(cmds):
            assert driver.forward(c) is None  # the wall clock never defers
        # outside the command set: not written
        assert driver.forward(encode_message(measurement(3))) is None
        # inject a junk frame directly at the device side: driver must skip it
        dev_end.write_frame(b"\xee\xee")
        for _ in range(6):
            got.append(responses.get())
        rt.shutdown()

    rt.spawn(scenario, name="scenario")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    # the boot status, then one answer per command
    want = [status(0), status(1), status(0), status(1), status(2), status(2)]
    assert got == list(zip(want, wire(want)))  # each frame in both forms
    assert driver.stats.relayed_out == 5
    assert driver.stats.skipped_out == 1
    assert driver.stats.skipped_in == 1
    assert driver.stats.relayed_in == 6


@pytest.mark.parametrize("clock", ["wall", "lockstep"])
def test_a_driver_callback_runs_on_its_receive_loop_in_read_order(clock):
    rt = WallRuntime() if clock == "wall" else LockstepRuntime(seed=3)
    dev_end, drv_end = open_virtual_serial_pair(rt)
    driver = DeviceDriver(drv_end, name="drv")
    seen = []
    recv = rt.spawn(lambda: drive(driver.receive(
        lambda msg, payload: seen.append((msg, threading.get_ident())))),
        name="recv")
    frames = [measurement(v) for v in range(20)] + [status(1), status(2)]

    def device():
        for msg in frames:
            dev_end.write_frame(encode_message(msg))
        dev_end.write_frame(b"\xee\xee")  # undecodable: skipped, not handed on
        dev_end.close()

    rt.spawn(device, name="device")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    assert seen == [(msg, recv.thread.ident) for msg in frames]
    assert driver.stats.relayed_in == len(frames)
    assert driver.stats.skipped_in == 1
    assert driver.closed_by is not None


def test_record_then_replay_transcripts_match():
    """Miniature indistinguishability check at the driver boundary."""
    script = [command(50), command(0), command(3), command(0), command(-1),
              command(9)]

    def transcript(device, make_link):
        rt = WallRuntime()
        dev_end, drv_end = make_link(rt)
        driver = DeviceDriver(drv_end)
        responses = rt.channel(16)
        serve_and_receive(rt, device, dev_end, driver,
                          lambda msg, payload: responses.put(payload))
        got = []

        def scenario():
            for c in wire(script):
                assert driver.forward(c) is None  # the wall clock never defers
            for _ in range(len(script) + 1):
                got.append(responses.get())
            rt.shutdown()

        rt.spawn(scenario, name="scenario")
        assert rt.run(timeout=5.0) == []
        assert rt.task_errors() == []
        return got

    def serial_link(rt):
        return open_virtual_serial_pair(rt)

    real = transcript(SensorDevice(), serial_link)

    # recordings of the real run (boot + one response per command)
    recorded = wire([status(0), status(1), status(0), status(1), status(0),
                     status(2), status(2)])
    assert real == recorded

    def bridged_link(rt):
        return connect_pair(rt, "bridge:dev", "bridge:drv", Protocol.RS232)

    emulated = transcript(EmulatorDevice(recorded), bridged_link)
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


def test_measurement_script_returns_its_count_when_its_link_closes():
    # lockstep: the reader closes the link at tick 0, before the script's
    # third entry is due, on every host
    rt = LockstepRuntime(seed=1)
    dev_end, drv_end = open_virtual_serial_pair(rt)
    sensor = SensorDevice()
    sensor.execute(command(10))  # ACTIVE
    sent = {}

    def run():
        sent["n"] = run_measurement_script(rt, sensor, dev_end,
                                           [(0, 1), (0, 2), (50, 3), (60, 4)])

    def read():
        drv_end.read_frame()
        drv_end.read_frame()
        drv_end.close()

    rt.spawn(run, name="script")
    rt.spawn(read, name="read")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    assert sent["n"] == 2


def test_a_driver_reads_one_link_and_writes_another():
    # the tx driver's shape: it reads `conn`, the plant's inbound link, and
    # writes `out`, its outbound link; a link loss closes both
    rt = WallRuntime()
    out_a, out_b = open_virtual_serial_pair(rt, "out-pt", "out-dt")
    in_a, in_b = open_virtual_serial_pair(rt, "in-dt", "in-pt")
    up, down = encode_message(status(1)), encode_message(command(50))
    tx = DeviceDriver(in_b, frozenset({up[0]}), name="tx-driver", out=out_a)
    assert tx.forward(up) is None  # PT stack -> outbound link
    assert out_b.read_frame() == up
    seen = []
    rt.spawn(tx.receive(lambda msg, payload: seen.append(payload)),
             name="tx-driver:recv")
    in_a.write_frame(down)  # inbound link -> PT stack
    in_a.close()
    assert rt.run(timeout=5.0) == []
    assert seen == [down]
    assert tx.closed_by == "in-pt: stream closed"
    with pytest.raises(ConnectionClosed):
        out_b.read_frame()
    with pytest.raises(ConnectionClosed):
        tx.forward(up)
