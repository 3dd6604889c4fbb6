"""Embedded control stack and plant assembly.

The control logic sits between two drivers and is deliberately not a state
machine: it relays commands from the transmitter to the sensor and responses
from the sensor to the transmitter, byte-for-byte, while keeping exactly two
pieces of state: the last commanded period and an in-memory data log. A
message is logged only while the period is positive (evaluated after the
period update for commands), so the local log is a sampling-window record,
not a full audit; the digital thread is the audit.

Control has no task of its own. Each driver's receive loop calls one of its
two handlers directly, with the frame decoded and as read: the transmitter
driver's loop calls `handle_transmitter_command`, the sensor driver's
`handle_sensor_response`. A handler reads the message, logs, then forwards
the bytes its driver read with the other driver's `forward` (a relay never
calls the codec) and returns what it returns: None once the frame is sent,
or, on a full lockstep link, the generator that waits and then sends, which
the receive loop runs on that same task. So each device link keeps one
writer: `tx-driver:recv` writes the sensor link and `sensor-driver:recv`
writes the outbound link. The period, the data log and the stray count are
touched by both tasks, under a short lock that is never held across a send
(a send can park on a full link, and under lockstep a task blocked on a raw
lock hangs the kernel).

`assemble_plant` builds the whole physical-twin stack. The only difference
between a REAL and an EMULATED (prototype) assembly is what hangs off the far
end of the sensor link: a software sensor on a virtual serial pair, or the
recording-fed emulator on the `bridge:` pair. Both spawn the same three
tasks, in this order: the sensor's serve loop (`sensor-driver:device`,
which announces the boot first), the sensor driver's receive loop
(`sensor-driver:recv`) and the tx driver's (`tx-driver:recv`). Both build
the same drivers (name, command set, protocol) and the same control logic.
The sensor driver takes its command set from the device's class constant,
which a sensor and an emulator share, so nothing needs checking at start:
the configuration is identical by construction, and the assembly's own
`sensor_driver`, `tx_driver` and `control` show it.

`plant_process_main` is the isolated plant's entry: the child process that
an `isolate` run forks calls it on the two link sockets it inherits.
"""

from __future__ import annotations

import sys
import threading
from enum import Enum

from .devices import (
    DeviceDriver,
    DeviceStats,
    EmulatorDevice,
    SensorDevice,
    TransmitterDevice,
    run_measurement_script,
    serve,
)
from .errors import ConnectionClosed, RecordingMissing
from .messages import OP_MEASUREMENT, OP_STATUS, MessageKind
from .runtime import WallRuntime
from .thread_log import load_checked_recordings
from .transport import (
    BRIDGE_WINDOW,
    Protocol,
    connect_pair,
    open_virtual_serial_pair,
)


_COMMAND = MessageKind.COMMAND  # read once a frame (see messages._STATUS)


class ControlLogic:
    """Bidirectional relay with period bookkeeping and a gated data log."""

    def __init__(self, send_command, send_response):
        """`send_command` writes toward the sensor, `send_response` toward
        the transmitter. Each is called by a handler, which returns what it
        returns: None once sent, or a generator the caller runs."""
        self.period = 0
        self.data_log = []  # (tag, Message), relay order
        self.stray_commands = 0
        self._lock = threading.Lock()  # never held across a send
        self._send_command = send_command
        self._send_response = send_response

    def handle_transmitter_command(self, msg, payload):
        """Period update first, then forward; log under the new period."""
        if msg.kind is not _COMMAND:
            with self._lock:
                self.stray_commands += 1
            return None
        with self._lock:
            self.period = msg.value
            if msg.value > 0:  # logged before the send: relay order is causal
                self.data_log.append(("cmd", msg))
        return self._send_command(payload)

    def handle_sensor_response(self, msg, payload):
        """Log under the current period, then forward verbatim."""
        with self._lock:
            if self.period > 0:
                self.data_log.append(("rsp", msg))
        return self._send_response(payload)


class SensorBacking(Enum):
    REAL = "real"
    EMULATED = "emulated"


class PlantAssembly:
    """One physical twin (or prototype): sensor, drivers, control, transmitter."""

    def __init__(self, backing, sensor, sensor_driver, tx_driver, control,
                 device_stats):
        self.backing = backing
        self.sensor = sensor
        self.device_stats = device_stats  # the sensor serve loop's counts
        self.sensor_driver = sensor_driver
        self.tx_driver = tx_driver
        self.control = control
        self._closables = []

    def stop(self):
        for item in self._closables:
            item.close()


def assemble_plant(runtime, bus, backing, outbound, inbound, recording=None,
                   measurement_script=None, link_capacity=BRIDGE_WINDOW):
    """Build and start a plant assembly.

    backing REAL: software sensor on a virtual serial pair.
    backing EMULATED: recording-fed emulator on the `bridge:` serial pair;
    `recording` (the recorded payloads, played once) is mandatory.
    `outbound`/`inbound` are the transmitter's external link endpoints; the
    tx driver writes the one and reads the other directly. The sensor
    link holds `link_capacity` frames per direction. The driver and control
    wiring is byte-identical in both cases.

    `bus` is ignored: the drivers call control directly, so a plant has no
    use for a bus. The parameter stays so that callers written against the
    bus-wired plant, the acceptance gate among them, keep working.
    """
    if backing is SensorBacking.REAL:
        dev_end, drv_end = open_virtual_serial_pair(runtime,
                                                    capacity=link_capacity)
        sensor = SensorDevice()
    else:
        if not recording:
            raise RecordingMissing("prototype assembly needs a recording")
        dev_end, drv_end = connect_pair(runtime, "bridge:dev", "bridge:drv",
                                        Protocol.RS232, link_capacity)
        sensor = EmulatorDevice(recording)

    sensor_driver = DeviceDriver(
        drv_end,
        command_set=sensor.command_set,
        name="sensor-driver",
    )
    tx_device = TransmitterDevice(outbound, inbound)
    tx_driver = DeviceDriver(
        tx_device,
        command_set=frozenset({OP_MEASUREMENT, OP_STATUS}),
        name="tx-driver",
    )
    control = ControlLogic(sensor_driver.forward, tx_driver.forward)

    device_stats = DeviceStats()
    runtime.spawn(serve(sensor, dev_end, device_stats),
                  name="sensor-driver:device")
    runtime.spawn(sensor_driver.receive(control.handle_sensor_response),
                  name="sensor-driver:recv")
    runtime.spawn(tx_driver.receive(control.handle_transmitter_command),
                  name="tx-driver:recv")

    if measurement_script and backing is SensorBacking.REAL:
        # a thread task: under lockstep, while it sleeps between entries,
        # its own thread carries the generator tasks' slices
        runtime.spawn(
            lambda: run_measurement_script(runtime, sensor, dev_end,
                                           measurement_script),
            name="measurement-script",
        )

    plant = PlantAssembly(backing, sensor, sensor_driver, tx_driver, control,
                          device_stats)
    plant._closables = [dev_end, drv_end, tx_device]
    return plant


def _start_plant(rt, recording, outbound, inbound, script, link_capacity):
    """The plant on its emulator if given recordings, else real."""
    backing = SensorBacking.EMULATED if recording else SensorBacking.REAL
    return assemble_plant(rt, None, backing, recording=recording,
                          outbound=outbound, inbound=inbound,
                          measurement_script=script,
                          link_capacity=link_capacity)


# ---------------------------------------------------------------------------
# Isolated plant process
# ---------------------------------------------------------------------------

# exit code of a plant process whose emulator ran out of recordings
EXIT_RECORDING_DRY = 3


def plant_process_main(up, down, duration_ms, measurements, recording,
                       link_capacity) -> int:
    """Child half of an isolated run: the whole plant behind two TCP links,
    `up` and `down`, the endpoints over the sockets it inherits from the
    parent. `measurements` are (t_ms, value) pairs and `recording` a path,
    which the parent has checked, or None. `up` gets its sender task here,
    with a queue of `link_capacity` frames; `down` is only read.

    Lives until the parent hangs up, or at most until the scenario duration
    plus a grace period, then tears itself down. Exits 1 if a task crashed
    or straggled, EXIT_RECORDING_DRY if the emulator ran out of recordings.
    """
    rt = WallRuntime()
    up.start_sender(rt, link_capacity)  # the tx driver writes the uplink
    # The child parses the recording again, though the parent has it parsed
    # and the fork would hand it over for free: while this parse runs, the
    # operator's first burst queues on the downlink, and the plant then
    # drains it in large reads. Handing over the parsed list boots the plant
    # first, and `isolate-burst` fell from 76.6k to 64.7k frames/s.
    plant = _start_plant(rt, load_checked_recordings(recording),
                         up, down, measurements or None, link_capacity)

    def deadline():
        rt.sleep_ms(duration_ms + 2000)
        plant.stop()
        rt.shutdown()

    def hangup_watch():
        # the parent never writes the uplink, so this read returns only at
        # hang-up (EOF or a reset) or when the plant closes the link itself
        try:
            up.read_frame()
        except ConnectionClosed:
            pass
        plant.stop()
        rt.shutdown()

    rt.spawn(deadline, name="plant:deadline")
    rt.spawn(hangup_watch, name="plant:hangup")
    stragglers = rt.run(timeout=duration_ms / 1000.0 + 10.0)
    bad = False
    for task_name, err in rt.task_errors():
        print(f"plant task {task_name}: {err!r}", file=sys.stderr)
        bad = True
    if stragglers:
        print(f"plant stragglers: {stragglers}", file=sys.stderr)
        bad = True
    if bad:
        return 1
    return EXIT_RECORDING_DRY if plant.device_stats.exhausted else 0
