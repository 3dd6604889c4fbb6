"""Embedded control stack and plant assembly.

The control logic sits between two drivers and is deliberately not a state
machine: it relays commands from the transmitter to the sensor and responses
from the sensor to the transmitter, byte-for-byte, while keeping exactly two
pieces of state: the last commanded period and an in-memory data log. A
message is logged only while the period is positive (evaluated after the
period update for commands), so the local log is a sampling-window record,
not a full audit; the digital thread is the audit.

One owner task consumes a single bus subscription covering both input
topics, so every state mutation happens on that task and the log order is the
order in which the two drivers emitted.

`assemble_plant` builds the whole physical-twin stack. The only difference
between a REAL and an EMULATED (prototype) assembly is what hangs off the far
end of the sensor link: a software sensor on a virtual serial pair, or the
recording-fed emulator on the `bridge:` pair. Both spawn the same six tasks
(the sensor's serve loop, two loops per driver, the control owner), and the
driver and control configuration are identical by construction, which
`describe_configuration` makes checkable.
"""

from __future__ import annotations

from enum import Enum

from .bus import (
    TOPIC_CONTROL_COMMAND,
    TOPIC_SENSOR_RESPONSE,
    TOPIC_TX_INBOUND,
    TOPIC_TX_OUTBOUND,
)
from .devices import (
    DeviceDriver,
    EmulatorContext,
    EmulatorDevice,
    ReplayMode,
    SensorDevice,
    TransmitterDevice,
    run_communication,
    run_measurement_script,
)
from .errors import RecordingMissing
from .messages import OP_COMMAND, OP_MEASUREMENT, OP_STATUS, MessageKind
from .transport import Protocol, connect_pair, open_virtual_serial_pair


class ControlLogic:
    """Bidirectional relay with period bookkeeping and a gated data log."""

    def __init__(self, bus,
                 command_in=TOPIC_TX_INBOUND,
                 command_out=TOPIC_CONTROL_COMMAND,
                 response_in=TOPIC_SENSOR_RESPONSE,
                 response_out=TOPIC_TX_OUTBOUND):
        self.period = 0
        self.data_log = []  # (tag, Message), relay order
        self.stray_commands = 0
        self.topics = {
            "command_in": command_in,
            "command_out": command_out,
            "response_in": response_in,
            "response_out": response_out,
        }
        self._inputs = bus.subscribe((command_in, response_in), name="ctl")
        self._cmd_out = bus.producer(command_out)
        self._rsp_out = bus.producer(response_out)

    def handle_transmitter_command(self, msg):
        """Period update first, then forward; log under the new period."""
        if msg.kind is not MessageKind.COMMAND:
            self.stray_commands += 1
            return
        self.period = msg.value
        self._cmd_out.emit(msg)
        if self.period > 0:
            self.data_log.append(("cmd", msg))

    def handle_sensor_response(self, msg):
        """Forward verbatim; log under the current period."""
        self._rsp_out.emit(msg)
        if self.period > 0:
            self.data_log.append(("rsp", msg))

    def start(self, runtime):
        command_in = self.topics["command_in"]

        def owner_loop():
            while True:
                topic, msg = self._inputs.consume()
                if topic == command_in:
                    self.handle_transmitter_command(msg)
                else:
                    self.handle_sensor_response(msg)

        runtime.spawn(owner_loop, name="ctl:owner")
        return self

    def describe(self):
        return {"period_init": 0, "log_gate": "period>0", **self.topics}


class SensorBacking(Enum):
    REAL = "real"
    EMULATED = "emulated"


class PlantAssembly:
    """One physical twin (or prototype): sensor, drivers, control, transmitter."""

    def __init__(self, runtime, bus, backing, sensor, sensor_driver, tx_device,
                 tx_driver, control, measurement_script=None):
        self.runtime = runtime
        self.bus = bus
        self.backing = backing
        self.sensor = sensor
        self.sensor_driver = sensor_driver
        self.tx_device = tx_device
        self.tx_driver = tx_driver
        self.control = control
        self.measurement_script = measurement_script
        self._closables = []

    def sensor_state(self):
        """Actual device state; only a REAL backing has one."""
        return self.sensor.state if self.backing is SensorBacking.REAL else None

    def describe_configuration(self):
        """Driver/control configuration. Identical for REAL and EMULATED."""
        return {
            "control": self.control.describe(),
            "sensor_driver": self.sensor_driver.describe(),
            "tx_driver": self.tx_driver.describe(),
        }

    def stop(self):
        for item in self._closables:
            item.close()


def assemble_plant(runtime, bus, backing, recording=None,
                   replay_mode=ReplayMode.ONESHOT,
                   outbound=None, inbound=None,
                   measurement_script=None):
    """Build and start a plant assembly.

    backing REAL: software sensor on a virtual serial pair.
    backing EMULATED: recording-fed emulator on the `bridge:` serial pair;
    `recording` (a list of Recording) is mandatory.
    `outbound`/`inbound` are the transmitter's external link endpoints (either
    may be None); the tx driver reads and writes them directly. The driver and
    control wiring is byte-identical in both cases.
    """
    # subscribe before any driver thread can emit, or the boot status is lost
    control = ControlLogic(bus)

    if backing is SensorBacking.REAL:
        dev_end, drv_end = open_virtual_serial_pair(runtime)
        sensor = SensorDevice()
    else:
        if not recording:
            raise RecordingMissing("prototype assembly needs a recording")
        dev_end, drv_end = connect_pair(runtime, "bridge:dev", "bridge:drv",
                                        Protocol.RS232)
        sensor = EmulatorDevice(EmulatorContext(recording, replay_mode))

    sensor_driver = DeviceDriver(
        drv_end, bus,
        emit_topic=TOPIC_SENSOR_RESPONSE,
        consume_topic=TOPIC_CONTROL_COMMAND,
        command_set=frozenset({OP_COMMAND}),
        name="sensor-driver",
    )
    run_communication(runtime, sensor, dev_end, sensor_driver,
                      announce_boot=True)

    tx_device = TransmitterDevice(outbound=outbound, inbound=inbound)
    tx_driver = DeviceDriver(
        tx_device, bus,
        emit_topic=TOPIC_TX_INBOUND,
        consume_topic=TOPIC_TX_OUTBOUND,
        command_set=frozenset({OP_MEASUREMENT, OP_STATUS}),
        name="tx-driver",
    )
    runtime.spawn(tx_driver.receive_loop, name="tx-driver:recv")
    runtime.spawn(tx_driver.send_loop, name="tx-driver:send")

    control.start(runtime)

    if measurement_script and backing is SensorBacking.REAL:
        runtime.spawn(
            lambda: run_measurement_script(runtime, sensor, dev_end,
                                           measurement_script),
            name="measurement-script",
        )

    plant = PlantAssembly(runtime, bus, backing, sensor, sensor_driver,
                          tx_device, tx_driver, control,
                          measurement_script=measurement_script)
    plant._closables = [dev_end, drv_end, tx_device]
    return plant
