"""Device layer: the software sensor, the recording-fed emulator, and the
serial drivers that bind either of them to the event bus.

The request/response contract on a device link is strict: one decoded command
in, one encoded response out, in order. Malformed frames never kill a serve
loop; they are skipped and counted. A device also pushes unsolicited frames
(boot status announcement, scripted measurements) down the same link; drivers
relay whatever arrives, so nothing upstream needs to know the difference.

The transmitter is not a device with a serve loop but the transmitter
driver's connection itself: writes go straight out on the plant's outbound
link and reads come straight in from its inbound link, with no task between.

The emulator is deliberately dumb: it replays previously recorded responses in
order and never computes a fresh one. Fed with the recordings of a real run
and given the same command script, it is byte-indistinguishable from the real
device at the driver side, which is what makes prototype assemblies honest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CodecError,
    CommandRejected,
    CommandSetMismatch,
    ConnectionClosed,
    ContextExhausted,
)
from .messages import (
    OP_COMMAND,
    Message,
    Recording,
    decode_message,
    encode_message,
    measurement,
    status,
)
from .statemachine import State, TwinState, process_event
from .transport import Protocol

DEFAULT_COMMAND_SET = frozenset({OP_COMMAND})


def command_set_label(cs):
    return ",".join(f"0x{op:02x}" for op in sorted(cs))


# ---------------------------------------------------------------------------
# Devices
# ---------------------------------------------------------------------------

class SensorDevice:
    """Deterministic stand-in for the physical sensor.

    Applies the sign-rule state machine to every accepted command and answers
    with its resulting status. Thread-safe: the serve loop and the measurement
    script share it.
    """

    kind = "sensor"

    def __init__(self, command_set=DEFAULT_COMMAND_SET):
        self.command_set = frozenset(command_set)
        self._lock = threading.Lock()
        self._ts = TwinState()

    @property
    def state(self) -> State:
        with self._lock:
            return self._ts.current

    @property
    def twin_state(self) -> TwinState:
        with self._lock:
            return self._ts

    def execute(self, msg: Message) -> Message:
        if msg.kind.opcode not in self.command_set:
            raise CommandRejected(f"sensor does not accept {msg.kind.name}")
        with self._lock:
            self._ts = process_event(self._ts, msg)
            return status(int(self._ts.current))

    def boot_message(self) -> Message:
        return status(int(self.state))

    def describe(self):
        return {"kind": self.kind, "commands": command_set_label(self.command_set)}


class ReplayMode(Enum):
    ONESHOT = "oneshot"
    LOOP = "loop"


class EmulatorContext:
    """Ordered recordings with a replay cursor."""

    def __init__(self, recordings, mode=ReplayMode.ONESHOT):
        self.recordings = list(recordings)
        self.mode = mode
        self.cursor = 0

    @classmethod
    def from_messages(cls, messages, mode=ReplayMode.ONESHOT):
        return cls([Recording(m) for m in messages], mode)

    def next_recording(self) -> Recording:
        if self.cursor >= len(self.recordings):
            if self.mode is ReplayMode.LOOP and self.recordings:
                self.cursor = 0
            else:
                raise ContextExhausted(
                    f"all {len(self.recordings)} recordings consumed"
                )
        rec = self.recordings[self.cursor]
        self.cursor += 1
        return rec

    @property
    def remaining(self):
        return max(len(self.recordings) - self.cursor, 0)


class EmulatorDevice:
    """Replays an EmulatorContext; never computes a response."""

    kind = "emulator"

    def __init__(self, context: EmulatorContext, command_set=DEFAULT_COMMAND_SET):
        self.command_set = frozenset(command_set)
        self.context = context

    def execute(self, msg: Message) -> Message:
        if msg.kind.opcode not in self.command_set:
            raise CommandRejected(f"emulator does not accept {msg.kind.name}")
        return self.context.next_recording().message

    def boot_message(self) -> Message:
        # the boot announcement of the recorded run is recording zero
        return self.context.next_recording().message

    def describe(self):
        return {"kind": self.kind, "commands": command_set_label(self.command_set)}


@dataclass
class DeviceStats:
    served: int = 0
    decode_errors: int = 0
    rejected: int = 0
    exhausted: int = 0


def device_serve(device, conn, announce_boot=False, stats=None) -> DeviceStats:
    """Serve loop: read frame, decode, execute, encode, write response.

    Malformed frames and rejected commands are counted and skipped, never
    fatal. Returns (with its stats) when the connection closes.
    """
    stats = stats if stats is not None else DeviceStats()
    try:
        if announce_boot:
            conn.write_frame(encode_message(device.boot_message()))
        while True:
            payload = conn.read_frame()
            try:
                msg = decode_message(payload)
            except CodecError:
                stats.decode_errors += 1
                continue
            try:
                response = device.execute(msg)
            except CommandRejected:
                stats.rejected += 1
                continue
            except ContextExhausted:
                stats.exhausted += 1
                continue
            conn.write_frame(encode_message(response))
            stats.served += 1
    except ConnectionClosed:
        return stats


def run_measurement_script(runtime, sensor, conn, script):
    """Feed scripted (time_ms, value) measurements down the device link.

    Entries fire at their scripted time but only while the sensor is ACTIVE;
    inactive entries are skipped, not deferred.
    """
    t0 = runtime.now_ns()
    sent = 0
    try:
        for t, value in script:
            delay = t - runtime.ms_since(t0)
            if delay > 0:
                runtime.sleep_ms(delay)
            if sensor.state is State.ACTIVE:
                conn.write_frame(encode_message(measurement(value)))
                sent += 1
    except ConnectionClosed:
        pass
    return sent


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

@dataclass
class DriverStats:
    relayed_in: int = 0    # device -> bus
    relayed_out: int = 0   # bus -> device
    skipped_in: int = 0    # undecodable frames from the device
    skipped_out: int = 0   # bus items outside the command set


class DeviceDriver:
    """Pure relay between one connection and the event bus.

    receive loop: frame -> decode -> emit on `emit_topic` (undecodable frames
    are counted and skipped). send loop: consume `consume_topic` -> encode ->
    write. No transformation, no reordering, no interpretation.
    """

    def __init__(self, conn, bus, emit_topic=None, consume_topic=None,
                 command_set=DEFAULT_COMMAND_SET, name="driver"):
        self.name = name
        self.conn = conn
        self.command_set = frozenset(command_set)
        self.emit_topic = emit_topic
        self.consume_topic = consume_topic
        self._emitter = bus.producer(emit_topic) if emit_topic else None
        self._consumer = bus.subscribe(consume_topic, name=name) if consume_topic else None
        self.stats = DriverStats()

    def receive_loop(self):
        if self._emitter is None:
            return
        try:
            while True:
                payload = self.conn.read_frame()
                try:
                    msg = decode_message(payload)
                except CodecError:
                    self.stats.skipped_in += 1
                    continue
                self._emitter.emit(msg)
                self.stats.relayed_in += 1
        except ConnectionClosed:
            return

    def send_loop(self):
        if self._consumer is None:
            return
        while True:
            msg = self._consumer.consume()
            if msg.kind.opcode not in self.command_set:
                self.stats.skipped_out += 1
                continue
            self.conn.write_frame(encode_message(msg))
            self.stats.relayed_out += 1

    def describe(self):
        return {
            "name": self.name,
            "protocol": self.conn.protocol.value,
            "emit_topic": self.emit_topic,
            "consume_topic": self.consume_topic,
            "commands": command_set_label(self.command_set),
        }


def run_communication(runtime, device, device_conn, driver,
                      announce_boot=False):
    """Start a device/driver session after checking both agree on commands."""
    if frozenset(device.command_set) != frozenset(driver.command_set):
        raise CommandSetMismatch(
            f"device={command_set_label(device.command_set)} "
            f"driver={command_set_label(driver.command_set)}"
        )
    stats = DeviceStats()
    runtime.spawn(
        lambda: device_serve(device, device_conn, announce_boot=announce_boot,
                             stats=stats),
        name=f"{driver.name}:device",
    )
    if driver.emit_topic:
        runtime.spawn(driver.receive_loop, name=f"{driver.name}:recv")
    if driver.consume_topic:
        runtime.spawn(driver.send_loop, name=f"{driver.name}:send")
    return stats


# ---------------------------------------------------------------------------
# Transmitter (external links)
# ---------------------------------------------------------------------------

@dataclass
class RelayStats:
    relayed_up: int = 0      # tx driver -> outbound link
    relayed_down: int = 0    # inbound link -> tx driver
    dropped_up: int = 0      # outbound with no link attached


class TransmitterDevice:
    """The tx driver's connection: the plant's two external links as one.

    `write_frame` goes out on `outbound` (the PT-to-twin stream), `read_frame`
    comes in from `inbound` (the twin-to-PT stream); payloads pass verbatim.
    Either link may be absent: a missing outbound drops frames (nobody is
    listening), a missing inbound reads as a closed connection.
    """

    kind = "transmitter"
    protocol = Protocol.TCP

    def __init__(self, outbound=None, inbound=None):
        self.outbound = outbound
        self.inbound = inbound
        self.stats = RelayStats()

    def write_frame(self, payload: bytes):
        if self.outbound is None:
            self.stats.dropped_up += 1
            return
        self.outbound.write_frame(payload)
        self.stats.relayed_up += 1

    def read_frame(self) -> bytes:
        if self.inbound is None:
            raise ConnectionClosed("transmitter: no inbound link")
        payload = self.inbound.read_frame()
        self.stats.relayed_down += 1
        return payload

    def close(self):
        for link in (self.outbound, self.inbound):
            if link is not None:
                link.close()
