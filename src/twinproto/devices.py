"""Device layer: the software sensor, the recording-fed emulator, and the
serial drivers that bind either of them to the rest of the stack.

The request/response contract on a device link is strict: one decoded command
in, one encoded response out, in order. Malformed frames never kill a serve
loop; they are skipped and counted. A device also pushes unsolicited frames
(boot status announcement, scripted measurements) down the same link; drivers
relay whatever arrives, so nothing upstream needs to know the difference. A
frame stays its wire bytes from where it is encoded to where a value is read:
a device answers in bytes, and a relay never calls the codec.

A driver has one task, its receive loop, which hands every frame, decoded
and as read, to the one callable it was started with (control, or the twin's
MAPE-K engine), in read order, on that task. Sending is a call, `forward` of
the bytes to write, made on the task of whoever decided to send, so each
link keeps exactly one writer and no queue sits between a decision and the
wire; the receive loop's callable may itself be that sender. A closed link
met there, or on its own read, ends the loop, which then closes its own
connection too: a break anywhere in a relay chain reaches both of its ends
instead of leaving a peer blocked on a link nobody serves.

The serve loop and the receive loop are generator bodies (`serve`,
`DeviceDriver.receive`) that the assemblies spawn as generator tasks; a
thread task runs one with the runtime's `drive`. `forward` sends at once and
returns None, or, on a full lockstep link, returns the generator that waits
for room and then sends. The callable a receive loop hands frames to returns
None, or a generator that the loop runs before its next read: a handler
with blocking work (a send) returns it instead of blocking.

The serve loop writes the device's boot status before it reads anything, as
a device does at power-on. A device's `command_set` is a class constant, and
the plant assembly builds the device's driver from it, so the two agree by
construction and nothing checks them at start.

The transmitter is not a device with a serve loop but the tx driver
itself, a driver that reads one link and writes another: it reads the
plant's inbound link and writes its outbound link, with no task between;
every plant is built with both links.

The emulator is deliberately dumb: it replays previously recorded responses in
order and never computes a fresh one. Fed with the recordings of a real run
(the bytes of its MEA and STA frames) and given the same command script, it
writes the bytes the real device wrote, which is what makes prototype
assemblies honest. A real sensor answers the boot and each command with one
status and sends measurements only unprompted, so the serve loop writes,
right after each answer, the frames the device sends unprompted: for the
emulator, every recorded measurement that follows the status it just
replayed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import (
    CodecError,
    CommandRejected,
    ConnectionClosed,
    ContextExhausted,
)
from .messages import (
    OP_COMMAND,
    OP_MEASUREMENT,
    Message,
    decode_message,
    encode_message,
    measurement,
    status,
)
from .statemachine import State, TwinState, process_event

DEFAULT_COMMAND_SET = frozenset({OP_COMMAND})


# ---------------------------------------------------------------------------
# Devices
# ---------------------------------------------------------------------------

class SensorDevice:
    """Deterministic stand-in for the physical sensor.

    Applies the sign-rule state machine to every accepted command and answers
    with its resulting status. Thread-safe: the serve loop and the measurement
    script share it.
    """

    command_set = DEFAULT_COMMAND_SET

    def __init__(self):
        self._lock = threading.Lock()
        self._ts = TwinState()

    @property
    def state(self) -> State:
        with self._lock:
            return self._ts.current

    def execute(self, msg: Message) -> bytes:
        if msg.kind._value_ not in self.command_set:  # the opcode
            raise CommandRejected(f"sensor does not accept {msg.kind.name}")
        with self._lock:
            self._ts = process_event(self._ts, msg)
            return encode_message(status(int(self._ts.current)))

    def boot_message(self) -> bytes:
        return encode_message(status(int(self.state)))

    def unprompted(self):
        """None: the sensor's measurements come from its measurement
        script's own task."""
        return None


class EmulatorDevice:
    """Replays recorded responses (wire payloads) in order, played once;
    never computes a response."""

    command_set = DEFAULT_COMMAND_SET

    def __init__(self, recordings):
        self.recordings = list(recordings)
        self.cursor = 0

    def execute(self, msg: Message) -> bytes:
        if msg.kind._value_ not in self.command_set:  # the opcode
            raise CommandRejected(f"emulator does not accept {msg.kind.name}")
        return self._next_recording()

    def boot_message(self) -> bytes:
        # the boot announcement of the recorded run is recording zero
        return self._next_recording()

    def unprompted(self):
        """The next recorded measurement after the last frame replayed
        (consumed), or None: the recorded sensor sent it unprompted."""
        if self.cursor < len(self.recordings):
            payload = self.recordings[self.cursor]
            if payload[0] == OP_MEASUREMENT:
                self.cursor += 1
                return payload
        return None

    def _next_recording(self) -> bytes:
        if self.cursor >= len(self.recordings):
            raise ContextExhausted(
                f"all {len(self.recordings)} recordings consumed"
            )
        payload = self.recordings[self.cursor]
        self.cursor += 1
        return payload


@dataclass(slots=True)
class DeviceStats:
    served: int = 0
    decode_errors: int = 0
    rejected: int = 0
    exhausted: int = 0

    def counts(self):
        """(commands read, answered, skipped as undecodable or rejected); one
        the recording could no longer answer is neither."""
        skipped = self.decode_errors + self.rejected
        return (self.served + skipped + self.exhausted, self.served, skipped)


def serve(device, conn, stats):
    """Serve loop, a generator body: announce the boot, then read frame,
    decode, execute, write the response the device encoded.

    Malformed frames and rejected commands are counted in `stats` and
    skipped, never fatal. Returns when the connection closes.
    """
    try:
        yield from _answer(device, conn, device.boot_message())
        while True:
            while (wait := conn.wait_read()) is not None:
                yield wait
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
            while (wait := conn.wait_write()) is not None:
                yield wait
            conn.write_frame(response)
            stats.served += 1
            unprompted = device.unprompted()
            if unprompted is not None:
                yield from _answer(device, conn, unprompted)
    except ConnectionClosed:
        pass


def _answer(device, conn, payload):
    """Write `payload`, then each frame the device sends unprompted right
    after it."""
    while payload is not None:
        while (wait := conn.wait_write()) is not None:
            yield wait
        conn.write_frame(payload)
        payload = device.unprompted()


def run_measurement_script(runtime, sensor, conn, script):
    """Feed scripted (time_ms, value) measurements down the device link.

    Entries fire at their scripted time but only while the sensor is ACTIVE;
    inactive entries are skipped, not deferred.
    """
    t0 = runtime.now_ns()
    sent = 0
    active = State.ACTIVE  # read once, not once a tick (messages._STATUS)
    try:
        for t, value in script:
            delay = t - runtime.ms_since(t0)
            if delay > 0:
                runtime.sleep_ms(delay)
            if sensor.state is active:
                conn.write_frame(encode_message(measurement(value)))
                sent += 1
    except ConnectionClosed:
        pass
    return sent


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DriverStats:
    relayed_in: int = 0   # device -> the receive loop's callable
    relayed_out: int = 0  # forward() -> device
    skipped_in: int = 0   # undecodable frames from the device
    skipped_out: int = 0  # sent messages outside the command set

    def received(self):
        """(frames read, handed to the receive loop's callable, skipped)."""
        return (self.relayed_in + self.skipped_in, self.relayed_in,
                self.skipped_in)

    def forwarded(self):
        """(frames given to `forward`, written, skipped)."""
        return (self.relayed_out + self.skipped_out, self.relayed_out,
                self.skipped_out)


class DeviceDriver:
    """Pure relay between its links and its callers.

    `receive(on_message)`: frame read from `conn` -> decode ->
    `on_message(msg, payload)` on the loop's task (undecodable frames are
    counted and skipped). `forward(payload)`: filter on the opcode byte ->
    write to `out` (`conn` unless given; the tx driver writes the outbound
    link and reads the inbound one), on the caller's task. No
    transformation, no reordering, no interpretation, and no encode.
    `closed_by` holds the ConnectionClosed text that ended the receive loop.
    """

    def __init__(self, conn, command_set=DEFAULT_COMMAND_SET, name="driver",
                 out=None):
        self.name = name
        self.conn = conn
        self.out = conn if out is None else out
        self.command_set = frozenset(command_set)
        self.stats = DriverStats()
        self.closed_by = None

    def receive(self, on_message):
        """Generator body of the receive loop. `on_message(msg, payload)`
        gets the frame decoded and as it was read, and returns None, or a
        generator run here before the next read."""
        conn = self.conn
        try:
            while True:
                while (wait := conn.wait_read()) is not None:
                    yield wait
                payload = conn.read_frame()
                try:
                    msg = decode_message(payload)
                except CodecError:
                    self.stats.skipped_in += 1
                    continue
                # counted first: the frame is handed on even if its
                # consumer then fails on its own link
                self.stats.relayed_in += 1
                work = on_message(msg, payload)
                if work is not None:
                    yield from work
        except ConnectionClosed as exc:  # this link, or one a consumer writes
            self.closed_by = str(exc)
            self.out.close()
            conn.close()

    def forward(self, payload: bytes):
        """Write one frame to the device; one whose opcode is outside the
        command set is counted and dropped. Raises ConnectionClosed once
        the link is gone. Sends at once and returns None, or, if the link
        is full, returns the generator that waits for room and then sends;
        the caller's task runs it before anything else."""
        if payload[0] not in self.command_set:
            self.stats.skipped_out += 1
            return None
        wait = self.out.wait_write()
        if wait is not None:
            return self._send_after(wait, payload)
        self.out.write_frame(payload)
        self.stats.relayed_out += 1
        return None

    def _send_after(self, wait, payload):
        """`forward`'s generator: the wait it met first, then the send."""
        while wait is not None:
            yield wait
            wait = self.out.wait_write()
        self.out.write_frame(payload)
        self.stats.relayed_out += 1

