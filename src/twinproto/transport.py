"""Framed stream transport.

Every link carries whole frames: a payload of 0 to MAX_FRAME_PAYLOAD
(2**20) bytes, delivered FIFO, exactly once and uncorrupted; there is no
reordering layer because none of the underlying media (in-process pipes,
stream sockets) reorder. Two endpoint flavors share the same
read_frame/write_frame surface:

* in-process pairs (`connect_pair`, `open_virtual_serial_pair`) built on
  runtime channels, which carry each payload as it is and are named after
  the endpoints (`a->b` carries what `a` writes). A write refuses what a
  socket refuses: a payload over MAX_FRAME_PAYLOAD.
  The serial-to-TCP-to-serial tunnel that lets the same driver code talk to
  an emulated device is one such pair, `bridge:dev` <-> `bridge:drv`, holding
  up to BRIDGE_WINDOW frames per direction unless its builder sizes it.
  Frames pass through unchanged in both directions; killing the tunnel is
  closing either end, which fails pending reads on both;
* `SocketEndpoint` over a connected stream socket, used when assemblies run
  as separate processes: a TCP connection in the field, and in an isolated
  run a `socket.socketpair` that the parent makes and whose far end the
  plant's forked child inherits. A socket is a byte stream, so each frame
  goes on the wire behind a length prefix:

    [length: uint32 big-endian][payload bytes]

  A socket endpoint that is written has a sender task, `<name>:send`, on
  the run's wall runtime. A write that comes while a send is in flight, or
  sooner after the last write than the last batch took to go out, queues
  its frame, and the sender sends everything queued in one call, so a
  burst of small frames wakes the reader on the other side once per batch,
  not once per frame. A write after a longer pause sends its frame at
  once, so a trickle wakes no sender. The queue holds the link's capacity
  of frames, as an in-process link does.

Each endpoint has one logical reader and one logical writer. A socket
endpoint relies on the single reader: its `read_frame` slices frames out of
a receive buffer that nothing else touches, so two tasks reading one socket
endpoint would corrupt the stream. In an isolated run the child's `plant:up`
is read only by the child's own thread, which waits there for the parent's
hang-up, and `plant:down` only by the transmitter driver, and the parent's
`link:peer-up` only by the ingest or watch driver.
Only `plant:up` and `link:peer-down` are written, so only they have senders.

`read_frame` and `write_frame` are plain calls that block their task. Their
wait halves, `wait_read` and `wait_write`, let a generator task wait first
(see the runtime module): each returns None once the plain call would not
park, or the wait request to yield. A socket's wait halves always return
None; its reads and writes block their own thread.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from enum import Enum

from .errors import ChannelClosed, ConnectionClosed, FrameTooLarge

FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_PAYLOAD = 2 ** 20

BRIDGE_WINDOW = 1024  # in-flight frames per direction before backpressure
RECV_CHUNK = 65536  # bytes a socket endpoint asks for when its buffer runs dry


class Protocol(Enum):
    RS232 = "RS232"
    TCP = "TCP"


def frame_payload(payload: bytes) -> bytes:
    """Wrap a payload in its 4-byte length prefix."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameTooLarge(f"{len(payload)} bytes > {MAX_FRAME_PAYLOAD}")
    return FRAME_HEADER.pack(len(payload)) + payload


def unframe(wire: bytes) -> bytes:
    """Strip and validate the length prefix of one whole frame."""
    if len(wire) < FRAME_HEADER.size:
        raise ConnectionClosed("short frame header")
    (length,) = FRAME_HEADER.unpack_from(wire)
    if length > MAX_FRAME_PAYLOAD:
        raise FrameTooLarge(f"prefix {length} > {MAX_FRAME_PAYLOAD}")
    payload = wire[FRAME_HEADER.size:]
    if len(payload) != length:
        raise ConnectionClosed(f"frame body {len(payload)} != prefix {length}")
    return payload


class Endpoint:
    """In-process frame endpoint (one half of a connected pair)."""

    def __init__(self, name, protocol, rx, tx):
        self.name = name
        self.protocol = protocol
        self._rx = rx
        self._tx = tx
        self._closed = False
        # each wait half is its channel's: `close` closes both channels, so
        # a closed endpoint's waits return None like a closed channel's
        self.wait_read = rx.wait_get
        self.wait_write = tx.wait_put

    def write_frame(self, payload: bytes):
        if self._closed:
            raise ConnectionClosed(f"{self.name}: write after close")
        if len(payload) > MAX_FRAME_PAYLOAD:
            raise FrameTooLarge(f"{len(payload)} bytes > {MAX_FRAME_PAYLOAD}")
        try:
            self._tx.put(payload)
        except ChannelClosed:
            raise ConnectionClosed(f"{self.name}: peer closed") from None

    def read_frame(self) -> bytes:
        try:
            return self._rx.get()
        except ChannelClosed:
            raise ConnectionClosed(f"{self.name}: stream closed") from None

    def close(self):
        # idempotent; also fails the peer's blocked reads once drained
        self._closed = True
        self._rx.close()
        self._tx.close()

    def __repr__(self):
        return f"<Endpoint {self.name} {self.protocol.value}>"


def connect_pair(runtime, name_a, name_b, protocol, capacity=BRIDGE_WINDOW):
    """Two cross-wired endpoints: whatever A writes, B reads, and vice versa."""
    a_to_b = runtime.channel(capacity, f"{name_a}->{name_b}")
    b_to_a = runtime.channel(capacity, f"{name_b}->{name_a}")
    a = Endpoint(name_a, protocol, rx=b_to_a, tx=a_to_b)
    b = Endpoint(name_b, protocol, rx=a_to_b, tx=b_to_a)
    return a, b


def open_virtual_serial_pair(runtime, name_a="ptyA", name_b="ptyB",
                             capacity=BRIDGE_WINDOW):
    """In-process stand-in for a null-modem serial cable."""
    return connect_pair(runtime, name_a, name_b, Protocol.RS232, capacity)


# ---------------------------------------------------------------------------
# Socket endpoints (separate-process deployments)
# ---------------------------------------------------------------------------

class SocketEndpoint:
    """Length-prefixed frames over a connected stream socket. Same surface
    as Endpoint.

    Reads go through one receive buffer: `read_frame` returns the next frame
    from it and calls `recv` only while the buffer holds no whole header or
    no whole payload, so a burst of small frames costs one `recv` per chunk
    the kernel hands over, not two per frame. The buffer is the reader's
    own: this relies on one reader task per endpoint (see the module
    docstring).

    An endpoint that is written needs a sender task, which `start_sender`
    spawns on a wall runtime and names `<name>:send`. A write either sends
    its frame at once, on the writer's thread, or queues it for the
    sender, which sends everything queued in one call while writers queue
    the next batch. Which one is decided from what the endpoint has seen:
    a write sends at once when no send is in flight, nothing is queued,
    and the time since the previous write returned is at least what the
    last batch took to go out, from the queueing of its first frame to the
    end of its send. A frame queued after such a pause would have gone out
    alone, so waking the sender for it buys nothing, and a trickle costs
    one send per frame, as with no sender. A writer that comes back sooner
    queues its frame, to go out with those that follow it; so does the
    first write, before any batch has been timed. The queue holds the
    link's capacity of frames; a writer past it waits, as on an in-process
    link. A writer that finds the sender idle with the frame before its
    own still queued waits until the sender has taken them: a writer that
    keeps computing holds the interpreter lock, and would otherwise leave
    the sender, and every other thread, waiting for the interpreter's next
    forced switch (5 ms by default).

    `close` ends a blocked read at once and never waits on the network:
    with nothing queued or in flight it hangs up and releases the socket
    itself; otherwise the sender sends what was queued before it, then
    hangs up, releases the socket and ends. A send that fails closes the
    endpoint and drops what is queued. A writer whose own frame it was
    gets the raise. If the failure lost frames whose writes had returned,
    and the endpoint was not closing, `send_failed` is set and later
    writes raise "send failed".
    """

    protocol = Protocol.TCP

    def __init__(self, sock, name="tcp"):
        self.name = name
        self.send_failed = False  # queued frames were lost before `close`
        self._sock = sock
        self._closed = False
        self._rbuf = bytearray()  # received, not yet returned; reader's own
        # the rest is the writers' and the sender's, under `_lock`, which
        # also orders the socket's shutdown and close
        self._lock = threading.Lock()
        self._to_sender = threading.Condition(self._lock)  # work, or close
        self._to_writers = threading.Condition(self._lock)  # room, or taken
        self._queue = []  # framed payloads for the sender
        self._capacity = 0  # frames the queue holds; 0 until a sender runs
        self._busy = False  # a send is in flight
        self._queued_ns = 0  # when the oldest frame queued was queued
        self._flight_ns = None  # how long the last batch took to go out
        self._wrote_ns = 0  # when the last write returned

    def start_sender(self, runtime, capacity):
        """Spawn the sender task on wall runtime `runtime`, with a queue of
        `capacity` frames. The sender ends once the endpoint is closed and
        what was queued is sent, or a send fails."""
        self._capacity = capacity
        runtime.spawn(self._send, name=f"{self.name}:send")

    def _send(self):
        """The sender task's body: each batch queued goes out in one call;
        then the socket is released."""
        while (taken := self._take()) is not None:
            batch, since = taken
            self._transmit(b"".join(batch), since)
        with self._lock:
            self._release()

    def _take(self):
        """Every frame queued, once no send is in flight, as the send now
        in flight, and when the oldest was queued; None once the endpoint
        is closed with nothing queued."""
        with self._lock:
            while self._busy or not (self._queue or self._closed):
                self._to_sender.wait()
            if not self._queue:
                return None
            batch, self._queue = self._queue, []
            self._busy = True
            self._to_writers.notify_all()
            return batch, self._queued_ns

    def _transmit(self, data, since) -> bool:
        """Send `data`, the send in flight, and end it; False if it failed.
        `since` is when the oldest frame of a batch was queued, None for a
        write's own frame. A failure closes the endpoint and drops what is
        queued; if that loses frames whose writes have returned while the
        endpoint was open, `send_failed` is set."""
        try:
            self._sock.sendall(data)
            failed = False
        except OSError:
            failed = True
        with self._lock:
            self._busy = False
            if since is not None:
                self._flight_ns = time.monotonic_ns() - since
            if failed:
                lost = since is not None or self._queue
                if lost and not self._closed:
                    self.send_failed = True
                self._closed = True
                self._queue = []
                self._to_writers.notify_all()
            if self._queue or self._closed:
                self._to_sender.notify()
        return not failed

    def _release(self):
        """Hang up both directions and close the socket; idempotent. The
        caller holds `_lock`."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _fill(self):
        """Append the next chunk the socket gives to the receive buffer."""
        try:
            chunk = self._sock.recv(RECV_CHUNK)
        except OSError:
            self._closed = True
            raise ConnectionClosed(f"{self.name}: socket error") from None
        if not chunk:
            self._closed = True
            raise ConnectionClosed(f"{self.name}: peer hung up")
        self._rbuf += chunk

    def wait_write(self):
        return None  # `write_frame` blocks its own thread

    def wait_read(self):
        return None  # `read_frame` blocks its own thread

    def _write_refused(self):
        why = "send failed" if self.send_failed else "write after close"
        return ConnectionClosed(f"{self.name}: {why}")

    def write_frame(self, payload: bytes):
        if self._closed:
            raise self._write_refused()
        wire = frame_payload(payload)
        if not self._capacity:
            raise RuntimeError(f"{self.name}: written with no sender")
        now = time.monotonic_ns()
        with self._lock:
            if self._closed:
                raise self._write_refused()
            flight = self._flight_ns
            alone = (not (self._busy or self._queue) and flight is not None
                     and now - self._wrote_ns >= flight)
            if alone:
                self._busy = True
            else:
                self._enqueue(wire, now)
        if alone and not self._transmit(wire, None):
            raise ConnectionClosed(f"{self.name}: send failed")
        self._wrote_ns = time.monotonic_ns()

    def _enqueue(self, wire, now):
        """Queue `wire` for the sender, once there is room; the caller
        holds `_lock`."""
        while len(self._queue) >= self._capacity and not self._closed:
            self._to_writers.wait()
        if self._closed:
            raise self._write_refused()
        queue = self._queue
        if not queue:
            self._queued_ns = now
        queue.append(wire)
        if not self._busy:
            self._to_sender.notify()
            if len(queue) > 1:  # the idle sender has not run: hand over
                while self._queue is queue and not self._closed:
                    self._to_writers.wait()

    def read_frame(self) -> bytes:
        if self._closed:
            raise ConnectionClosed(f"{self.name}: read after close")
        buf = self._rbuf
        while len(buf) < FRAME_HEADER.size:
            self._fill()
        (length,) = FRAME_HEADER.unpack_from(buf)
        if length > MAX_FRAME_PAYLOAD:
            # the stream has lost its framing: never read on into the payload
            self._closed = True
            raise FrameTooLarge(f"prefix {length} > {MAX_FRAME_PAYLOAD}")
        end = FRAME_HEADER.size + length
        while len(buf) < end:
            self._fill()
        payload = bytes(buf[FRAME_HEADER.size:end])
        del buf[:end]
        return payload

    def close(self):
        # idempotent. A hang-up or socket error already marked the stream
        # closed, but the socket is still open: it is released here, or by
        # the sender once it has sent what is queued
        with self._lock:
            if self._busy or self._queue:
                self._closed = True
                try:  # ends a blocked read; the peer sees EOF later
                    self._sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            else:
                self._release()
            self._to_sender.notify()  # an idle sender ends
            self._to_writers.notify_all()  # a writer waiting for room too

