"""Framed stream transport.

Every link carries whole frames: a payload of 0 to MAX_FRAME_PAYLOAD
(2**20) bytes, delivered FIFO, exactly once and uncorrupted; there is no
reordering layer because none of the underlying media (in-process pipes,
loopback TCP) reorder. Two endpoint flavors share the same
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
* `SocketEndpoint` over a TCP socket, used when assemblies run as separate
  processes. `loopback_pair` makes such a link whole in one process, which
  then hands one end to the other process (an isolated run passes the
  plant's child its two ends as inherited file descriptors, so nothing
  listens once the child runs). A socket is a byte stream, so each frame
  goes on the wire behind a length prefix:

    [length: uint32 big-endian][payload bytes]

Each endpoint has one logical reader and one logical writer. A socket
endpoint relies on the single reader: its `read_frame` slices frames out of
a receive buffer that nothing else touches, so two tasks reading one socket
endpoint would corrupt the stream. In an isolated run the child's `plant:up`
is read only by its hang-up watcher and `plant:down` only by the transmitter
driver, and the parent's `link:peer-up` only by the ingest or watch driver.

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
# Real TCP endpoints (separate-process deployments)
# ---------------------------------------------------------------------------

class SocketEndpoint:
    """Length-prefixed frames over a connected TCP socket. Same surface as
    Endpoint.

    Reads go through one receive buffer: `read_frame` returns the next frame
    from it and calls `recv` only while the buffer holds no whole header or
    no whole payload, so a burst of small frames costs one `recv` per chunk
    the kernel hands over, not two per frame. The buffer is the reader's
    own: this relies on one reader task per endpoint (see the module
    docstring). Writes are one `sendall` per frame, under a lock.
    """

    protocol = Protocol.TCP

    def __init__(self, sock, name="tcp"):
        self.name = name
        self._sock = sock
        self._closed = False
        self._wlock = threading.Lock()
        self._rbuf = bytearray()  # received, not yet returned; reader's own

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

    def write_frame(self, payload: bytes):
        if self._closed:
            raise ConnectionClosed(f"{self.name}: write after close")
        wire = frame_payload(payload)
        with self._wlock:
            try:
                self._sock.sendall(wire)
            except OSError:
                self._closed = True
                raise ConnectionClosed(f"{self.name}: send failed") from None

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
        # a hang-up or socket error already marked the stream closed, but the
        # socket is still open: release it here; socket.close() is idempotent
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair():
    """Two connected loopback TCP sockets, Nagle off on both: listened
    for, connected and accepted here, so no other process takes part. An
    isolated run hands one end of each to the plant's child. Raises
    OSError, keeping no socket, if the pair cannot be made."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        near = socket.create_connection(listener.getsockname())
        try:
            far, _ = listener.accept()
        except OSError:
            near.close()
            raise
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return near, far
