"""Framed stream transport.

Wire format, identical on every link in the system:

    [length: uint32 big-endian][payload bytes]

A frame's payload may be empty and may be at most 2**20 bytes. Delivery on any
endpoint is FIFO, exactly-once, uncorrupted; there is no reordering layer
because none of the underlying media (in-process pipes, loopback TCP) reorder.

Two endpoint flavors share the same read_frame/write_frame surface:

* in-process pairs (`connect_pair`, `open_virtual_serial_pair`) built on
  runtime channels, carrying the actual wire bytes so the framing is real.
  The serial-to-TCP-to-serial tunnel that lets the same driver code talk to
  an emulated device is one such pair, `bridge:dev` <-> `bridge:drv`, holding
  up to BRIDGE_WINDOW frames per direction. Frames pass through unchanged in
  both directions; killing the tunnel is closing either end, which fails
  pending reads on both;
* `SocketEndpoint` over a TCP socket, used when assemblies run as separate
  processes.

Each endpoint has one logical reader and one logical writer.
"""

from __future__ import annotations

import socket
import struct
import threading
from enum import Enum

from .errors import (
    ChannelClosed,
    ConnectionClosed,
    FrameTooLarge,
    PortBindFailed,
)

FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_PAYLOAD = 2 ** 20

BRIDGE_WINDOW = 1024  # in-flight frames per direction before backpressure


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
    """In-process framed stream endpoint (one half of a connected pair)."""

    def __init__(self, name, protocol, rx, tx):
        self.name = name
        self.protocol = protocol
        self._rx = rx
        self._tx = tx
        self._closed = False
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def write_frame(self, payload: bytes):
        if self._closed:
            raise ConnectionClosed(f"{self.name}: write after close")
        wire = frame_payload(payload)
        try:
            self._tx.put(wire)
        except ChannelClosed:
            raise ConnectionClosed(f"{self.name}: peer closed") from None
        self.frames_out += 1
        self.bytes_out += len(wire)

    def read_frame(self) -> bytes:
        try:
            wire = self._rx.get()
        except ChannelClosed:
            raise ConnectionClosed(f"{self.name}: stream closed") from None
        payload = unframe(wire)
        self.frames_in += 1
        self.bytes_in += len(wire)
        return payload

    def close(self):
        # idempotent; also fails the peer's blocked reads once drained
        self._closed = True
        self._rx.close()
        self._tx.close()

    @property
    def closed(self):
        return self._closed

    def __repr__(self):
        return f"<Endpoint {self.name} {self.protocol.value}>"


def connect_pair(runtime, name_a, name_b, protocol, capacity=BRIDGE_WINDOW):
    """Two cross-wired endpoints: whatever A writes, B reads, and vice versa."""
    a_to_b = runtime.channel(capacity)
    b_to_a = runtime.channel(capacity)
    a = Endpoint(name_a, protocol, rx=b_to_a, tx=a_to_b)
    b = Endpoint(name_b, protocol, rx=a_to_b, tx=b_to_a)
    return a, b


def open_virtual_serial_pair(runtime, name_a="ptyA", name_b="ptyB"):
    """In-process stand-in for a null-modem serial cable."""
    return connect_pair(runtime, name_a, name_b, Protocol.RS232)


# ---------------------------------------------------------------------------
# Real TCP endpoints (separate-process deployments)
# ---------------------------------------------------------------------------

class SocketEndpoint:
    """Framed stream over a connected TCP socket. Same surface as Endpoint."""

    protocol = Protocol.TCP

    def __init__(self, sock, name="tcp"):
        self.name = name
        self._sock = sock
        self._closed = False
        self._wlock = threading.Lock()
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def _recv_exact(self, n):
        buf = b""
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError:
                self._closed = True
                raise ConnectionClosed(f"{self.name}: socket error") from None
            if not chunk:
                self._closed = True
                raise ConnectionClosed(f"{self.name}: peer hung up")
            buf += chunk
        return buf

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
        self.frames_out += 1
        self.bytes_out += len(wire)

    def read_frame(self) -> bytes:
        if self._closed:
            raise ConnectionClosed(f"{self.name}: read after close")
        header = self._recv_exact(FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_PAYLOAD:
            raise FrameTooLarge(f"prefix {length} > {MAX_FRAME_PAYLOAD}")
        payload = self._recv_exact(length)
        self.frames_in += 1
        self.bytes_in += len(header) + length
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

    @property
    def closed(self):
        return self._closed


class TcpListener:
    def __init__(self, host, port):
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(4)
        except OSError as exc:
            raise PortBindFailed(f"bind {host}:{port}: {exc}") from None
        self.address = self._sock.getsockname()

    def accept(self, name="tcp-server", timeout=None):
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise ConnectionClosed("accept timed out") from None
        except OSError:
            raise ConnectionClosed("listener closed") from None
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:
                pass
        conn.settimeout(None)  # session reads block, they don't expire
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketEndpoint(conn, name=name)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_connect(host, port, name="tcp-client", attempts=50, delay=0.1):
    """Connect with retries; the peer process may still be binding."""
    import time as _time

    last = None
    for _ in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(None)  # the timeout was for connecting only
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return SocketEndpoint(sock, name=name)
        except OSError as exc:
            last = exc
            _time.sleep(delay)
    raise PortBindFailed(f"connect {host}:{port}: {last}")
