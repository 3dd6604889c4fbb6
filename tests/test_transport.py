"""Transport tests: frozen framing bytes, pair semantics, bridge transparency,
socket endpoints."""

from __future__ import annotations

import random
import threading

import pytest

from twinproto.errors import ConnectionClosed, FrameTooLarge, PortBindFailed
from twinproto.runtime import LockstepRuntime, WallRuntime
from twinproto.transport import (
    MAX_FRAME_PAYLOAD,
    Protocol,
    TcpListener,
    connect_pair,
    frame_payload,
    open_virtual_serial_pair,
    tcp_connect,
    unframe,
)

# Hand-derived framing vectors: 4-byte big-endian length prefix + payload.
FRAMING_VECTORS = [
    (b"\x01\x00\x32", b"\x00\x00\x00\x03\x01\x00\x32"),
    (b"", b"\x00\x00\x00\x00"),
    (b"\xff", b"\x00\x00\x00\x01\xff"),
    (b"A" * 300, b"\x00\x00\x01\x2c" + b"A" * 300),
]


@pytest.mark.parametrize("payload,wire", FRAMING_VECTORS)
def test_frozen_framing(payload, wire):
    assert frame_payload(payload) == wire
    assert unframe(wire) == payload


def test_frame_size_ceiling():
    frame_payload(b"x" * MAX_FRAME_PAYLOAD)  # exactly at the limit is fine
    with pytest.raises(FrameTooLarge):
        frame_payload(b"x" * (MAX_FRAME_PAYLOAD + 1))


def test_pair_fifo_and_counters():
    rt = WallRuntime()
    a, b = open_virtual_serial_pair(rt)
    payloads = [bytes([i]) * (i + 1) for i in range(20)]
    for p in payloads:
        a.write_frame(p)
    got = [b.read_frame() for _ in payloads]
    assert got == payloads
    assert a.frames_out == b.frames_in == 20
    assert a.bytes_out == b.bytes_in == sum(len(p) + 4 for p in payloads)
    assert a.protocol is Protocol.RS232


def test_pair_duplex_and_empty_frames():
    rt = WallRuntime()
    a, b = connect_pair(rt, "x", "y", Protocol.TCP)
    a.write_frame(b"")
    b.write_frame(b"pong")
    assert b.read_frame() == b""
    assert a.read_frame() == b"pong"


def test_close_fails_peer_reads_after_drain():
    rt = WallRuntime()
    a, b = open_virtual_serial_pair(rt)
    a.write_frame(b"last")
    a.close()
    assert b.read_frame() == b"last"
    with pytest.raises(ConnectionClosed):
        b.read_frame()
    with pytest.raises(ConnectionClosed):
        b.write_frame(b"into the void")
    a.close()  # idempotent
    with pytest.raises(ConnectionClosed):
        a.write_frame(b"after close")


def bridge_pair(rt):
    """The emulated plant's serial/TCP/serial tunnel: (device end, driver end)."""
    return connect_pair(rt, "bridge:dev", "bridge:drv", Protocol.RS232)


def test_bridge_is_transparent_both_directions():
    rt = WallRuntime()
    dev, drv = bridge_pair(rt)
    rng = random.Random(99)
    down = [rng.randbytes(rng.randrange(0, 64)) for _ in range(50)]
    up = [rng.randbytes(rng.randrange(0, 64)) for _ in range(50)]

    got_down, got_up = [], []

    def driver_side():
        for p in down:
            drv.write_frame(p)
        for _ in up:
            got_up.append(drv.read_frame())
        drv.close()

    def device_side():
        for _ in down:
            got_down.append(dev.read_frame())
        for p in up:
            dev.write_frame(p)

    rt.spawn(driver_side, name="driver")
    rt.spawn(device_side, name="device")
    assert rt.run(timeout=10.0) == []
    assert rt.task_errors() == []
    assert got_down == down
    assert got_up == up


def test_bridge_stress_no_loss_per_direction():
    rt = WallRuntime()
    dev, drv = bridge_pair(rt)
    n = 10_000
    result = {}

    def writer():
        for i in range(n):
            drv.write_frame(i.to_bytes(4, "big"))

    def reader():
        result["got"] = [dev.read_frame() for _ in range(n)]
        dev.close()

    rt.spawn(writer, name="writer")
    rt.spawn(reader, name="reader")
    assert rt.run(timeout=60.0) == []
    assert rt.task_errors() == []
    assert result["got"] == [i.to_bytes(4, "big") for i in range(n)]


def test_bridge_kill_tunnel_fails_pending_reads_both_sides():
    rt = WallRuntime()
    dev, drv = bridge_pair(rt)
    failures = []

    def pending_read(end, tag):
        def run():
            try:
                end.read_frame()
            except ConnectionClosed:
                failures.append(tag)
                raise
        return run

    rt.spawn(pending_read(dev, "device"), name="r1")
    rt.spawn(pending_read(drv, "driver"), name="r2")
    import time

    time.sleep(0.05)
    dev.close()  # killing the tunnel: one end goes, both ends see it
    assert rt.run(timeout=5.0) == []
    assert sorted(failures) == ["device", "driver"]


def test_bridge_works_under_lockstep():
    rt = LockstepRuntime(seed=5)
    dev, drv = bridge_pair(rt)
    frames = [bytes([i, i]) for i in range(30)]
    got = []

    def writer():
        for p in frames:
            drv.write_frame(p)

    def reader():
        for _ in frames:
            got.append(dev.read_frame())
        dev.close()

    rt.spawn(writer, name="w")
    rt.spawn(reader, name="r")
    rt.run(timeout=20.0)
    assert rt.task_errors() == []
    assert got == frames


def test_tcp_roundtrip_over_loopback():
    listener = TcpListener("127.0.0.1", 0)
    host, port = listener.address
    server_box = {}

    def serve():
        server_box["ep"] = listener.accept()
        ep = server_box["ep"]
        while True:
            try:
                ep.write_frame(ep.read_frame()[::-1])
            except ConnectionClosed:
                ep.close()
                return

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client = tcp_connect(host, port)
    client.write_frame(b"abc")
    assert client.read_frame() == b"cba"
    client.write_frame(b"")
    assert client.read_frame() == b""
    client.close()
    t.join(timeout=5.0)
    listener.close()
    assert client.frames_out == 2
    assert client.protocol is Protocol.TCP


def test_socket_close_after_hang_up_releases_the_socket():
    listener = TcpListener("127.0.0.1", 0)
    client = tcp_connect(*listener.address)
    server = listener.accept(timeout=5.0)
    listener.close()
    server.close()
    with pytest.raises(ConnectionClosed):
        client.read_frame()  # the hang-up marks the stream closed...
    assert client.closed
    client.close()  # ...and close still releases the socket
    assert client._sock.fileno() == -1


def test_tcp_connect_failure_reports():
    with pytest.raises(PortBindFailed):
        tcp_connect("127.0.0.1", 1, attempts=1, delay=0.0)
