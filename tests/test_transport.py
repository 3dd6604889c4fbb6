"""Transport tests: frozen framing bytes, pair semantics, bridge transparency,
socket endpoints."""

from __future__ import annotations

import ast
import errno
import random
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinproto import harness, transport
from twinproto.errors import ConnectionClosed, FrameTooLarge
from twinproto.runtime import LockstepRuntime, WallRuntime
from twinproto.transport import (
    FRAME_HEADER,
    MAX_FRAME_PAYLOAD,
    RECV_CHUNK,
    Protocol,
    SocketEndpoint,
    connect_pair,
    frame_payload,
    open_virtual_serial_pair,
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


@pytest.mark.parametrize("wire,why", [
    (b"\x00\x00\x01", "short frame header"),
    (b"\x00\x00\x00\x02\x01", "frame body 1 != prefix 2"),
])
def test_unframe_refuses_a_broken_frame(wire, why):
    with pytest.raises(ConnectionClosed, match=why):
        unframe(wire)


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
    assert a.protocol is Protocol.RS232


def socket_pair(rt, capacity=16, socks=None):
    """Two connected `SocketEndpoint`s, (client, server), over `socks` or
    else a socket pair as an isolated run makes, each with its sender on
    wall runtime `rt`."""
    near, far = socks or socket.socketpair()
    pair = SocketEndpoint(near, name="client"), SocketEndpoint(far,
                                                               name="server")
    for end in pair:
        end.start_sender(rt, capacity)
    return pair


# an in-process pair carries payloads as they are, a socket behind a length
# prefix; both must carry and refuse the same frames. The smallest frames
# behind the largest share a socket read with its tail.
EDGE_PAYLOADS = [b"", b"\x00", b"", bytes(range(256)),
                 b"x" * MAX_FRAME_PAYLOAD, b"", b"y", b"end"]


@pytest.mark.parametrize("kind", ["in-process", "socket"])
def test_both_endpoint_kinds_carry_and_refuse_the_same_frames(kind):
    rt = WallRuntime()
    if kind == "socket":
        writer, reader = socket_pair(rt)
    else:
        writer, reader = connect_pair(rt, "a", "b", Protocol.TCP)
    # a socket can hold less than a full frame: write from a second thread
    sent = threading.Thread(
        target=lambda: [writer.write_frame(p) for p in EDGE_PAYLOADS])
    sent.start()
    try:
        assert [reader.read_frame() for _ in EDGE_PAYLOADS] == EDGE_PAYLOADS
    finally:
        sent.join(timeout=10)
    with pytest.raises(FrameTooLarge):
        writer.write_frame(b"x" * (MAX_FRAME_PAYLOAD + 1))
    writer.write_frame(b"after")  # a refused frame leaves the link intact
    assert reader.read_frame() == b"after"
    writer.close()
    reader.close()
    assert rt.run(timeout=10.0) == []  # a socket's senders end at close


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


class ChunkedSocket:
    """A socket stand-in whose `recv(n)` hands out a byte stream in drawn
    chunk sizes (at most `n` each), then EOF, or a reset if `reset`.
    `buffered_at_last_recv` is how much of the stream had been handed out
    when `recv` was last called."""

    def __init__(self, stream, sizes, reset=False):
        self.stream = stream
        self.sizes = iter(sizes)
        self.handed = 0
        self.buffered_at_last_recv = None
        self.reset = reset

    def recv(self, n):
        self.buffered_at_last_recv = self.handed
        if self.reset and self.handed == len(self.stream):
            raise ConnectionResetError(errno.ECONNRESET, "reset by peer")
        size = min(n, next(self.sizes, n))
        chunk = self.stream[self.handed:self.handed + size]
        self.handed += len(chunk)
        return chunk


# mostly small payloads, now and then one that spans several RECV_CHUNKs
payloads = st.lists(st.one_of(
    st.binary(max_size=24),
    st.integers(RECV_CHUNK - 5, 2 * RECV_CHUNK + 5).map(lambda n: b"\xa5" * n),
), max_size=8).filter(lambda ps: sum(map(len, ps)) <= 4 * RECV_CHUNK)
chunk_sizes = st.lists(st.integers(1, 9), max_size=40)


def read_until_error(stream, sizes, reset=False):
    """Every frame a SocketEndpoint reads from `stream`, the error that ends
    the reads, and the fake socket."""
    sock = ChunkedSocket(stream, sizes, reset)
    endpoint = SocketEndpoint(sock, name="fake")
    got = []
    while True:
        try:
            got.append(endpoint.read_frame())
        except (ConnectionClosed, FrameTooLarge) as exc:
            with pytest.raises(ConnectionClosed, match="read after close"):
                endpoint.read_frame()  # the endpoint is closed for good
            return got, exc, sock


@given(payloads, chunk_sizes, st.data())
def test_any_split_of_a_framed_stream_reads_as_unframe_reads_it(
        frames, sizes, data):
    wires = [frame_payload(p) for p in frames]
    stream = b"".join(wires)
    ending = data.draw(st.sampled_from(["whole", "truncated", "oversize",
                                        "reset"]))
    if ending == "oversize":  # a prefix over the limit, then anything
        length = data.draw(st.integers(MAX_FRAME_PAYLOAD + 1, 2 ** 32 - 1))
        bad = FRAME_HEADER.pack(length) + data.draw(st.binary(max_size=16))
        wires.append(bad)
        stream += bad
    elif ending == "truncated" and stream:
        stream = stream[:data.draw(st.integers(0, len(stream) - 1))]
    # what unframe makes of each whole frame, up to the first it refuses
    want, start = [], 0
    for wire in wires:
        piece = stream[start:start + len(wire)]
        if len(piece) < len(wire):
            if piece:
                with pytest.raises(ConnectionClosed):
                    unframe(piece)
            break
        try:
            want.append(unframe(piece))
        except FrameTooLarge:
            break
        start += len(wire)

    got, error, sock = read_until_error(stream, sizes, ending == "reset")
    assert got == want
    if ending == "oversize":
        assert isinstance(error, FrameTooLarge)
        # no recv once the refused header was whole in the buffer
        assert sock.buffered_at_last_recv < start + FRAME_HEADER.size
    else:
        assert isinstance(error, ConnectionClosed)
        assert sock.handed == len(stream)
        assert (str(error) == "fake: socket error") == (ending == "reset")


def tcp_pair():
    """Two connected loopback TCP sockets, as a field deployment's link
    is: listened for, connected and accepted here."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        near = socket.create_connection(listener.getsockname())
        far, _ = listener.accept()
    assert near.getpeername() == far.getsockname()
    return near, far


def test_tcp_roundtrip_over_loopback():
    rt = WallRuntime()
    client, server = socket_pair(rt, socks=tcp_pair())

    def serve():
        while True:
            try:
                server.write_frame(server.read_frame()[::-1])
            except ConnectionClosed:
                server.close()
                return

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client.write_frame(b"abc")
    assert client.read_frame() == b"cba"
    client.write_frame(b"")
    assert client.read_frame() == b""
    client.close()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert rt.run(timeout=5.0) == []
    assert client.protocol is Protocol.TCP
    assert [end._sock.fileno() for end in (client, server)] == [-1, -1]


@pytest.mark.parametrize("senders", [False, True])
def test_socket_close_after_hang_up_releases_the_socket(senders):
    rt = WallRuntime()
    if senders:
        client, server = socket_pair(rt)
        client.write_frame(b"unread")  # the sender has sent on the socket
    else:
        client, server = (SocketEndpoint(sock)
                          for sock in socket.socketpair())
    server.close()
    with pytest.raises(ConnectionClosed):
        client.read_frame()  # the hang-up marks the stream closed...
    with pytest.raises(ConnectionClosed, match="read after close"):
        client.read_frame()
    client.close()  # ...and close still releases the socket
    assert rt.run(timeout=10.0) == []  # every sender has ended
    assert client._sock.fileno() == -1


class HeldSocket:
    """A socket stand-in that keeps each call made on it, in order, and the
    thread of each `sendall`. Its first `sendall` waits for `release`, once
    `first_send` is set; while `fails`, a `sendall` raises as on a reset
    connection."""

    def __init__(self, fails=False):
        self.calls = []
        self.senders = []
        self.first_send = threading.Event()
        self.release = threading.Event()
        self.fails = fails

    def sendall(self, data):
        if self.fails:
            raise ConnectionResetError(errno.ECONNRESET, "reset by peer")
        self.calls.append(("sendall", bytes(data)))
        self.senders.append(threading.current_thread().name)
        if not self.first_send.is_set():
            self.first_send.set()
            assert self.release.wait(timeout=10.0)

    def shutdown(self, how):
        self.calls.append(("shutdown", how))

    def close(self):
        self.calls.append(("close",))

    def sent(self):
        return [call[1] for call in self.calls if call[0] == "sendall"]


def held_endpoint(rt, capacity, fails=False):
    """A SocketEndpoint over a HeldSocket, its sender on `rt`."""
    sock = HeldSocket(fails)
    end = SocketEndpoint(sock, name="held")
    end.start_sender(rt, capacity)
    return end, sock


def test_frames_written_during_a_send_go_out_in_one_send():
    rt = WallRuntime()
    end, sock = held_endpoint(rt, capacity=128)
    payloads = [bytes([i]) * (i % 7) for i in range(100)]
    end.write_frame(payloads[0])  # queued: no batch has been timed yet
    end.write_frame(payloads[1])
    # a write that finds the idle sender has not taken the frame before it
    # waits until the sender has taken both
    assert len(end._queue) < 2
    assert sock.first_send.wait(timeout=10.0)
    for payload in payloads[2:]:  # queued while the first send is held
        end.write_frame(payload)
    # close returns while the send is held: it ends reads, not the stream
    end.close()
    with pytest.raises(ConnectionClosed, match="held: write after close"):
        end.write_frame(b"late")
    assert [call[0] for call in sock.calls] == ["sendall", "shutdown"]
    assert sock.calls[1] == ("shutdown", socket.SHUT_RD)
    sock.release.set()
    assert rt.run(timeout=10.0) == []
    assert len(sock.sent()) == 2
    assert sock.senders == ["held:send"] * 2
    assert b"".join(sock.sent()) == b"".join(map(frame_payload, payloads))
    # the hang-up comes after the last frame queued before close
    assert sock.calls[-2:] == [("shutdown", socket.SHUT_RDWR), ("close",)]


def test_a_write_after_a_pause_sends_at_once_and_one_sooner_queues():
    rt = WallRuntime()
    end, sock = held_endpoint(rt, capacity=16)
    end.write_frame(b"a")  # queued, and its batch timed
    assert sock.first_send.wait(timeout=10.0)
    time.sleep(0.1)  # the batch takes at least this long to go out
    sock.release.set()
    while end._busy or end._flight_ns is None:
        time.sleep(0.001)
    time.sleep(end._flight_ns / 1e9)  # a pause as long as that batch took
    end.write_frame(b"b")  # would go out alone: sent on this thread
    end.write_frame(b"c")  # sooner than a batch takes: queued
    end.write_frame(b"d")
    end.close()
    assert rt.run(timeout=10.0) == []
    assert sock.senders[:2] == ["held:send", threading.current_thread().name]
    assert set(sock.senders[2:]) == {"held:send"}
    assert b"".join(sock.sent()) == b"".join(
        frame_payload(p) for p in (b"a", b"b", b"c", b"d"))


def test_a_closed_socket_endpoint_delivers_what_it_queued_then_hangs_up():
    rt = WallRuntime()
    writer, reader = socket_pair(rt)
    reader._sock.settimeout(10.0)  # a lost frame fails the read
    ended, got = [], []
    payloads = [i.to_bytes(4, "big") for i in range(2000)]

    def blocked_read():  # on the closing endpoint: it ends at once
        try:
            writer.read_frame()
        except ConnectionClosed:
            ended.append(True)

    def read_all():  # the burst is more than a socket pair's buffer holds
        got.extend(reader.read_frame() for _ in payloads)

    reads = [threading.Thread(target=blocked_read),
             threading.Thread(target=read_all)]
    for read in reads:
        read.start()
    for payload in payloads:
        writer.write_frame(payload)
    writer.close()
    for read in reads:
        read.join(timeout=10.0)
        assert not read.is_alive()
    assert ended == [True]
    assert got == payloads
    with pytest.raises(ConnectionClosed, match="server: peer hung up"):
        reader.read_frame()
    reader.close()
    assert rt.run(timeout=10.0) == []


def test_a_failed_send_of_queued_frames_is_reported_and_refuses_the_next_write():
    rt = WallRuntime()
    end, sock = held_endpoint(rt, capacity=16, fails=True)
    end.write_frame(b"lost")  # queued; the send fails on the sender's task
    assert rt.run(timeout=10.0) == []  # the sender ends on its own
    assert rt.task_errors() == []
    assert end.send_failed
    with pytest.raises(ConnectionClosed, match="held: send failed"):
        end.write_frame(b"next")
    assert sock.calls == [("shutdown", socket.SHUT_RDWR), ("close",)]
    # a run's downlink that lost them fails the run as a lost link
    assert harness._link_losses(harness._Wiring(down=end)) == [
        "held: send failed"]
    end.close()


def test_a_failed_send_of_a_writers_own_frame_raises_in_that_write():
    rt = WallRuntime()
    end, sock = held_endpoint(rt, capacity=16)
    sock.release.set()
    end.write_frame(b"queued")  # times a batch
    while end._busy or end._flight_ns is None:
        time.sleep(0.001)
    time.sleep(end._flight_ns / 1e9)
    sock.fails = True
    with pytest.raises(ConnectionClosed, match="held: send failed"):
        end.write_frame(b"own")  # sent on this thread, and refused there
    assert not end.send_failed  # no write that returned lost its frame
    with pytest.raises(ConnectionClosed, match="held: write after close"):
        end.write_frame(b"next")
    assert rt.run(timeout=10.0) == []
    assert harness._link_losses(harness._Wiring(down=end)) == []


@pytest.mark.parametrize("then", ["drain", "close"])
def test_a_writer_waits_at_the_links_capacity_until_the_sender_drains(then):
    rt = WallRuntime()
    end, sock = held_endpoint(rt, capacity=2)
    end.write_frame(b"0")
    assert sock.first_send.wait(timeout=10.0)
    end.write_frame(b"1")
    end.write_frame(b"2")  # the queue holds 2 frames
    refused = []

    def write_third():
        try:
            end.write_frame(b"3")
        except ConnectionClosed as exc:
            refused.append(str(exc))

    third = threading.Thread(target=write_third)
    third.start()
    third.join(timeout=0.2)
    assert third.is_alive()  # waits for room, as on an in-process link
    if then == "close":  # ends the wait, and the frame is refused
        end.close()
    sock.release.set()
    third.join(timeout=10.0)
    assert not third.is_alive()
    end.close()
    assert rt.run(timeout=10.0) == []
    sent = [b"0", b"1", b"2"]
    if then == "drain":
        sent.append(b"3")
    assert refused == ([] if then == "drain" else ["held: write after close"])
    assert b"".join(sock.sent()) == b"".join(map(frame_payload, sent))


def test_writers_and_the_sender_lose_no_frame_and_no_wake_up():
    # three writers on one endpoint, with pauses that let the sender idle
    # and let writes go out on their writers' threads, and a short switch
    # interval: a lost wake-up leaves a writer waiting
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rt = WallRuntime()
        writer, reader = socket_pair(rt, capacity=4)
        reader._sock.settimeout(10.0)  # a stuck writer fails the read

        def write(w):
            for i in range(300):
                writer.write_frame(bytes([w]) + i.to_bytes(2, "big"))
                if i % 20 == 0:
                    time.sleep(0.0005)

        writers = [threading.Thread(target=write, args=(w,), daemon=True)
                   for w in range(3)]
        for thread in writers:
            thread.start()
        got = [reader.read_frame() for _ in range(900)]
        for thread in writers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        writer.close()
        reader.close()
        assert rt.run(timeout=10.0) == []
    finally:
        sys.setswitchinterval(switch)
    for w in range(3):  # each writer's frames, whole and in its order
        assert [frame for frame in got if frame[0] == w] == \
            [bytes([w]) + i.to_bytes(2, "big") for i in range(300)]


def test_every_send_on_a_socket_is_the_one_sendall():
    # a writer's own frame and the sender's batch go out through one call
    tree = ast.parse(Path(transport.__file__).read_text())
    senders = [(func.name, node.attr) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Attribute)
               and node.attr in ("send", "sendall", "sendmsg")]
    assert senders == [("_transmit", "sendall")]
