"""Event bus tests: fan-out, isolation, ordering, close semantics, and the
copy-on-write registry under subscriptions added or removed mid-emit."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from twinproto.bus import EventBus
from twinproto.errors import BusClosed
from twinproto.runtime import LockstepRuntime, WallRuntime


def test_emit_with_no_subscribers_returns_zero():
    bus = EventBus(WallRuntime())
    assert bus.emit("nowhere", "x") == 0


def test_fanout_count_and_content():
    bus = EventBus(WallRuntime())
    subs = [bus.subscribe("t") for _ in range(3)]
    other = bus.subscribe("other")
    assert bus.emit("t", 42) == 3
    for s in subs:
        assert s.consume() == 42
    assert len(other) == 0


def test_fifo_per_consumer():
    bus = EventBus(WallRuntime())
    sub = bus.subscribe("t")
    for i in range(100):
        bus.emit("t", i)
    assert [sub.consume() for _ in range(100)] == list(range(100))


def test_no_history_replay_on_subscribe():
    bus = EventBus(WallRuntime())
    bus.emit("t", "before")
    sub = bus.subscribe("t")
    bus.emit("t", "after")
    assert sub.drain() == ["after"]


def test_duplicate_items_are_distinct_deliveries():
    bus = EventBus(WallRuntime())
    sub = bus.subscribe("t")
    bus.emit("t", "same")
    bus.emit("t", "same")
    assert sub.drain() == ["same", "same"]


def test_topic_isolation_complete_delivery_matrix():
    # every subscriber sees exactly its topic's emissions, in order
    bus = EventBus(WallRuntime())
    topics = ["a", "b", "c"]
    subs = {t: [bus.subscribe(t) for _ in range(2)] for t in topics}
    for i in range(30):
        bus.emit(topics[i % 3], i)
    for t in topics:
        expect = [i for i in range(30) if topics[i % 3] == t]
        for s in subs[t]:
            assert s.drain() == expect


def test_unsubscribe_stops_delivery():
    bus = EventBus(WallRuntime())
    sub = bus.subscribe("t")
    bus.emit("t", 1)
    sub.close()
    assert bus.emit("t", 2) == 0
    assert sub.consume() == 1  # already-queued item drains
    with pytest.raises(BusClosed):
        sub.consume()


def test_close_wakes_blocked_consumer():
    rt = WallRuntime()
    bus = EventBus(rt)
    sub = bus.subscribe("t")
    outcome = []

    def consumer():
        try:
            sub.consume()
        except BusClosed:
            outcome.append("closed")
            raise

    rt.spawn(consumer, name="consumer")
    time.sleep(0.05)
    bus.close()
    assert rt.run(timeout=2.0) == []
    assert outcome == ["closed"]
    with pytest.raises(BusClosed):
        bus.emit("t", 1)
    with pytest.raises(BusClosed):
        bus.subscribe("t")


def test_bounded_queue_blocks_emitter_until_consumed():
    rt = WallRuntime()
    bus = EventBus(rt, queue_capacity=4)
    sub = bus.subscribe("t")
    progress = []

    def emitter():
        for i in range(8):
            bus.emit("t", i)
            progress.append(i)

    rt.spawn(emitter, name="emitter")
    time.sleep(0.1)
    assert progress == [0, 1, 2, 3]  # fifth emit is blocked on the full queue
    got = [sub.consume() for _ in range(8)]
    assert got == list(range(8))
    assert rt.run(timeout=2.0) == []


def test_bus_under_lockstep_runtime():
    rt = LockstepRuntime(seed=1)
    bus = EventBus(rt)
    sub = bus.subscribe("t")
    got = []

    def producer():
        for i in range(5):
            bus.emit("t", i)
        bus.close()

    def consumer():
        while True:
            got.append(sub.consume())

    rt.spawn(producer, name="p")
    rt.spawn(consumer, name="c")
    rt.run(timeout=10.0)
    assert rt.task_errors() == []
    assert got == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# the copy-on-write registry
# ---------------------------------------------------------------------------

def _emit_blocked_on_a_full_queue(bus):
    """Emit 1 on "t" from a thread; it blocks on the first, full queue.
    Returns the thread and a list that receives the emit's count."""
    returned = []
    emitter = threading.Thread(target=lambda: returned.append(bus.emit("t", 1)))
    emitter.start()
    time.sleep(0.05)
    assert returned == []  # still parked on the full queue
    return emitter, returned


def test_targets_added_mid_emit_are_not_reached_by_that_emit():
    bus = EventBus(WallRuntime(), queue_capacity=1)
    full, other = bus.subscribe("t"), bus.subscribe("t")
    assert bus.emit("t", 0) == 2
    assert other.drain() == [0]
    emitter, returned = _emit_blocked_on_a_full_queue(bus)
    late = bus.subscribe("t")  # takes the registry lock the emit does not hold
    assert full.consume() == 0  # room again: the emit goes on
    emitter.join(timeout=5)
    assert returned == [2]
    assert full.drain() == [1] and other.drain() == [1]
    assert late.drain() == []
    assert bus.emit("t", 2) == 3
    assert late.drain() == [2]


def test_unsubscribing_mid_emit_detaches_without_blocking():
    bus = EventBus(WallRuntime(), queue_capacity=1)
    full, other = bus.subscribe("t"), bus.subscribe("t")
    assert bus.emit("t", 0) == 2
    assert other.drain() == [0]
    emitter, returned = _emit_blocked_on_a_full_queue(bus)
    # the emit that is parked on the queue still holds it in its tuple: it
    # counts 0 for it instead of raising or waiting on the registry lock
    full.close()
    emitter.join(timeout=5)
    assert returned == [1]
    assert other.drain() == [1]
    assert bus.emit("t", 2) == 1


def test_emit_after_close_raises_on_every_topic():
    bus = EventBus(WallRuntime())
    sub = bus.subscribe("t")
    bus.close()
    for topic in ("t", "never-registered"):
        with pytest.raises(BusClosed):
            bus.emit(topic, 1)
    with pytest.raises(BusClosed):
        sub.consume()


def test_concurrent_subscribe_and_emit_lose_no_registration_or_delivery():
    bus = EventBus(WallRuntime())
    emitters, subscribers, emits, subscribes = 4, 4, 100, 100
    subs = [[] for _ in range(subscribers)]
    returned = [0] * emitters
    start = threading.Barrier(emitters + subscribers)

    def subscribe_many(k):
        start.wait()
        for _ in range(subscribes):
            subs[k].append(bus.subscribe("t"))

    def emit_many(k):
        start.wait()
        for _ in range(emits):
            returned[k] += bus.emit("t", k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=subscribe_many, args=(k,))
                   for k in range(subscribers)]
        threads += [threading.Thread(target=emit_many, args=(k,))
                    for k in range(emitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    # each emit's count is the queues it reached, and every subscribe landed
    queued = [item for group in subs for sub in group for item in sub.drain()]
    assert [queued.count(k) for k in range(emitters)] == returned
    assert bus.emit("t", None) == subscribers * subscribes
