"""Event bus tests: fan-out, isolation, ordering, close semantics."""

from __future__ import annotations

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


def test_subscription_over_several_topics_tags_items_in_emit_order():
    bus = EventBus(WallRuntime())
    both = bus.subscribe(("a", "b"), name="both")
    only_a = bus.subscribe("a")
    for i in range(6):
        assert bus.emit("ab"[i % 2], i) == (2 if i % 2 == 0 else 1)
    bus.emit("c", "elsewhere")
    assert both.drain() == [("ab"[i % 2], i) for i in range(6)]
    assert only_a.drain() == [0, 2, 4]  # a one-topic subscription stays bare
    both.close()
    assert bus.emit("a", 6) == 1 and bus.emit("b", 7) == 0


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
    import time

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
    import time

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
