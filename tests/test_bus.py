"""Event bus tests: fan-out, isolation, ordering, close semantics, and the
copy-on-write registry under targets added or removed mid-emit."""

from __future__ import annotations

import sys
import threading

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


@pytest.mark.parametrize("clock", ["wall", "lockstep"])
def test_handler_runs_on_the_emitting_task_in_emit_order(clock):
    rt = WallRuntime() if clock == "wall" else LockstepRuntime(seed=3)
    bus = EventBus(rt)
    seen, counts = [], []
    bus.attach(("a", "b"), lambda topic, item: seen.append(
        (topic, item, threading.get_ident())))
    only_a = bus.subscribe("a")

    def emitter():
        for i in range(6):
            counts.append(bus.emit("ab"[i % 2], i))
        bus.emit("c", "elsewhere")
        counts.append(threading.get_ident())

    rt.spawn(emitter, name="emitter")
    assert rt.run(timeout=5.0) == []
    assert rt.task_errors() == []
    task_ident = counts.pop()
    # one delivery per handler or queue reached
    assert counts == [2, 1, 2, 1, 2, 1]
    assert seen == [("ab"[i % 2], i, task_ident) for i in range(6)]
    assert only_a.drain() == [0, 2, 4]


def test_handler_exceptions_reach_the_emitter():
    bus = EventBus(WallRuntime())

    def handler(topic, item):
        raise ValueError(item)

    bus.attach("t", handler)
    with pytest.raises(ValueError, match="boom"):
        bus.emit("t", "boom")


def test_emit_after_close_raises_with_a_handler_attached():
    bus = EventBus(WallRuntime())
    seen = []
    bus.attach("t", lambda topic, item: seen.append(item))
    assert bus.emit("t", 1) == 1
    bus.close()
    with pytest.raises(BusClosed):
        bus.emit("t", 2)
    with pytest.raises(BusClosed):
        bus.attach("t", lambda topic, item: None)
    assert seen == [1]


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


# ---------------------------------------------------------------------------
# the copy-on-write registry
# ---------------------------------------------------------------------------

def test_targets_added_mid_emit_are_not_reached_by_that_emit():
    bus = EventBus(WallRuntime())
    late, subs = [], []

    def first(topic, item):
        if not subs:
            bus.attach("t", lambda topic, item: late.append(item))
            subs.append(bus.subscribe("t"))

    bus.attach("t", first)
    assert bus.emit("t", 1) == 1
    assert late == [] and subs[0].drain() == []
    assert bus.emit("t", 2) == 3
    assert late == [2] and subs[0].drain() == [2]


def test_unsubscribing_mid_emit_detaches_without_blocking():
    bus = EventBus(WallRuntime())
    subs = []
    bus.attach("t", lambda topic, item: subs[0].close())
    subs.append(bus.subscribe("t"))
    # the emit that closes the queue still holds it in its tuple: it counts
    # 0 for it instead of raising or waiting on the registry lock
    assert bus.emit("t", 1) == 1
    assert subs[0].drain() == []
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


def test_concurrent_attach_and_emit_lose_no_registration_or_delivery():
    bus = EventBus(WallRuntime())
    emitters, attachers, emits, attaches = 4, 4, 100, 1000
    hits = []  # one entry per handler call: the emitter's index
    returned = [0] * emitters
    start = threading.Barrier(emitters + attachers)

    def attach_many():
        start.wait()
        for _ in range(attaches):
            bus.attach("t", lambda topic, item: hits.append(item))

    def emit_many(k):
        start.wait()
        for _ in range(emits):
            returned[k] += bus.emit("t", k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=attach_many)
                   for _ in range(attachers)]
        threads += [threading.Thread(target=emit_many, args=(k,))
                    for k in range(emitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    # each emit's count is the calls it made, and every attach landed
    assert [hits.count(k) for k in range(emitters)] == returned
    assert bus.emit("t", None) == attachers * attaches
