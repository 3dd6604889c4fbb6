"""Event bus tests: fan-out, isolation, ordering, backpressure, shutdown,
and the copy-on-write registry under subscriptions added mid-emit."""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

import twinproto
from twinproto.bus import EventBus
from twinproto.runtime import LockstepRuntime, WallRuntime

END = object()


def queued(bus, topic, subs):
    """What each of `subs` (all on `topic`) holds, read up to an end marker."""
    bus.emit(topic, END)
    return [list(iter(sub.consume, END)) for sub in subs]


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
    assert queued(bus, "other", [other]) == [[]]


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
    assert queued(bus, "t", [sub]) == [["after"]]


def test_duplicate_items_are_distinct_deliveries():
    bus = EventBus(WallRuntime())
    sub = bus.subscribe("t")
    bus.emit("t", "same")
    bus.emit("t", "same")
    assert queued(bus, "t", [sub]) == [["same", "same"]]


def test_topic_isolation_complete_delivery_matrix():
    # every subscriber sees exactly its topic's emissions, in order
    bus = EventBus(WallRuntime())
    topics = ["a", "b", "c"]
    subs = {t: [bus.subscribe(t) for _ in range(2)] for t in topics}
    for i in range(30):
        bus.emit(topics[i % 3], i)
    for t in topics:
        expect = [i for i in range(30) if topics[i % 3] == t]
        assert queued(bus, t, subs[t]) == [expect, expect]


def test_shutdown_ends_a_blocked_consume_cleanly():
    rt = WallRuntime()
    sub = EventBus(rt).subscribe("t")
    rt.spawn(sub.consume, name="consumer")
    time.sleep(0.05)
    rt.shutdown()  # closes the subscription's channel: a clean task exit
    assert rt.run(timeout=2.0) == []
    assert rt.task_errors() == []


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
        rt.shutdown()  # the consumer reads what is queued, then exits

    def consumer():
        while True:
            got.append(sub.consume())

    rt.spawn(producer, name="p")
    rt.spawn(consumer, name="c")
    assert rt.run(timeout=10.0) == []
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
    assert other.consume() == 0
    emitter, returned = _emit_blocked_on_a_full_queue(bus)
    late = bus.subscribe("t")  # takes the registry lock the emit does not hold
    assert full.consume() == 0  # room again: the emit goes on
    emitter.join(timeout=5)
    assert returned == [2]
    assert full.consume() == 1 and other.consume() == 1
    assert bus.emit("t", 2) == 3
    assert late.consume() == 2  # the first item it holds: 1 never reached it


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
    everyone = [sub for group in subs for sub in group]
    assert bus.emit("t", END) == len(everyone) == subscribers * subscribes
    items = [item for sub in everyone for item in iter(sub.consume, END)]
    assert [items.count(k) for k in range(emitters)] == returned


def test_no_module_but_the_bus_imports_it():
    """No deployment uses the bus; it stays for the pipelines that build one."""
    package = Path(twinproto.__file__).parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the package, which is flat
                    base = ".".join(filter(None, ["twinproto", base]))
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if "twinproto.bus" in modules:
                importers.append(path.name)
    assert set(importers) <= {"bus.py"}
