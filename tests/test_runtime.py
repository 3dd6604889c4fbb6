"""Kernel tests: channel semantics, lockstep determinism, teardown."""

from __future__ import annotations

import ast
import itertools
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinproto import harness, runtime
from twinproto.config import parse_scenario
from twinproto.errors import (ChannelClosed, ConnectionClosed, KernelHalted,
                              TaskStopped)
from twinproto.runtime import (ClockMode, LockstepRuntime, WallRuntime,
                               make_runtime)

SUITE = Path(harness.__file__).parent / "suite"


def test_make_runtime_modes():
    assert make_runtime(ClockMode.WALL).mode is ClockMode.WALL
    assert make_runtime(ClockMode.LOCKSTEP, seed=4).mode is ClockMode.LOCKSTEP


# -- wall channels ------------------------------------------------------------

def test_wall_channel_fifo_and_len():
    rt = WallRuntime()
    ch = rt.channel()
    for i in range(10):
        ch.put(i)
    assert len(ch) == 10
    assert [ch.get() for _ in range(10)] == list(range(10))


def test_wall_channel_close_drains_then_raises():
    rt = WallRuntime()
    ch = rt.channel()
    ch.put("a")
    ch.close()
    assert ch.get() == "a"
    with pytest.raises(ChannelClosed):
        ch.get()
    with pytest.raises(ChannelClosed):
        ch.put("b")


def test_wall_channel_backpressure_blocks_until_space():
    rt = WallRuntime()
    ch = rt.channel(capacity=2)
    ch.put(1)
    ch.put(2)
    done = threading.Event()

    def writer():
        ch.put(3)  # blocks until a get frees a slot
        done.set()

    rt.spawn(writer, name="writer")
    time.sleep(0.05)
    assert not done.is_set()
    assert ch.get() == 1
    assert done.wait(1.0)


@pytest.mark.parametrize("waiters", [1, 3])
def test_wall_channel_close_wakes_every_blocked_put_and_get(waiters):
    rt = WallRuntime()
    full = rt.channel(capacity=1)
    full.put("x")
    empty = rt.channel(capacity=1)
    closed = []

    def blocked(call):
        try:
            call()
        except ChannelClosed:
            closed.append(call)
            raise

    tasks = []
    for n in range(waiters):
        tasks.append(rt.spawn(lambda: blocked(lambda: full.put("y")),
                              name=f"putter-{n}"))
        tasks.append(rt.spawn(lambda: blocked(empty.get), name=f"getter-{n}"))
    time.sleep(0.05)
    assert {t.state for t in tasks} == {"running"}
    full.close()
    empty.close()
    assert rt.run(timeout=2.0) == []
    assert {t.state for t in tasks} == {"done"}
    assert len(closed) == 2 * waiters
    assert rt.task_errors() == []


@pytest.mark.parametrize("waiters", [3, 4, 5])
def test_wall_channel_wakes_every_blocked_getter_one_put_each(waiters):
    rt = WallRuntime()
    ch = rt.channel(capacity=waiters)
    got = []
    for n in range(waiters):
        rt.spawn(lambda: got.append(ch.get()), name=f"getter-{n}")
    time.sleep(0.05)
    assert got == []
    for i in range(waiters):
        ch.put(i)
    assert rt.run(timeout=2.0) == []  # a lost wakeup leaves a getter parked
    assert sorted(got) == list(range(waiters))


@pytest.mark.parametrize("producers,consumers,capacity", [
    (1, 1, 1), (1, 3, 1), (4, 1, 1), (4, 3, 1),
    (2, 2, 2), (3, 1, 2), (1, 2, 2), (4, 2, 2),
    (1, 1, 3), (2, 3, 3), (3, 2, 3), (4, 3, 3),
])
def test_wall_channel_stress_closed_mid_stream(producers, consumers,
                                               capacity):
    """Every put that returned is got exactly once, and each consumer sees
    each producer's items in the order they were put."""
    rt = WallRuntime()
    ch = rt.channel(capacity=capacity)
    put, got = _stress_until_closed(rt, ch, producers, consumers)
    assert sorted(item for items in got for item in items) == sorted(
        (p, i) for p in range(producers) for i in put[p])
    for items in got:
        for p in range(producers):
            seen = [i for q, i in items if q == p]
            assert seen == sorted(set(seen))


@pytest.mark.parametrize("producers,consumers,capacity", [
    (1, 1, 1), (1, 3, 1), (4, 1, 1), (4, 3, 1), (2, 2, 2), (4, 3, 3),
])
def test_every_wakeup_a_put_or_get_sends_finds_a_waiter(producers, consumers,
                                                        capacity):
    """A put or get notifies only while a thread waits on that side: the
    one that notifies takes the woken waiter off the count."""
    rt = WallRuntime()
    ch = rt.channel(capacity=capacity)
    waiting = []  # threads waiting on the condition at each notify

    for cond in (ch._not_empty, ch._not_full):
        def counted(n=1, cond=cond, notify=cond.notify):
            waiting.append(len(cond._waiters))
            notify(n)
        cond.notify = counted
    close = ch.close

    def closing():  # `notify_all` calls `notify`: its calls do not count
        waiting.append(None)
        close()

    ch.close = closing
    _stress_until_closed(rt, ch, producers, consumers)
    assert 0 not in waiting[:waiting.index(None)]


def _stress_until_closed(rt, ch, producers, consumers):
    """Producers put (p, i) and consumers get on `ch` until it is closed
    mid-stream; returns (i of each put that returned, per producer; the
    items each consumer got)."""
    put = [[] for _ in range(producers)]  # i of each put that returned
    got = [[] for _ in range(consumers)]

    def producer(p):
        for i in itertools.count():
            ch.put((p, i))
            put[p].append(i)

    def consumer(c):
        while True:
            got[c].append(ch.get())

    switch_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the lock too
    try:
        for p in range(producers):
            rt.spawn(lambda p=p: producer(p), name=f"producer-{p}")
        for c in range(consumers):
            rt.spawn(lambda c=c: consumer(c), name=f"consumer-{c}")
        time.sleep(0.05)
        ch.close()
        assert rt.run(timeout=5) == []
    finally:
        sys.setswitchinterval(switch_s)
    assert rt.task_errors() == []
    return put, got


def test_wall_sleep_interrupted_by_shutdown():
    rt = WallRuntime()
    saw = []

    def sleeper():
        try:
            rt.sleep_ms(10_000)
        except TaskStopped:
            saw.append("stopped")
            raise

    rt.spawn(sleeper, name="sleeper")
    time.sleep(0.05)
    rt.shutdown()
    assert rt.run(timeout=2.0) == []
    assert saw == ["stopped"]
    assert rt.task_errors() == []


def test_wall_run_names_stragglers_then_unwinds_them():
    rt = WallRuntime()
    ch = rt.channel()
    rt.spawn(ch.get, name="waiter")  # nothing is ever put
    before = time.monotonic()
    assert rt.run(timeout=0.1) == ["waiter"]
    assert time.monotonic() - before < 1.0
    assert "waiter" not in [t.name for t in threading.enumerate()]
    assert rt.task_errors() == []


@pytest.mark.parametrize("child_ms,timeout,stragglers", [
    (1000, 0.3, ["late-child"]),  # outlives the timeout: named, then unwound
    (100, 5.0, []),               # ends inside the timeout: waited for
])
def test_wall_run_waits_for_tasks_spawned_during_the_run(child_ms, timeout,
                                                         stragglers):
    rt = WallRuntime()
    children = []

    def parent():
        rt.sleep_ms(50)
        children.append(rt.spawn(lambda: rt.sleep_ms(child_ms),
                                 name="late-child"))

    rt.spawn(parent, name="parent")
    assert rt.run(timeout=timeout) == stragglers
    assert not children[0].thread.is_alive()
    assert children[0].state == "done"
    assert rt.task_errors() == []


# -- lockstep kernel ----------------------------------------------------------

def run_bounded(rt, timeout):
    """`rt.run(timeout)` in a helper thread, so a hung kernel fails the test.

    Returns what `run` returned, or the exception it raised.
    """
    outcome = []

    def call():
        try:
            outcome.append(rt.run(timeout=timeout))
        except Exception as exc:  # handed to the test to assert on
            outcome.append(exc)

    runner = threading.Thread(target=call, name="run-bounded", daemon=True)
    runner.start()
    runner.join(timeout + 5.0)
    assert not runner.is_alive(), "LockstepRuntime.run did not return"
    return outcome[0]


def pipeline_run(seed, stages=4, items=25):
    """Chain of channel-relay tasks; returns the observed event order."""
    return pipeline_runtime(seed, stages, items)[1]


def pipeline_runtime(seed, stages=4, items=25):
    """pipeline_run's runtime after the run, and its event order."""
    rt = LockstepRuntime(seed=seed)
    chans = [rt.channel() for _ in range(stages + 1)]
    events = []

    def stage(i):
        def run():
            while True:
                try:
                    item = chans[i].get()
                except ChannelClosed:
                    chans[i + 1].close()
                    return
                events.append((i, item))
                chans[i + 1].put(item)
        return run

    for i in range(stages):
        rt.spawn(stage(i), name=f"stage{i}")

    def feeder():
        for n in range(items):
            chans[0].put(n)
        chans[0].close()

    def sink():
        while True:
            try:
                item = chans[stages].get()
            except ChannelClosed:
                return
            events.append(("sink", item))

    rt.spawn(feeder, name="feeder")
    rt.spawn(sink, name="sink")
    rt.run(timeout=20.0)
    assert rt.task_errors() == []
    return rt, events


def test_lockstep_same_seed_identical_schedule():
    assert pipeline_run(seed=11) == pipeline_run(seed=11)


def test_lockstep_slices_are_pinned():
    # one slice per grant: a different count means a different schedule
    rt, _ = pipeline_runtime(seed=11)
    assert rt.slices == 10


def test_lockstep_bundled_suite_slices_are_pinned(monkeypatch):
    runtimes = []

    def recording_runtime(mode, seed=0):
        runtimes.append(make_runtime(mode, seed))
        return runtimes[-1]

    monkeypatch.setattr(harness, "make_runtime", recording_runtime)
    results = harness.run_suite(SUITE, force_lockstep=True)
    assert all(r.ok for r in results), [r.failures for r in results]
    assert len(runtimes) == len(results)
    assert sum(rt.slices for rt in runtimes) == 166


def test_lockstep_seeds_change_interleaving_not_content():
    a = pipeline_run(seed=1)
    b = pipeline_run(seed=2)
    # per-stage subsequences are FIFO-identical even if the merge order differs
    for i in list(range(4)) + ["sink"]:
        assert [e for e in a if e[0] == i] == [e for e in b if e[0] == i]


def test_lockstep_fifo_per_channel():
    events = pipeline_run(seed=3)
    assert [v for (s, v) in events if s == "sink"] == list(range(25))


def test_lockstep_sleep_orders_by_tick():
    rt = LockstepRuntime(seed=0)
    log = []

    def waker(delay, tag):
        def run():
            rt.sleep_ms(delay)
            log.append((rt.tick, tag))
        return run

    rt.spawn(waker(30, "late"), name="late")
    rt.spawn(waker(10, "early"), name="early")
    rt.run(timeout=5.0)
    assert log == [(10, "early"), (30, "late")]


def test_lockstep_tick_fast_forwards_over_idle_time():
    rt = LockstepRuntime(seed=0)

    def sleeper():
        rt.sleep_ms(5000)

    rt.spawn(sleeper, name="sleeper")
    start = time.monotonic()
    rt.run(timeout=5.0)
    assert time.monotonic() - start < 1.0
    assert rt.tick == 5000


def test_lockstep_deadlock_detected():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()

    def stuck():
        ch.get()

    rt.spawn(stuck, name="stuck")
    with pytest.raises(RuntimeError, match="deadlock"):
        rt.run(timeout=5.0)


def test_lockstep_deadlock_unwinds_parked_tasks():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()
    saw = []

    def stuck():
        try:
            ch.get()
        except ChannelClosed:
            saw.append("closed")
            raise

    handle = rt.spawn(stuck, name="stuck")
    assert isinstance(run_bounded(rt, 5.0), KernelHalted)
    handle.thread.join(5.0)
    assert not handle.thread.is_alive()
    assert saw == ["closed"]


def test_lockstep_safety_limit_fires_while_a_task_blocks_outside_the_kernel():
    rt = LockstepRuntime(seed=0)
    release = threading.Event()
    handle = rt.spawn(release.wait, name="blocked")
    try:
        outcome = run_bounded(rt, 0.2)
    finally:
        release.set()
    assert isinstance(outcome, RuntimeError)
    assert "safety limit" in str(outcome)
    assert "blocked=running" in str(outcome)
    handle.thread.join(5.0)
    assert not handle.thread.is_alive()


def test_lockstep_safety_limit_ends_a_run_of_generator_tasks_only():
    # no thread task ever takes the baton, so `run`'s own thread carries
    # every slice and gives up between two of them at its time
    rt = LockstepRuntime(seed=0)

    def ticker():
        while True:
            yield from rt.pause(1)

    handle = rt.spawn(ticker(), name="ticker")
    with pytest.raises(KernelHalted, match=r"^lockstep wall-time safety "
                                           r"limit hit at tick \d+: "
                                           r"ticker=sleeping$"):
        rt.run(timeout=0.2)
    assert rt.tick > 0
    assert handle.state == "done"  # it unwound at its next pause


def ring_run(seed, tasks=32, items=16, hops=64):
    """Items hop round a ring of tasks over small lockstep channels.

    Every fourth task sleeps before passing an item on, so ticks advance and
    quiescence is reached many times. Returns the event list and the most
    tasks ever seen inside a slice at once, counted without a lock.
    """
    rt = LockstepRuntime(seed=seed)
    chans = [rt.channel(capacity=2) for _ in range(tasks)]
    events, finished = [], []
    inside = {"now": 0, "max": 0}

    def hop(i):
        def run():
            while True:
                item, left = chans[i].get()
                inside["now"] += 1
                inside["max"] = max(inside["max"], inside["now"])
                events.append((i, item, left, rt.tick))
                sum(range(200))  # widen the window for a second task
                inside["now"] -= 1
                if left == 0:
                    finished.append(item)
                    if len(finished) == items:
                        rt.shutdown()
                    continue
                if i % 4 == 0:
                    rt.sleep_ms(1 + item % 3)
                chans[(i + 1) % tasks].put((item, left - 1))
        return run

    def starter():
        for item in range(items):
            chans[item * 2 % tasks].put((item, hops))

    for i in range(tasks):
        rt.spawn(hop(i), name=f"hop{i}")
    rt.spawn(starter, name="starter")
    assert run_bounded(rt, 30.0) == []
    assert rt.task_errors() == []
    assert sorted(finished) == list(range(items))
    return events, inside["max"], rt.slices


def test_lockstep_kernel_stress_one_task_per_slice_and_reproducible():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = ring_run(seed=7)
        second = ring_run(seed=7)
    finally:
        sys.setswitchinterval(old)
    events, max_inside, _ = first
    assert max_inside == 1
    assert len(events) == 16 * 65
    assert first == second


def test_lockstep_shutdown_unwinds_everything():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()

    def blocked():
        ch.get()

    def sleeper():
        rt.sleep_ms(10_000)

    def terminator():
        rt.sleep_ms(5)
        rt.shutdown()

    rt.spawn(blocked, name="blocked")
    rt.spawn(sleeper, name="sleeper")
    rt.spawn(terminator, name="terminator")
    rt.run(timeout=5.0)
    assert rt.task_errors() == []


def test_lockstep_channel_rejects_foreign_threads():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()
    with pytest.raises(RuntimeError, match="spawned tasks"):
        ch.get()


# -- generator tasks ------------------------------------------------------------

def gen_put(ch, item):
    while (wait := ch.wait_put()) is not None:
        yield wait
    ch.put(item)


def gen_get(ch):
    while (wait := ch.wait_get()) is not None:
        yield wait
    return ch.get()


PING_ROUNDS = 20
NAPS = (3, 1, 4, 1, 5)
FILL = 4


def mixed_run(seed, kinds):
    """A ping-pong over two channel(1)s, a sleeper, and a filler putting
    into a full channel(1) that a drainer empties slowly.

    `kinds` is "plain", "generator" or "mixed" (generator and thread tasks
    alternate). Returns (slices, tick, events).
    """
    rt = LockstepRuntime(seed=seed)
    ping, pong, full = (rt.channel(1, name) for name in ("ping", "pong",
                                                          "full"))
    events = []

    def note(*what):
        events.append(what + (rt.tick,))

    def pinger():
        for i in range(PING_ROUNDS):
            ping.put(i)
            note("ping", pong.get())

    def pinger_gen():
        for i in range(PING_ROUNDS):
            yield from gen_put(ping, i)
            note("ping", (yield from gen_get(pong)))

    def ponger():
        for _ in range(PING_ROUNDS):
            item = ping.get()
            note("pong", item)
            pong.put(item)

    def ponger_gen():
        for _ in range(PING_ROUNDS):
            item = yield from gen_get(ping)
            note("pong", item)
            yield from gen_put(pong, item)

    def sleeper():
        for ms in NAPS:
            rt.sleep_ms(ms)
            note("woke")

    def sleeper_gen():
        for ms in NAPS:
            yield from rt.pause(ms)
            note("woke")

    def filler():
        for i in range(FILL):
            full.put(i)
            note("put", i)

    def filler_gen():
        for i in range(FILL):
            yield from gen_put(full, i)
            note("put", i)

    def drainer():
        for _ in range(FILL):
            rt.sleep_ms(2)
            note("got", full.get())

    def drainer_gen():
        for _ in range(FILL):
            yield from rt.pause(2)
            note("got", (yield from gen_get(full)))

    tasks = [(pinger, pinger_gen), (ponger, ponger_gen), (sleeper, sleeper_gen),
             (filler, filler_gen), (drainer, drainer_gen)]
    for i, (plain, gen) in enumerate(tasks):
        as_gen = kinds == "generator" or (kinds == "mixed" and i % 2 == 0)
        rt.spawn(gen() if as_gen else plain, name=plain.__name__)
    assert run_bounded(rt, 10.0) == []
    assert rt.task_errors() == []
    return rt.slices, rt.tick, events


@pytest.mark.parametrize("seed", range(10))
def test_generator_tasks_keep_the_thread_tasks_schedule(seed):
    plain = mixed_run(seed, "plain")
    assert mixed_run(seed, "generator") == plain
    assert mixed_run(seed, "mixed") == plain
    assert len(plain[2]) == 2 * PING_ROUNDS + len(NAPS) + 2 * FILL


@given(seed=st.integers(0, 2 ** 64), spawns=st.lists(st.integers(0, 12),
                                                     max_size=25))
def test_each_pick_is_randrange_over_the_ready_tasks(seed, spawns):
    """Pick k is `random.Random(seed).randrange(n)`'s k-th value over the n
    tasks ready then. Each picked task spawns the next drawn count of
    tasks, so the sizes drawn over run from 1 to dozens."""
    rt = LockstepRuntime(seed=seed)
    counts = iter(spawns)
    names = itertools.count()
    picked = []

    def task(name):
        picked.append(name)
        for _ in range(next(counts, 0)):
            spawn()
        yield from ()

    def spawn():
        name = next(names)
        rt.spawn(task(name), name=f"t{name}")

    spawn()
    assert rt.run(timeout=10.0) == []

    draw = random.Random(seed)
    counts = iter(spawns)
    ready, want = [0], []
    while ready:
        want.append(ready.pop(draw.randrange(len(ready))))
        for _ in range(next(counts, 0)):
            ready.append(len(want) + len(ready))
    assert picked == want
    assert rt.slices == len(want)


def slice_order(seed):
    """Which task each wake-up went to, one letter a wake-up: generator
    tasks (lower case) and thread tasks (upper case) that sleep and pass
    items over a channel(1) and a channel(2)."""
    rt = LockstepRuntime(seed=seed)
    hand, back = rt.channel(1, "hand"), rt.channel(2, "back")
    order = []

    def producer():
        for i in range(4):
            yield from gen_put(hand, i)
            order.append("p")
            yield from rt.pause(1 + i % 2)

    def relay():
        for _ in range(4):
            item = hand.get()
            order.append("R")
            back.put(item)

    def receiver():
        for _ in range(4):
            yield from gen_get(back)
            order.append("r")

    def sleeper():
        for ms in (2, 1, 3):
            rt.sleep_ms(ms)
            order.append("S")

    def napper():
        for ms in (1, 1, 2):
            yield from rt.pause(ms)
            order.append("n")

    rt.spawn(producer(), name="producer")
    rt.spawn(relay, name="relay")
    rt.spawn(receiver(), name="receiver")
    rt.spawn(sleeper, name="sleeper")
    rt.spawn(napper(), name="napper")
    assert run_bounded(rt, 10.0) == []
    assert rt.task_errors() == []
    return "".join(order), rt.slices, rt.tick


# recorded before the kernel's draw and sleep were inlined; a change to the
# draw, the wait lists or the timers moves them
SLICE_ORDERS = {
    0: ("pRrpRrnSnpSRrpnRrS", 22, 6),
    1: ("pRrnpRrSnSpRrnpRrS", 23, 6),
    2: ("pRrnpRrSnSpRrnpRrS", 21, 6),
    3: ("pRrpnRrnSpSRrnpRrS", 23, 6),
    4: ("pRrpnRrnSpSRrnpRrS", 22, 6),
}


@pytest.mark.parametrize("seed", sorted(SLICE_ORDERS))
def test_the_order_of_slices_is_pinned(seed):
    assert slice_order(seed) == SLICE_ORDERS[seed]


def test_a_generator_task_ends_done_or_failed_like_a_thread_task():
    rt = LockstepRuntime(seed=0)
    closed = rt.channel(1)
    closed.close()
    boom = ValueError("boom")

    def raises():
        yield from rt.pause(1)
        raise boom

    def meets_a_closed_channel():
        yield from gen_get(closed)

    def meets_a_closed_link():
        yield from rt.pause(1)
        raise ConnectionClosed("link gone")

    def is_stopped():
        yield from rt.pause(2)
        raise TaskStopped()

    def returns():
        yield from rt.pause(3)

    handles = [rt.spawn(body(), name=body.__name__)
               for body in (raises, meets_a_closed_channel,
                            meets_a_closed_link, is_stopped, returns)]
    assert run_bounded(rt, 5.0) == []
    assert [h.state for h in handles] == ["failed", "done", "done", "done",
                                          "done"]
    assert rt.task_errors() == [("raises", boom)]


def test_shutdown_wakes_generator_sleepers_and_channel_waiters():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()
    saw = []

    def sleeper():
        try:
            yield from rt.pause(10_000)
        except TaskStopped:
            saw.append("sleeper")
            raise

    def waiter():
        try:
            yield from gen_get(ch)
        except ChannelClosed:
            saw.append("waiter")
            raise

    def terminator():
        yield from rt.pause(5)
        rt.shutdown()

    handles = [rt.spawn(body(), name=body.__name__)
               for body in (sleeper, waiter, terminator)]
    assert run_bounded(rt, 5.0) == []
    assert sorted(saw) == ["sleeper", "waiter"]
    assert rt.tick == 5
    assert [h.state for h in handles] == ["done"] * 3
    assert rt.task_errors() == []


@pytest.mark.parametrize("call", ["get", "put", "sleep_ms"])
def test_a_plain_call_that_would_park_a_generator_task_raises(call):
    rt = LockstepRuntime(seed=0)
    empty, full = rt.channel(1), rt.channel(1)
    after = []

    def careless():
        yield from rt.pause(1)
        if call == "get":
            empty.get()
        elif call == "put":
            full.put("first")  # room: no park, so no complaint
            full.put("second")
        else:
            rt.sleep_ms(5)

    def bystander():
        yield from rt.pause(3)
        after.append(rt.tick)

    careless_task = rt.spawn(careless(), name="careless")
    rt.spawn(bystander(), name="bystander")
    assert run_bounded(rt, 5.0) == []
    assert careless_task.state == "failed"
    [(name, err)] = rt.task_errors()
    assert name == "careless"
    assert isinstance(err, RuntimeError)
    assert "task careless" in str(err) and "yield from" in str(err)
    assert after == [3]  # the carrier thread was not parked


@pytest.fixture
def started_threads(monkeypatch):
    """The name of every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_a_lockstep_run_starts_a_thread_per_plain_task_only(started_threads):
    started = started_threads
    mixed_run(0, "generator")
    assert started == ["run-bounded"]  # the test's own helper, no task
    started.clear()
    mixed_run(0, "mixed")
    assert sorted(started) == ["filler", "ponger", "run-bounded"]


def test_a_lockstep_twin_session_runs_its_link_tasks_without_threads(
        started_threads):
    sc = parse_scenario({
        "name": "threads", "mode": "twin", "clock": "lockstep", "seed": 2,
        "duration_ms": 300,
        "steps": [{"at_ms": 0, "do": "command", "value": 50},
                  {"at_ms": 100, "do": "inject", "value": 0}],
        "measurements": [[t, t] for t in range(0, 100, 5)],
        "expect": {"final_status": "STANDBY"}})
    result = harness.run_scenario(sc)
    assert result.ok, result.failures
    # the operator and the sensor's measurement script; every link task
    # (serve loop, receive loops, ingest, poll) runs as a generator
    assert sorted(started_threads) == ["measurement-script", "op:script"]


def test_a_lockstep_pt_session_watches_the_plant_without_a_thread(
        started_threads):
    sc = parse_scenario({
        "name": "threads", "mode": "pt", "clock": "lockstep", "seed": 2,
        "duration_ms": 300,
        "steps": [{"at_ms": 0, "do": "command", "value": 50},
                  {"at_ms": 100, "do": "command", "value": 0}],
        "measurements": [[t, t] for t in range(0, 100, 5)],
        "expect": {"final_status": "STANDBY", "min_statuses": 3}})
    result = harness.run_scenario(sc)
    assert result.ok, result.failures
    assert result.measurements_seen > 0
    # the operator's watch is a driver's receive loop, a generator task
    assert sorted(started_threads) == ["measurement-script", "op:script"]


def callers(module, callee):
    """The qualified name of the definition around each call in `module`
    whose callee's source ends in `callee`, in source order."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call) and \
                ast.unparse(node.func).endswith(callee):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(Path(module.__file__).read_text()), "")
    return found


def test_the_lockstep_kernel_has_one_timer_and_no_new_park():
    # `sleep_ms` and `pause` join the timers through `_wake_at`; a thread
    # task waits for a slice in `_park`, for its first one in `spawn`, or
    # in `sleep_ms`'s inline park, kept for speed, on the grant that
    # `_LockTask` takes as it is made
    assert callers(runtime, "heappush") == ["LockstepRuntime._wake_at"]
    assert callers(runtime, "grant.acquire") == [
        "_LockTask.__init__", "LockstepRuntime._park",
        "LockstepRuntime.spawn.run", "LockstepRuntime.sleep_ms"]


def test_only_the_runtime_reads_a_task_handles_thread():
    # a run's tasks end one way, through `run` or `stop`: no other module
    # reads a task handle's thread, to join it or to ask if it is alive
    readers = []
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        if path.name != "runtime.py":
            readers += [f"{path.name}:{node.lineno}"
                        for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "thread"]
    assert readers == []
