"""Kernel tests: channel semantics, lockstep determinism, teardown."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

from twinproto import harness
from twinproto.errors import ChannelClosed, KernelHalted, TaskStopped
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
    assert sum(rt.slices for rt in runtimes) == 441


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


def test_lockstep_drain_is_nonblocking():
    rt = LockstepRuntime(seed=0)
    ch = rt.channel()

    def producer():
        for i in range(3):
            ch.put(i)

    rt.spawn(producer, name="producer")
    rt.run(timeout=5.0)
    assert ch.drain() == [0, 1, 2]
    assert ch.drain() == []
