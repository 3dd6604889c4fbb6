"""Task runtime with two clock modes.

All concurrent pieces of the system (device loops, drivers, the control
owner, twin stages, scenario injectors) are written as plain blocking
functions against this module's Runtime interface:

    spawn(fn, name=...)   start a task
    channel(capacity=..)  bounded FIFO pipe between tasks
    sleep_ms(ms)          timed wait
    now_ns()              timestamp for records

Two implementations exist:

* WallRuntime: every task is a daemon thread, channels are condition-variable
  queues, sleep is real time, now_ns is the monotonic clock. Free-running.

* LockstepRuntime: cooperative scheduling over real threads with a baton. At
  most one task executes at any instant; everything else is parked. Time is a
  logical tick counter (1 tick is the lockstep stand-in for 1 ms). There is
  no scheduler thread: a task that parks or exits grants the next slice
  itself. Slices go to runnable tasks until all are parked (quiescence), then
  the tick jumps to the next timer. The only nondeterminism is which runnable
  task goes next, and that choice comes from a seeded RNG, so a whole run is
  a pure function of (seed, inputs).

Component code never touches threading primitives directly; that is what keeps
it bit-reproducible under lockstep while staying an ordinary threaded program
on the wall clock.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from enum import Enum

from .errors import (
    BusClosed,
    ChannelClosed,
    ConnectionClosed,
    KernelHalted,
    TaskStopped,
)

DEFAULT_CHANNEL_CAPACITY = 1024

# task exit paths that mean "unwound cleanly during teardown"
CLEAN_EXITS = (TaskStopped, ChannelClosed, ConnectionClosed, BusClosed)


class ClockMode(Enum):
    WALL = "wall"
    LOCKSTEP = "lockstep"


class TaskHandle:
    def __init__(self, name):
        self.name = name
        self.state = "new"
        self.error = None

    def __repr__(self):
        return f"<task {self.name} {self.state}>"


# ---------------------------------------------------------------------------
# Wall-clock runtime
# ---------------------------------------------------------------------------

class _WallChannel:
    """Bounded FIFO with close semantics: reads drain, then raise."""

    def __init__(self, capacity):
        self._items = deque()
        self._capacity = capacity
        self._cond = threading.Condition()
        self._closed = False

    def put(self, item):
        with self._cond:
            while len(self._items) >= self._capacity and not self._closed:
                self._cond.wait()
            if self._closed:
                raise ChannelClosed("put on closed channel")
            self._items.append(item)
            self._cond.notify_all()

    def get(self):
        with self._cond:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("get on closed channel")
                self._cond.wait()
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self):
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items

    def __len__(self):
        with self._cond:
            return len(self._items)

    @property
    def closed(self):
        return self._closed


class WallRuntime:
    mode = ClockMode.WALL

    def __init__(self):
        self._tasks = []
        self._threads = {}
        self._channels = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def spawn(self, fn, name="task"):
        handle = TaskHandle(name)

        def run():
            handle.state = "running"
            try:
                fn()
                handle.state = "done"
            except CLEAN_EXITS:
                handle.state = "done"
            except Exception as exc:  # real failure: keep for the supervisor
                handle.error = exc
                handle.state = "failed"

        t = threading.Thread(target=run, name=name, daemon=True)
        with self._lock:
            self._tasks.append(handle)
            self._threads[handle.name + str(id(handle))] = (handle, t)
        t.start()
        return handle

    def channel(self, capacity=DEFAULT_CHANNEL_CAPACITY):
        ch = _WallChannel(capacity)
        with self._lock:
            self._channels.append(ch)
        return ch

    def sleep_ms(self, ms):
        if ms <= 0:
            return
        if self._stop.wait(timeout=ms / 1000.0):
            raise TaskStopped()

    def now_ns(self):
        return time.monotonic_ns()

    def ms_since(self, t0_ns):
        return (time.monotonic_ns() - t0_ns) / 1_000_000.0

    @property
    def stopping(self):
        return self._stop.is_set()

    def shutdown(self):
        self._stop.set()
        with self._lock:
            channels = list(self._channels)
        for ch in channels:
            ch.close()

    def run(self, timeout=30.0):
        """Wait for every spawned task to finish; returns straggler names."""
        deadline = time.monotonic() + timeout
        stragglers = []
        with self._lock:
            pairs = list(self._threads.values())
        for handle, thread in pairs:
            remaining = deadline - time.monotonic()
            thread.join(max(remaining, 0.01))
            if thread.is_alive():
                stragglers.append(handle.name)
        return stragglers

    def task_errors(self):
        with self._lock:
            return [(h.name, h.error) for h in self._tasks if h.error is not None]


# ---------------------------------------------------------------------------
# Lockstep runtime
# ---------------------------------------------------------------------------

class _LockTask(TaskHandle):
    def __init__(self, name):
        super().__init__(name)
        self.grant = threading.Lock()  # held until the kernel grants a slice
        self.grant.acquire()
        self.thread = None
        self.wake_tick = None


class _LockChannel:
    """FIFO whose blocking is mediated by the lockstep kernel."""

    def __init__(self, kernel, capacity):
        self._k = kernel
        self._items = deque()
        self._capacity = capacity
        self._closed = False
        self._getters = []
        self._putters = []

    def put(self, item):
        k = self._k
        task = k._current()
        with k._lock:
            while len(self._items) >= self._capacity and not self._closed:
                self._putters.append(task)
                k._park(task, "put-wait")
            if self._closed:
                raise ChannelClosed("put on closed channel")
            self._items.append(item)
            k._make_ready(self._getters)

    def get(self):
        k = self._k
        task = k._current()
        with k._lock:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("get on closed channel")
                if k._stopping:
                    raise TaskStopped()
                self._getters.append(task)
                k._park(task, "get-wait")
            item = self._items.popleft()
            k._make_ready(self._putters)
            return item

    def close(self):
        k = self._k
        with k._lock:
            self._closed = True
            k._make_ready(self._getters)
            k._make_ready(self._putters)

    def drain(self):
        with self._k._lock:
            items = list(self._items)
            self._items.clear()
            self._k._make_ready(self._putters)
            return items

    def __len__(self):
        with self._k._lock:
            return len(self._items)

    @property
    def closed(self):
        return self._closed


class LockstepRuntime:
    mode = ClockMode.LOCKSTEP
    UNWIND_S = 2.0  # most real seconds a halted run waits for tasks to unwind

    def __init__(self, seed=0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)  # baton came back
        self._baton_free = True
        self._tasks = []
        self._by_ident = {}
        self._ready = []
        self._sleepers = []  # heap of (wake_tick, serial, task)
        self._serial = 0
        self._tick = 0
        self._stopping = False
        self._channels = []
        self.slices = 0  # grants so far, one per slice

    # -- task-side hooks ------------------------------------------------------

    def _current(self):
        task = self._by_ident.get(threading.get_ident())
        if task is None:
            raise RuntimeError(
                "lockstep channels may only be used from spawned tasks"
            )
        return task

    def _park(self, task, why):
        """Grant the next slice from this thread and wait for ours. Lock held."""
        task.state = why
        self._step()
        self._lock.release()
        task.grant.acquire()
        self._lock.acquire()
        task.state = "running"

    def _make_ready(self, waiters):
        """Move parked tasks to the ready list. Kernel lock must be held."""
        while waiters:
            t = waiters.pop(0)
            if t not in self._ready:
                self._ready.append(t)

    def _step(self):
        """Grant the next ready task, jumping the tick at quiescence; with none
        alive or a deadlock, free the baton and wake `run`. Lock held."""
        while True:
            if self._ready:
                task = self._ready.pop(self._rng.randrange(len(self._ready)))
                if task.state in ("done", "failed"):
                    continue
                self.slices += 1
                task.grant.release()
                return
            if self._sleepers:  # sleepers are parked, so some task is alive
                self._tick = max(self._tick + 1, self._sleepers[0][0])
                while self._sleepers and self._sleepers[0][0] <= self._tick:
                    _, _, task = heapq.heappop(self._sleepers)
                    if task.state not in ("done", "failed"):
                        self._ready.append(task)
                continue
            self._baton_free = True
            self._idle.notify()
            return

    # -- public api -----------------------------------------------------------

    def spawn(self, fn, name="task"):
        task = _LockTask(name)

        def run():
            task.grant.acquire()  # first slice is granted by the kernel
            task.state = "running"
            try:
                fn()
                task.state = "done"
            except CLEAN_EXITS:
                task.state = "done"
            except Exception as exc:
                task.error = exc
                task.state = "failed"
            finally:
                with self._lock:
                    self._by_ident.pop(task.thread.ident, None)
                    self._step()

        t = threading.Thread(target=run, name=name, daemon=True)
        task.thread = t
        with self._lock:
            self._tasks.append(task)
            self._ready.append(task)
        t.start()
        with self._lock:
            self._by_ident[t.ident] = task
        return task

    def channel(self, capacity=DEFAULT_CHANNEL_CAPACITY):
        ch = _LockChannel(self, capacity)
        self._channels.append(ch)
        return ch

    def sleep_ms(self, ms):
        """Park until `ms` ticks have elapsed (1 tick == 1 ms)."""
        if ms <= 0:
            return
        task = self._current()
        with self._lock:
            if self._stopping:
                raise TaskStopped()
            task.wake_tick = self._tick + int(ms)
            self._serial += 1
            heapq.heappush(self._sleepers, (task.wake_tick, self._serial, task))
            self._park(task, "sleeping")
            task.wake_tick = None
            if self._stopping:
                raise TaskStopped()

    def now_ns(self):
        return self._tick

    def ms_since(self, t0_tick):
        return self._tick - t0_tick

    @property
    def tick(self):
        return self._tick

    @property
    def stopping(self):
        return self._stopping

    def shutdown(self):
        """Close all channels and cancel sleepers; tasks unwind on next slice."""
        with self._lock:
            self._stopping = True
            while self._sleepers:
                _, _, task = heapq.heappop(self._sleepers)
                if task not in self._ready and task.state not in ("done", "failed"):
                    self._ready.append(task)
        for ch in list(self._channels):
            ch.close()

    def run(self, timeout=60.0):
        """Grant the first slice, then wait until every task has exited.

        Must be called from the thread that owns the runtime (not a task).
        Each later slice is granted by the task that parks or exits before
        it. `timeout` is a real-time safety net against bugs, not a feature
        of the logical clock. At that limit or on a deadlock, the runtime is
        shut down, its tasks get a grace period to unwind, and KernelHalted
        carries the task dump taken when the run stopped.
        """
        with self._lock:
            self._baton_free = False
            self._step()
            if not self._idle.wait_for(lambda: self._baton_free, timeout):
                why = f"lockstep wall-time safety limit hit at tick {self._tick}: "
            elif all(t.state in ("done", "failed") for t in self._tasks):
                return []
            else:
                why = "lockstep deadlock: "
            why += self._dump()
        self.shutdown()
        with self._lock:
            if self._baton_free:  # deadlock: nobody is left to grant a slice
                self._baton_free = False
                self._step()
            self._idle.wait_for(lambda: self._baton_free,
                                min(timeout, self.UNWIND_S))
        raise KernelHalted(why)

    def task_errors(self):
        return [(t.name, t.error) for t in self._tasks if t.error is not None]

    def _dump(self):
        return ", ".join(f"{t.name}={t.state}" for t in self._tasks)


def make_runtime(mode, seed=0):
    if mode == ClockMode.LOCKSTEP:
        return LockstepRuntime(seed=seed)
    return WallRuntime()
