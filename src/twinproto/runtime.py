"""Task runtime with two clock modes.

All concurrent pieces of the system (device serve loops, driver receive
loops, the twin's re-check poll, scenario injectors) are written as plain
blocking functions against this module's Runtime interface:

    spawn(fn, name=...)   start a task; its handle records how it ended
    channel(capacity=..)  bounded FIFO pipe between tasks: put, get, close, len
    sleep_ms(ms)          timed wait
    now_ns()              timestamp for records
    shutdown()            close every channel and wake every sleeper
    run(timeout=...)      wait for every task, those spawned meanwhile too

A task that ends by returning or by meeting a closed channel or link (or a
stopping runtime) is `done`; any other exception makes it `failed`, and the
exception is kept for `task_errors`.

A task exists only where something waits on a link or a timer. Deciding and
sending are not tasks: a driver's receive loop calls control or the MAPE-K
engine directly, and a driver's `send` runs on its caller's task.
Code that may run on several tasks and must exclude itself across a call
that can park takes a `channel(1)` as a token, never a raw lock: under
lockstep a thread blocked on a lock held by a parked task never parks
itself, so no slice is ever granted again.

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

from .errors import ChannelClosed, ConnectionClosed, KernelHalted, TaskStopped

DEFAULT_CHANNEL_CAPACITY = 1024

# task exit paths that mean "unwound cleanly during teardown"
CLEAN_EXITS = (TaskStopped, ChannelClosed, ConnectionClosed)


class ClockMode(Enum):
    WALL = "wall"
    LOCKSTEP = "lockstep"


class TaskHandle:
    def __init__(self, name):
        self.name = name
        self.state = "new"
        self.error = None
        self.thread = None

    def __repr__(self):
        return f"<task {self.name} {self.state}>"


def _task_body(handle, fn):
    """Run `fn` on `handle`'s thread, then record how it ended."""
    handle.state = "running"
    try:
        fn()
        handle.state = "done"
    except CLEAN_EXITS:
        handle.state = "done"
    except Exception as exc:  # real failure: keep for the supervisor
        handle.error = exc
        handle.state = "failed"


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

    def __len__(self):
        with self._cond:
            return len(self._items)


# most real seconds a run stopped at its timeout waits for tasks to unwind
UNWIND_S = 2.0


class WallRuntime:
    mode = ClockMode.WALL

    def __init__(self):
        self._tasks = []
        self._channels = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def spawn(self, fn, name="task"):
        handle = TaskHandle(name)
        handle.thread = threading.Thread(target=_task_body, args=(handle, fn),
                                         name=name, daemon=True)
        # started under the lock, so `run` never meets an unjoinable handle
        with self._lock:
            self._tasks.append(handle)
            handle.thread.start()
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
        """Wait for every spawned task to finish, tasks spawned during the
        run included; returns straggler names.

        Stragglers are named as the timeout found them, then the runtime is
        shut down and they get a grace period to unwind, so a task parked on
        a full or empty channel does not outlive the run.
        """
        deadline = time.monotonic() + timeout
        joined = 0
        while True:
            with self._lock:
                tasks = self._tasks[joined:]
            if not tasks or time.monotonic() >= deadline:
                break
            joined += len(tasks)
            for handle in tasks:
                handle.thread.join(max(deadline - time.monotonic(), 0.01))
        with self._lock:
            stragglers = [h for h in self._tasks if h.thread.is_alive()]
        if stragglers:
            self.shutdown()
            deadline = time.monotonic() + UNWIND_S
            for handle in stragglers:
                handle.thread.join(max(deadline - time.monotonic(), 0.01))
        return [h.name for h in stragglers]

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

    def __len__(self):
        with self._k._lock:
            return len(self._items)


class LockstepRuntime:
    mode = ClockMode.LOCKSTEP

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
            try:
                _task_body(task, fn)
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
            self._serial += 1
            heapq.heappush(self._sleepers,
                           (self._tick + int(ms), self._serial, task))
            self._park(task, "sleeping")
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
                                min(timeout, UNWIND_S))
        raise KernelHalted(why)

    def task_errors(self):
        return [(t.name, t.error) for t in self._tasks if t.error is not None]

    def _dump(self):
        return ", ".join(f"{t.name}={t.state}" for t in self._tasks)


def make_runtime(mode, seed=0):
    if mode == ClockMode.LOCKSTEP:
        return LockstepRuntime(seed=seed)
    return WallRuntime()
