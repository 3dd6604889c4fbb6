"""Task runtime with two clock modes.

All concurrent pieces of the system (device serve loops, driver receive
loops, the twin's re-check poll, scenario injectors) are tasks against this
module's Runtime interface:

    spawn(body, name=...)  start a task; its handle records how it ended
    channel(capacity=.., name=..)
                          bounded FIFO pipe between tasks: put, get, close,
                          len, and the wait_put/wait_get halves (below)
    sleep_ms(ms)          timed wait; pause(ms) is its generator form
    now_ns()              timestamp for records
    shutdown()            close every channel and wake every sleeper
    run(timeout=...)      wait for every task, those spawned meanwhile too
    stop()                shut down, then give every task UNWIND_S to end

A task that ends by returning or by meeting a closed channel or link (or a
stopping runtime) is `done`; any other exception makes it `failed`, and the
exception is kept for `task_errors`.

A task exists only where something waits on a link or a timer. Deciding and
sending are not tasks: a driver's receive loop calls control or the MAPE-K
engine directly, and a driver's `forward` runs on its caller's task.
Code that may run on several tasks and must exclude itself across a call
that can park takes a `channel(1)` as a token, never a raw lock: under
lockstep a thread blocked on a lock held by a parked task never parks
itself, so no slice is ever granted again.

Two kinds of task, told apart by what `spawn` is given:

* a callable makes a thread task. It runs on a thread of its own and blocks
  in plain calls (`put`, `get`, `sleep_ms`, an endpoint's `read_frame`).
* a generator object makes a generator task. It has no thread: it parks by
  yielding a wait request, and each slice it is granted is one step of the
  generator.

A call that can park is split into a wait and an act. `wait_get()` (and
`wait_put`, and an endpoint's `wait_read`/`wait_write`) returns None once
the act would not park; otherwise it puts the calling task on the channel's
wait list and returns the wait request to yield. Generator code waits, then
acts with the plain call, which no longer parks:

    while (wait := ch.wait_get()) is not None:
        yield wait
    item = ch.get()

Plain code just calls `get`, which waits inside. A plain call that would
park a generator task raises RuntimeError naming the task; it never parks
the thread carrying the task. `drive(body)` is the blocking driver: it runs
a generator body to its end on the calling thread, parking that thread's
task at each wait. The only plain entry points over generator bodies are
the twin's `send_command` and `inject_model_change`, which the operator's
thread task calls; a thread task that runs a serve or receive loop (a test,
say) drives the same generator body.

Two implementations exist:

* WallRuntime: every task is a daemon thread (a generator task's thread
  just drives it), a channel is one lock with a not-empty and a not-full
  condition over it, where a handoff wakes one waiter; sleep is real time,
  now_ns is the monotonic clock. Free-running. A wall channel's wait
  halves always return None: the act blocks its own thread and a generator
  never yields.

* LockstepRuntime: cooperative scheduling with a baton. At most one task
  executes at any instant; everything else is parked. Time is a logical
  tick counter (1 tick is the lockstep stand-in for 1 ms). There is no
  scheduler thread: the thread that holds the baton picks the next slice.
  A generator task's slice runs right there, on that thread (`run`'s
  caller, or a thread task that parked or exited); only a thread task's
  slice is handed to its own thread. Slices go to runnable tasks until all
  are parked (quiescence), then the tick jumps to the next timer. The only
  nondeterminism is which runnable task goes next, and that choice comes
  from a seeded RNG, so a whole run is a pure function of (seed, inputs),
  whichever kind each task is. The draw is `random.Random(seed).randrange(n)`
  over the n ready tasks, done inline as `randrange` does it on Python
  3.10-3.12: `getrandbits(n.bit_length())`, drawn again while it is >= n.

Component code never touches threading primitives directly; that is what keeps
it bit-reproducible under lockstep while staying an ordinary threaded program
on the wall clock.
"""

from __future__ import annotations

import functools
import heapq
import random
import threading
import time
import types
from collections import deque
from enum import Enum

from .errors import ChannelClosed, ConnectionClosed, KernelHalted, TaskStopped

DEFAULT_CHANNEL_CAPACITY = 1024

# task exit paths that mean "unwound cleanly during teardown"
CLEAN_EXITS = (TaskStopped, ChannelClosed, ConnectionClosed)

_ENDED = ("done", "failed")


class ClockMode(Enum):
    WALL = "wall"
    LOCKSTEP = "lockstep"


class TaskHandle:
    def __init__(self, name):
        self.name = name
        self.state = "new"
        self.error = None
        self.thread = None  # None for a lockstep generator task

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


def drive(body):
    """The blocking driver: run generator `body` to its end on the calling
    thread and return its value.

    Each wait request the body yields parks the calling task until it is
    picked again; only a lockstep wait ever yields, as a (kernel, state)
    pair whose task is already on its wait list.
    """
    try:
        while True:
            kernel, why = body.send(None)
            kernel._park_current(why)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# Wall-clock runtime
# ---------------------------------------------------------------------------

class _WallChannel:
    """Bounded FIFO with close semantics: reads drain, then raise.

    One lock with two conditions over it, not-empty and not-full. A put
    wakes one waiting getter and a get wakes one waiting putter, and only
    when one waits: each side's count of waiters is kept under the lock,
    raised by a thread before it waits and lowered by whoever wakes it, so
    no wakeup is lost and none is spent on a waiter already woken (a count
    left high by an interrupted wait costs only a spare notify). `close`
    zeroes both counts and wakes every waiter on both sides.
    """

    def __init__(self, capacity):
        self._items = deque()
        self._capacity = capacity
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._getters = 0  # threads waiting in `get`
        self._putters = 0  # threads waiting in `put`

    def wait_put(self):
        return None  # `put` blocks its own thread

    def wait_get(self):
        return None  # `get` blocks its own thread

    def put(self, item):
        with self._lock:
            while len(self._items) >= self._capacity and not self._closed:
                self._putters += 1
                self._not_full.wait()
            if self._closed:
                raise ChannelClosed("put on closed channel")
            self._items.append(item)
            if self._getters:
                self._getters -= 1  # the getter it wakes waits no more
                self._not_empty.notify()

    def get(self):
        with self._lock:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("get on closed channel")
                self._getters += 1
                self._not_empty.wait()
            item = self._items.popleft()
            if self._putters:
                self._putters -= 1
                self._not_full.notify()
            return item

    def close(self):
        with self._lock:
            self._closed = True
            self._getters = self._putters = 0
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self):
        with self._lock:
            return len(self._items)


# most real seconds `stop` waits for tasks to unwind
UNWIND_S = 2.0


class WallRuntime:
    mode = ClockMode.WALL

    def __init__(self):
        self._tasks = []
        self._channels = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def spawn(self, body, name="task"):
        """Start a task on a thread of its own; a generator `body` is run
        there by `drive`."""
        if isinstance(body, types.GeneratorType):
            body = functools.partial(drive, body)
        handle = TaskHandle(name)
        handle.thread = threading.Thread(target=_task_body, args=(handle, body),
                                         name=name, daemon=True)
        # started under the lock, so `run` never meets an unjoinable handle
        with self._lock:
            self._tasks.append(handle)
            handle.thread.start()
        return handle

    def channel(self, capacity=DEFAULT_CHANNEL_CAPACITY, name=None):
        """`name` is for lockstep's task dump; the wall clock has none."""
        ch = _WallChannel(capacity)
        with self._lock:
            self._channels.append(ch)
        return ch

    def sleep_ms(self, ms):
        if ms <= 0:
            return
        if self._stop.wait(timeout=ms / 1000.0):
            raise TaskStopped()

    def pause(self, ms):
        """Generator form of `sleep_ms`; it sleeps on its own thread."""
        self.sleep_ms(ms)
        yield from ()

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
        stopped, so a task parked on a full or empty channel does not
        outlive the run.
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
            stragglers = [h.name for h in self._tasks if h.thread.is_alive()]
        if stragglers:
            self.stop()
        return stragglers

    def stop(self):
        """Shut down, then give every task UNWIND_S to end. Only the thread
        that owns the runtime calls it, never a task."""
        self.shutdown()
        deadline = time.monotonic() + UNWIND_S
        with self._lock:
            tasks = list(self._tasks)
        for handle in tasks:
            handle.thread.join(max(deadline - time.monotonic(), 0.01))

    def task_errors(self):
        with self._lock:
            return [(h.name, h.error) for h in self._tasks if h.error is not None]


# ---------------------------------------------------------------------------
# Lockstep runtime
# ---------------------------------------------------------------------------

class _LockTask(TaskHandle):
    def __init__(self, name, gen=None):
        super().__init__(name)
        self.gen = gen      # a generator task's body; None for a thread task
        self.ident = None   # the thread that runs the task's code
        self.grant = None
        if gen is None:
            self.grant = threading.Lock()  # held until the kernel grants a slice
            self.grant.acquire()


class _LockChannel:
    """FIFO whose blocking is mediated by the lockstep kernel."""

    def __init__(self, kernel, capacity, name=None):
        self._k = kernel
        self._items = deque()
        self._capacity = capacity
        self._closed = False
        self._getters = []
        self._putters = []
        # the wait requests: (kernel, the waiting task's state)
        where = f"({name})" if name else ""
        self._put_wait = (kernel, "put-wait" + where)
        self._get_wait = (kernel, "get-wait" + where)

    def wait_put(self):
        """None once `put` would not park; else the caller is queued as a
        putter and the wait request to yield is returned."""
        if len(self._items) < self._capacity or self._closed:
            return None
        k = self._k
        task = k._current()
        with k._lock:  # rechecked: a teardown may close the channel meanwhile
            if len(self._items) < self._capacity or self._closed:
                return None
            self._putters.append(task)
        return self._put_wait

    def wait_get(self):
        """None once `get` would not park; else the caller is queued as a
        getter and the wait request to yield is returned."""
        k = self._k
        if self._items or self._closed or k._stopping:
            return None
        task = k._current()
        with k._lock:
            if self._items or self._closed or k._stopping:
                return None
            self._getters.append(task)
        return self._get_wait

    def put(self, item):
        k = self._k
        with k._lock:
            while len(self._items) >= self._capacity and not self._closed:
                k._park(k._current(), self._put_wait[1], self._putters)
            if self._closed:
                raise ChannelClosed("put on closed channel")
            self._items.append(item)
            if self._getters:
                k._make_ready(self._getters)

    def get(self):
        k = self._k
        with k._lock:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("get on closed channel")
                if k._stopping:
                    raise TaskStopped()
                k._park(k._current(), self._get_wait[1], self._getters)
            item = self._items.popleft()
            if self._putters:
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
        self._getrandbits = random.Random(seed).getrandbits
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)  # baton came back
        self._baton_free = True
        self._tasks = []
        self._ready = []
        self._sleepers = []  # heap of (wake_tick, serial, task)
        self._serial = 0
        self._tick = 0
        self._stopping = False
        self._channels = []
        self._running = None   # the task whose code runs now
        self._runner = None    # the thread inside `run`
        self._carry_until = 0.0  # when `run`'s thread stops carrying slices
        self._gave_up = False  # `run`'s thread stopped carrying at that time
        self._sleep_wait = (self, "sleeping")
        self.slices = 0  # grants so far, one per slice

    # -- task-side hooks ------------------------------------------------------

    def _current(self):
        task = self._running
        if task is None or task.ident != threading.get_ident():
            raise RuntimeError(
                "lockstep channels may only be used from spawned tasks"
            )
        return task

    @staticmethod
    def _parks_generator(task, why):
        return RuntimeError(
            f"task {task.name}: a plain call would park this generator task "
            f"({why}); wait for it with yield from instead")

    def _park(self, task, why, waiters=None):
        """Park thread task `task` (queued on `waiters`, if given) and hand
        on the baton; return once `task` is picked again. Lock held."""
        if task.gen is not None:
            raise self._parks_generator(task, why)
        if waiters is not None:
            waiters.append(task)
        task.state = why
        if not self._step(task):
            self._lock.release()
            task.grant.acquire()
            self._lock.acquire()
        task.state = "running"

    def _park_current(self, why):
        """`drive`'s park: the calling task is already on its wait list."""
        with self._lock:
            self._park(self._current(), why)

    def _make_ready(self, waiters):
        """Move parked tasks to the ready list. Kernel lock must be held."""
        ready = self._ready
        for t in waiters:
            if t not in ready:
                ready.append(t)
        waiters.clear()

    def _step(self, me=None):
        """Hand on the baton from this thread. Lock held.

        Ready tasks are picked by the seeded draw. A generator task's slice
        runs here, on this thread; a thread task other than `me` is granted
        its slice, and this thread's part is over. At quiescence the tick
        jumps to the next timer; with no task left to run, or once `run`'s
        own thread is past its time, the baton is freed and `run` woken.
        Returns True if `me` was picked.
        """
        ident = threading.get_ident()
        on_runner = self._runner == ident
        ready = self._ready
        getrandbits = self._getrandbits
        while True:
            if ready:
                if on_runner and time.monotonic() >= self._carry_until:
                    self._gave_up = True
                    break
                n = len(ready)  # randrange(n), without its two calls
                k = n.bit_length()
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                task = ready.pop(i)
                if task.state in _ENDED:
                    continue
                self.slices += 1
                self._running = task
                gen = task.gen
                if gen is not None:  # its slice runs here
                    task.ident = ident
                    task.state = "running"
                    self._lock.release()
                    try:
                        why = gen.send(None)[1]
                    except StopIteration:
                        why = "done"
                    except CLEAN_EXITS:
                        why = "done"
                    except Exception as exc:  # real failure: keep it
                        task.error = exc
                        why = "failed"
                    finally:
                        self._lock.acquire()
                    task.state = why
                    continue
                if task is me:
                    return True
                task.grant.release()
                return False
            if self._sleepers:  # sleepers are parked, so some task is alive
                self._tick = max(self._tick + 1, self._sleepers[0][0])
                while self._sleepers and self._sleepers[0][0] <= self._tick:
                    _, _, task = heapq.heappop(self._sleepers)
                    if task.state not in _ENDED:
                        self._ready.append(task)
                continue
            break
        self._running = None
        self._baton_free = True
        self._idle.notify()
        return False

    # -- public api -----------------------------------------------------------

    def spawn(self, body, name="task"):
        """Start a task: a generator object makes a generator task, a
        callable a thread task."""
        if isinstance(body, types.GeneratorType):
            task = _LockTask(name, body)
            with self._lock:
                self._tasks.append(task)
                self._ready.append(task)
            return task
        task = _LockTask(name)

        def run():
            task.ident = threading.get_ident()
            task.grant.acquire()  # first slice is granted by the kernel
            try:
                _task_body(task, body)
            finally:
                with self._lock:
                    self._step()

        task.thread = threading.Thread(target=run, name=name, daemon=True)
        with self._lock:
            self._tasks.append(task)
            self._ready.append(task)
        task.thread.start()
        return task

    def channel(self, capacity=DEFAULT_CHANNEL_CAPACITY, name=None):
        """A channel; a task waiting on it is dumped as `get-wait(name)` or
        `put-wait(name)`."""
        ch = _LockChannel(self, capacity, name)
        self._channels.append(ch)
        return ch

    def _wake_at(self, task, ms):
        """Put `task` on the timer heap, due `ms` ticks from now. Lock held."""
        self._serial += 1
        heapq.heappush(self._sleepers,
                       (self._tick + int(ms), self._serial, task))

    def sleep_ms(self, ms):
        """Park until `ms` ticks have elapsed (1 tick == 1 ms), inline as in
        `_park`: calling it cost `lockstep-mission` CPU per frame."""
        if ms <= 0:
            return
        task = self._current()
        with self._lock:
            if self._stopping:
                raise TaskStopped()
            if task.gen is not None:  # checked before it joins the timers
                raise self._parks_generator(task, "sleeping")
            self._wake_at(task, ms)
            task.state = "sleeping"
            if not self._step(task):
                self._lock.release()
                task.grant.acquire()
                self._lock.acquire()
            task.state = "running"
            if self._stopping:
                raise TaskStopped()

    def pause(self, ms):
        """Generator form of `sleep_ms`."""
        if ms <= 0:
            return
        task = self._current()
        with self._lock:
            if self._stopping:
                raise TaskStopped()
            self._wake_at(task, ms)
        yield self._sleep_wait
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
                if task not in self._ready and task.state not in _ENDED:
                    self._ready.append(task)
        for ch in list(self._channels):
            ch.close()

    def _carry(self, seconds):
        """Take the baton on `run`'s thread and carry slices for at most
        `seconds`, or until a thread task takes over. Lock held."""
        self._runner = threading.get_ident()
        self._carry_until = time.monotonic() + seconds
        self._baton_free = False
        self._step()

    def run(self, timeout=60.0):
        """Run slices until every task has exited.

        Must be called from the thread that owns the runtime (not a task).
        This thread carries generator slices until it grants a thread task
        a slice; each later slice is picked by the task that parks or exits
        before it. `timeout` is a real-time safety net against bugs, not a
        feature of the logical clock. At that limit or on a deadlock, the
        runtime is stopped, and KernelHalted carries the task dump taken
        when the run stopped.
        """
        with self._lock:
            self._gave_up = False
            self._carry(timeout)
            wait_s = max(self._carry_until - time.monotonic(), 0.0)
            if (not self._idle.wait_for(lambda: self._baton_free, wait_s)
                    or self._gave_up):
                why = f"lockstep wall-time safety limit hit at tick {self._tick}: "
            elif all(t.state in _ENDED for t in self._tasks):
                self._runner = None
                return []
            else:
                why = "lockstep deadlock: "
            why += self._dump()
        self.stop()
        raise KernelHalted(why)

    def stop(self):
        """Shut down, then give every task UNWIND_S to end: this thread
        carries slices if the baton is free, waits for the baton and joins
        the thread tasks. Only the runtime's owner calls it, never a task."""
        self.shutdown()
        with self._lock:
            # the full grace, however short `run`'s timeout was: a thread
            # task may still be in its slice, changing what the caller reads
            unwind_until = time.monotonic() + UNWIND_S
            if self._baton_free:  # nobody is left to pick a slice
                self._carry(UNWIND_S)
            self._idle.wait_for(lambda: self._baton_free,
                                max(unwind_until - time.monotonic(), 0.0))
            self._runner = None
            threads = [t.thread for t in self._tasks if t.gen is None]
        for thread in threads:  # a task frees the baton before its exit
            thread.join(max(unwind_until - time.monotonic(), 0.0))

    def task_errors(self):
        return [(t.name, t.error) for t in self._tasks if t.error is not None]

    def _dump(self):
        return ", ".join(f"{t.name}={t.state}" for t in self._tasks)


def make_runtime(mode, seed=0):
    if mode == ClockMode.LOCKSTEP:
        return LockstepRuntime(seed=seed)
    return WallRuntime()
