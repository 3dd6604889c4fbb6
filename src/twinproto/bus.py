"""In-process event bus.

Topic-keyed fan-out with two forms of subscriber, one delivery path:

* a handler, `attach(topics, fn)`: every emit on one of `topics` calls
  `fn(topic, item)` inline, on the emitting task, in emit order. No queue and
  no task sits between emitter and handler, so a handler's blocking (a full
  link it writes to) blocks the emitter, and whatever a handler raises
  reaches the emitter. A handler that may run on several emitting tasks
  serializes its own state;
* a subscription, `subscribe(topic)`: one bounded FIFO queue per subscriber,
  read with `consume` by a task of its own. Emit blocks while the queue is
  full, which gives the same backpressure in both clock modes.

Emit returns the delivery count, one per handler or queue reached (0 is
legal: emitting into the void). There is no history: subscribing or
attaching after an emit yields nothing. After `close`, emit and subscribe
raise BusClosed.

The registry is copy-on-write: each topic maps to a tuple of targets that
`attach`, `subscribe` and unsubscribing replace, under a lock, with a new
tuple. Emit takes no lock and copies nothing; it loops over the tuple it
read, so a target added or removed during an emit is not seen by that emit
(a queue detached mid-emit counts 0).

Buses are strictly per-process; anything crossing a process boundary goes
through the transport module instead.
"""

from __future__ import annotations

import threading

from .errors import BusClosed, ChannelClosed

BUS_QUEUE_CAPACITY = 4096

# Topic names used by the assemblies. Buses are per-process, so the physical
# side and the twin side each use their own subset without collision.
# No topic leads to a link: whoever decides to send toward a device calls
# that device's driver (`DeviceDriver.send`) on its own task.
TOPIC_SENSOR_RESPONSE = "sensor.response"   # sensor driver -> control logic
TOPIC_TX_INBOUND = "tx.inbound"             # transmitter driver -> control logic
TOPIC_DT_INGEST = "dt.ingest"               # ingest driver -> MAPE-K engine
TOPIC_DT_STATUS = "dt.status"               # re-check statuses -> MAPE-K engine
TOPIC_DT_EXECUTE = "dt.execute"             # operator commands -> MAPE-K engine
TOPIC_DT_PLAN = "dt.plan"                   # plans -> a standalone execute loop


class Subscription:
    """One consumer's private FIFO view of a topic."""

    def __init__(self, bus, topic, name):
        self.topic = topic
        self.name = name
        self._bus = bus
        self._chan = bus._rt.channel(bus._capacity)

    def _deliver(self, _topic, item):
        try:
            self._chan.put(item)
        except ChannelClosed:
            return 0  # detached mid-emit
        return 1

    def consume(self):
        """Pop the oldest item, blocking until one arrives. Raises BusClosed."""
        try:
            return self._chan.get()
        except ChannelClosed:
            raise BusClosed(f"{self.topic}: bus closed") from None

    def drain(self):
        """Non-blocking: everything currently queued (for offline inspection)."""
        return self._chan.drain()

    def close(self):
        self._bus._unsubscribe(self)
        self._chan.close()

    def __len__(self):
        return len(self._chan)


class Producer:
    """Bound emitter for one topic."""

    def __init__(self, bus, topic):
        self.topic = topic
        self._bus = bus

    def emit(self, item):
        return self._bus.emit(self.topic, item)


class EventBus:
    def __init__(self, runtime, queue_capacity=BUS_QUEUE_CAPACITY):
        self._rt = runtime
        self._capacity = queue_capacity
        # topic -> tuple of deliver(topic, item) -> count; a tuple is never
        # changed in place, only replaced under the lock
        self._targets = {}
        self._subs = []     # queues to close with the bus
        self._lock = threading.Lock()  # serializes writers of the registry
        self._closed = False

    def _register(self, topics, deliver, sub=None):
        with self._lock:
            if self._closed:
                raise BusClosed("subscribe after close")
            for t in topics:
                self._targets[t] = self._targets.get(t, ()) + (deliver,)
            if sub is not None:
                self._subs.append(sub)

    def subscribe(self, topic, name=None) -> Subscription:
        """A queue of `topic`'s items for a consuming task."""
        sub = Subscription(self, topic, name or str(topic))
        self._register((topic,), sub._deliver, sub)
        return sub

    def attach(self, topics, fn):
        """Call `fn(topic, item)` on the emitting task for every emit on
        `topics` (one topic or a tuple of them)."""
        def deliver(topic, item):
            fn(topic, item)
            return 1

        self._register(topics if isinstance(topics, tuple) else (topics,),
                       deliver)

    def producer(self, topic) -> Producer:
        return Producer(self, topic)

    def emit(self, topic, item) -> int:
        # no lock: the tuple read here is never mutated, so a full queue or a
        # blocking handler holds up only the emitter, never the registry
        if self._closed:
            raise BusClosed("emit after close")
        delivered = 0
        for deliver in self._targets.get(topic, ()):
            delivered += deliver(topic, item)
        return delivered

    def _unsubscribe(self, sub):
        with self._lock:
            targets = list(self._targets.get(sub.topic, ()))
            if sub._deliver in targets:
                targets.remove(sub._deliver)
                self._targets[sub.topic] = tuple(targets)
            if sub in self._subs:
                self._subs.remove(sub)

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subs = list(self._subs)
        for sub in subs:
            sub._chan.close()

    @property
    def closed(self):
        return self._closed
