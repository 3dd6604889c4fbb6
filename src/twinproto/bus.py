"""In-process event bus.

Topic-keyed fan-out to subscriptions: `subscribe(topic)` gives one bounded
FIFO queue per subscriber, read with `consume` by a task of its own. Emit
blocks while a queue is full, which gives the same backpressure in both
clock modes.

No deployment uses the bus. Each frame a driver receives has exactly one
consumer, so a driver's receive loop calls that consumer directly (control,
or the twin's MAPE-K engine) and nothing sits between them. The bus is left
for pipelines with a queue between stages, such as `mapek.execute_loop`.

Emit returns the delivery count, one per queue reached (0 is legal: emitting
into the void). There is no history: subscribing after an emit yields
nothing. After `close`, emit and subscribe raise BusClosed.

The registry is copy-on-write: each topic maps to a tuple of subscriptions
that subscribing and unsubscribing replace, under a lock, with a new tuple.
Emit takes no lock and copies nothing; it loops over the tuple it read, so a
subscription added or removed during an emit is not seen by that emit (a
queue detached mid-emit counts 0).

Buses are strictly per-process; anything crossing a process boundary goes
through the transport module instead.
"""

from __future__ import annotations

import threading

from .errors import BusClosed, ChannelClosed

BUS_QUEUE_CAPACITY = 4096

TOPIC_DT_EXECUTE = "dt.execute"             # gated commands -> an uplink
TOPIC_DT_PLAN = "dt.plan"                   # plans -> a standalone execute loop


class Subscription:
    """One consumer's private FIFO view of a topic."""

    def __init__(self, bus, topic, name):
        self.topic = topic
        self.name = name
        self._bus = bus
        self._chan = bus._rt.channel(bus._capacity)

    def _deliver(self, item):
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
        # topic -> tuple of Subscriptions; a tuple is never changed in
        # place, only replaced under the lock
        self._targets = {}
        self._lock = threading.Lock()  # serializes writers of the registry
        self._closed = False

    def subscribe(self, topic, name=None) -> Subscription:
        """A queue of `topic`'s items for a consuming task."""
        sub = Subscription(self, topic, name or str(topic))
        with self._lock:
            if self._closed:
                raise BusClosed("subscribe after close")
            self._targets[topic] = self._targets.get(topic, ()) + (sub,)
        return sub

    def producer(self, topic) -> Producer:
        return Producer(self, topic)

    def emit(self, topic, item) -> int:
        # no lock: the tuple read here is never mutated, so a full queue
        # holds up only the emitter, never the registry
        if self._closed:
            raise BusClosed("emit after close")
        delivered = 0
        for sub in self._targets.get(topic, ()):
            delivered += sub._deliver(item)
        return delivered

    def _unsubscribe(self, sub):
        with self._lock:
            subs = self._targets.get(sub.topic, ())
            if sub in subs:
                self._targets[sub.topic] = tuple(s for s in subs
                                                 if s is not sub)

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subs = [s for subs in self._targets.values() for s in subs]
        for sub in subs:
            sub._chan.close()

    @property
    def closed(self):
        return self._closed
