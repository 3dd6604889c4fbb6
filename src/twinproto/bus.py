"""In-process event bus: topic-keyed fan-out to subscription queues.

`subscribe(topic)` gives one bounded FIFO queue, read with `consume` by a
task of its own. `emit` blocks while a queue is full, the same backpressure
in both clock modes, and returns how many queues it reached (0 when nobody
listens). There is no history: subscribing after an emit yields nothing.
Each queue is a runtime channel, so `runtime.shutdown()` ends a blocked
`consume` or `emit` with ChannelClosed, a clean task exit.

No deployment uses the bus; it is left for pipelines with a queue between
stages, such as `mapek.execute_loop`, within one process (anything crossing
a process boundary goes through the transport module).

The registry is copy-on-write: `subscribe` replaces a topic's tuple of
subscriptions, under a lock, with a longer one. Emit takes no lock and loops
over the tuple it read, so a subscription added mid-emit is not reached.
"""

from __future__ import annotations

import threading

BUS_QUEUE_CAPACITY = 4096

TOPIC_DT_EXECUTE = "dt.execute"             # gated commands -> an uplink
TOPIC_DT_PLAN = "dt.plan"                   # plans -> a standalone execute loop


class Subscription:
    """One consumer's private FIFO view of a topic."""

    def __init__(self, chan, name):
        self.name = name
        self._chan = chan

    def consume(self):
        """Pop the oldest item, blocking until one arrives."""
        return self._chan.get()


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
        self._targets = {}  # topic -> tuple of Subscriptions
        self._lock = threading.Lock()  # serializes writers of the registry

    def subscribe(self, topic, name=None) -> Subscription:
        """A queue of `topic`'s items for a consuming task."""
        sub = Subscription(self._rt.channel(self._capacity), name or topic)
        with self._lock:
            self._targets[topic] = self._targets.get(topic, ()) + (sub,)
        return sub

    def producer(self, topic) -> Producer:
        return Producer(self, topic)

    def emit(self, topic, item) -> int:
        # no lock: the tuple read here is never mutated, so a full queue
        # holds up only the emitter, never the registry
        subs = self._targets.get(topic, ())
        for sub in subs:
            sub._chan.put(item)
        return len(subs)
