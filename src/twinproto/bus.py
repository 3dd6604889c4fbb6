"""In-process event bus.

Topic-keyed fan-out with one bounded FIFO queue per subscriber. Emit copies a
reference of the item into every queue subscribed at that moment and returns
the delivery count (0 is legal: emitting into the void). Consumers see their
own queue only, in emit order. There is no history: subscribing after an emit
yields nothing. Emit blocks when a subscriber queue is full, which gives the
same backpressure behavior in both clock modes.

A subscription may cover several topics at once: it then has one queue for
all of them, in emit order across topics, and yields `(topic, item)` pairs so
its consumer can tell the topics apart.

Buses are strictly per-process; anything crossing a process boundary goes
through the transport module instead.
"""

from __future__ import annotations

import threading

from .errors import BusClosed, ChannelClosed

BUS_QUEUE_CAPACITY = 4096

# Topic names used by the assemblies. Buses are per-process, so the physical
# side and the twin side each use their own subset without collision.
TOPIC_SENSOR_RESPONSE = "sensor.response"   # sensor driver -> control logic
TOPIC_CONTROL_COMMAND = "ctl.command"       # control logic -> sensor driver
TOPIC_TX_INBOUND = "tx.inbound"             # transmitter driver -> control logic
TOPIC_TX_OUTBOUND = "tx.outbound"           # control logic -> transmitter driver
TOPIC_DT_INGEST = "dt.ingest"               # link driver -> Monitor
TOPIC_DT_STATUS = "dt.status"               # Monitor -> Analyze (state observations)
TOPIC_DT_MEASUREMENT = "dt.measurement"     # Monitor -> knowledge listeners
TOPIC_DT_ANALYSIS = "dt.analysis"           # Analyze -> Plan
TOPIC_DT_PLAN = "dt.plan"                   # Plan -> Execute
TOPIC_DT_EXECUTE = "dt.execute"             # Execute/operator -> uplink driver


class Subscription:
    """One consumer's private FIFO view of a topic or a tuple of topics."""

    def __init__(self, bus, topic, name):
        self.topic = topic
        self.name = name
        self._bus = bus
        self._chan = bus._rt.channel(bus._capacity)
        self._tagged = isinstance(topic, tuple)
        self._topics = topic if self._tagged else (topic,)

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
        self._subs = {}  # topic -> list[Subscription]
        self._lock = threading.Lock()
        self._closed = False

    def subscribe(self, topic, name=None) -> Subscription:
        """Subscribe to one topic, or to a tuple of topics (tagged items)."""
        with self._lock:
            if self._closed:
                raise BusClosed("subscribe after close")
            sub = Subscription(self, topic, name or str(topic))
            for t in sub._topics:
                self._subs.setdefault(t, []).append(sub)
            return sub

    def producer(self, topic) -> Producer:
        return Producer(self, topic)

    def emit(self, topic, item) -> int:
        # snapshot under the lock, deliver outside it: a full queue must
        # block only the emitter, never the registry
        with self._lock:
            if self._closed:
                raise BusClosed("emit after close")
            targets = list(self._subs.get(topic, ()))
        delivered = 0
        for sub in targets:
            try:
                sub._chan.put((topic, item) if sub._tagged else item)
                delivered += 1
            except ChannelClosed:
                pass  # subscriber detached mid-emit
        return delivered

    def _unsubscribe(self, sub):
        with self._lock:
            for t in sub._topics:
                subs = self._subs.get(t, [])
                if sub in subs:
                    subs.remove(sub)

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            all_subs = [s for subs in self._subs.values() for s in subs]
        for sub in all_subs:
            sub._chan.close()

    @property
    def closed(self):
        return self._closed
