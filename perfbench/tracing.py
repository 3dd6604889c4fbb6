"""Spans and counts around twinproto's public calls, from outside the package.

Nothing here edits the package's source. A `Patches` context replaces a
function or method with a timing wrapper in every place a caller looks it up
(the class dict for methods, every `twinproto` module namespace that binds a
module-level function) and puts the originals back on exit.

Wrappers only read `time.perf_counter` and update per-thread accumulators, so
they add no lockstep scheduling point: a traced lockstep run takes the same
slices in the same order as an untraced one, which the benchmark checks by
comparing thread digests.

Each wrapped call is a span. A span's total time is its wall duration; its
self time is the total minus the time covered by wrapped calls made inside it
on the same thread. Blocking calls (channel get/put, `consume`, reads) are
reported by total time, which is then waiting time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

from twinproto import bus, control, devices, harness, mapek, messages, runtime
from twinproto import thread_log, transport


@dataclass
class Span:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0        # sum of what the wrapper's `observe` returned
    first_start: float | None = None
    last_end: float | None = None

    def merge(self, other: "Span"):
        self.count += other.count
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.value += other.value
        if other.first_start is not None and (
                self.first_start is None
                or other.first_start < self.first_start):
            self.first_start = other.first_start
        if other.last_end is not None and (
                self.last_end is None or other.last_end > self.last_end):
            self.last_end = other.last_end


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)  # child time per open span
    spans: dict = field(default_factory=dict)


class Recorder:
    """Per-thread span accumulation, merged once the run has ended.

    Each thread writes only its own `_ThreadState`, so wall-clock runs need
    no lock in the wrapper.
    """

    def __init__(self):
        self._threads = {}
        self.objects = {}  # name -> instances captured by `capture`

    def _state(self) -> _ThreadState:
        ident = threading.get_ident()
        st = self._threads.get(ident)
        if st is None:
            st = self._threads[ident] = _ThreadState()
        return st

    def capture(self, name):
        """An `observe` hook that keeps the call's `self` under `name`."""
        def keep(args, _result):
            self.objects.setdefault(name, []).append(args[0])
        return keep

    def spans(self) -> dict:
        merged = {}
        for st in list(self._threads.values()):
            for name, span in list(st.spans.items()):
                merged.setdefault(name, Span()).merge(span)
        return merged


def wrap(fn, name, recorder, observe=None, name_of=None):
    """Timing wrapper for `fn`, accumulating into `recorder` under `name`.

    `observe(args, result)` runs after a successful call; a number it returns
    is added to the span's `value`. `name_of(args)` picks the span name per
    call instead of `name`.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = recorder._state()
        st.stack.append(0.0)
        t0 = perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            child = st.stack.pop()
            if st.stack:
                st.stack[-1] += dur
            key = name_of(args) if name_of is not None else name
            span = st.spans.get(key)
            if span is None:
                span = st.spans[key] = Span(first_start=t0)
            span.count += 1
            span.total_s += dur
            span.self_s += dur - child
            span.last_end = t1
            if ok and observe is not None:
                extra = observe(args, result)
                if extra is not None:
                    span.value += extra

    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None
            and (n == "twinproto" or n.startswith("twinproto."))]


class Patches:
    """Install wrappers on enter, restore every original on exit.

    `method(cls, attr, ...)` wraps a method or a property getter in the class
    dict. `function(module, attr, ...)` wraps a module-level function in
    every package module that binds that same object, which is where its
    callers look it up after `from .x import f`.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []  # (namespace owner, attr, original)
        self.restored = None

    def method(self, cls, attr, name, observe=None, name_of=None):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            patched = property(wrap(original.fget, name, self.recorder,
                                    observe, name_of))
        else:
            patched = wrap(original, name, self.recorder, observe, name_of)
        self._saved.append((cls, attr, original))
        setattr(cls, attr, patched)

    def function(self, module, attr, name, observe=None):
        original = getattr(module, attr)
        patched = wrap(original, name, self.recorder, observe)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, patched)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self.restored = all(vars(owner)[attr] is original
                            for owner, attr, original in self._saved)
        return False


def install_probe(p: Patches):
    """The few wrappers every timed session carries.

    `run` of both runtimes marks where set-up ends (its first start) and
    where teardown ends; the measurement script reports how many frames the
    plant's sensor sent. Each fires once per session.
    """
    rec = p.recorder
    p.method(runtime.LockstepRuntime, "run", "runtime.run",
             observe=rec.capture("runtime"))
    p.method(runtime.WallRuntime, "run", "runtime.run",
             observe=rec.capture("runtime"))
    p.function(devices, "run_measurement_script", "devices.script_sent",
               observe=lambda _args, sent: sent)


def _endpoint_write_name(args):
    return ("transport.bridge_write" if args[0].name.startswith("bridge:")
            else "transport.write")


def install_layers(p: Patches):
    """Wrappers for the traced run, one group per package module."""
    rec = p.recorder
    # runtime: task starts, channel operations, shutdown
    for cls in (runtime.LockstepRuntime, runtime.WallRuntime):
        p.method(cls, "spawn", "runtime.spawn")
        p.method(cls, "shutdown", "runtime.shutdown")
    for cls in (runtime._LockChannel, runtime._WallChannel):
        p.method(cls, "put", "runtime.channel_op")
        p.method(cls, "get", "runtime.channel_op")
    # transport: in-process and bridge endpoints, sockets under isolate
    p.method(transport.Endpoint, "write_frame", None,
             name_of=_endpoint_write_name)
    p.method(transport.Endpoint, "read_frame", "transport.read")
    p.method(transport.SocketEndpoint, "write_frame", "transport.socket_write")
    p.method(transport.SocketEndpoint, "read_frame", "transport.socket_read")
    # messages: the wire codec
    p.function(messages, "encode_message", "messages.encode")
    p.function(messages, "decode_message", "messages.decode")
    # bus: fan-out and consumption
    p.method(bus.EventBus, "emit", "bus.emit",
             observe=lambda _args, delivered: delivered)
    p.method(bus.Subscription, "consume", "bus.consume")
    # devices: device execution, driver instances (their stats count relays)
    p.method(devices.SensorDevice, "execute", "devices.execute")
    p.method(devices.EmulatorDevice, "execute", "devices.execute")
    p.method(devices.DeviceDriver, "__init__", "devices.driver",
             observe=rec.capture("driver"))
    # control: the owner task's two handlers
    p.method(control.ControlLogic, "handle_transmitter_command",
             "control.handle")
    p.method(control.ControlLogic, "handle_sensor_response", "control.handle")
    # mapek: analyze, plan, execute gate, re-check, operator injects
    p.method(mapek.ModelKeeper, "observe", "mapek.observe")
    p.function(mapek, "command_for_goal", "mapek.plan")
    p.method(mapek.ExecuteGate, "enforce", "mapek.gate")
    p.method(mapek.DigitalTwin, "recheck", "mapek.recheck")
    p.method(mapek.DigitalTwin, "inject_model_change", "mapek.inject")
    # thread_log: appends, record copies, counting, file parsing
    for attr in ("append_message", "append_raw", "append_note"):
        p.method(thread_log.ThreadLog, attr, "thread_log.append")
    p.method(thread_log.ThreadLog, "records", "thread_log.records")
    p.method(thread_log.ThreadLog, "frame_counts", "thread_log.frame_counts")
    p.function(thread_log, "read_thread_file", "thread_log.parse",
               observe=lambda _args, records: len(records))
    # harness: recording load and digest (collect is timed around `run`)
    p.function(thread_log, "load_recordings", "harness.recording_load")
    p.function(harness, "thread_digest", "harness.digest")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced session
# ---------------------------------------------------------------------------

# name, unit, better; the order is the report's order
PER_LAYER = [
    ("runtime.channel_ops_per_frame", "1/frame", "lower"),
    ("runtime.block_wait_s", "s", "lower"),
    ("runtime.spawns", "count", "lower"),
    ("runtime.teardown_s", "s", "lower"),
    ("runtime.ticks", "ticks", "lower"),
    ("transport.writes_per_frame", "1/frame", "lower"),
    ("transport.bridge_writes_per_frame", "1/frame", "lower"),
    ("transport.write_s", "s", "lower"),
    ("transport.read_wait_s", "s", "lower"),
    ("transport.socket_reads_per_frame", "1/frame", "lower"),
    ("transport.socket_read_wait_s", "s", "lower"),
    ("messages.encodes_per_frame", "1/frame", "lower"),
    ("messages.decodes_per_frame", "1/frame", "lower"),
    ("messages.codec_s", "s", "lower"),
    ("bus.emits_per_frame", "1/frame", "lower"),
    ("bus.deliveries_per_emit", "1/emit", "higher"),
    ("bus.emit_s", "s", "lower"),
    ("bus.consume_wait_s", "s", "lower"),
    ("devices.driver_relays_per_frame", "1/frame", "lower"),
    ("devices.execute_s", "s", "lower"),
    ("control.handles_per_frame", "1/frame", "lower"),
    ("control.handle_s", "s", "lower"),
    ("mapek.observe_s", "s", "lower"),
    ("mapek.gate_s", "s", "lower"),
    ("mapek.plans_per_inject", "1/inject", "lower"),
    ("mapek.rechecks", "count", "lower"),
    ("mapek.converge_ticks_p50", "ticks", "lower"),
    ("mapek.converge_ticks_max", "ticks", "lower"),
    ("thread_log.appends_per_frame", "1/frame", "lower"),
    ("thread_log.append_s", "s", "lower"),
    ("thread_log.records_copies", "count", "lower"),
    ("thread_log.frame_counts_s", "s", "lower"),
    ("thread_log.parse_s", "s", "lower"),
    ("thread_log.parse_lines_per_s", "lines/s", "higher"),
    ("harness.recording_load_s", "s", "lower"),
    ("harness.collect_s", "s", "lower"),
    ("harness.digest_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, recorder, out, end_t) -> dict:
    """name -> (value, base) for one traced session.

    `out` is the session's Outcome (frames, convergence ticks) and `end_t`
    the moment its call returned. `base` says what a value was computed
    from. `trace.overhead_ratio` needs the untraced sessions too and is
    left to the caller.
    """
    def span(*names):
        total = Span()
        for name in names:
            total.merge(spans.get(name, Span()))
        return total

    frames = out.frames

    def per_frame(count, what):
        return _ratio(count, frames), f"{count} {what} / {frames} frames"

    run = span("runtime.run")
    shutdown = span("runtime.shutdown")
    channel = span("runtime.channel_op")
    writes = span("transport.write", "transport.bridge_write",
                  "transport.socket_write")
    socket_read = span("transport.socket_read")
    encode, decode = span("messages.encode"), span("messages.decode")
    emit = span("bus.emit")
    handle = span("control.handle")
    plans, injects = span("mapek.plan"), span("mapek.inject")
    appends = span("thread_log.append")
    parse = span("thread_log.parse")
    relays = sum(d.stats.relayed_in + d.stats.relayed_out
                 for d in recorder.objects.get("driver", []))
    runtimes = recorder.objects.get("runtime", [])
    ticks = getattr(runtimes[0], "tick", 0) if runtimes else 0
    converge = [c for c in out.converge if c is not None]
    teardown = 0.0
    if run.last_end is not None and shutdown.first_start is not None:
        teardown = run.last_end - shutdown.first_start
    collect = end_t - run.last_end if run.last_end is not None else 0.0
    return {
        "runtime.channel_ops_per_frame": per_frame(channel.count,
                                                   "puts+gets"),
        "runtime.block_wait_s": (channel.total_s, "total in put/get"),
        "runtime.spawns": (span("runtime.spawn").count, "tasks started"),
        "runtime.teardown_s": (teardown, "first shutdown() to run() end"),
        "runtime.ticks": (ticks, "lockstep tick at the end, 0 on wall"),
        "transport.writes_per_frame": per_frame(writes.count, "writes"),
        "transport.bridge_writes_per_frame":
            per_frame(span("transport.bridge_write").count, "bridge writes"),
        "transport.write_s": (writes.self_s, "self time of write_frame"),
        "transport.read_wait_s":
            (span("transport.read").total_s, "total in-process read_frame"),
        "transport.socket_reads_per_frame":
            per_frame(socket_read.count, "socket reads"),
        "transport.socket_read_wait_s":
            (socket_read.total_s, "total in socket read_frame"),
        "messages.encodes_per_frame": per_frame(encode.count, "encodes"),
        "messages.decodes_per_frame": per_frame(decode.count, "decodes"),
        "messages.codec_s": (encode.total_s + decode.total_s,
                             "encode + decode"),
        "bus.emits_per_frame": per_frame(emit.count, "emits"),
        "bus.deliveries_per_emit":
            (_ratio(emit.value, emit.count),
             f"{int(emit.value)} deliveries / {emit.count} emits"),
        "bus.emit_s": (emit.self_s, "self time of emit"),
        "bus.consume_wait_s": (span("bus.consume").total_s,
                               "total in consume"),
        "devices.driver_relays_per_frame": per_frame(relays, "relays"),
        "devices.execute_s": (span("devices.execute").total_s,
                              "device execute"),
        "control.handles_per_frame": per_frame(handle.count, "handles"),
        "control.handle_s": (handle.self_s, "self time of the handlers"),
        "mapek.observe_s": (span("mapek.observe").total_s,
                            "ModelKeeper.observe"),
        "mapek.gate_s": (span("mapek.gate").total_s, "ExecuteGate.enforce"),
        "mapek.plans_per_inject":
            (_ratio(plans.count, injects.count),
             f"{plans.count} plans / {injects.count} injects"),
        "mapek.rechecks": (span("mapek.recheck").count, "recheck() calls"),
        "mapek.converge_ticks_p50":
            (statistics.median(converge) if converge else 0,
             f"median of {len(converge)} injects"),
        "mapek.converge_ticks_max":
            (max(converge) if converge else 0,
             f"max of {len(converge)} injects"),
        "thread_log.appends_per_frame": per_frame(appends.count, "appends"),
        "thread_log.append_s": (appends.self_s, "self time of appends"),
        "thread_log.records_copies": (span("thread_log.records").count,
                                      "records property reads"),
        "thread_log.frame_counts_s": (span("thread_log.frame_counts").total_s,
                                      "frame_counts()"),
        "thread_log.parse_s": (parse.total_s, "read_thread_file"),
        "thread_log.parse_lines_per_s":
            (_ratio(parse.value, parse.total_s),
             f"{int(parse.value)} lines / {parse.total_s:.4f} s"),
        "harness.recording_load_s": (span("harness.recording_load").total_s,
                                     "load_recordings"),
        "harness.collect_s": (collect, "run() end to call return"),
        "harness.digest_s": (span("harness.digest").total_s,
                             "thread_digest"),
    }
