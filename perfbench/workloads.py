"""The benchmark's workloads: seeded inputs, one timed session, its checks.

Each workload turns a seed into fixed inputs once (a scenario dict, a
recording or a thread file) and then runs any number of identical sessions
through twinproto's public API. A session returns an `Outcome`: its timings,
its frame accounting and every correctness problem found.

Record files are written and read here straight from the README's line
grammar, not through `twinproto.thread_log`, so the package's reader is
checked against the spec rather than against itself.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import twinproto
from twinproto import RunConfig, replay_thread, run_scenario
from twinproto.config import parse_scenario
from twinproto.runtime import ClockMode

import hostspeed
from tracing import (Patches, Recorder, install_layers, install_probe,
                     layer_metrics)

# ---------------------------------------------------------------------------
# Record-line grammar (README "Record files" and "Wire payloads")
# ---------------------------------------------------------------------------

STANDBY, ACTIVE, OFF = 0, 1, 2
STATE_NAMES = {STANDBY: "STANDBY", ACTIVE: "ACTIVE", OFF: "OFF"}
MEASUREMENT_MIN, MEASUREMENT_MAX = -(2 ** 31), 2 ** 31 - 1


def command_payload(period: int) -> bytes:
    return b"\x01" + period.to_bytes(2, "big", signed=True)


def measurement_payload(value: int) -> bytes:
    return b"\x10" + value.to_bytes(4, "big", signed=True)


def status_payload(code: int) -> bytes:
    return bytes((0x20, code))


def record_line(seq, ts, direction, kind, payload: bytes) -> str:
    return (f"seq={seq} ts={ts} dir={direction} kind={kind} "
            f"hex={payload.hex()}\n")


@dataclass(frozen=True)
class Line:
    seq: int
    ts: int
    direction: str
    kind: str
    payload: bytes


def parse_line(text: str) -> Line:
    fields = dict(part.split("=", 1) for part in text.split())
    return Line(int(fields["seq"]), int(fields["ts"]), fields["dir"],
                fields["kind"], bytes.fromhex(fields["hex"]))


def read_lines(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [parse_line(text) for text in fh if text.strip()]


def next_state(state: int, period: int) -> int:
    """The README's sign rule: >0 ACTIVE, 0 STANDBY, <0 OFF; OFF absorbs."""
    if state == OFF or period < 0:
        return OFF
    return ACTIVE if period > 0 else STANDBY


# ---------------------------------------------------------------------------
# Extractors over parsed lines
# ---------------------------------------------------------------------------

def frame_counts(lines) -> Counter:
    """Frame records per direction; NOTE lines are not frames."""
    return Counter(ln.direction for ln in lines if ln.kind != "NOTE")


def convergence_ticks(lines, injects) -> list:
    """Ticks from each inject to the first PT2DT status equal to its goal.

    `injects` holds (tick, goal state code) pairs. An inject whose goal is
    never reported gets None.
    """
    statuses = [(ln.ts, ln.payload[1]) for ln in lines
                if ln.direction == "PT2DT" and ln.kind == "STA"]
    out = []
    for tick, goal in injects:
        out.append(next((ts - tick for ts, code in statuses
                         if ts >= tick and code == goal), None))
    return out


# ---------------------------------------------------------------------------
# One session
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one session did and whether it was right."""

    attempted: int            # frames the inputs ask for
    failed: int = 0
    frames: int = 0           # frames on the twin link (or fed, in replay)
    call_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    digest: str | None = None
    converge: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    error: bool = False       # an exception escaped the call
    layers: dict | None = None  # traced sessions only
    host_factor: float = 1.0  # hostspeed.factor() just before the call

    @property
    def frames_per_s(self):
        return self.frames / self.call_s

    @property
    def cpu_us_per_frame(self):
        return self.cpu_s * 1e6 / self.frames if self.frames else 0.0


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    name = ""
    lockstep = False  # digests must repeat across sessions
    one_cpu = True    # run pinned to one CPU (see run.pin_to_one_cpu)

    def __init__(self):
        self._digest = None

    def call(self):
        raise NotImplementedError

    def attempted(self, rec: Recorder) -> int:
        raise NotImplementedError

    def check(self, result, out: Outcome, rec: Recorder):
        raise NotImplementedError

    def session(self, trace=False) -> Outcome:
        """Run one session, time it, check it; never raises for the program.

        An exception escaping the call fails every frame of the session.
        """
        gc.collect()  # earlier sessions' garbage, outside the timed call
        host_factor = hostspeed.factor()
        rec = Recorder()
        with Patches(rec) as patches:
            install_probe(patches)
            if trace:
                install_layers(patches)
            children0 = _children_cpu()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, error = self.call(), None
            except Exception as exc:  # the benchmark must outlive the program
                result, error = None, exc
            t1 = time.perf_counter()
            cpu = time.process_time() - cpu0 + _children_cpu() - children0
        spans = rec.spans()
        out = Outcome(attempted=self.attempted(rec), call_s=t1 - t0,
                      cpu_s=cpu, host_factor=host_factor)
        run = spans.get("runtime.run")
        if run is not None:
            out.setup_s = run.first_start - t0
        if not patches.restored:
            out.problems.append("tracing wrappers were not all removed")
        if error is not None:
            out.error = True
            out.failed = out.attempted
            out.problems.append(f"{type(error).__name__}: {error}")
            return out
        self.check(result, out, rec)
        if not result.ok:
            out.problems.append("verdict FAIL: " + "; ".join(result.failures))
            out.failed = out.attempted
        if self.lockstep and out.digest is not None:
            if self._digest is None:
                self._digest = out.digest
            elif out.digest != self._digest:
                out.problems.append(f"digest {out.digest} differs from "
                                    f"{self._digest} for the same seed")
        if trace:
            out.layers = layer_metrics(spans, rec, out, t1)
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class LockstepMission(Workload):
    name = "lockstep-mission"
    lockstep = True
    INJECTS = 8
    # phase lengths in ticks, shuffled per seed, so every seed spends the
    # same share of the session ACTIVE; the jitter moves inject ticks
    # against the 40-tick re-check period
    PHASE_TICKS = (150, 200, 250, 300)
    JITTER_TICKS = 39
    ACTIVE_PERIOD = 50

    def __init__(self, seed, workdir: Path, injects=INJECTS):
        super().__init__()
        rng = random.Random(seed)
        lengths = {ACTIVE: [], STANDBY: []}
        steps, self.injects = [], []
        tick, state = 0, STANDBY  # the sensor boots in STANDBY
        for i in range(injects + 1):
            if not lengths[state]:
                lengths[state] = rng.sample(self.PHASE_TICKS,
                                            len(self.PHASE_TICKS))
            tick += lengths[state].pop() + rng.randint(0, self.JITTER_TICKS)
            if i == injects:
                steps.append({"at_ms": tick, "do": "command", "value": -1})
                break
            state = ACTIVE if state == STANDBY else STANDBY
            value = self.ACTIVE_PERIOD if state == ACTIVE else 0
            steps.append({"at_ms": tick, "do": "inject", "value": value})
            self.injects.append((tick, state))
        self.uplink = injects + 1
        self.data = {
            "name": self.name, "mode": "twin", "clock": "lockstep",
            "seed": seed, "duration_ms": tick + 500, "steps": steps,
            "measurements": [[t, rng.randint(MEASUREMENT_MIN, MEASUREMENT_MAX)]
                             for t in range(tick + 1)],
            # no exact uplink count: a re-check landing on an inject's tick
            # can plan twice, which mapek.plans_per_inject reports
            "expect": {"final_status": "OFF", "model_state": "OFF",
                       "converged": True},
        }
        self.scenario = parse_scenario(self.data)
        self.thread_path = workdir / "mission.thread"

    def call(self):
        return run_scenario(self.scenario,
                            RunConfig(thread_file=str(self.thread_path)))

    def _script_sent(self, rec):
        span = rec.spans().get("devices.script_sent")
        return int(span.value) if span is not None else 0

    def attempted(self, rec):
        # boot status, one status per uplink command, every scripted
        # measurement the sensor sent, and the uplink commands themselves
        return 1 + self.uplink + self._script_sent(rec) + self.uplink

    def check(self, result, out, rec):
        sent = self._script_sent(rec)
        lines = read_lines(self.thread_path)
        counts = frame_counts(lines)
        out.frames = result.pt2dt_frames + result.dt2pt_frames
        out.digest = result.thread_sha256
        out.converge = convergence_ticks(lines, self.injects)
        file_digest = hashlib.sha256(self.thread_path.read_bytes()).hexdigest()
        if file_digest != result.thread_sha256:
            out.problems.append("thread file does not hash to the reported "
                                "digest")
        if (counts["PT2DT"], counts["DT2PT"]) != (result.pt2dt_frames,
                                                  result.dt2pt_frames):
            out.problems.append(f"thread file frames {dict(counts)} != "
                                f"result {result.pt2dt_frames}/"
                                f"{result.dt2pt_frames}")
        if result.dt2pt_frames < self.uplink:
            out.problems.append(f"{result.dt2pt_frames} DT2PT frames, want "
                                f"at least {self.uplink}")
        if result.measurements_seen != sent:
            out.problems.append(f"script sent {sent} measurements, monitor "
                                f"saw {result.measurements_seen}")
        if None in out.converge:
            out.problems.append(f"an inject never converged: {out.converge}")
        pt_expected = 1 + self.uplink + sent
        out.failed = out.attempted - (
            min(result.statuses_seen + result.measurements_seen,
                       pt_expected)
            + min(result.dt2pt_frames, self.uplink))


class WallBurst(Workload):
    name = "wall-burst"
    COMMANDS = 3000
    isolate = False

    def __init__(self, seed, workdir: Path, commands=COMMANDS):
        super().__init__()
        rng = random.Random(seed)
        periods = [rng.choice((0, rng.randint(1, 1000)))
                   for _ in range(commands - 1)] + [-1]
        state = STANDBY
        lines = [record_line(1, 0, "PT2DT", "STA", status_payload(state))]
        for seq, period in enumerate(periods, start=2):
            state = next_state(state, period)
            lines.append(record_line(seq, seq - 1, "PT2DT", "STA",
                                     status_payload(state)))
        self.final = STATE_NAMES[state]
        self.commands = commands
        recording = workdir / "burst.rec"
        recording.write_text("".join(lines), encoding="utf-8")
        self.data = {
            "name": self.name, "mode": "twin", "clock": "wall",
            "seed": seed, "duration_ms": 20000,
            "recording": str(recording.resolve()),
            "steps": [{"at_ms": 0, "do": "command", "value": p}
                      for p in periods],
            "expect": {"final_status": "OFF", "min_statuses": commands + 1,
                       "uplink_frames": commands},
        }
        self.scenario = parse_scenario(self.data)

    def call(self):
        return run_scenario(self.scenario, RunConfig(isolate=self.isolate))

    def attempted(self, rec):
        return 2 * self.commands + 1

    def check(self, result, out, rec):
        out.frames = result.pt2dt_frames + result.dt2pt_frames
        n = self.commands
        if result.dt2pt_frames != n:
            out.problems.append(f"{result.dt2pt_frames} DT2PT frames, "
                                f"want {n}")
        if result.statuses_seen != n + 1:
            out.problems.append(f"{result.statuses_seen} statuses, "
                                f"want {n + 1}")
        if result.final_status != self.final:
            out.problems.append(f"final status {result.final_status}, "
                                f"want {self.final}")
        out.failed = out.attempted - (
            min(result.statuses_seen + result.measurements_seen, n + 1)
            + min(result.dt2pt_frames, n))


class IsolateBurst(WallBurst):
    name = "isolate-burst"
    isolate = True
    # the plant's own process is the point of this workload; pinned, it
    # shares the parent's CPU and sessions split into a fast and a slow mode
    # (about 7k and 12k frames/s, against 8-10k with both CPUs)
    one_cpu = False

    def __init__(self, seed, workdir: Path, commands=WallBurst.COMMANDS):
        super().__init__(seed, workdir, commands)
        # the plant's child interpreter must import this same package
        src = str(Path(twinproto.__file__).resolve().parent.parent)
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if src not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in paths if p])


class LockstepReplay(Workload):
    name = "lockstep-replay"
    lockstep = True
    LINES = 20000

    def __init__(self, seed, workdir: Path, lines=LINES):
        super().__init__()
        rng = random.Random(seed)
        out, ts, state = [], 0, STANDBY

        def add(direction, kind, payload):
            out.append(record_line(len(out) + 1, ts, direction, kind, payload))

        add("PT2DT", "STA", status_payload(state))
        while len(out) < lines:
            ts += rng.randint(1, 5)
            roll = rng.random()
            if roll < 0.08:
                period = rng.choice((0, rng.randint(1, 1000)))
                add("DT2PT", "CMD", command_payload(period))
                state = next_state(state, period)
                add("PT2DT", "STA", status_payload(state))
            elif roll < 0.1:
                add("DT2PT", "NOTE", f"operator note {len(out)}".encode())
            else:
                add("PT2DT", "MEA", measurement_payload(
                    rng.randint(MEASUREMENT_MIN, MEASUREMENT_MAX)))
        self.path = workdir / "replay.thread"
        self.path.write_text("".join(out), encoding="utf-8")
        self.seed = seed
        self.final = STATE_NAMES[state]
        self.frames = frame_counts(read_lines(self.path))["PT2DT"]

    def call(self):
        return replay_thread(self.path, clock=ClockMode.LOCKSTEP,
                             seed=self.seed)

    def attempted(self, rec):
        return self.frames

    def check(self, result, out, rec):
        out.frames = result.frames_fed
        runtimes = rec.objects.get("runtime", [])
        final_tick = runtimes[0].tick if runtimes else None
        out.digest = hashlib.sha256(json.dumps(
            [result.trajectory, result.statuses_seen,
             result.measurements_seen, final_tick]).encode()).hexdigest()
        if result.frames_fed != self.frames:
            out.problems.append(f"fed {result.frames_fed} frames, the "
                                f"generator wrote {self.frames}")
        if result.final_state != self.final:
            out.problems.append(f"final state {result.final_state}, "
                                f"want {self.final}")
        out.failed = self.frames - min(
            result.statuses_seen + result.measurements_seen, self.frames)


WORKLOADS = {w.name: w for w in (LockstepMission, WallBurst, LockstepReplay,
                                 IsolateBurst)}

