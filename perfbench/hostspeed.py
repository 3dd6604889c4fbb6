"""Host-speed probe: a fixed kernel timed just before every session.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, with CPU time per frame rising with wall time. Time-based
end-to-end metrics are therefore reported at a reference host speed: each
session's times are divided, and its rates multiplied, by `factor()`, the
probe's time now over its reference time. In 150 s of back-to-back
`lockstep-replay` sessions on a 2-CPU VM, medians of ten raw sessions
ranged from 1.0 to 1.96 times the first; adjusted, from 0.84 to 1.13.

The kernel uses no twinproto code, so a change to the package cannot move
it: it does the two things the workloads spend their time on, a baton
handed between two threads through `threading.Event` (the lockstep
kernel's handoff) and parsing record-like lines into dicts.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

HANDOFFS = 600
LINES = 2000
RUNS = 3

# median kernel time, in seconds, on the host the bounds were set on
REFERENCE_S = 0.015


def kernel():
    ping, pong = threading.Event(), threading.Event()

    def partner():
        for _ in range(HANDOFFS):
            ping.wait()
            ping.clear()
            pong.set()

    t = threading.Thread(target=partner)
    t.start()
    for _ in range(HANDOFFS):
        ping.set()
        pong.wait()
        pong.clear()
    t.join()
    parsed = []
    for i in range(LINES):
        line = f"seq={i + 1} ts={3 * i} dir=PT2DT kind=MEA hex=10{i:08x}"
        fields = dict(part.split("=", 1) for part in line.split())
        parsed.append((int(fields["seq"]), bytes.fromhex(fields["hex"])))
    return parsed


def factor() -> float:
    """Kernel time over `REFERENCE_S`; above 1 on a slow host.

    The kernel runs `RUNS` times pinned to each CPU the calling thread may
    use (one for the pinned workloads, all of them for `isolate-burst`,
    whose plant process runs on another CPU); the factor is the mean over
    CPUs of the median time. The thread's mask is restored afterwards.
    """
    mask = os.sched_getaffinity(0)
    medians = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            medians.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.fmean(medians) / REFERENCE_S
