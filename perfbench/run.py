"""twinproto benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/` next to
this directory, never from an installed copy. The program's inputs are made
from `--seed`; one untimed session warms up, then sessions repeat until
`--seconds` have passed and each metric is the median over them.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced sessions and reports the per-layer metrics of the traced ones.
Human-readable lines (environment, per-metric spread and bases) come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name, unit, better; the order is the report's order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("frames_per_s", "frames/s", "higher"),
    ("cpu_us_per_frame", "us/frame", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def locate_package():
    """Import twinproto from this checkout's src/, or explain why not."""
    if not (SRC / "twinproto" / "__init__.py").is_file():
        return f"no twinproto package under {SRC}"
    sys.path.insert(0, str(SRC))
    import twinproto
    if Path(twinproto.__file__).resolve().parent != SRC / "twinproto":
        return f"imported twinproto from {twinproto.__file__}, not {SRC}"
    return None


def pin_to_one_cpu():
    """Keep this process on one CPU; all its threads inherit the mask.

    With two or more CPUs, each lockstep handoff and each wall-clock channel
    wakeup may cross CPUs, and how often it does depends on what else the
    host runs: unpinned lockstep-mission sessions ranged from 460 to 1160
    frames/s on a shared 2-CPU host, pinned ones from 1970 to 2470.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed, cpu):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a source export has no git metadata
    h = hashlib.sha256()
    for path in sorted((SRC / "twinproto").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
        "switch_interval_s": sys.getswitchinterval(),
    }


def bundled_suite_passes():
    """The pinned-digest suite, untimed; nothing is timed if it fails."""
    from twinproto import run_suite
    results = run_suite(SRC / "twinproto" / "suite", force_lockstep=True)
    for r in results:
        print("# suite " + r.summary_line())
    return all(r.ok for r in results)


def spread(values):
    """median, first and third quartile of a list of numbers."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workload, seconds, trace):
    """Sessions until `seconds` pass (at least one); stop at an exception."""
    warmup = workload.session()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    stopped = warmup.error
    while not stopped:
        plain.append(workload.session())
        if trace:
            traced.append(workload.session(trace=True))
        stopped = any(o.error for o in plain[-1:] + traced[-1:]) \
            or time.perf_counter() >= deadline
    return warmup, plain, traced


def end_to_end(plain, adjust=True):
    """Per-session series; times at reference host speed when `adjust`."""
    ok = [o for o in plain if not o.error]

    def f(o):
        return o.host_factor if adjust else 1.0

    return {
        "setup_s": [o.setup_s / f(o) for o in ok if o.setup_s is not None],
        "frames_per_s": [o.frames_per_s * f(o) for o in ok],
        "cpu_us_per_frame": [o.cpu_us_per_frame / f(o) for o in ok],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }


def per_layer(plain, traced):
    from tracing import PER_LAYER
    ok = [o for o in traced if o.layers is not None]
    series = {name: [o.layers[name][0] for o in ok]
              for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
    bases = {name: ok[-1].layers[name][1] for name in series} if ok else {}
    plain_fps = statistics.median(o.frames_per_s for o in plain) \
        if plain else 0.0
    traced_fps = statistics.median(o.frames_per_s for o in traced) \
        if traced else 0.0
    series["trace.overhead_ratio"] = [traced_fps / plain_fps
                                      if plain_fps else 0.0]
    bases["trace.overhead_ratio"] = (f"traced {traced_fps:.1f} / untraced "
                                     f"{plain_fps:.1f} frames/s, medians")
    return series, bases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = locate_package()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import hostspeed
    from tracing import PER_LAYER
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, want one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu() if WORKLOADS[args.workload].one_cpu else None
    print("# env " + json.dumps(environment(args.seed, cpu)))
    if not bundled_suite_passes():
        print("perfbench: the bundled suite fails its pinned checks; "
              "refusing to time anything", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as work:
        workload = WORKLOADS[args.workload](args.seed, Path(work))
        warmup, plain, traced = measure(workload, args.seconds,
                                        bool(args.trace))

    sessions = [warmup] + plain + traced
    problems = [p for o in sessions for p in o.problems]
    attempted = sum(o.attempted for o in sessions)
    failed = sum(o.failed for o in sessions)
    if args.trace:
        series, bases = per_layer(plain, traced)
        table = PER_LAYER
    else:
        series, table = end_to_end(plain), END_TO_END
        raw = end_to_end(plain, adjust=False)
        bases = {name: f"raw median {spread(raw[name])[0]:.6g}"
                 for name in ("setup_s", "frames_per_s", "cpu_us_per_frame")}
        factors = [o.host_factor for o in plain]
        print(f"# host factor median {spread(factors)[0]:.4f} "
              f"(probe time / reference {hostspeed.REFERENCE_S} s; "
              f"times below are divided by it, rates multiplied)")

    print(f"# workload {args.workload} seed={args.seed} trace={args.trace} "
          f"sessions={len(plain)} untraced + {len(traced)} traced "
          f"(+1 warm-up)")
    print(f"# {'metric':34} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    metrics = {}
    for name, unit, _ in table:
        med, q1, q3 = spread(series[name])
        metrics[name] = {"value": med, "unit": unit}
        base = f"  [{bases[name]}]" if name in bases else ""
        print(f"# {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g}  {unit}{base}")
    if not args.trace:
        converge = [c for o in plain for c in o.converge if c is not None]
        if converge:
            print(f"# converge_ticks_p50 {statistics.median(converge)} "
                  f"converge_ticks_max {max(converge)} ticks "
                  f"({len(converge)} injects)")
    print(f"# failed_ratio {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} failed / {attempted} attempted frames)")
    for p in dict.fromkeys(problems):
        print(f"# problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
