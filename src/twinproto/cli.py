"""Command-line front door for running, recording, replaying and checking.

Verbs:

    run-pt / run-dtp / run-shadow / run-twin
        load a scenario, force the deployment shape, run it end to end
    record
        run a real-backed observing session with its thread file at the
        recording path; the emulator plays the thread's MEA and STA frames
    replay
        feed an interchange record file's frames straight into a fresh
        shadow's engine and check it reproduces the recorded state walk
    ci-test
        run every scenario in a suite directory on the logical clock;
        one line per case, exit reflects the worst case
    template-validate
        check a deployment manifest for completeness and model match

Exit codes: 0 clean, 1 a run or check failed, 2 broken input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import load_config, load_scenario
from .errors import ConfigError
from .harness import (check_recordable, check_run_config, record_session,
                      replay_thread, run_scenario, run_suite)
from .runtime import ClockMode
from .template import validate_manifest

BUNDLED_SUITE = Path(__file__).resolve().parent / "suite"


def _clock_arg(parser):
    parser.add_argument("--mode", choices=("wall", "lockstep"), default=None,
                        help="clock override: wall time or logical ticks")


def _common_run_args(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--config", default=None, help="run-config JSON file")
    _clock_arg(parser)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", default=None,
                        help="directory for thread/result files")
    parser.add_argument("--json", action="store_true",
                        help="print the full result as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinproto",
        description="assemble and drive sensor deployments: real, emulated, "
                    "observing, and closed loop")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("run-pt", "run-dtp", "run-shadow", "run-twin"):
        p = sub.add_parser(verb, help=f"run a scenario as {verb[4:]}")
        _common_run_args(p)

    p = sub.add_parser("record", help="capture a recording from a real run")
    _common_run_args(p)

    p = sub.add_parser("replay", help="rebuild state from a record file")
    p.add_argument("thread", help="interchange record file")
    _clock_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ci-test", help="run a scenario suite on the "
                                       "logical clock")
    p.add_argument("suite", nargs="?", default=str(BUNDLED_SUITE),
                   help="suite directory (default: bundled)")
    p.add_argument("--config", default=None)

    p = sub.add_parser("template-validate", help="check a deployment manifest")
    p.add_argument("manifest", help="manifest INI file")

    return parser


def _overrides(args, mode=None):
    """The scenario keys the command line sets: a run verb's mode, --mode's
    clock and --seed. `load_scenario` sets them before it parses."""
    keys = {"mode": mode, "clock": args.mode, "seed": args.seed}
    return {key: value for key, value in keys.items() if value is not None}


def _out_dir(out) -> Path:
    """The --out directory, created if need be."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out {out}: {exc.strerror}") \
            from None
    return Path(out)


def _emit_result(result, as_json):
    print(result.summary_line())
    if as_json or not result.ok:
        print(json.dumps(asdict(result), default=str, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_run(args, mode) -> int:
    scenario = load_scenario(args.scenario, _overrides(args, mode))
    cfg = load_config(args.config)
    if args.out is not None:  # a pt or dtp run refuses it: it keeps no thread
        thread = Path(args.out) / f"{scenario.name}.thread"
        cfg = replace(cfg, thread_file=str(thread))
        check_run_config(scenario, cfg)  # before --out is created
        _out_dir(args.out)
    return _emit_result(run_scenario(scenario, cfg), args.json)


def _cmd_record(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    cfg = load_config(args.config)
    check_recordable(scenario, cfg)  # before --out is created
    record_path = _out_dir(args.out or ".") / f"{scenario.name}.rec"
    result = record_session(scenario, cfg, record_path=record_path)
    if result.ok:
        print(f"recorded {result.pt2dt_frames} frames -> {record_path}")
    return _emit_result(result, args.json)


def _cmd_replay(args) -> int:
    clock = ClockMode(args.mode) if args.mode else ClockMode.LOCKSTEP
    result = replay_thread(args.thread, clock=clock, seed=args.seed)
    return _emit_result(result, args.json)


def _cmd_ci_test(args) -> int:
    cfg = load_config(args.config)
    results = run_suite(args.suite, cfg, force_lockstep=True)
    for result in results:
        print(result.summary_line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} scenarios passed")
    return 1 if failed else 0


def _cmd_template_validate(args) -> int:
    problems = validate_manifest(args.manifest)
    for problem in problems:
        print(problem)
    if problems:
        print(f"manifest rejected: {len(problems)} problem(s)")
        return 1
    print("manifest ok")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb.startswith("run-"):
            return _cmd_run(args, args.verb[4:])
        if args.verb == "record":
            return _cmd_record(args)
        if args.verb == "replay":
            return _cmd_replay(args)
        if args.verb == "ci-test":
            return _cmd_ci_test(args)
        return _cmd_template_validate(args)
    except ConfigError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
