"""Scenario and run configuration: JSON in, validated dataclasses out.

A scenario file describes one session: which deployment shape to run, which
clock, the operator's timed steps, and what the session must look like when
it ends. A config file carries tuning knobs that are not part of the
scenario's meaning (twinning period, settle behavior, output paths).

Validation is strict and upfront; anything malformed raises ConfigError (or
ScenarioError for semantic problems), which the command line maps to exit
code 2 so broken inputs are distinguishable from failed runs.
"""

from __future__ import annotations

import json
import re
import threading
from collections import namedtuple
from dataclasses import dataclass, field, fields, make_dataclass
from operator import eq, ge
from pathlib import Path

from .errors import ConfigError, ScenarioError
from .messages import (COMMAND_MAX, COMMAND_MIN, MEASUREMENT_MAX,
                       MEASUREMENT_MIN)
from .runtime import ClockMode
from .statemachine import State

MODES = ("pt", "dtp", "shadow", "twin")
STEP_ACTIONS = ("command", "inject", "set_model")
SCENARIO_KEYS = ("name", "mode", "clock", "seed", "duration_ms", "steps",
                 "measurements", "recording", "expect")
STEP_KEYS = ("at_ms", "do", "value")
STATE_NAMES = tuple(s.name for s in State)

# step actions that only make sense when a model exists to edit
MODEL_ACTIONS = ("inject", "set_model")

# the longest wait, in seconds, that `threading` accepts: a longer run
# timeout or twinning period would overflow the platform's time_t
WAIT_MAX_S = threading.TIMEOUT_MAX
# a wall scenario's latest time in ms: a step's or a measurement's wait
WALL_MS_MAX = int(WAIT_MAX_S * 1000)


@dataclass
class ScenarioStep:
    at_ms: int
    action: str
    value: int


# what a value in a scenario file must pass; a refusal gives the reason
Check = namedtuple("Check", "ok reason")  # reason: formatted with the value
STATE = Check(STATE_NAMES.__contains__,
              f"must be one of {STATE_NAMES}: unknown state {{!r}}")
FLAG = Check(lambda v: isinstance(v, bool), "must be a boolean")
COUNT = Check(lambda v: _is_int(v) and v >= 0,
              "must be a non-negative integer")
DIGEST = Check(lambda v: isinstance(v, str)
               and re.fullmatch("[0-9a-f]{64}", v),
               "must be a sha256 hex digest: 64 lowercase hex digits")
OBSERVED = ("shadow", "twin")  # the shapes that hold a model and a thread

# One row per expectation key, its only declaration: the `SessionResult`
# field it judges, its value's check, the shapes whose runs produce it, the
# verdict rule on the finished run, and the poll rule that says whether a
# running session may stop (None: the row does not wait). A run settles
# once every row that waits is met.
Expectation = namedtuple("Expectation", "key result check shapes verdict poll")
EXPECTATIONS = (
    Expectation("final_status", "final_status", STATE, MODES, eq, eq),
    Expectation("model_state", "model_state", STATE, OBSERVED, eq, eq),
    # a run that must end converged is waited for; one that must not is
    # only judged at the end
    Expectation("converged", "converged", FLAG, OBSERVED, eq,
                lambda got, want: got is True if want else None),
    # stop once reached; the verdict then wants it exact
    Expectation("uplink_frames", "dt2pt_frames", COUNT, OBSERVED, eq, ge),
    Expectation("min_statuses", "statuses_seen", COUNT, MODES, ge, ge),
    Expectation("gate_rejections_min", "gate_rejected", COUNT, ("twin",),
                ge, ge),
    # the digest is only known once the run is over
    Expectation("thread_sha256", "thread_sha256", DIGEST, OBSERVED, eq,
                lambda got, want: None),
)
Expectations = make_dataclass(  # a scenario's `expect`; None: not set
    "Expectations",
    [(row.key, object, field(default=None)) for row in EXPECTATIONS],
    namespace={"__module__": __name__})


@dataclass
class Scenario:
    name: str
    mode: str
    clock: ClockMode
    seed: int
    duration_ms: int
    steps: list = field(default_factory=list)
    measurements: list = field(default_factory=list)  # (t_ms, value)
    recording: str | None = None
    expect: Expectations = field(default_factory=Expectations)
    path: Path | None = None

    def resolve(self, rel) -> Path:
        p = Path(rel)
        if p.is_absolute() or self.path is None:
            return p
        return self.path.parent / p


@dataclass
class RunConfig:
    twinning_period_ms: int = 40
    # frames each direction of an in-process link holds: the plant's uplink
    # and downlink and its sensor link (in a child process under isolate)
    queue_capacity: int = 4096
    run_timeout_s: float = 30.0
    thread_file: str | None = None  # a shadow or twin run's thread
    # run the plant in a forked OS process over socket pairs (wall clock only)
    isolate: bool = False


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _is_int(x):
    """An integer and not a bool: Python's bool is an int, so JSON's true
    would pass for 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_path(x):
    """A non-empty string the OS can take as a path: it has no NUL byte."""
    return isinstance(x, str) and x != "" and "\0" not in x


def parse_scenario(data, path=None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    name = data.get("name", "")
    _require(isinstance(name, str) and name, "scenario needs a non-empty name")
    mode = data.get("mode")
    _require(mode in MODES, f"{name}: mode must be one of {MODES}, got {mode!r}")
    clock_raw = data.get("clock", "wall")
    try:
        clock = ClockMode(clock_raw)
    except ValueError:
        raise ScenarioError(f"{name}: unknown clock {clock_raw!r}") from None
    seed = data.get("seed", 0)
    _require(_is_int(seed), f"{name}: seed must be an integer")
    duration = data.get("duration_ms", 0)
    _require(_is_int(duration) and duration > 0,
             f"{name}: duration_ms must be a positive integer")
    wall_max = WALL_MS_MAX if clock is ClockMode.WALL else float("inf")
    _require(duration <= wall_max,
             f"{name}: a wall duration_ms must be at most {wall_max}")
    for key in ("steps", "measurements"):
        _require(isinstance(data.get(key, []), list),
                 f"{name}: {key} must be a list")

    steps = []
    last_t = 0
    for i, raw in enumerate(data.get("steps", [])):
        where = f"{name}: steps[{i}]"
        _require(isinstance(raw, dict), f"{where} must be an object")
        extra = set(raw) - set(STEP_KEYS)
        _require(not extra, f"{where}: unknown step keys {sorted(extra)}")
        t = raw.get("at_ms")
        _require(_is_int(t) and t >= 0, f"{where}: bad at_ms {t!r}")
        _require(t >= last_t, f"{where}: at_ms {t} goes backwards")
        last_t = t
        action = raw.get("do")
        _require(action in STEP_ACTIONS,
                 f"{where}: do must be one of {STEP_ACTIONS}, got {action!r}")
        value = raw.get("value")
        _require(_is_int(value), f"{where}: value must be an integer")
        if action in ("command", "inject"):
            _require(COMMAND_MIN <= value <= COMMAND_MAX,
                     f"{where}: command value {value} out of range")
        if action == "set_model":
            _require(value in tuple(int(s) for s in State),
                     f"{where}: set_model value {value} is not a state code")
        if action in MODEL_ACTIONS:
            _require(mode == "twin",
                     f"{where}: {action} requires twin mode, scenario is {mode}")
        steps.append(ScenarioStep(t, action, value))
    _require(last_t <= duration,
             f"{name}: duration_ms {duration} ends before the last step")

    measurements = []
    for i, raw in enumerate(data.get("measurements", [])):
        where = f"{name}: measurements[{i}]"
        _require(isinstance(raw, (list, tuple)) and len(raw) == 2,
                 f"{where} must be [t_ms, value]")
        t, v = raw
        _require(_is_int(t) and 0 <= t <= wall_max, f"{where}: bad time {t!r}")
        _require(_is_int(v), f"{where}: bad value {v!r}")
        _require(MEASUREMENT_MIN <= v <= MEASUREMENT_MAX,
                 f"{where}: measurement value {v} out of range")
        measurements.append((t, v))

    raw_exp = data.get("expect", {})
    _require(isinstance(raw_exp, dict), f"{name}: expect must be an object")
    extra = set(raw_exp) - {row.key for row in EXPECTATIONS}
    _require(not extra, f"{name}: unknown expect keys {sorted(extra)}")
    for row in EXPECTATIONS:
        want, where = raw_exp.get(row.key), f"{name}: expect.{row.key}"
        _require(want is None or mode in row.shapes, f"{where} needs a "
                 f"{' or '.join(row.shapes)} run, not a {mode} run")
        _require(want is None or row.check.ok(want),
                 f"{where} {row.check.reason.format(want)}")
    exp = Expectations(**raw_exp)
    if exp.thread_sha256 is not None:
        _require(clock is ClockMode.LOCKSTEP,
                 f"{name}: thread hashes are only stable under the lockstep clock")

    recording = data.get("recording")
    if mode == "dtp":
        _require(_is_path(recording),
                 f"{name}: dtp mode needs a recording path")
    elif recording is not None:
        _require(mode != "pt", f"{name}: a pt run drives the real plant and "
                               f"plays no recording; a recorded plant is dtp")
        _require(_is_path(recording), f"{name}: recording must be a "
                 f"non-empty path string with no NUL byte")

    extra = set(data) - set(SCENARIO_KEYS)
    _require(not extra, f"{name}: unknown scenario keys {sorted(extra)}")

    return Scenario(name=name, mode=mode, clock=clock, seed=seed,
                    duration_ms=duration, steps=steps,
                    measurements=measurements, recording=recording,
                    expect=exp, path=Path(path) if path else None)


def _read_json(path, what):
    """The JSON value in the file at `path`; `what` names the file in the
    ConfigError that refuses it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def load_scenario(path, overrides=None) -> Scenario:
    """The scenario at `path`, with the scenario keys in `overrides` set on
    its JSON object first, so `parse_scenario` judges what will run."""
    data = _read_json(path, "scenario")
    if overrides and isinstance(data, dict):  # else parse_scenario refuses it
        data = {**data, **overrides}
    return parse_scenario(data, path=path)


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    cfg = RunConfig()
    for key in ("twinning_period_ms", "queue_capacity"):
        if key in data:
            if not _is_int(data[key]) or data[key] <= 0:
                raise ConfigError(f"config.{key} must be a positive integer")
            setattr(cfg, key, data[key])
    if cfg.twinning_period_ms > WAIT_MAX_S * 1000:
        raise ConfigError(f"config.twinning_period_ms must be at most "
                          f"{WAIT_MAX_S * 1000:.0f}")
    if "run_timeout_s" in data:
        timeout = data["run_timeout_s"]
        if not (_is_int(timeout) or isinstance(timeout, float)) \
                or not 0 < timeout <= WAIT_MAX_S:  # JSON has NaN and Infinity
            raise ConfigError(f"config.run_timeout_s must be positive and "
                              f"finite, at most {WAIT_MAX_S:.0f}")
        cfg.run_timeout_s = float(timeout)
    thread_file = data.get("thread_file")
    if thread_file is not None:
        if not _is_path(thread_file):
            raise ConfigError("config.thread_file must be a non-empty path "
                              "string with no NUL byte")
        cfg.thread_file = thread_file
    if "isolate" in data:
        if not isinstance(data["isolate"], bool):
            raise ConfigError("config.isolate must be a boolean")
        cfg.isolate = data["isolate"]
    extra = set(data) - {f.name for f in fields(RunConfig)}
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}")
    return cfg
