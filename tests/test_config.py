"""Scenario and run-config parsing: strict in, structured out."""

import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinproto.config import (
    EXPECTATIONS,
    MODES,
    WAIT_MAX_S,
    WALL_MS_MAX,
    RunConfig,
    load_config,
    load_scenario,
    parse_scenario,
)
from twinproto.errors import ConfigError, ScenarioError
from twinproto.messages import (COMMAND_MAX, COMMAND_MIN, MEASUREMENT_MAX,
                                MEASUREMENT_MIN)
from twinproto.runtime import ClockMode
from twinproto.statemachine import State


def base(**over):
    data = {
        "name": "case",
        "mode": "twin",
        "clock": "lockstep",
        "seed": 3,
        "duration_ms": 400,
        "steps": [
            {"at_ms": 0, "do": "command", "value": 50},
            {"at_ms": 100, "do": "inject", "value": 0},
            {"at_ms": 200, "do": "set_model", "value": 2},
        ],
    }
    data.update(over)
    return data


def test_parse_full_scenario():
    sc = parse_scenario(base())
    assert sc.name == "case"
    assert sc.mode == "twin"
    assert sc.clock is ClockMode.LOCKSTEP
    assert sc.seed == 3
    assert [s.action for s in sc.steps] == ["command", "inject", "set_model"]
    assert sc.steps[0].value == 50
    assert sc.expect.final_status is None


def test_clock_defaults_to_wall():
    sc = parse_scenario(base(clock=None) | {"clock": "wall"})
    assert sc.clock is ClockMode.WALL
    data = base()
    del data["clock"]
    assert parse_scenario(data).clock is ClockMode.WALL


@pytest.mark.parametrize("mutate,needle", [
    ({"name": ""}, "name"),
    ({"mode": "ghost"}, "mode"),
    ({"clock": "sundial"}, "clock"),
    ({"seed": "ten"}, "seed"),
    ({"duration_ms": 0}, "duration_ms"),
    ({"duration_ms": 50}, "ends before"),
    ({"extra_knob": 1}, "unknown scenario keys"),
    ({"steps": [{"at_ms": 0, "do": "command", "value": 50, "vaule": 7}]},
     "unknown step keys"),
    ({"expect": {"final_stauts": "STANDBY", "min_statuses": 4}},
     "unknown expect keys"),
])
def test_parse_rejects_bad_top_level(mutate, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(base(**mutate))
    assert needle in str(err.value)


def test_steps_must_not_go_backwards():
    data = base(steps=[
        {"at_ms": 100, "do": "command", "value": 1},
        {"at_ms": 50, "do": "command", "value": 0},
    ])
    with pytest.raises(ScenarioError, match="backwards"):
        parse_scenario(data)


def test_command_value_range_enforced():
    data = base(steps=[{"at_ms": 0, "do": "command", "value": 2 ** 20}])
    with pytest.raises(ScenarioError, match="out of range"):
        parse_scenario(data)


def test_set_model_value_must_be_state_code():
    data = base(steps=[{"at_ms": 0, "do": "set_model", "value": 7}])
    with pytest.raises(ScenarioError, match="state code"):
        parse_scenario(data)


def test_model_actions_need_twin_mode():
    data = base(mode="shadow",
                steps=[{"at_ms": 0, "do": "inject", "value": 5}])
    with pytest.raises(ScenarioError, match="requires twin mode"):
        parse_scenario(data)


def test_dtp_requires_recording():
    data = base(mode="dtp", steps=[])
    with pytest.raises(ScenarioError, match="recording"):
        parse_scenario(data)
    data["recording"] = "sessions/a.rec"
    assert parse_scenario(data).recording == "sessions/a.rec"


def test_expect_state_names_validated():
    data = base(expect={"final_status": "SLEEPING"})
    with pytest.raises(ScenarioError, match="unknown state"):
        parse_scenario(data)
    sc = parse_scenario(base(expect={"final_status": "OFF",
                                     "model_state": "ACTIVE",
                                     "converged": True,
                                     "uplink_frames": 3,
                                     "min_statuses": 2}))
    assert sc.expect.final_status == "OFF"
    assert sc.expect.model_state == "ACTIVE"
    assert sc.expect.converged is True
    assert sc.expect.uplink_frames == 3


def test_thread_hash_only_with_lockstep():
    data = base(clock="wall", expect={"thread_sha256": "a" * 64})
    with pytest.raises(ScenarioError, match="lockstep"):
        parse_scenario(data)
    for digest in ("zz", "Z" * 64, "A" * 64, "a" * 63 + "\n"):
        data = base(expect={"thread_sha256": digest})
        with pytest.raises(ScenarioError, match="sha256"):
            parse_scenario(data)


STEP_AT_1E16 = [{"at_ms": 10 ** 16, "do": "command", "value": 50}]


# each used to end in a traceback or a task's crash: a parse that iterates
# what is not a list, a path the OS refuses, a wait `threading` refuses
@pytest.mark.parametrize("data,needle", [
    ([], "scenario root must be an object"),
    (base(steps=5), "steps must be a list"),
    (base(steps=None), "steps must be a list"),
    (base(steps="abc"), "steps must be a list"),
    (base(measurements={"0": 1}), "measurements must be a list"),
    (base(mode="dtp", steps=[], recording="a\0b"), "needs a recording path"),
    (base(mode="shadow", steps=[], recording="a\0b"), "no NUL byte"),
    (base(clock="wall", duration_ms=10 ** 16, steps=STEP_AT_1E16),
     f"a wall duration_ms must be at most {WALL_MS_MAX}"),
    (base(clock="wall", measurements=[[10 ** 16, 1]]), "bad time"),
    (base(measurements=[[10, 2 ** 32]]),  # a ValueOutOfRange in a task
     "measurements\\[0\\]: measurement value 4294967296 out of range"),
    (base(measurements=[[10, MEASUREMENT_MIN - 1]]), "out of range"),
])
def test_parse_refuses_what_would_crash_the_run(data, needle):
    with pytest.raises(ScenarioError, match=needle):
        parse_scenario(data)


def test_a_wall_scenario_lasts_at_most_what_its_longest_wait_takes():
    # a step's or a measurement's wait is at most the scenario's latest
    # time, and `threading` takes that wait; the logical clock waits for
    # no thread
    assert WALL_MS_MAX / 1000 <= WAIT_MAX_S
    assert threading.Lock().acquire(timeout=WALL_MS_MAX / 1000)
    latest = base(clock="wall", duration_ms=WALL_MS_MAX,
                  measurements=[[WALL_MS_MAX, 1]])
    assert parse_scenario(latest).duration_ms == WALL_MS_MAX
    latest["duration_ms"] += 1
    with pytest.raises(ScenarioError, match="at most"):
        parse_scenario(latest)
    latest["clock"] = "lockstep"
    assert parse_scenario(latest).duration_ms == WALL_MS_MAX + 1


def test_pt_plays_no_recording_and_a_recording_is_a_path():
    # a recorded plant is dtp: pt names the real one
    data = base(mode="pt", steps=[], recording="sessions/a.rec")
    with pytest.raises(ScenarioError, match="pt run .* recorded plant is dtp"):
        parse_scenario(data)
    for mode in ("shadow", "twin"):
        data = base(mode=mode, steps=[], recording=5)
        with pytest.raises(ScenarioError, match="recording must be a"):
            parse_scenario(data)


def test_resolve_is_relative_to_scenario_file(tmp_path):
    p = tmp_path / "suite" / "case.json"
    p.parent.mkdir()
    p.write_text(json.dumps(base(mode="dtp", steps=[],
                                 recording="rec/a.rec")))
    sc = load_scenario(p)
    assert sc.resolve("rec/a.rec") == p.parent / "rec" / "a.rec"
    assert sc.resolve("/abs/b.rec").is_absolute()


def test_load_scenario_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(bad)


def test_load_config_defaults_and_overrides(tmp_path):
    assert load_config(None) == RunConfig()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"twinning_period_ms": 25,
                             "run_timeout_s": 5,
                             "isolate": True}))
    cfg = load_config(p)
    assert cfg.twinning_period_ms == 25
    assert cfg.run_timeout_s == 5.0
    assert cfg.isolate is True
    assert cfg.queue_capacity == 4096


@pytest.mark.parametrize("payload,needle", [
    ({"twinning_period_ms": 0}, "positive"),
    ({"run_timeout_s": -1}, "positive"),
    ({"thread_file": 9}, "path string"),
    ({"isolate": "yes"}, "boolean"),
    ({"mystery": 1}, "unknown config keys"),
    ({"run_timeout_s": float("nan")}, "finite"),
    ({"run_timeout_s": float("inf")}, "finite"),
    ({"thread_file": ""}, "config.thread_file"),
    ({"thread_file": "a\0b"}, "no NUL byte"),  # ValueError in the run
])
def test_load_config_rejects_bad_values(tmp_path, payload, needle):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert needle in str(err.value)


def test_a_wait_longer_than_threading_accepts_is_refused(tmp_path):
    # past the bound, the run's first wait would raise OverflowError
    p = tmp_path / "cfg.json"
    for key, most in (("run_timeout_s", WAIT_MAX_S),
                      ("twinning_period_ms", int(WAIT_MAX_S) * 1000)):
        p.write_text(json.dumps({key: most}))
        assert getattr(load_config(p), key) == most
        for over in (most + 1000, most * 1024):
            p.write_text(json.dumps({key: over}))
            with pytest.raises(ConfigError, match=f"config.{key} .*at most"):
                load_config(p)


# ---------------------------------------------------------------------------
# properties: generated valid inputs round-trip, booleans are no integers
# ---------------------------------------------------------------------------

INTS = st.integers(-(2 ** 40), 2 ** 40)
NATURALS = st.integers(0, 2 ** 40)
PATHS = st.text(st.characters(exclude_characters="\0"), min_size=1,
                max_size=8)
STATE_NAMES = st.sampled_from([s.name for s in State])
STEP_VALUES = {
    "command": st.integers(COMMAND_MIN, COMMAND_MAX),
    "inject": st.integers(COMMAND_MIN, COMMAND_MAX),
    "set_model": st.sampled_from([int(s) for s in State]),
}
MEASUREMENT_VALUES = st.integers(MEASUREMENT_MIN, MEASUREMENT_MAX)


# each expectation key: the shapes whose runs produce it, and the values
# its check passes
OBSERVED = ("shadow", "twin")
EXPECT = {
    "final_status": (MODES, STATE_NAMES),
    "model_state": (OBSERVED, STATE_NAMES),
    "converged": (OBSERVED, st.booleans()),
    "uplink_frames": (OBSERVED, NATURALS),
    "min_statuses": (MODES, NATURALS),
    "gate_rejections_min": (("twin",), NATURALS),
    "thread_sha256": (OBSERVED, st.text("0123456789abcdef", min_size=64,
                                        max_size=64)),
}


@st.composite
def scenarios(draw):
    """A scenario dict that `parse_scenario` must accept: a recording only
    where the shape plays one, and an expectation only where the shape
    produces it (a digest only under lockstep)."""
    mode = draw(st.sampled_from(MODES))
    clock = draw(st.sampled_from([c.value for c in ClockMode]))
    actions = list(STEP_VALUES) if mode == "twin" else ["command"]
    times = sorted(draw(st.lists(NATURALS, max_size=6)))
    steps = []
    for t in times:
        action = draw(st.sampled_from(actions))
        steps.append({"at_ms": t, "do": action,
                      "value": draw(STEP_VALUES[action])})
    data = {
        "name": draw(st.text(min_size=1, max_size=8)),
        "mode": mode,
        "clock": clock,
        "seed": draw(INTS),
        "duration_ms": max(times, default=0) + draw(st.integers(1, 1000)),
        "steps": steps,
        "measurements": draw(st.lists(
            st.tuples(NATURALS, MEASUREMENT_VALUES).map(list), max_size=6)),
    }
    if mode == "dtp" or (mode != "pt" and draw(st.booleans())):
        data["recording"] = draw(PATHS)
    expect = {}
    for key, (shapes, values) in EXPECT.items():
        if (mode in shapes and (key != "thread_sha256" or clock == "lockstep")
                and draw(st.booleans())):
            expect[key] = draw(values)
    data["expect"] = expect
    return data


def integer_fields(data):
    """(path, needle) for every integer field of a scenario dict: the path
    into the dict, and what the rejection must name."""
    fields = [(("seed",), "seed"), (("duration_ms",), "duration_ms")]
    for i in range(len(data["steps"])):
        fields += [(("steps", i, "at_ms"), "at_ms"),
                   (("steps", i, "value"), "value")]
    for i in range(len(data["measurements"])):
        fields += [(("measurements", i, j), f"measurements[{i}]")
                   for j in (0, 1)]
    fields += [(("expect", key), key) for key in data["expect"]
               if key in ("uplink_frames", "min_statuses",
                          "gate_rejections_min")]
    return fields


@given(scenarios())
def test_a_valid_scenario_parses_to_its_own_fields(data):
    sc = parse_scenario(data)
    assert (sc.name, sc.mode, sc.clock.value, sc.seed, sc.duration_ms) == \
        (data["name"], data["mode"], data["clock"], data["seed"],
         data["duration_ms"])
    assert [(s.at_ms, s.action, s.value) for s in sc.steps] == \
        [(s["at_ms"], s["do"], s["value"]) for s in data["steps"]]
    assert sc.measurements == [tuple(m) for m in data["measurements"]]
    assert sc.recording == data.get("recording")
    for key, value in vars(sc.expect).items():
        assert value == data["expect"].get(key)


@given(scenarios(), st.data())
def test_a_boolean_in_any_integer_field_of_a_scenario_is_rejected(data, pick):
    path, needle = pick.draw(st.sampled_from(integer_fields(data)))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = pick.draw(st.booleans())
    with pytest.raises(ScenarioError, match=needle.replace("[", r"\[")):
        parse_scenario(data)


@given(st.sampled_from(MODES), st.sampled_from(sorted(EXPECT)), st.data())
def test_an_expectation_parses_iff_the_shape_produces_it(mode, key, pick):
    shapes, values = EXPECT[key]
    data = base(mode=mode, steps=[], expect={key: pick.draw(values)})
    if mode == "dtp":
        data["recording"] = "a.rec"
    if mode in shapes:
        assert getattr(parse_scenario(data).expect, key) == \
            data["expect"][key]
    else:
        with pytest.raises(ScenarioError, match=f"expect.{key} needs a .* "
                                                f"run, not a {mode} run"):
            parse_scenario(data)


@given(scenarios(), st.text(max_size=12).filter(lambda k: k not in EXPECT),
       st.none() | INTS)
def test_an_expect_key_outside_the_table_is_refused(data, key, value):
    data["expect"][key] = value
    with pytest.raises(ScenarioError, match="unknown expect keys"):
        parse_scenario(data)


def test_the_expectation_table_declares_the_keys_above():
    assert sorted(row.key for row in EXPECTATIONS) == sorted(EXPECT)


POSITIVE = st.integers(1, 2 ** 40)


@st.composite
def configs(draw):
    """A run-config dict that `load_config` must accept."""
    values = {
        "twinning_period_ms": POSITIVE,
        "queue_capacity": POSITIVE,
        # a longer wait than `threading` accepts is refused
        "run_timeout_s": st.integers(1, int(WAIT_MAX_S))
                         | st.floats(min_value=1e-3, max_value=WAIT_MAX_S),
        "thread_file": st.none() | PATHS,
        "isolate": st.booleans(),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    return {key: draw(values[key]) for key in keys}


def load_config_from(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        return load_config(path)


@given(configs())
def test_a_valid_config_loads_to_its_own_fields(data):
    cfg = load_config_from(data)
    for key, default in vars(RunConfig()).items():
        want = data.get(key)
        assert getattr(cfg, key) == (default if want is None else want)
    assert isinstance(cfg.run_timeout_s, float)


@given(configs(), st.sampled_from(["twinning_period_ms", "queue_capacity",
                                   "run_timeout_s"]), st.booleans())
def test_a_boolean_for_a_number_in_a_config_is_rejected(data, key, flag):
    data[key] = flag
    with pytest.raises(ConfigError, match=f"config.{key}"):
        load_config_from(data)
