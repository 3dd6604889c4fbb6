"""Every input file is refused with a reason, never with a traceback.

The command line maps a broken input to exit code 2 (`error: ...` on
stderr), a manifest problem to a `parse-error` line, and an unusable
recording to a FAIL verdict. An output path that cannot be written is
broken input too, and a command-line override is judged by
`parse_scenario`, with its message. The property feeds each loader arbitrary bytes
and one-byte edits of a valid file: it must return, or raise only the error
its caller maps. No session runs inside the property.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinproto import cli
from twinproto.cli import BUNDLED_SUITE, main
from twinproto.config import load_config, load_scenario, parse_scenario
from twinproto.errors import ConfigError, ScenarioError, ThreadLogError
from twinproto.harness import SessionResult
from twinproto.template import validate_manifest, write_manifest
from twinproto.thread_log import load_recordings, read_thread_file

SCENARIO = BUNDLED_SUITE / "01-mission-twin-emulated.json"
MISSION_REC = BUNDLED_SUITE / "recordings" / "mission.rec"
CONFIG = json.dumps({"twinning_period_ms": 40, "queue_capacity": 64,
                     "run_timeout_s": 5.0, "thread_file": "run.thread",
                     "isolate": False}).encode()
# what the file's bytes can make a thread reader raise; `replay` maps it to
# exit code 2, a run on the recording to a FAIL verdict
THREAD_ERRORS = (ThreadLogError, UnicodeDecodeError)


def manifest_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = write_manifest(os.path.join(tmp, "plant.ini"), "plant",
                              MISSION_REC)
        return Path(path).read_bytes()


MANIFEST = manifest_bytes()


# ---------------------------------------------------------------------------
# the command line: one case per input that used to end in a traceback
# ---------------------------------------------------------------------------

def test_cli_a_scenario_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    sc = tmp_path / "bad.json"
    sc.write_bytes(b"\xff" + SCENARIO.read_bytes())
    assert main(["run-shadow", "--scenario", str(sc)]) == 2
    assert "error: cannot read scenario" in capsys.readouterr().err


def test_cli_a_config_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff" + CONFIG)
    assert main(["run-shadow", "--scenario", str(SCENARIO),
                 "--config", str(cfg)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


def test_cli_json_nested_past_the_parsers_depth_is_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["run-shadow", "--scenario", str(deep)]) == 2
    assert "error: scenario is not valid JSON" in capsys.readouterr().err
    assert main(["run-shadow", "--scenario", str(SCENARIO),
                 "--config", str(deep)]) == 2
    assert "error: config is not valid JSON" in capsys.readouterr().err


def test_cli_replay_of_a_thread_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    thread = tmp_path / "bad.thread"
    thread.write_bytes(b"seq=1 ts=0 dir=PT2DT kind=STA hex=20\xff00\n")
    assert main(["replay", str(thread)]) == 2
    assert "error: cannot read record file" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"steps": 5},  # a TypeError out of the parse
    {"clock": "wall", "duration_ms": 10 ** 16,  # an OverflowError in a task
     "steps": [{"at_ms": 10 ** 16, "do": "command", "value": 50}]},
    {"clock": "lockstep",  # a ValueOutOfRange in the measurement script
     "steps": [{"at_ms": 0, "do": "command", "value": 50}],
     "measurements": [[10, 2 ** 32]]},
])
def test_cli_a_scenario_the_run_would_crash_on_is_exit_2(tmp_path, capsys,
                                                         edit):
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps({"name": "crash", "mode": "twin",
                              "duration_ms": 400, **edit}))
    assert main(["run-twin", "--scenario", str(sc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_a_manifest_document_path_the_os_refuses_is_a_problem(
        tmp_path, capsys):
    manifest = tmp_path / "plant.ini"
    long_path = "d" * 5000  # ENAMETOOLONG
    manifest.write_bytes(MANIFEST.replace(str(MISSION_REC).encode(),
                                          long_path.encode()))
    assert main(["template-validate", str(manifest)]) == 1
    assert capsys.readouterr().out.startswith(
        f"missing-document: recording -> {tmp_path / long_path}")


def test_cli_a_manifest_with_a_bad_interpolation_is_a_parse_error(
        tmp_path, capsys):
    manifest = tmp_path / "plant.ini"
    manifest.write_bytes(MANIFEST.replace(str(MISSION_REC).encode(),
                                          b"a%b.rec"))
    assert main(["template-validate", str(manifest)]) == 1
    assert capsys.readouterr().out.startswith("parse-error: ")


def test_cli_a_manifest_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    manifest = tmp_path / "plant.ini"
    manifest.write_bytes(b"\xff" + MANIFEST)
    assert main(["template-validate", str(manifest)]) == 1
    assert capsys.readouterr().out.startswith("parse-error: ")


def test_cli_a_manifest_that_is_a_directory_names_why_it_cannot_be_read(
        tmp_path, capsys):
    assert main(["template-validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("parse-error: cannot read manifest: ")
    assert "Is a directory" in out


def test_cli_a_manifest_whose_recording_holds_no_record_is_rejected(
        tmp_path, capsys):
    garbage = tmp_path / "garbage.rec"
    garbage.write_text("garbage\n")
    manifest = tmp_path / "plant.ini"
    manifest.write_bytes(MANIFEST.replace(str(MISSION_REC).encode(),
                                          str(garbage).encode()))
    assert main(["template-validate", str(manifest)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"bad-recording: recording {garbage} unusable "
                          f"at seq/line 1: ")


# ---------------------------------------------------------------------------
# the command line: an output path that cannot be written is refused before
# anything starts
# ---------------------------------------------------------------------------

def wall_copy(tmp_path):
    """SCENARIO on the wall clock, without its digest and with its recording
    path made absolute."""
    data = json.loads(SCENARIO.read_text())
    data["clock"] = "wall"
    del data["expect"]["thread_sha256"]
    data["recording"] = str(SCENARIO.parent / data["recording"])
    path = tmp_path / SCENARIO.name
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("isolate", [False, True],
                         ids=["in-process", "isolated"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_cli_a_thread_file_that_cannot_be_written_is_exit_2(
        tmp_path, capsys, isolate, where):
    thread = tmp_path / "missing" / "run.thread" if where == "missing-dir" \
        else tmp_path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(thread),
                               "isolate": isolate}))
    assert main(["run-twin", "--scenario", str(wall_copy(tmp_path)),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write thread_file {thread}: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("verb", ["run-twin", "record"])
def test_cli_an_out_that_cannot_be_created_is_exit_2(tmp_path, capsys, verb):
    below_a_file = tmp_path / "file" / "out"
    (tmp_path / "file").write_text("")
    scenario = BUNDLED_SUITE / ("02-mission-pt.json" if verb == "record"
                                else "05-twin-inject.json")
    assert main([verb, "--scenario", str(scenario),
                 "--out", str(below_a_file)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot create --out {below_a_file}: ")


@pytest.mark.parametrize("verb", ["run-pt", "run-dtp"])
def test_cli_out_on_a_run_that_keeps_no_thread_is_exit_2(tmp_path, capsys,
                                                         verb):
    # a scenario both shapes accept; the run-config check refuses --out
    # before the directory is made
    data = {"name": "mission", "mode": verb[4:], "clock": "lockstep",
            "duration_ms": 100, "expect": {"final_status": "STANDBY"}}
    if verb == "run-dtp":
        data["recording"] = str(MISSION_REC)
    sc = tmp_path / "mission.json"
    sc.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([verb, "--scenario", str(sc), "--out", str(out)]) == 2
    assert "keeps no thread" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case,config,needle", [
    ("01-mission-twin-emulated.json", {}, "needs a real-backed run"),
    ("05-twin-inject.json", {}, "only use command steps"),
    ("02-mission-pt.json", {"isolate": True}, "need the wall clock"),
])
def test_cli_record_refuses_a_scenario_before_out_is_created(
        tmp_path, capsys, case, config, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["record", "--scenario", str(BUNDLED_SUITE / case),
                 "--out", str(out), "--config", str(cfg)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_cli_record_to_a_path_that_cannot_be_written_is_exit_2(tmp_path,
                                                               capsys):
    # the config keeps its own thread file, which used to be copied to the
    # record path only after the whole session
    out = tmp_path / "rec"
    (out / "02-mission-pt.rec").mkdir(parents=True)
    thread = tmp_path / "run.thread"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(thread)}))
    assert main(["record", "--scenario", str(BUNDLED_SUITE / "02-mission-"
                                             "pt.json"),
                 "--out", str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write record file {out / '02-mission-pt.rec'}: ")
    assert not thread.exists()


def test_cli_record_whose_thread_file_is_refused_leaves_no_recording(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(tmp_path / "missing" /
                                                  "run.thread")}))
    assert main(["record", "--scenario", str(BUNDLED_SUITE / "02-mission-"
                                             "pt.json"),
                 "--out", str(tmp_path), "--config", str(cfg)]) == 2
    assert "cannot write thread_file" in capsys.readouterr().err
    assert not (tmp_path / "02-mission-pt.rec").exists()


# ---------------------------------------------------------------------------
# the command line: a scenario or suite a run cannot honour is refused
# before any session runs
# ---------------------------------------------------------------------------

def set_key(key, value):
    return lambda data: data.__setitem__(key, value)


# verb, bundled case, edit, what the refusal names
REFUSED = {
    "a-misspelled-expect-key": (
        "run-pt", "02-mission-pt.json",
        set_key("expect", {"final_stauts": "STANDBY", "min_statuses": 4}),
        "unknown expect keys ['final_stauts']"),
    "a-key-the-shape-cannot-produce": (
        "run-pt", "01-mission-twin-emulated.json", lambda data: None,
        "expect.model_state needs a shadow or twin run, not a pt run"),
    "a-digest-that-is-not-lowercase-hex": (
        "run-twin", "05-twin-inject.json",
        lambda data: data["expect"].update(thread_sha256="Z" * 64),
        "expect.thread_sha256 must be a sha256 hex digest"),
    "a-pt-with-a-recording": (
        "run-pt", "02-mission-pt.json",
        set_key("recording", "recordings/mission.rec"),
        "a recorded plant is dtp"),
    "an-unknown-step-key": (
        "run-pt", "02-mission-pt.json",
        lambda data: data["steps"][0].update(vaule=7),
        "steps[0]: unknown step keys ['vaule']"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_cli_a_scenario_the_run_cannot_honour_is_exit_2(
        tmp_path, capsys, monkeypatch, case):
    verb, name, edit, needle = REFUSED[case]
    monkeypatch.setattr(cli, "run_scenario", lambda *args: pytest.fail(
        "a session ran"))
    data = json.loads((BUNDLED_SUITE / name).read_text())
    edit(data)
    sc = tmp_path / name
    sc.write_text(json.dumps(data))
    assert main([verb, "--scenario", str(sc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert list(tmp_path.iterdir()) == [sc]


def test_cli_ci_test_refuses_one_thread_file_for_several_cases(tmp_path,
                                                               capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("05-twin-inject.json", "06-twin-gate-reject.json"):
        (suite / name).write_bytes((BUNDLED_SUITE / name).read_bytes())
    thread = tmp_path / "run.thread"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thread_file": str(thread)}))
    assert main(["ci-test", str(suite), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: thread_file names one file for "
                                   "2 cases")
    assert not thread.exists()
    (suite / "06-twin-gate-reject.json").unlink()  # one case keeps it
    assert main(["ci-test", str(suite), "--config", str(cfg)]) == 0
    assert thread.exists()


# ---------------------------------------------------------------------------
# the command line: an override is judged by the scenario's own rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clock", [None, "wall", "lockstep"])
@pytest.mark.parametrize("mode", ["pt", "dtp", "shadow", "twin"])
def test_a_cli_refusal_is_a_parse_refusal(monkeypatch, capsys, mode, clock):
    ran = []

    def run_scenario(scenario, cfg):
        ran.append(scenario)
        return SessionResult(scenario.name, scenario.mode,
                             scenario.clock.value, scenario.seed)

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    flags = [] if clock is None else ["--mode", clock]
    for path in sorted(BUNDLED_SUITE.glob("*.json")):
        data = json.loads(path.read_text())
        data["mode"] = mode
        if clock is not None:
            data["clock"] = clock
        try:
            want = parse_scenario(data, path=path)
        except ScenarioError as exc:
            want = exc
        code = main([f"run-{mode}", "--scenario", str(path)] + flags)
        err = capsys.readouterr().err
        if isinstance(want, ScenarioError):
            assert (code, err) == (2, f"error: {want}\n"), path.name
        else:
            assert (code, err) == (0, ""), path.name
            assert ran.pop() == want
    assert ran == []


# ---------------------------------------------------------------------------
# the property: every loader, fed bytes
# ---------------------------------------------------------------------------

@st.composite
def edited(draw, valid: bytes):
    """`valid` with one byte replaced, inserted or deleted, or cut short."""
    at = draw(st.integers(0, len(valid) - 1))
    byte = bytes([draw(st.integers(0, 255))])
    how = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
    if how == "replace":
        return valid[:at] + byte + valid[at + 1:]
    if how == "insert":
        return valid[:at] + byte + valid[at:]
    if how == "delete":
        return valid[:at] + valid[at + 1:]
    return valid[:at]


def inputs(valid: bytes):
    return st.one_of(st.binary(), edited(valid))


def load(loader, data: bytes):
    """`loader` run on a file holding `data`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        return loader(path)


def test_the_valid_files_load():
    for loader, data in ((load_scenario, SCENARIO.read_bytes()),
                         (load_config, CONFIG),
                         (read_thread_file, MISSION_REC.read_bytes()),
                         (load_recordings, MISSION_REC.read_bytes())):
        assert load(loader, data)
    assert load(validate_manifest, MANIFEST) == []


@given(inputs(SCENARIO.read_bytes()))
def test_a_scenario_file_loads_or_is_a_config_error(data):
    try:
        load(load_scenario, data)
    except ConfigError:
        pass


@given(inputs(CONFIG))
def test_a_config_file_loads_or_is_a_config_error(data):
    try:
        load(load_config, data)
    except ConfigError:
        pass


@given(inputs(MISSION_REC.read_bytes()))
def test_a_thread_file_reads_or_is_refused_with_a_reason(data):
    try:
        load(read_thread_file, data)
    except THREAD_ERRORS:
        pass


@given(inputs(MISSION_REC.read_bytes()))
def test_a_recording_loads_or_is_refused_with_a_reason(data):
    try:
        load(load_recordings, data)
    except THREAD_ERRORS:
        pass


@given(inputs(MANIFEST))
def test_a_manifest_is_judged_never_raised(data):
    problems = load(validate_manifest, data)
    assert all(isinstance(p, str) for p in problems)
