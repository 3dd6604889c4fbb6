"""Every input file is refused with a reason, never with a traceback.

The command line maps a broken input to exit code 2 (`error: ...` on
stderr), a manifest problem to a `parse-error` line, and an unusable
recording to a FAIL verdict. The property feeds each loader arbitrary bytes
and one-byte edits of a valid file: it must return, or raise only the error
its caller maps. No session runs inside the property.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from twinproto.cli import BUNDLED_SUITE, main
from twinproto.config import load_config, load_scenario
from twinproto.errors import ConfigError, ThreadLogError
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
