import pytest

from twinproto.errors import ConfigError
from twinproto.messages import encode_message, status
from twinproto.statemachine import BUILTIN_MACHINE
from twinproto.template import (
    DigitalTemplate,
    fingerprint_installed,
    fingerprint_sources,
    load_template,
    validate_manifest,
    write_manifest,
)
from twinproto.thread_log import ThreadDirection, ThreadLog, load_recordings


def make_recording_file(path, messages):
    log = ThreadLog(path)
    for n, msg in enumerate(messages):
        log.append_message(n, ThreadDirection.PT2DT, encode_message(msg))
    log.close()
    assert load_recordings(path) == [encode_message(m) for m in messages]
    return path


@pytest.fixture
def valid_manifest(tmp_path):
    rec = make_recording_file(tmp_path / "mission.rec",
                              [status(0), status(1), status(0), status(2)])
    doc = tmp_path / "design.md"
    doc.write_text("interface notes\n")
    return write_manifest(tmp_path / "node.ini", "pressure-node", rec,
                          extra_documents={"design": str(doc)})


def test_valid_manifest_round_trips(valid_manifest):
    tpl = load_template(valid_manifest)
    assert tpl.name == "pressure-node"
    assert tpl.version == "1"
    assert set(tpl.documents) == {"recording", "design"}
    assert tpl.software["package"] == "twinproto"
    assert tpl.machine() == BUILTIN_MACHINE
    assert validate_manifest(valid_manifest) == []


def test_missing_file_is_a_parse_error(tmp_path):
    problems = validate_manifest(tmp_path / "nope.ini")
    assert len(problems) == 1 and problems[0].startswith("parse-error:")


def test_missing_section_rejected(tmp_path, valid_manifest):
    text = valid_manifest.read_text().replace("[model]", "[nodel]")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="missing section: model"):
        load_template(bad)
    assert any("parse-error" in p for p in validate_manifest(bad))


def test_dangling_document_reported(valid_manifest):
    (valid_manifest.parent / "design.md").unlink()
    problems = validate_manifest(valid_manifest)
    assert any(p.startswith("missing-document: design") for p in problems)


def test_empty_documents_reported(tmp_path, valid_manifest):
    text = valid_manifest.read_text()
    start = text.index("[documents]\n") + len("[documents]\n")
    bad = tmp_path / "bad.ini"
    bad.write_text(text[:start] + text[text.index("\n\n", start) + 1:])
    assert "no-documents: [documents] lists nothing" in validate_manifest(bad)


def test_empty_software_ref_reported(tmp_path, valid_manifest):
    text = valid_manifest.read_text().replace(
        "entry = twinproto.control:assemble_plant", "entry = ")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert "empty-software-ref: entry" in validate_manifest(bad)


def test_malformed_entry_reported(tmp_path, valid_manifest):
    text = valid_manifest.read_text().replace(
        "entry = twinproto.control:assemble_plant", "entry = justamodule")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert any(p.startswith("bad-software-ref") for p in validate_manifest(bad))


def test_model_must_match_builtin(tmp_path, valid_manifest):
    text = valid_manifest.read_text().replace("initial = STANDBY",
                                              "initial = ACTIVE")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert any(p.startswith("model-mismatch") for p in validate_manifest(bad))


def test_garbled_model_codes_reported(tmp_path, valid_manifest):
    text = valid_manifest.read_text().replace("codes = STANDBY=0,ACTIVE=1,OFF=2",
                                              "codes = STANDBY=x")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert any(p.startswith("bad-model") for p in validate_manifest(bad))


def test_fingerprint_pins_software(tmp_path, valid_manifest):
    good = write_manifest(tmp_path / "pinned.ini", "node",
                          valid_manifest.parent / "mission.rec",
                          fingerprint=fingerprint_installed())
    assert validate_manifest(good) == []
    bad = write_manifest(tmp_path / "stale.ini", "node",
                         valid_manifest.parent / "mission.rec",
                         fingerprint="0" * 64)
    assert any(p.startswith("fingerprint-mismatch")
               for p in validate_manifest(bad))


def test_fingerprint_tracks_source_changes(tmp_path):
    src = tmp_path / "pkgdir"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    (src / "b.py").write_text("y = 2\n")
    before = fingerprint_sources(src)
    assert before == fingerprint_sources(src)  # stable
    (src / "b.py").write_text("y = 3\n")
    assert fingerprint_sources(src) != before

