"""Prototype manifest: the recipe for standing up an emulated deployment.

A manifest is a plain INI file naming everything needed to rebuild a
deployment without its physical half: the reference documents, the exact
control software, and the state model the device is expected to obey. It is
data about construction, not a running thing; `validate_manifest` checks a
file is complete and self-consistent.

Sections:

    [template]   name, version
    [documents]  key = path   (design docs, interface notes, recordings)
    [software]   package, entry, fingerprint
    [model]      states, initial, terminal, codes

The recording document (key "recording") must point at a record file in the
interchange line format; it becomes the emulator's replay context, so it is
judged as the emulator judges it: readable, well formed, holding frames. The
fingerprint pins the control software: "any" skips the check, otherwise it
must match the installed package's source digest.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from pathlib import Path

from .errors import ConfigError, RecordingMissing
from .statemachine import BUILTIN_MACHINE, StateMachineDef
from .thread_log import load_checked_recordings

REQUIRED_SECTIONS = ("template", "documents", "software", "model")
RECORDING_KEY = "recording"
FINGERPRINT_ANY = "any"


class DigitalTemplate:
    """Parsed manifest plus the directory its relative paths resolve against."""

    def __init__(self, path, name, version, documents, software, model_raw):
        self.path = Path(path)
        self.base_dir = self.path.parent
        self.name = name
        self.version = version
        self.documents = documents  # key -> path string, as written
        self.software = software    # key -> value
        self.model_raw = model_raw  # key -> value

    def document_path(self, key) -> Path:
        p = Path(self.documents[key])
        return p if p.is_absolute() else self.base_dir / p

    def machine(self) -> StateMachineDef:
        return machine_from_raw(self.model_raw)


def machine_from_raw(raw) -> StateMachineDef:
    try:
        states = tuple(s.strip() for s in raw["states"].split(",") if s.strip())
        terminal = tuple(s.strip() for s in raw["terminal"].split(",") if s.strip())
        codes = tuple(
            (pair.split("=")[0].strip(), int(pair.split("=")[1]))
            for pair in raw["codes"].split(",") if pair.strip()
        )
        return StateMachineDef(states=states, initial=raw["initial"].strip(),
                               terminal=terminal, codes=codes)
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad model section: {exc}") from None


def load_template(path) -> DigitalTemplate:
    """The manifest at `path`. Anything that stops it being read is a
    ConfigError: a file that cannot be opened, bytes that are not UTF-8, or
    a bad `%` reference, which fails only when the value is read."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in REQUIRED_SECTIONS:
            if not parser.has_section(section):
                raise ConfigError(f"missing section: {section}")
        tpl = parser["template"]
        return DigitalTemplate(
            path,
            name=tpl.get("name", ""),
            version=tpl.get("version", ""),
            documents=dict(parser["documents"]),
            software=dict(parser["software"]),
            model_raw=dict(parser["model"]),
        )
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"unparseable manifest: {exc}") from None


def fingerprint_sources(root) -> str:
    """Order-independent digest of every Python source under `root`."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def fingerprint_installed() -> str:
    return fingerprint_sources(Path(__file__).parent)


def validate_manifest(path) -> list:
    """Every problem with the manifest, as stable machine-checkable strings.

    An empty list means the manifest is fit to assemble a prototype from.
    """
    problems = []
    try:
        tpl = load_template(path)
    except ConfigError as exc:
        return [f"parse-error: {exc}"]

    if not tpl.name:
        problems.append("empty-field: template.name")
    if not tpl.documents:
        problems.append("no-documents: [documents] lists nothing")
    for key in tpl.documents:
        doc = tpl.document_path(key)
        if not os.path.isfile(doc):  # False for a path the OS refuses too
            problems.append(f"missing-document: {key} -> {doc}")
        elif key == RECORDING_KEY:
            try:  # judged as the emulator would judge it
                load_checked_recordings(doc)
            except RecordingMissing as exc:
                problems.append(f"bad-recording: {exc}")

    for key in ("package", "entry"):
        if not tpl.software.get(key, "").strip():
            problems.append(f"empty-software-ref: {key}")
    entry = tpl.software.get("entry", "")
    if entry and ":" not in entry:
        problems.append(f"bad-software-ref: entry must be module:callable, "
                        f"got {entry!r}")
    printed = tpl.software.get("fingerprint", FINGERPRINT_ANY).strip()
    if printed and printed != FINGERPRINT_ANY:
        actual = fingerprint_installed()
        if printed != actual:
            problems.append(f"fingerprint-mismatch: manifest {printed[:12]}.. "
                            f"installed {actual[:12]}..")

    try:
        machine = tpl.machine()
    except ConfigError as exc:
        problems.append(f"bad-model: {exc}")
    else:
        if machine != BUILTIN_MACHINE:
            problems.append(f"model-mismatch: {machine} != {BUILTIN_MACHINE}")
    return problems


def write_manifest(path, name, recording_path, extra_documents=None,
                   fingerprint=FINGERPRINT_ANY, version="1"):
    """Render a valid manifest for the built-in model and given recording."""
    parser = configparser.ConfigParser()
    parser["template"] = {"name": name, "version": version}
    docs = {RECORDING_KEY: str(recording_path)}
    docs.update(extra_documents or {})
    parser["documents"] = docs
    parser["software"] = {
        "package": "twinproto",
        "entry": "twinproto.control:assemble_plant",
        "fingerprint": fingerprint,
    }
    m = BUILTIN_MACHINE
    parser["model"] = {
        "states": ",".join(m.states),
        "initial": m.initial,
        "terminal": ",".join(m.terminal),
        "codes": ",".join(f"{n}={c}" for n, c in m.codes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path

