"""The package loads a module only when something uses it.

An isolated run's plant process imports the plant, and nothing of the
harness that starts it: `twinproto/__init__.py` resolves its exported
names on first use instead of importing the harness up front. The child
starts without `site`, the plant's classes need neither `dataclasses` nor
`typing`, and the child reads its options as `marshal` bytes, not JSON. It runs the package
modules' code that the parent compiled and sends it, so it compiles none of
them and writes no bytecode file, and its tracebacks still name the real
source.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import twinproto
from twinproto import control, harness
from twinproto.config import parse_scenario
from twinproto.messages import decode_message, status
from twinproto.transport import SocketEndpoint, loopback_pair

# modules the plant process never runs
NOT_IN_THE_PLANT = ("harness", "config", "mapek", "bus", "cli", "template")

# a descriptor the child never has open: it inherits only 0-2 and pass_fds
NOT_OPEN_FD = 1000


def imported_modules(argv, env, stdin=b"", pass_fds=()):
    """Every module the process `argv` imports while it runs, given the
    bytes `stdin` on its standard input and the descriptors `pass_fds`,
    read from the interpreter's own import-time report on standard error."""
    proc = subprocess.run(argv, env=dict(env, PYTHONPROFILEIMPORTTIME="1"),
                          input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, pass_fds=pass_fds,
                          timeout=60)
    return proc, {line.rsplit("|", 1)[1].strip()
                  for line in proc.stderr.decode().splitlines()
                  if line.startswith("import time:") and "|" in line}


def plant_input(up_fd, down_fd):
    """The bytes the parent writes on the child's standard input for a
    one-second wall twin on the link ends `up_fd` and `down_fd`."""
    sc = parse_scenario({"name": "child", "mode": "twin", "clock": "wall",
                         "duration_ms": 1000, "steps": []})
    return harness._plant_process_input(sc, up_fd, down_fd, 16)


def run_the_plant_process(env):
    """The child's own command line, run to its end under `env` on the two
    link ends it inherits: it says it is ready, serves the boot status and
    stops at the hang-up. Returns `imported_modules`' pair."""
    (up, up_far), (down, down_far) = loopback_pair(), loopback_pair()
    fds = (up_far.fileno(), down_far.fileno())
    box = {}
    child = threading.Thread(
        target=lambda: box.update(run=imported_modules(
            harness._plant_process_argv(), env, plant_input(*fds), fds)))
    child.start()
    up.settimeout(30.0)  # a child that dies first fails the test, no hang
    up, down = SocketEndpoint(up), SocketEndpoint(down)
    try:
        assert decode_message(up.read_frame()) == status(0)
    finally:
        up.close()
        down.close()
        child.join(timeout=60.0)
        up_far.close()
        down_far.close()
    assert not child.is_alive()
    return box["run"]


def test_the_report_shows_site_where_an_interpreter_loads_it():
    _, loaded = imported_modules([sys.executable, "-c", "pass"], os.environ)
    assert "site" in loaded


def test_the_plant_process_imports_only_the_plant():
    # without PYTHONPATH: the child finds the package through its command
    # line, and its code on its standard input
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc, loaded = run_the_plant_process(env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"."  # the ready byte, then EOF at its exit
    assert "twinproto.control" in loaded
    assert sorted(loaded & {"site", "dataclasses", "json", "typing"}) == []
    assert sorted(loaded & {f"twinproto.{name}"
                            for name in NOT_IN_THE_PLANT}) == []
    # every package module it runs is one whose code the parent sent, so
    # a module added to the plant cannot fall back to compiling its source
    assert {name for name in loaded
            if name.partition(".")[0] == "twinproto"} == \
        set(harness._PLANT_MODULES)


def test_a_plant_process_traceback_names_the_real_source():
    # options naming descriptors the child does not have: it fails on its
    # first line that wraps one, and the traceback shows that line of the
    # file the parent compiled
    path = Path(control.__file__).resolve()
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, 1)
                  if 'fileno=opts["up_fd"]' in line)
    proc = subprocess.run(harness._plant_process_argv(),
                          input=plant_input(NOT_OPEN_FD, NOT_OPEN_FD),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode != 0
    assert proc.stdout == b""  # it never said it was ready
    assert (f'  File "{path}", line {lineno}, in plant_process_main\n'
            f"    {lines[lineno - 1].strip()}\n") in err, err
    assert "Bad file descriptor" in err


def test_the_plant_process_writes_no_bytecode_for_the_package(tmp_path):
    # where writing bytecode is allowed, the child's package modules are
    # still not compiled, so no cache file of theirs appears; the standard
    # library may cache its own
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    proc, _ = run_the_plant_process(env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert [p for p in tmp_path.rglob("*") if "twinproto" in p.name] == []


@pytest.mark.parametrize("name", twinproto.__all__)
def test_every_export_is_its_defining_modules_object(name):
    value = getattr(twinproto, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("twinproto.")
    assert getattr(module, name) is value
    assert getattr(twinproto, name) is value  # the second lookup too


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinproto.no_such_name
    assert not hasattr(twinproto, "no_such_name")
