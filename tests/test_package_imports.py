"""The package loads a module only when something uses it.

An isolated run's plant process imports the plant, and nothing of the
harness that starts it: `twinproto/__init__.py` resolves its exported
names on first use instead of importing the harness up front. The child
starts without `site`, and the plant's classes need no `dataclasses`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

import twinproto
from twinproto import harness
from twinproto.messages import decode_message, status
from twinproto.transport import SocketEndpoint, loopback_pair

# modules the plant process never runs
NOT_IN_THE_PLANT = ("harness", "config", "mapek", "bus", "cli", "template")


def imported_modules(argv, env, stdin_text="", pass_fds=()):
    """Every module the process `argv` imports while it runs, given
    `stdin_text` on its standard input and the descriptors `pass_fds`, read
    from the interpreter's own import-time report on standard error."""
    proc = subprocess.run(argv, env=dict(env, PYTHONPROFILEIMPORTTIME="1"),
                          input=stdin_text, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, pass_fds=pass_fds,
                          text=True, timeout=60)
    return proc, {line.rsplit("|", 1)[1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and "|" in line}


def test_the_report_shows_site_where_an_interpreter_loads_it():
    _, loaded = imported_modules([sys.executable, "-c", "pass"], os.environ)
    assert "site" in loaded


def test_the_plant_process_imports_only_the_plant():
    # the child's own command line, run to its end on the two link ends it
    # inherits: it says it is ready, serves the boot status and stops at
    # the hang-up, without PYTHONPATH
    (up, up_far), (down, down_far) = loopback_pair(), loopback_pair()
    fds = (up_far.fileno(), down_far.fileno())
    opts = {"duration_ms": 1000, "up_fd": fds[0], "down_fd": fds[1],
            "measurements": [], "recording": None, "link_capacity": 16}
    argv = harness._plant_process_argv()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    box = {}
    child = threading.Thread(
        target=lambda: box.update(
            run=imported_modules(argv, env, json.dumps(opts), fds)))
    child.start()
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
    proc, loaded = box["run"]
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "."  # the ready byte, then EOF at its exit
    assert "twinproto.control" in loaded
    assert sorted(loaded & {"site", "dataclasses"}) == []
    assert sorted(loaded & {f"twinproto.{name}"
                            for name in NOT_IN_THE_PLANT}) == []


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
