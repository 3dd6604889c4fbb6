"""Fixtures and settings every test in this directory runs under."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time

import pytest

LEAK_GRACE_S = 2.0

# Every property test runs under this one profile: the same examples on every
# run, no per-example deadline on a loaded host, and a fixed budget. Without
# hypothesis only the modules that import it fail to collect.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("twinproto", derandomize=True, deadline=None,
                              max_examples=150, database=None)
    settings.load_profile("twinproto")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread alive LEAK_GRACE_S after it ends."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        leaked = [t.name for t in threading.enumerate()
                  if t not in before and t.is_alive()]
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    if leaked:
        pytest.fail(f"threads alive {LEAK_GRACE_S} s after the test: "
                    f"{', '.join(leaked)}")


def _running(pid) -> bool:
    """True while `pid`, a child of this process, has not exited; a child
    that has is reaped here."""
    try:
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:  # reaped already
        return False


@pytest.fixture(autouse=True)
def no_leaked_processes(monkeypatch):
    """Fail a test that leaves a process it started with `subprocess.Popen`
    (which `subprocess.run` uses) or `os.fork` (which an isolated run
    uses) running LEAK_GRACE_S after it ends, and kill that process. Only
    pids are kept, so no `Popen` or pipe of the test's outlives it here."""
    pids = []
    init, fork = subprocess.Popen.__init__, os.fork

    def init_and_keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pids.append(self.pid)

    def fork_and_keep():
        pid = fork()
        if pid:  # the child keeps nothing
            pids.append(pid)
        return pid

    monkeypatch.setattr(subprocess.Popen, "__init__", init_and_keep)
    monkeypatch.setattr(os, "fork", fork_and_keep)
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        running = [pid for pid in pids if _running(pid)]
        if not running or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    for pid in running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if running:
        pytest.fail(f"processes running {LEAK_GRACE_S} s after the test: "
                    f"{', '.join(map(str, running))}")
