"""Fixtures and settings every test in this directory runs under."""

from __future__ import annotations

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
