"""twinproto: a digital-twin prototyping harness.

Runs the same embedded control stack against a real (software) sensor or a
recording-fed emulator, attaches shadow or twin services over a framed link,
records every exchanged frame into a replayable thread file, and drives whole
scenarios either free-running or under a deterministic lockstep scheduler.
"""

from .config import RunConfig, Scenario, load_config, load_scenario
from .harness import (ReplayResult, SessionResult, record_session,
                      replay_thread, run_scenario, run_suite)
from .runtime import ClockMode, make_runtime
from .statemachine import State

__version__ = "0.1.0"

__all__ = [
    "ClockMode",
    "ReplayResult",
    "RunConfig",
    "Scenario",
    "SessionResult",
    "State",
    "load_config",
    "load_scenario",
    "make_runtime",
    "record_session",
    "replay_thread",
    "run_scenario",
    "run_suite",
    "__version__",
]
