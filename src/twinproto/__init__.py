"""twinproto: a digital-twin prototyping harness.

Runs the same embedded control stack against a real (software) sensor or a
recording-fed emulator, attaches shadow or twin services over a framed link,
records every exchanged frame into a replayable thread file, and drives whole
scenarios either free-running or under a deterministic lockstep scheduler.

The names below are loaded from their submodules on first use, so importing
one submodule loads only what that submodule needs: the isolated plant's
process imports the plant and never the harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "ClockMode": "runtime",
    "ReplayResult": "harness",
    "RunConfig": "config",
    "Scenario": "config",
    "SessionResult": "harness",
    "State": "statemachine",
    "load_config": "config",
    "load_scenario": "config",
    "make_runtime": "runtime",
    "record_session": "harness",
    "replay_thread": "harness",
    "run_scenario": "harness",
    "run_suite": "harness",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
