"""Plant state machine and twin state.

The device (and its digital model) is a three-state machine over signed
integer command values:

    value > 0   -> ACTIVE    (sampling at `value` ms)
    value == 0  -> STANDBY
    value < 0   -> OFF       (power down)

OFF is terminal: once entered, no command leaves it. The commanded period is
tracked alongside the state and updates on every command, even when the state
is stuck in OFF.

Events are processed in two modes. COMMAND events run the transition function
above. STATUS events carry an externally observed state and set it directly,
which is the one way out of OFF (the observation wins over the model's own
absorption). MEASUREMENT events carry sensor data, not state, and are
rejected.

State codes on the wire are the IntEnum values: STANDBY=0, ACTIVE=1, OFF=2.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum

from .errors import KindRejected
from .messages import Message, MessageKind


class State(IntEnum):
    STANDBY = 0
    ACTIVE = 1
    OFF = 2


TERMINAL_STATES = frozenset({State.OFF})

# wire code -> State, indexed as messages._STATUSES is: no Enum call
STATE_OF_CODE = tuple(State)

# read once an event (see messages._STATUS)
_STANDBY, _ACTIVE, _OFF = State.STANDBY, State.ACTIVE, State.OFF
_COMMAND, _STATUS = MessageKind.COMMAND, MessageKind.STATUS


def transition(state: State, value: int) -> State:
    """One COMMAND transition. Total on non-terminal states; OFF absorbs."""
    if state in TERMINAL_STATES:
        return _OFF
    if value > 0:
        return _ACTIVE
    if value == 0:
        return _STANDBY
    return _OFF


class TwinState(namedtuple("TwinState", "current period",
                           defaults=(State.STANDBY, 0))):
    """Immutable snapshot of the modeled device: state plus commanded period."""

    __slots__ = ()


def process_event(ts: TwinState, msg: Message) -> TwinState:
    """Apply one message to a twin state, returning the successor state.

    COMMAND: transition on the signed value; period always becomes the value.
    STATUS: set the state to the observed code directly (may leave OFF).
    MEASUREMENT: raises KindRejected.
    """
    kind = msg.kind
    if kind is _COMMAND:
        return TwinState(transition(ts.current, msg.value), msg.value)
    if kind is _STATUS:
        return ts._replace(current=State(msg.value))
    raise KindRejected(f"state machine does not process {msg.kind.name}")


def fold_commands(values, start: TwinState | None = None) -> TwinState:
    """Run a whole command sequence from `start` (default: fresh STANDBY)."""
    ts = start if start is not None else TwinState()
    for v in values:
        ts = process_event(ts, Message(MessageKind.COMMAND, v))
    return ts


class StateMachineDef(namedtuple("StateMachineDef",
                                 "states initial terminal codes")):
    """Declarative descriptor of the machine, for manifests and validation."""

    __slots__ = ()


BUILTIN_MACHINE = StateMachineDef(
    states=tuple(s.name for s in State),
    initial=State.STANDBY.name,
    terminal=tuple(s.name for s in TERMINAL_STATES),
    codes=tuple((s.name, int(s)) for s in State),
)
