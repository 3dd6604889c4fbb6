"""Wire message codec.

Every payload exchanged with a device is one message, encoded as an opcode byte
followed by a fixed-width big-endian signed value:

    COMMAND      0x01  + int16   period in ms, negative means power off  (3 bytes)
    MEASUREMENT  0x10  + int32   sensor reading                          (5 bytes)
    STATUS       0x20  + uint8   state code 0=STANDBY 1=ACTIVE 2=OFF     (2 bytes)

Payloads are byte strings; viewed as bit sequences they are MSB-first, so the
three layouts are 24, 40 and 16 bits long. Encoding is injective and decode is
its exact inverse, which the tests pin down exhaustively for STATUS and by
sampling for the integer kinds.

Each layout is one `struct.Struct` compiled at import, used by both
directions. A Message is a named tuple: immutable, hashable and compared by
value. Decoding a STATUS payload returns one of three shared instances, so
the most common frame builds nothing.

`payload_kind` returns the kind a payload decodes as and builds no Message,
for a reader that only checks or tags a frame. It accepts exactly what
`decode_message` accepts: it looks the kind up by opcode and length in a
table built from the same layouts, checks a STATUS code against the same
shared instances, and hands every payload it does not accept to
`decode_message`, so each error and its text come from one place.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from enum import Enum

from .errors import TruncatedPayload, UnknownOpcode, ValueOutOfRange

OP_COMMAND = 0x01
OP_MEASUREMENT = 0x10
OP_STATUS = 0x20

COMMAND_MIN, COMMAND_MAX = -(2 ** 15), 2 ** 15 - 1
MEASUREMENT_MIN, MEASUREMENT_MAX = -(2 ** 31), 2 ** 31 - 1
STATUS_CODES = (0, 1, 2)


class MessageKind(Enum):
    COMMAND = OP_COMMAND
    MEASUREMENT = OP_MEASUREMENT
    STATUS = OP_STATUS


# A member read through its class goes through the enum metaclass's
# __getattr__ hook on Python 3.11, several times a global read; code that
# runs once a frame or more reads a module-level alias instead.
_STATUS = MessageKind.STATUS


# a kind's `codec` (a struct.Struct of the opcode byte and the value,
# big-endian) and its value's bounds `lo` and `hi`
_Layout = namedtuple("_Layout", "kind codec lo hi")


# opcode -> its layout; the codec's size is the encoded length, opcode
# byte included
_LAYOUTS = {
    OP_COMMAND: _Layout(MessageKind.COMMAND, struct.Struct(">Bh"),
                        COMMAND_MIN, COMMAND_MAX),
    OP_MEASUREMENT: _Layout(MessageKind.MEASUREMENT, struct.Struct(">Bi"),
                            MEASUREMENT_MIN, MEASUREMENT_MAX),
    OP_STATUS: _Layout(MessageKind.STATUS, struct.Struct(">BB"),
                       STATUS_CODES[0], STATUS_CODES[-1]),
}


class Message(namedtuple("Message", "kind value")):
    """One decoded message: a kind plus its signed integer value."""

    __slots__ = ()

    def __str__(self):
        return f"{self.kind.name}({self.value})"


_STATUSES = tuple(Message(MessageKind.STATUS, code) for code in STATUS_CODES)

# (opcode, encoded length) -> the kind of each payload shape that decodes
_KINDS = {(opcode, layout.codec.size): layout.kind
          for opcode, layout in _LAYOUTS.items()}
_STATUS_COUNT = len(_STATUSES)


def command(period_ms: int) -> Message:
    """Command carrying a sampling period in ms; negative powers the device off."""
    return Message(MessageKind.COMMAND, period_ms)


def measurement(reading: int) -> Message:
    return Message(MessageKind.MEASUREMENT, reading)


def status(code: int) -> Message:
    return Message(MessageKind.STATUS, code)


def encode_message(msg: Message) -> bytes:
    """Encode to wire payload. Raises ValueOutOfRange if the value does not fit."""
    kind, value = msg
    opcode = kind._value_  # not the `value` property: one runs per frame
    layout = _LAYOUTS[opcode]
    if not layout.lo <= value <= layout.hi:
        raise ValueOutOfRange(
            f"{kind.name} value {value} outside [{layout.lo}, {layout.hi}]"
        )
    return layout.codec.pack(opcode, value)


def decode_message(payload: bytes) -> Message:
    """Decode a wire payload back to a Message.

    Raises UnknownOpcode for an unrecognized first byte, TruncatedPayload when
    the length does not match the opcode's layout, and ValueOutOfRange for a
    STATUS byte outside the three defined codes. A STATUS decodes to one of
    the shared instances in `_STATUSES`.
    """
    try:
        kind, codec, _, _ = _LAYOUTS[payload[0]]
        value = codec.unpack(payload)[1]  # the codec checks the length
    except IndexError:
        raise TruncatedPayload("empty payload") from None
    except KeyError:
        raise UnknownOpcode(f"opcode 0x{payload[0]:02x}") from None
    except struct.error:
        raise TruncatedPayload(f"{kind.name} payload is {len(payload)} "
                               f"bytes, expected {codec.size}") from None
    if kind is _STATUS:
        if value >= len(_STATUSES):
            raise ValueOutOfRange(f"STATUS code {value} not in {STATUS_CODES}")
        return _STATUSES[value]
    # Message(kind, value) without the named tuple's Python-level __new__;
    # with the same in parse_record_line, 6% of lockstep-replay's frames/s
    return tuple.__new__(Message, (kind, value))


def payload_kind(payload: bytes) -> MessageKind:
    """The kind `decode_message(payload)` returns, with no Message built.

    Raises what `decode_message` raises, by calling it on every payload
    that does not decode.
    """
    try:
        kind = _KINDS[payload[0], len(payload)]
    except (IndexError, KeyError):
        return decode_message(payload).kind  # raises
    if kind is _STATUS and payload[1] >= _STATUS_COUNT:
        return decode_message(payload).kind  # raises
    return kind
