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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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

    @property
    def opcode(self) -> int:
        return self.value


# struct formats per kind; opcode byte is packed alongside the value
_LAYOUT = {
    MessageKind.COMMAND: ">Bh",
    MessageKind.MEASUREMENT: ">Bi",
    MessageKind.STATUS: ">BB",
}

_RANGE = {
    MessageKind.COMMAND: (COMMAND_MIN, COMMAND_MAX),
    MessageKind.MEASUREMENT: (MEASUREMENT_MIN, MEASUREMENT_MAX),
    MessageKind.STATUS: (0, 2),
}

_OPCODE_TO_KIND = {k.opcode: k for k in MessageKind}

# encoded payload length per opcode, opcode byte included
ENCODED_LENGTH = {
    OP_COMMAND: 3,
    OP_MEASUREMENT: 5,
    OP_STATUS: 2,
}


@dataclass(frozen=True)
class Message:
    """One decoded message: a kind plus its signed integer value."""

    kind: MessageKind
    value: int

    def __str__(self):
        return f"{self.kind.name}({self.value})"


def command(period_ms: int) -> Message:
    """Command carrying a sampling period in ms; negative powers the device off."""
    return Message(MessageKind.COMMAND, period_ms)


def measurement(reading: int) -> Message:
    return Message(MessageKind.MEASUREMENT, reading)


def status(code: int) -> Message:
    return Message(MessageKind.STATUS, code)


def encode_message(msg: Message) -> bytes:
    """Encode to wire payload. Raises ValueOutOfRange if the value does not fit."""
    lo, hi = _RANGE[msg.kind]
    if not lo <= msg.value <= hi:
        raise ValueOutOfRange(
            f"{msg.kind.name} value {msg.value} outside [{lo}, {hi}]"
        )
    return struct.pack(_LAYOUT[msg.kind], msg.kind.opcode, msg.value)


def decode_message(payload: bytes) -> Message:
    """Decode a wire payload back to a Message.

    Raises UnknownOpcode for an unrecognized first byte, TruncatedPayload when
    the length does not match the opcode's layout, and ValueOutOfRange for a
    STATUS byte outside the three defined codes.
    """
    if len(payload) == 0:
        raise TruncatedPayload("empty payload")
    opcode = payload[0]
    kind = _OPCODE_TO_KIND.get(opcode)
    if kind is None:
        raise UnknownOpcode(f"opcode 0x{opcode:02x}")
    want = ENCODED_LENGTH[opcode]
    if len(payload) != want:
        raise TruncatedPayload(
            f"{kind.name} payload is {len(payload)} bytes, expected {want}"
        )
    _, value = struct.unpack(_LAYOUT[kind], payload)
    if kind is MessageKind.STATUS and value not in STATUS_CODES:
        raise ValueOutOfRange(f"STATUS code {value} not in {STATUS_CODES}")
    return Message(kind, value)

