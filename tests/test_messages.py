"""Codec tests: frozen wire vectors, inverse property, error taxonomy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinproto.errors import TruncatedPayload, UnknownOpcode, ValueOutOfRange
from twinproto.messages import (
    COMMAND_MAX,
    COMMAND_MIN,
    MEASUREMENT_MAX,
    MEASUREMENT_MIN,
    STATUS_CODES,
    Message,
    MessageKind,
    command,
    decode_message,
    encode_message,
    measurement,
    payload_kind,
    status,
)

# Hand-derived wire bytes. Big-endian, opcode first; int16 for commands,
# int32 for measurements, one status byte.
FROZEN_VECTORS = [
    (command(50), b"\x01\x00\x32"),
    (command(0), b"\x01\x00\x00"),
    (command(-1), b"\x01\xff\xff"),
    (command(COMMAND_MIN), b"\x01\x80\x00"),
    (command(COMMAND_MAX), b"\x01\x7f\xff"),
    (measurement(42), b"\x10\x00\x00\x00\x2a"),
    (measurement(-1), b"\x10\xff\xff\xff\xff"),
    (measurement(MEASUREMENT_MIN), b"\x10\x80\x00\x00\x00"),
    (measurement(MEASUREMENT_MAX), b"\x10\x7f\xff\xff\xff"),
    (status(0), b"\x20\x00"),
    (status(1), b"\x20\x01"),
    (status(2), b"\x20\x02"),
]


@pytest.mark.parametrize("msg,wire", FROZEN_VECTORS)
def test_frozen_encodings(msg, wire):
    assert encode_message(msg) == wire


@pytest.mark.parametrize("msg,wire", FROZEN_VECTORS)
def test_frozen_decodings(msg, wire):
    assert decode_message(wire) == msg
    assert payload_kind(wire) is msg.kind


def test_payload_bit_lengths():
    # 24 / 40 / 16 bits for command / measurement / status
    assert len(encode_message(command(1))) * 8 == 24
    assert len(encode_message(measurement(1))) * 8 == 40
    assert len(encode_message(status(1))) * 8 == 16


def random_message(rng):
    kind = rng.choice(list(MessageKind))
    if kind is MessageKind.COMMAND:
        return command(rng.randint(COMMAND_MIN, COMMAND_MAX))
    if kind is MessageKind.MEASUREMENT:
        return measurement(rng.randint(MEASUREMENT_MIN, MEASUREMENT_MAX))
    return status(rng.randint(0, 2))


def test_decode_is_inverse_of_encode():
    rng = random.Random(0xC0DEC)
    for _ in range(5000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_encoding_is_injective_on_sample():
    rng = random.Random(7)
    msgs = {random_message(rng) for _ in range(3000)}
    encodings = {encode_message(m) for m in msgs}
    assert len(encodings) == len(msgs)


def test_exactly_three_status_payloads_decode():
    ok = []
    for b in range(256):
        try:
            decode_message(bytes([0x20, b]))
            ok.append(b)
        except ValueOutOfRange:
            pass
    assert ok == [0, 1, 2]


def test_unknown_opcode():
    with pytest.raises(UnknownOpcode):
        decode_message(b"\x7f")
    with pytest.raises(UnknownOpcode):
        decode_message(b"\x00\x00\x00")


def test_truncated_and_overlong_payloads():
    with pytest.raises(TruncatedPayload):
        decode_message(b"")
    with pytest.raises(TruncatedPayload):
        decode_message(b"\x01\x00")
    with pytest.raises(TruncatedPayload):
        decode_message(b"\x01\x00\x32\x00")
    with pytest.raises(TruncatedPayload):
        decode_message(b"\x10\x00\x00\x2a")
    with pytest.raises(TruncatedPayload):
        decode_message(b"\x20")


def test_value_range_enforced_on_encode():
    with pytest.raises(ValueOutOfRange):
        encode_message(command(COMMAND_MAX + 1))
    with pytest.raises(ValueOutOfRange):
        encode_message(command(COMMAND_MIN - 1))
    with pytest.raises(ValueOutOfRange):
        encode_message(measurement(MEASUREMENT_MAX + 1))
    with pytest.raises(ValueOutOfRange):
        encode_message(status(3))
    with pytest.raises(ValueOutOfRange):
        encode_message(status(-1))


def test_message_is_value_type():
    assert command(5) == Message(MessageKind.COMMAND, 5)
    assert command(5) != command(6)
    assert str(status(2)) == "STATUS(2)"


# ---------------------------------------------------------------------------
# properties over the whole value range and every short payload
# ---------------------------------------------------------------------------

FULL_RANGE = {
    "command": st.builds(command, st.integers(COMMAND_MIN, COMMAND_MAX)),
    "measurement": st.builds(measurement,
                             st.integers(MEASUREMENT_MIN, MEASUREMENT_MAX)),
    "status": st.builds(status, st.sampled_from(STATUS_CODES)),
}


@pytest.mark.parametrize("kind", sorted(FULL_RANGE))
def test_decode_inverts_encode_over_each_kinds_full_range(kind):
    @given(FULL_RANGE[kind])
    def roundtrip(msg):
        assert decode_message(encode_message(msg)) == msg

    roundtrip()


def reference_error(payload):
    """The error class the codec has always raised for `payload`, or None."""
    lengths = {0x01: 3, 0x10: 5, 0x20: 2}
    if not payload:
        return TruncatedPayload
    if payload[0] not in lengths:
        return UnknownOpcode
    if len(payload) != lengths[payload[0]]:
        return TruncatedPayload
    if payload[0] == 0x20 and payload[1] > 2:
        return ValueOutOfRange
    return None


def test_every_short_payload_fails_with_the_same_error_class():
    for first in range(256):
        for length in range(7):
            for fill in (0x00, 0x02, 0x03, 0xff):
                payload = bytes([first]) + bytes([fill]) * (length - 1) \
                    if length else b""
                want = reference_error(payload)
                try:
                    decode_message(payload)
                    got = None
                except (TruncatedPayload, UnknownOpcode,
                        ValueOutOfRange) as exc:
                    got = type(exc)
                assert got is want, payload


def test_statuses_decode_to_shared_instances():
    for code in STATUS_CODES:
        wire = encode_message(status(code))
        assert decode_message(wire) is decode_message(bytes(wire))
        assert decode_message(wire) == status(code)


def test_messages_are_immutable_hashable_values():
    with pytest.raises(AttributeError):
        status(1).value = 2
    assert len({status(1), status(1), decode_message(b"\x20\x01")}) == 1
    assert str(status(1)) == "STATUS(1)"
    assert repr(command(5)) == \
        "Message(kind=<MessageKind.COMMAND: 1>, value=5)"


# ---------------------------------------------------------------------------
# payload_kind: the kind without the Message, accepting what decode accepts
# ---------------------------------------------------------------------------

def kind_outcome(read_kind, payload):
    """The kind `read_kind(payload)` returns, or its error's type and text."""
    try:
        return read_kind(payload)
    except (TruncatedPayload, UnknownOpcode, ValueOutOfRange) as exc:
        return type(exc), str(exc)


def assert_payload_kind_agrees_with_decode(payload):
    assert kind_outcome(payload_kind, payload) == \
        kind_outcome(lambda p: decode_message(p).kind, payload), payload


def test_payload_kind_agrees_with_decode_at_every_opcode_and_short_length():
    for first in range(256):
        for length in range(7):
            for fill in (0x00, 0x02, 0x03, 0xff):
                assert_payload_kind_agrees_with_decode(
                    bytes([first]) + bytes([fill]) * (length - 1)
                    if length else b"")


def test_payload_kind_agrees_with_decode_on_every_status_code_byte():
    accepted = []
    for code in range(256):
        payload = bytes([0x20, code])
        assert_payload_kind_agrees_with_decode(payload)
        if kind_outcome(payload_kind, payload) is MessageKind.STATUS:
            accepted.append(code)
    assert accepted == list(STATUS_CODES)


# any bytes, and any bytes after a known opcode, so that payloads which
# decode are drawn often too
ANY_PAYLOAD = st.binary(max_size=8) | st.builds(
    lambda op, tail: bytes([op]) + tail,
    st.sampled_from([kind.value for kind in MessageKind]),
    st.binary(max_size=6))


@given(ANY_PAYLOAD)
def test_payload_kind_agrees_with_decode_on_any_bytes(payload):
    assert_payload_kind_agrees_with_decode(payload)
