"""Independent reference for one record line of a thread file.

The split/partition reader the package shipped before its one-pattern reader,
kept as an oracle and deliberately written without importing the package under
test: directions and kinds are plain strings and the payload rules of the wire
codec are spelled out long-hand. Used to check that the package's reader
accepts exactly the same lines and returns the same fields.
"""

U64_MAX = 2 ** 64 - 1

DIRECTIONS = ("PT2DT", "DT2PT")
KINDS = ("CMD", "MEA", "STA", "RAW", "NOTE")
# the kinds a frame may be tagged with in each direction, RAW and NOTE aside
DIRECTION_KINDS = {"PT2DT": ("MEA", "STA"), "DT2PT": ("CMD",)}
# opcode -> (tag, encoded length with the opcode byte)
OPCODES = {0x01: ("CMD", 3), 0x10: ("MEA", 5), 0x20: ("STA", 2)}
STATUS_CODES = (0, 1, 2)
FRAME_TAGS = ("CMD", "MEA", "STA")  # the kinds whose payload must decode


class Rejected(Exception):
    """A line the reference refuses; `seq` is the line's seq if it parsed,
    else the line number it was given. `clash` marks a direction/kind clash,
    which the old reader raised without any seq."""

    def __init__(self, why, seq, clash=False):
        super().__init__(why)
        self.seq = seq
        self.clash = clash


def _check_payload(payload, kind):
    """The codec's decode checks, then the tag check."""
    if len(payload) == 0:
        raise ValueError("empty payload")
    if payload[0] not in OPCODES:
        raise ValueError(f"opcode 0x{payload[0]:02x}")
    tag, length = OPCODES[payload[0]]
    if len(payload) != length:
        raise ValueError(f"{tag} payload is {len(payload)} bytes")
    if tag == "STA" and payload[1] not in STATUS_CODES:
        raise ValueError(f"STATUS code {payload[1]}")
    if tag != kind:
        raise ValueError(f"payload decodes as {tag}, tagged {kind}")


def ref_parse_line(line, lineno=None):
    """(seq, ts, dir, kind, payload) for an accepted line; else Rejected."""
    text = line.rstrip("\n")
    parts = text.split(" ")
    seq_guess = lineno
    try:
        if len(parts) != 5:
            raise ValueError(f"expected 5 fields, got {len(parts)}")
        fields = {}
        for part, want in zip(parts, ("seq", "ts", "dir", "kind", "hex")):
            key, _, value = part.partition("=")
            if key != want:
                raise ValueError(f"expected field {want}, got {key!r}")
            fields[want] = value
        seq = int(fields["seq"])
        seq_guess = seq
        ts = int(fields["ts"])
        if not (1 <= seq <= U64_MAX) or not (0 <= ts <= U64_MAX):
            raise ValueError("seq/ts out of u64 range")
        direction = fields["dir"]
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        kind = fields["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        payload = bytes.fromhex(fields["hex"])
        if kind in FRAME_TAGS:
            if kind not in DIRECTION_KINDS[direction]:
                raise Rejected(f"{direction} record cannot carry {kind}",
                               seq_guess, clash=True)
            _check_payload(payload, kind)
        return seq, ts, direction, kind, payload
    except ValueError as exc:
        raise Rejected(str(exc), seq_guess) from None
