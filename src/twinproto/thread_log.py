"""Digital thread: the append-only record of everything the twin exchanged.

One record per frame that crossed the twin link, plus non-frame annotations.
Line format (single spaces, newline-terminated, hex lowercase, no 0x):

    seq=<u64> ts=<u64> dir=<PT2DT|DT2PT> kind=<CMD|MEA|STA|RAW|NOTE> hex=<bytes>

seq starts at 1 and increases strictly; ts is monotonic nanoseconds on the
wall clock or the logical tick under lockstep. Direction constrains the frame
kinds: PT2DT carries measurements and statuses, DT2PT carries commands. Two
extra kinds extend the grammar without breaking it: RAW is a frame that failed
to decode (payload preserved verbatim), NOTE is an annotation such as a gate
rejection (text is utf-8, hex-encoded). NOTE records are not frames and are
excluded from frame counts.

A ThreadLog has exactly one writer; taps on both directions funnel into it and
appends are serialized. It keeps a running frame count per direction, so
reading the counts costs the same however long the record is.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from .errors import CodecError, CorruptRecord, DirectionKindMismatch
from .messages import Message, MessageKind, decode_message, encode_message

U64_MAX = 2 ** 64 - 1


class ThreadDirection(Enum):
    PT2DT = "PT2DT"
    DT2PT = "DT2PT"


KIND_TAG = {
    MessageKind.COMMAND: "CMD",
    MessageKind.MEASUREMENT: "MEA",
    MessageKind.STATUS: "STA",
}
TAG_KIND = {v: k for k, v in KIND_TAG.items()}

FRAME_KINDS = ("CMD", "MEA", "STA", "RAW")
ALL_KINDS = FRAME_KINDS + ("NOTE",)

# which decoded message kinds may travel in which direction
DIRECTION_KINDS = {
    ThreadDirection.PT2DT: ("MEA", "STA"),
    ThreadDirection.DT2PT: ("CMD",),
}


@dataclass(frozen=True)
class ThreadRecord:
    seq: int
    ts: int
    direction: ThreadDirection
    kind: str
    payload: bytes

    @property
    def is_frame(self):
        return self.kind in FRAME_KINDS

    def message(self):
        """Decode frame records back to a Message (None for RAW/NOTE)."""
        if self.kind in TAG_KIND:
            return decode_message(self.payload)
        return None

    def format_line(self) -> str:
        return (
            f"seq={self.seq} ts={self.ts} dir={self.direction.value} "
            f"kind={self.kind} hex={self.payload.hex()}\n"
        )


def _check_direction(direction, kind_tag):
    if kind_tag in ("RAW", "NOTE"):
        return
    if kind_tag not in DIRECTION_KINDS[direction]:
        raise DirectionKindMismatch(
            f"{direction.value} record cannot carry {kind_tag}"
        )


def _parse_line(line, lineno=None):
    """(record, its decoded Message or None for RAW/NOTE) for one line."""
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
        direction = ThreadDirection(fields["dir"])
        kind = fields["kind"]
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        payload = bytes.fromhex(fields["hex"])
        _check_direction(direction, kind)
        msg = None
        if kind in TAG_KIND:
            msg = decode_message(payload)  # must decode as its tagged kind
            if KIND_TAG[msg.kind] != kind:
                raise ValueError(f"payload decodes as {msg.kind.name}, tagged {kind}")
        return ThreadRecord(seq, ts, direction, kind, payload), msg
    except DirectionKindMismatch:
        raise
    except (ValueError, CodecError) as exc:
        raise CorruptRecord(f"bad record line: {exc}", seq=seq_guess) from None


def parse_record_line(line, lineno=None) -> ThreadRecord:
    """Parse one record line; raises CorruptRecord with the seq (or line no)."""
    return _parse_line(line, lineno)[0]


class ThreadLog:
    """Single-writer append-only store, optionally persisted line-by-line."""

    def __init__(self, path=None):
        self._lock = threading.Lock()
        self._records = []
        self._frames = {d: 0 for d in ThreadDirection}
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self.path = path

    def _append(self, ts, direction, kind, payload) -> ThreadRecord:
        with self._lock:
            rec = ThreadRecord(len(self._records) + 1, ts, direction, kind,
                               payload)
            self._records.append(rec)
            if rec.is_frame:
                self._frames[direction] += 1
            if self._fh is not None:
                self._fh.write(rec.format_line())
                self._fh.flush()
        return rec

    def append_message(self, ts, direction, msg: Message) -> ThreadRecord:
        tag = KIND_TAG[msg.kind]
        _check_direction(direction, tag)
        return self._append(ts, direction, tag, encode_message(msg))

    def append_raw(self, ts, direction, payload: bytes) -> ThreadRecord:
        return self._append(ts, direction, "RAW", payload)

    def append_note(self, ts, text: str,
                    direction=ThreadDirection.DT2PT) -> ThreadRecord:
        return self._append(ts, direction, "NOTE", text.encode("utf-8"))

    @property
    def records(self):
        with self._lock:
            return list(self._records)

    def frame_counts(self):
        with self._lock:
            return dict(self._frames)

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _parse_file(path):
    """Yield (record, Message or None) per line of a whole thread file, seq
    strictly increasing; each payload is decoded once."""
    last_seq = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec, msg = _parse_line(line, lineno=lineno)
            if rec.seq <= last_seq:
                raise CorruptRecord(
                    f"seq {rec.seq} not increasing after {last_seq}", seq=rec.seq
                )
            last_seq = rec.seq
            yield rec, msg


def read_thread_file(path):
    """Load and validate a whole thread file (strictly increasing seq)."""
    return [rec for rec, _ in _parse_file(path)]


def load_recordings(path):
    """Emulator recordings: the MEA and STA Messages of a file, in order."""
    return [msg for rec, msg in _parse_file(path)
            if rec.kind in ("MEA", "STA")]


def write_recording_file(records, path):
    """Persist the PT2DT-filtered view of a thread as an emulator recording."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            if rec.direction is ThreadDirection.PT2DT and rec.is_frame:
                n += 1
                fh.write(ThreadRecord(n, rec.ts, rec.direction, rec.kind,
                                      rec.payload).format_line())
    return n


class TappedEndpoint:
    """Transparent tap: records every frame that passes, perturbing nothing.

    Reads are tagged `read_dir`, writes `write_dir`. Undecodable frames and
    frames whose kind is illegal for the direction are preserved as RAW
    records; delivery is never altered either way.
    """

    def __init__(self, inner, log: ThreadLog, runtime, read_dir=None,
                 write_dir=None):
        self._inner = inner
        self._log = log
        self._rt = runtime
        self._read_dir = read_dir
        self._write_dir = write_dir

    def _record(self, direction, payload):
        if direction is None:
            return
        ts = self._rt.now_ns()
        try:
            msg = decode_message(payload)
            self._log.append_message(ts, direction, msg)
        except (CodecError, DirectionKindMismatch):
            self._log.append_raw(ts, direction, payload)

    def read_frame(self):
        payload = self._inner.read_frame()
        self._record(self._read_dir, payload)
        return payload

    def write_frame(self, payload):
        self._inner.write_frame(payload)
        self._record(self._write_dir, payload)

    def close(self):
        self._inner.close()

    @property
    def protocol(self):
        return self._inner.protocol

    @property
    def closed(self):
        return self._inner.closed

    @property
    def name(self):
        return self._inner.name

