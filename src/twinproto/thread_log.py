"""Digital thread: the append-only record of everything the twin exchanged.

One record per frame that crossed the twin link, plus non-frame annotations.
Line format (single spaces, newline-terminated, hex lowercase, no 0x):

    seq=<u64> ts=<u64> dir=<PT2DT|DT2PT> kind=<CMD|MEA|STA|RAW|NOTE> hex=<bytes>

seq starts at 1 and increases strictly; ts is monotonic nanoseconds on the
wall clock or the logical tick under lockstep. Direction constrains the frame
kinds: PT2DT carries measurements and statuses, DT2PT carries commands. Two
extra kinds extend the grammar without breaking it: RAW is a frame that failed
to decode (payload preserved verbatim, no longer than a link carries), NOTE is
an annotation such as a gate rejection (text is utf-8, hex-encoded). NOTE
records are not frames and are excluded from frame counts.

A reader accepts a line only when it is exactly those five fields, separated by
single spaces, in that order. One compiled pattern splits a line into the five
values; `int` and `bytes.fromhex` then check seq, ts and hex (so hex may be in
either case, and the writer writes lowercase), and one table keyed by the
(dir, kind) strings checks the pair. A line that breaks any rule raises
CorruptRecord carrying its seq, or its line number when the seq does not
parse; that includes a direction/kind clash such as `dir=DT2PT kind=STA`.
Records are named tuples: immutable, hashable and compared by value.

A file is read in binary blocks of about `_BLOCK` bytes, each ending at the
end of a line. One bytes pattern, built at import from the codec's layouts
and the (dir, kind) table, takes every line of a block at once, but only a
line exactly as `format_line` writes it: plain decimal seq and ts of at most
19 digits, a legal pair, and lowercase hex of a payload of the tagged kind
(`unhexlify` refuses an odd-length RAW or NOTE hex).
When a block holds any other line (a blank one, `+7`, uppercase hex, CRLF,
bytes that are not UTF-8, a bad line) or its seq does not strictly increase
after the blocks before it, the whole file is read again line by line in
text, through `parse_record_line`, the one judge of such lines. Either way a
file gives the same records or the same error.

A ThreadLog has exactly one writer; taps on both directions funnel into it and
appends are serialized. It keeps a running frame count per direction, so
reading the counts costs the same however long the record is. A tap hands
it the wire bytes with one call per record, and a relay never calls the
codec: the log tags a frame by `payload_kind`, which checks the payload as
`decode_message` would and builds no Message, and a recording loads back as
the payloads the emulator writes. A reader checks each tagged line's
payload the same way, so loading a thread file decodes nothing.
"""

from __future__ import annotations

import hashlib
import re
import threading
from binascii import Error as HexError, unhexlify
from collections import namedtuple
from enum import Enum
from operator import itemgetter, lt

from .errors import CodecError, CorruptRecord, RecordingMissing, ThreadLogError
from .messages import _LAYOUTS, MessageKind, payload_kind
from .transport import MAX_FRAME_PAYLOAD

U64_MAX = 2 ** 64 - 1


class ThreadDirection(Enum):
    PT2DT = "PT2DT"
    DT2PT = "DT2PT"


_PT2DT = ThreadDirection.PT2DT  # read once a record (see messages._STATUS)


TAG_KIND = {
    "CMD": MessageKind.COMMAND,
    "MEA": MessageKind.MEASUREMENT,
    "STA": MessageKind.STATUS,
}

FRAME_KINDS = ("CMD", "MEA", "STA", "RAW")
ALL_KINDS = FRAME_KINDS + ("NOTE",)

# (dir, kind) as a line spells them -> (direction, the MessageKind the payload
# must decode as, or None for RAW and NOTE). PT2DT carries measurements and
# statuses, DT2PT carries commands; a pair missing here is a clash.
_SLOTS = {
    (direction.value, tag): (direction, TAG_KIND.get(tag))
    for direction, tags in ((ThreadDirection.PT2DT, ("MEA", "STA")),
                            (ThreadDirection.DT2PT, ("CMD",)))
    for tag in tags + ("RAW", "NOTE")
}

# a frame's opcode byte -> (its tag, the one direction that carries it)
_FRAME_TAGS = {kind._value_: (tag, direction)
               for (_, tag), (direction, kind) in _SLOTS.items()
               if kind is not None}

# five fields, each value running up to the space that ends it
_LINE = re.compile(r"seq=([^ ]*) ts=([^ ]*) dir=([^ ]*) kind=([^ ]*) "
                   r"hex=([^ ]*)")


def _hex_shape(tag, tagged):
    """A pattern for the lowercase hex of each payload `parse_record_line`
    accepts under `tag`: a frame kind's opcode and then each value its
    layout holds, a RAW payload up to what a link carries, a NOTE's bytes.
    A RAW or NOTE hex of odd length is left to `unhexlify` to refuse: a
    repeated hex pair in the pattern took 0.25 s on a 1 MiB RAW line (2-CPU
    x86-64 host), a run of hex digits a few ms."""
    if tagged is None:
        return ("[0-9a-f]*" if tag == "NOTE"
                else f"[0-9a-f]{{0,{2 * MAX_FRAME_PAYLOAD}}}")
    opcode = tagged._value_
    layout = _LAYOUTS[opcode]
    width = layout.codec.size - 1
    values = range(layout.lo, layout.hi + 1)
    if len(values) == 256 ** width:  # any bytes of the width
        value = f"[0-9a-f]{{{2 * width}}}"
    else:  # a STATUS: only its codes
        value = "(?:" + "|".join(layout.codec.pack(opcode, v)[1:].hex()
                                 for v in values) + ")"
    return f"{opcode:02x}{value}"


# a line exactly as `format_line` writes it, in a block of lines: seq, ts,
# the (dir, kind) pair as b"PT2DT kind=MEA", and the hex, which a lookahead
# after the pair has checked against the pair's kind; 19 digits always fit
# a u64, and a seq of 0 fails the reader's order check
_BLOCK_LINE = re.compile(
    (r"^seq=([0-9]{1,19}) ts=([0-9]{1,19}) dir=("
     + "|".join(f"{dir_text} kind={tag}(?= hex={_hex_shape(tag, tagged)}\n)"
                for (dir_text, tag), (_, tagged) in _SLOTS.items())
     + r") hex=([0-9a-f]*)\n").encode("ascii"), re.M)

# the pair as _BLOCK_LINE captures it -> (direction, kind)
_BLOCK_SLOTS = {f"{dir_text} kind={tag}".encode("ascii"): (direction, tag)
                for (dir_text, tag), (direction, _) in _SLOTS.items()}

# bytes read at a time, then on to the end of that line; a block's matches
# are its transient peak, and 8 KB raised isolate-burst's peak RSS
_BLOCK = 4096


class ThreadRecord(namedtuple("ThreadRecord",
                              "seq ts direction kind payload")):
    """One line of a thread file: `direction` is a ThreadDirection, `kind`
    one of ALL_KINDS, and `payload` the frame's bytes, or a NOTE's utf-8
    text."""

    __slots__ = ()

    @property
    def is_frame(self):
        return self.kind in FRAME_KINDS

    def format_line(self) -> str:
        # `_value_`, not the `value` property: two of these run per record
        return (
            f"seq={self.seq} ts={self.ts} dir={self.direction._value_} "
            f"kind={self.kind} hex={self.payload.hex()}\n"
        )


_DIGEST_SLICE = 256  # records; a slice's text is some 25 KB


def thread_digest(records) -> str:
    """Stable content hash of a whole interchange record, given as the list
    of its records: the sha256 of its lines as `format_line` writes them.
    Each slice of `_DIGEST_SLICE` records is formatted and hashed at once,
    so no copy of a whole long record is ever made."""
    h = hashlib.sha256()
    line = ThreadRecord.format_line
    for start in range(0, len(records), _DIGEST_SLICE):
        h.update("".join(map(line, records[start:start + _DIGEST_SLICE]))
                 .encode("utf-8"))
    return h.hexdigest()


def _bad_pair(dir_text, kind):
    """Why a (dir, kind) pair missing from _SLOTS is not a record."""
    if dir_text not in ("PT2DT", "DT2PT"):
        return f"unknown direction {dir_text!r}"
    if kind not in ALL_KINDS:
        return f"unknown kind {kind!r}"
    return f"{dir_text} record cannot carry {kind}"


def parse_record_line(line, lineno=None) -> ThreadRecord:
    """Parse one record line; raises CorruptRecord with the seq (or line no).

    The match runs over the whole line: a trailing newline lands in the hex
    field, which `bytes.fromhex` skips as whitespace.
    """
    seq = lineno
    try:
        fields = _LINE.fullmatch(line)
        if fields is None:
            raise ValueError("not the five fields seq= ts= dir= kind= hex= "
                             "separated by single spaces")
        seq_text, ts_text, dir_text, kind, hex_text = fields.groups()
        seq = int(seq_text)
        ts = int(ts_text)
        if not (1 <= seq <= U64_MAX and 0 <= ts <= U64_MAX):
            raise ValueError("seq/ts out of u64 range")
        slot = _SLOTS.get((dir_text, kind))
        if slot is None:
            raise ValueError(_bad_pair(dir_text, kind))
        direction, tagged = slot
        payload = bytes.fromhex(hex_text)
        if tagged is not None:
            got = payload_kind(payload)  # must be its tagged kind
            if got is not tagged:
                raise ValueError(f"payload decodes as {got.name}, "
                                 f"tagged {kind}")
        elif kind == "RAW" and len(payload) > MAX_FRAME_PAYLOAD:
            raise ValueError(f"RAW payload of {len(payload)} bytes, over "
                             f"the {MAX_FRAME_PAYLOAD} a link carries")
        # ThreadRecord(...) without the named tuple's Python-level __new__;
        # with the same in decode_message, 6% of lockstep-replay's frames/s
        return tuple.__new__(ThreadRecord, (seq, ts, direction, kind, payload))
    except (ValueError, CodecError) as exc:
        raise CorruptRecord(f"bad record line: {exc}", seq=seq) from None


class ThreadLog:
    """Single-writer append-only store, optionally persisted to a file.

    Lines go to the file through its own buffer, which spills as it fills;
    `close` is the one flush, so the file is whole once the log is closed.
    A process killed before that leaves the lines up to the last spill.
    """

    def __init__(self, path=None):
        self._lock = threading.Lock()
        self._records = []
        # frames per direction; plain counters, so counting hashes no enum
        self._pt2dt_frames = 0
        self._dt2pt_frames = 0
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self.path = path

    def _append(self, ts, direction, kind, payload) -> ThreadRecord:
        with self._lock:
            rec = tuple.__new__(ThreadRecord, (len(self._records) + 1, ts,
                                               direction, kind, payload))
            self._records.append(rec)
            if kind != "NOTE":
                if direction is _PT2DT:
                    self._pt2dt_frames += 1
                else:
                    self._dt2pt_frames += 1
            if self._fh is not None:
                self._fh.write(rec.format_line())
        return rec

    def append_message(self, ts, direction, payload: bytes) -> ThreadRecord:
        """Record a frame as it came off the wire, tagged by its kind.

        A frame that does not decode, or whose kind `direction` does not
        carry, is kept as RAW.
        """
        try:
            payload_kind(payload)  # it decodes, so its opcode is a frame's
        except CodecError:
            return self.append_raw(ts, direction, payload)
        tag, carrier = _FRAME_TAGS[payload[0]]
        if direction is not carrier:
            return self.append_raw(ts, direction, payload)
        return self._append(ts, direction, tag, payload)

    def append_raw(self, ts, direction, payload: bytes) -> ThreadRecord:
        return self._append(ts, direction, "RAW", payload)

    def append_note(self, ts, text: str) -> ThreadRecord:
        return self._append(ts, ThreadDirection.DT2PT, "NOTE",
                            text.encode("utf-8"))

    @property
    def records(self):
        with self._lock:
            return list(self._records)

    def frame_counts(self):
        with self._lock:
            return {ThreadDirection.PT2DT: self._pt2dt_frames,
                    ThreadDirection.DT2PT: self._dt2pt_frames}

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _read_blocks(path):
    """The records of a file whose every line is as `format_line` writes
    it, seq strictly increasing, read a block at a time; None for any other
    file."""
    records = []
    last_seq = 0
    new = tuple.__new__
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            if block[-1] != 10:  # b"\n"
                block += fh.readline()
            rows = _BLOCK_LINE.findall(block)
            # each match is one whole line, so equal counts leave no line
            # unmatched but an unterminated last one
            if len(rows) != block.count(b"\n") or block[-1] != 10:
                return None
            try:
                got = [new(ThreadRecord, (int(seq), int(ts),
                                          *_BLOCK_SLOTS[pair],
                                          unhexlify(hex_text)))
                       for seq, ts, pair, hex_text in rows]
            except HexError:  # an odd-length RAW or NOTE hex
                return None
            seqs = list(map(itemgetter(0), got))
            if not all(map(lt, [last_seq, *seqs], seqs)):  # seq 0 too
                return None
            last_seq = seqs[-1]
            records += got
    return records


def _read_lines(path) -> list:
    """`_parse_file` by `parse_record_line` on each line of the file read
    as text. Only a line feed ends a line, so the file reads as
    `parse_record_line` reads each of its lines: a lone carriage return
    stays inside its line, and the hex field's whitespace skipping takes a
    CRLF ending."""
    records = []
    keep = records.append
    last_seq = 0
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # blank
                continue
            rec = parse_record_line(line, lineno)
            seq = rec[0]
            if seq <= last_seq:
                raise CorruptRecord(
                    f"seq {seq} not increasing after {last_seq}", seq=seq
                )
            last_seq = seq
            keep(rec)
    return records


def _parse_file(path) -> list:
    """The record of each line of a whole thread file, in a list, seq
    strictly increasing; each tagged payload's kind is checked and no
    payload is decoded. A file the writer wrote is read in blocks, and any
    other file line by line, for the same records or the same error."""
    records = _read_blocks(path)
    return _read_lines(path) if records is None else records


def read_thread_file(path):
    """Load and validate a whole thread file (strictly increasing seq)."""
    return _parse_file(path)


def load_recordings(path):
    """Emulator recordings: the payloads of the MEA and STA records of a
    thread file, in order, as they were on the wire. A recording is a
    thread file; every other line is skipped."""
    return [rec.payload for rec in _parse_file(path)
            if rec.kind in ("MEA", "STA")]


def where_in_file(exc):
    """' at seq/line N' for an error that carries a CorruptRecord's seq (or
    line number), else ''."""
    seq = getattr(exc, "seq", None)
    return "" if seq is None else f" at seq/line {seq}"


def load_checked_recordings(path):
    """`load_recordings(path)` for an emulator, or None for a real plant
    (no path).

    Raises RecordingMissing naming the file (and a corrupt line's seq or
    line number) if the file cannot be read or holds no frames.
    """
    if path is None:
        return None
    try:
        recording = load_recordings(path)
    except (OSError, UnicodeDecodeError, ThreadLogError) as exc:
        raise RecordingMissing(f"recording {path} unusable"
                               f"{where_in_file(exc)}: {exc}") from None
    if not recording:
        raise RecordingMissing(f"recording {path} holds no frames")
    return recording


class TappedEndpoint:
    """Transparent tap: records every frame that passes, perturbing nothing.

    Reads are tagged `read_dir`, writes `write_dir`, with one
    `append_message` per frame, which keeps an undecodable frame, or one
    whose kind is illegal for the direction, as RAW; delivery is never
    altered either way.
    """

    def __init__(self, inner, log: ThreadLog, runtime, read_dir=None,
                 write_dir=None):
        self._inner = inner
        self._log = log
        self._rt = runtime
        self._read_dir = read_dir
        self._write_dir = write_dir
        # the tap never waits itself: its wait halves are the inner link's
        self.wait_read = inner.wait_read
        self.wait_write = inner.wait_write

    def _record(self, direction, payload):
        if direction is not None:
            self._log.append_message(self._rt.now_ns(), direction, payload)

    def read_frame(self):
        payload = self._inner.read_frame()
        self._record(self._read_dir, payload)
        return payload

    def write_frame(self, payload):
        self._inner.write_frame(payload)
        self._record(self._write_dir, payload)

    def close(self):
        self._inner.close()
