"""Digital thread tests: line format, invariants, taps, file round-trip,
and the reader checked against the reference line parser."""

from __future__ import annotations

import ast
import hashlib
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_thread_line import Rejected, ref_parse_line
from twinproto import harness, messages, thread_log
from twinproto.errors import CodecError, CorruptRecord
from twinproto.messages import (
    COMMAND_MAX,
    COMMAND_MIN,
    MEASUREMENT_MAX,
    MEASUREMENT_MIN,
    STATUS_CODES,
    command,
    decode_message,
    encode_message,
    measurement,
    payload_kind,
    status,
)
from twinproto.runtime import WallRuntime
from twinproto.statemachine import STATE_OF_CODE, State
from twinproto.thread_log import (
    U64_MAX,
    TappedEndpoint,
    ThreadDirection,
    ThreadLog,
    ThreadRecord,
    load_recordings,
    parse_record_line,
    read_frames,
    read_thread_file,
)
from twinproto.transport import MAX_FRAME_PAYLOAD, open_virtual_serial_pair

PT2DT = ThreadDirection.PT2DT
DT2PT = ThreadDirection.DT2PT


def test_frozen_line_format():
    rec = ThreadRecord(1, 123, PT2DT, "MEA", bytes.fromhex("100000002a"))
    assert rec.format_line() == "seq=1 ts=123 dir=PT2DT kind=MEA hex=100000002a\n"
    rec2 = ThreadRecord(2, 456, DT2PT, "CMD", b"\x01\x00\x32")
    assert rec2.format_line() == "seq=2 ts=456 dir=DT2PT kind=CMD hex=010032\n"


def test_line_parse_is_inverse_of_format():
    recs = [
        ThreadRecord(1, 0, PT2DT, "STA", encode_message(status(0))),
        ThreadRecord(2, 77, PT2DT, "MEA", encode_message(measurement(-3))),
        ThreadRecord(3, 78, DT2PT, "CMD", encode_message(command(50))),
        ThreadRecord(4, 80, PT2DT, "RAW", b"\x7f\x00"),
        ThreadRecord(5, 81, DT2PT, "NOTE", b"gate rejected"),
    ]
    for rec in recs:
        assert parse_record_line(rec.format_line()) == rec


def test_records_are_immutable_hashable_values():
    rec = ThreadRecord(1, 2, PT2DT, "STA", encode_message(status(1)))
    with pytest.raises(AttributeError):
        rec.seq = 5
    assert rec == ThreadRecord(*rec) and hash(rec) == hash(ThreadRecord(*rec))
    assert len({rec, ThreadRecord(1, 2, PT2DT, "STA", b"\x20\x01")}) == 1
    assert repr(rec) == ("ThreadRecord(seq=1, ts=2, direction=<ThreadDirection"
                         ".PT2DT: 'PT2DT'>, kind='STA', payload=b' \\x01')")
    assert rec.is_frame and decode_message(rec.payload) == status(1)


def test_the_digest_hashes_the_lines_format_line_writes():
    # more records than one slice holds, of every kind, with a NOTE's text
    log = ThreadLog()
    for i in range(2 * thread_log._DIGEST_SLICE + 3):
        log.append_message(i, ThreadDirection.PT2DT,
                           encode_message(command(i % 100)))
        log.append_raw(10**15 + i, ThreadDirection.DT2PT, bytes([i % 256]))
        log.append_note(i, f"note {i} \u00e9")
    records = log.records
    want = hashlib.sha256("".join(rec.format_line() for rec in records)
                          .encode("utf-8")).hexdigest()
    assert thread_log.thread_digest(records) == want
    assert thread_log.thread_digest([]) == hashlib.sha256().hexdigest()


def test_only_format_line_writes_a_thread_line():
    # the digest hashes the lines `format_line` writes, not a copy of it
    tree = ast.parse(Path(thread_log.__file__).read_text())
    writers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.JoinedStr)
               and ast.unparse(node)[2:].startswith("seq=")]
    assert writers == ["format_line"]


def test_only_close_flushes_the_thread_file():
    # lines go through the file's buffer: a flush per record cost about a
    # tenth of a lockstep twin's CPU per frame
    tree = ast.parse(Path(thread_log.__file__).read_text())
    log_class = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "ThreadLog")
    close = next(node for node in log_class.body
                 if isinstance(node, ast.FunctionDef) and node.name == "close")
    in_close = set(map(id, ast.walk(close)))
    flushes = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "flush"
               and id(node) not in in_close]
    assert flushes == []


def test_append_assigns_strictly_increasing_seq():
    log = ThreadLog()
    r1 = log.append_message(10, PT2DT, encode_message(status(1)))
    r2 = log.append_message(11, PT2DT, encode_message(measurement(5)))
    r3 = log.append_note(12, "hello")
    assert [r1.seq, r2.seq, r3.seq] == [1, 2, 3]


def test_direction_kind_invariant_enforced():
    # a frame the direction does not carry, or that does not decode, is
    # kept as RAW: never tagged with a kind its direction cannot carry
    log = ThreadLog()
    clashes = [(PT2DT, encode_message(command(5))),
               (DT2PT, encode_message(status(1))),
               (DT2PT, encode_message(measurement(1)))]
    junk = [(PT2DT, p) for p in (b"", b"\x99", b"\x20\x07", b"\x01\x00")]
    for direction, payload in clashes + junk:
        log.append_message(0, direction, payload)
    assert [(r.direction, r.kind, r.payload) for r in log.records] == [
        (direction, "RAW", payload) for direction, payload in clashes + junk]
    assert log.frame_counts() == {PT2DT: 5, DT2PT: 2}


def test_append_message_stores_the_payload_it_was_given():
    log = ThreadLog()
    payload = encode_message(measurement(-7))
    rec = log.append_message(3, PT2DT, payload)
    assert (rec.kind, rec.payload) == ("MEA", payload)
    assert rec.payload is payload  # stored as given, not encoded again


def other(direction):
    return DT2PT if direction is PT2DT else PT2DT


@pytest.mark.parametrize("direction, msg, tag", [
    (PT2DT, status(2), "STA"),
    (PT2DT, measurement(-9), "MEA"),
    (DT2PT, command(40), "CMD"),
])
def test_an_accepted_frame_is_tagged_and_counted_in_its_direction(
        direction, msg, tag):
    log = ThreadLog()
    rec = log.append_message(7, direction, encode_message(msg))
    assert (rec.seq, rec.ts, rec.direction, rec.kind) == (1, 7, direction, tag)
    assert log.frame_counts() == {direction: 1, other(direction): 0}
    log.append_raw(8, direction, b"\x99")  # a RAW frame is counted too
    assert log.frame_counts() == {direction: 2, other(direction): 0}


@pytest.mark.parametrize("direction, msg, tag", [
    (PT2DT, command(5), "CMD"),
    (DT2PT, status(1), "STA"),
    (DT2PT, measurement(1), "MEA"),
])
def test_a_clash_is_kept_as_raw_with_one_tap_call(direction, msg, tag):
    payload = encode_message(msg)
    log, calls = tapped_once(direction, payload)
    assert calls == ["append_message"]  # one call for one record
    assert [(r.direction, r.kind, r.payload) for r in log.records] == [
        (direction, "RAW", payload)]  # not tagged `tag`
    assert log.frame_counts() == {direction: 1, other(direction): 0}


class CallLog:
    """A ThreadLog that notes the name of each method called on it."""

    def __init__(self):
        self.log = ThreadLog()
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.log, name)


def tapped_once(direction, payload):
    """Read `payload` through a tap tagging reads `direction`; returns the
    log and the calls the tap made on it."""
    spy = CallLog()
    rt = WallRuntime()
    a, b = open_virtual_serial_pair(rt)
    tapped = TappedEndpoint(b, spy, rt, read_dir=direction)
    a.write_frame(payload)
    assert tapped.read_frame() == payload  # delivered as it came
    return spy.log, spy.calls


@pytest.mark.parametrize("direction", [PT2DT, DT2PT])
@pytest.mark.parametrize("payload", [b"", b"\x99", b"\x20\x07", b"\x01\x00",
                                     b"\x10\x00\x00\x00\x00\x00"])
def test_an_undecodable_frame_is_kept_as_raw_with_one_tap_call(
        direction, payload):
    log, calls = tapped_once(direction, payload)
    assert calls == ["append_message"]  # one call for one record
    assert [(r.direction, r.kind, r.payload) for r in log.records] == [
        (direction, "RAW", payload)]
    assert log.frame_counts() == {direction: 1, other(direction): 0}


def count_decodes(monkeypatch):
    """Wrap `decode_message` in every package module that binds it, as the
    benchmark's tracer does; returns the list each call appends to."""
    original, calls = messages.decode_message, []

    def counted(payload):
        calls.append(payload)
        return original(payload)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "twinproto":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_reading_a_thread_file_or_tapping_a_frame_decodes_nothing(
        tmp_path, monkeypatch):
    frames = [(PT2DT, status(1)), (PT2DT, measurement(-3)),
              (DT2PT, command(40))]
    path = tmp_path / "thread.log"
    written = ThreadLog(str(path))
    for ts, (direction, msg) in enumerate(frames):
        written.append_message(ts, direction, encode_message(msg))
    written.append_raw(3, PT2DT, b"\x99")
    written.append_note(4, "checkpoint")
    written.close()
    calls = count_decodes(monkeypatch)

    back = read_thread_file(str(path))
    assert [r.kind for r in back] == ["STA", "MEA", "CMD", "RAW", "NOTE"]
    tapped = ThreadLog()
    for ts, (direction, msg) in enumerate(frames):
        tapped.append_message(ts, direction, encode_message(msg))
    assert [r.kind for r in tapped.records] == ["STA", "MEA", "CMD"]
    assert calls == []

    # a payload that is refused is still refused by the codec, in its words
    for seq, line, text in [
        (4, "seq=4 ts=0 dir=PT2DT kind=STA hex=010032\n",
         "bad record line: payload decodes as COMMAND, tagged STA"),
        (5, "seq=5 ts=0 dir=PT2DT kind=STA hex=2007\n",
         "bad record line: STATUS code 7 not in (0, 1, 2)"),
        (6, "seq=6 ts=0 dir=DT2PT kind=CMD hex=0100\n",
         "bad record line: COMMAND payload is 2 bytes, expected 3"),
        (7, "seq=7 ts=0 dir=PT2DT kind=MEA hex=\n",
         "bad record line: empty payload"),
        (8, "seq=8 ts=0 dir=PT2DT kind=MEA hex=99\n",
         "bad record line: opcode 0x99"),
    ]:
        with pytest.raises(CorruptRecord) as exc:
            parse_record_line(line)
        assert (exc.value.seq, str(exc.value)) == (seq, text)


def read_line_by_line(path):
    """The readers' oracle: the record of each line of the file read as
    text, split only at a line feed, through `parse_record_line`; blank
    lines are skipped and seq must strictly increase."""
    records, last_seq = [], 0
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            rec = parse_record_line(line, lineno)
            if rec.seq <= last_seq:
                raise CorruptRecord(f"seq {rec.seq} not increasing after "
                                    f"{last_seq}", seq=rec.seq)
            last_seq = rec.seq
            records.append(rec)
    return records


def count_line_parses(monkeypatch):
    """Count the calls the reader makes to `parse_record_line`; returns
    the list each call appends to."""
    original, calls = thread_log.parse_record_line, []

    def counted(line, lineno=None):
        calls.append(line)
        return original(line, lineno)

    monkeypatch.setattr(thread_log, "parse_record_line", counted)
    return calls


def replay_shaped_lines(count, seed=1):
    """Lines shaped like the benchmark's replay input: a status, then
    measurements with a command, its status or a NOTE now and then, each a
    few ticks after the one before."""
    rng, ts = random.Random(seed), 0
    recs = [(ts, PT2DT, "STA", encode_message(status(0)))]
    while len(recs) < count:
        ts += rng.randint(1, 5)
        roll = rng.random()
        if roll < 0.08:
            recs += [(ts, DT2PT, "CMD", encode_message(command(rng.randint(
                0, 1000)))), (ts, PT2DT, "STA", encode_message(status(1)))]
        elif roll < 0.1:
            recs.append((ts, DT2PT, "NOTE",
                         f"operator note {len(recs)}".encode()))
        else:
            recs.append((ts, PT2DT, "MEA", encode_message(measurement(
                rng.randint(MEASUREMENT_MIN, MEASUREMENT_MAX)))))
    return "".join(ThreadRecord(seq, *rec).format_line()
                   for seq, rec in enumerate(recs, start=1))


def test_the_writers_own_files_are_read_without_a_line_parse(tmp_path,
                                                             monkeypatch):
    twin = tmp_path / "twin.log"
    log = ThreadLog(str(twin))
    for ts, payload in enumerate([encode_message(status(1)),
                                  encode_message(measurement(-7)),
                                  b"\x99\x01", encode_message(status(2))]):
        log.append_message(10 ** 18 + ts, PT2DT, payload)
        log.append_message(10 ** 18 + ts, DT2PT, encode_message(command(ts)))
        log.append_note(10 ** 18 + ts, f"gate rejected \u00e9 {ts}")
    log.append_raw(10 ** 18 + 9, DT2PT, b"")
    log.close()
    replay = tmp_path / "replay.thread"
    replay.write_text(replay_shaped_lines(600))  # several blocks
    mission = (Path(harness.__file__).parent / "suite" / "recordings"
               / "mission.rec")
    want = {path: read_line_by_line(path)
            for path in (str(twin), str(replay), str(mission))}
    assert {r.kind for r in want[str(twin)]} == {
        "STA", "MEA", "CMD", "RAW", "NOTE"}
    assert want[str(twin)] == log.records
    assert os.path.getsize(replay) > 2 * thread_log._BLOCK
    calls = count_line_parses(monkeypatch)

    for path, records in want.items():
        assert read_thread_file(path) == records
    assert load_recordings(str(mission)) == [
        r.payload for r in want[str(mission)] if r.kind in ("MEA", "STA")]
    assert read_frames(str(replay)) == [
        (r.kind, r.ts, r.payload) for r in want[str(replay)]
        if r.direction is PT2DT and r.is_frame]
    assert calls == []

    # one line the writer would not write costs only the block that holds
    # it: the first `_BLOCK` bytes, carried on to the end of their line
    lines = replay.read_text().splitlines(keepends=True)
    lines[6] = lines[6].replace("seq=7 ", "seq=+7 ")
    replay.write_text("".join(lines))
    data = replay.read_bytes()
    first_block = data[:data.index(b"\n", thread_log._BLOCK - 1) + 1]
    assert read_thread_file(str(replay)) == want[str(replay)]
    assert calls == lines[:first_block.count(b"\n")]
    assert 7 <= len(calls) < len(lines) == 600


def test_a_note_is_kept_but_not_counted():
    log = ThreadLog()
    log.append_message(1, PT2DT, encode_message(status(1)))
    rec = log.append_note(2, "gate rejected")
    assert (rec.seq, rec.direction, rec.kind, rec.payload) == (
        2, DT2PT, "NOTE", b"gate rejected")
    assert not rec.is_frame
    assert log.frame_counts() == {PT2DT: 1, DT2PT: 0}


def test_file_roundtrip(tmp_path):
    path = tmp_path / "thread.log"
    log = ThreadLog(str(path))
    log.append_message(1, PT2DT, encode_message(status(0)))
    log.append_message(2, DT2PT, encode_message(command(50)))
    log.append_message(3, PT2DT, encode_message(status(1)))
    log.append_raw(4, PT2DT, b"\xff")
    log.append_note(5, "checkpoint")
    log.close()
    back = read_thread_file(str(path))
    assert back == log.records
    counts = log.frame_counts()
    assert counts == {PT2DT: 3, DT2PT: 1}
    counts[PT2DT] = 0  # a copy: the log's running counts are untouched
    assert log.frame_counts() == {PT2DT: 3, DT2PT: 1}


def test_scan_large_file(tmp_path):
    path = tmp_path / "big.log"
    log = ThreadLog(str(path))
    for i in range(2000):
        log.append_message(i, PT2DT, encode_message(measurement(i)))
    log.close()
    back = read_thread_file(str(path))
    assert len(back) == 2000
    assert [decode_message(r.payload).value for r in back] == list(range(2000))


def test_corrupt_lines_report_seq(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text(
        "seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
        "seq=2 ts=0 dir=PT2DT kind=STA hex=20zz\n"
    )
    with pytest.raises(CorruptRecord) as exc:
        read_thread_file(str(path))
    assert exc.value.seq == 2


@pytest.mark.parametrize(
    "line",
    [
        "seq=1 ts=0 dir=PT2DT kind=STA\n",                     # missing field
        "seq=1 ts=0 dir=NORTH kind=STA hex=2000\n",            # bad direction
        "seq=1 ts=0 dir=PT2DT kind=XYZ hex=2000\n",            # bad kind
        "seq=1 ts=0 dir=PT2DT kind=STA hex=010032\n",          # tag/payload clash
        "seq=0 ts=0 dir=PT2DT kind=STA hex=2000\n",            # seq below 1
        "seq=1 ts=-4 dir=PT2DT kind=STA hex=2000\n",           # negative ts
        "ts=0 seq=1 dir=PT2DT kind=STA hex=2000\n",            # wrong order
    ],
)
def test_bad_lines_rejected(line):
    with pytest.raises(CorruptRecord):
        parse_record_line(line)


def test_non_monotone_seq_rejected(tmp_path):
    path = tmp_path / "order.log"
    path.write_text(
        "seq=2 ts=0 dir=PT2DT kind=STA hex=2000\n"
        "seq=2 ts=1 dir=PT2DT kind=STA hex=2001\n"
    )
    with pytest.raises(CorruptRecord) as exc:
        read_thread_file(str(path))
    assert exc.value.seq == 2


def test_a_carriage_return_inside_a_line_does_not_split_it(tmp_path):
    path = tmp_path / "cr.log"
    line = "seq=1\r ts=0 dir=PT2DT kind=STA hex=2001\n"
    path.write_bytes(line.encode())
    assert read_thread_file(str(path)) == [parse_record_line(line)]
    # CRLF line ends and a blank CRLF line read as before
    path.write_bytes(b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000\r\n\r\n"
                     b"seq=2 ts=1 dir=PT2DT kind=STA hex=2001\r\n")
    assert [(r.seq, r.payload) for r in read_thread_file(str(path))] == [
        (1, b"\x20\x00"), (2, b"\x20\x01")]


def test_empty_thread_file(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("")
    assert read_thread_file(str(path)) == []


def test_tap_records_without_perturbing():
    rt = WallRuntime()
    log = ThreadLog()
    a, b = open_virtual_serial_pair(rt)
    tapped = TappedEndpoint(b, log, rt, read_dir=PT2DT, write_dir=DT2PT)

    a.write_frame(encode_message(status(1)))
    a.write_frame(b"\x99")  # undecodable: tap keeps it as RAW, delivers anyway
    got = [tapped.read_frame(), tapped.read_frame()]
    tapped.write_frame(encode_message(command(7)))
    assert got == [encode_message(status(1)), b"\x99"]
    assert a.read_frame() == encode_message(command(7))

    kinds = [(r.kind, r.direction) for r in log.records]
    assert kinds == [("STA", PT2DT), ("RAW", PT2DT), ("CMD", DT2PT)]
    assert log.frame_counts() == {PT2DT: 2, DT2PT: 1}


def test_tap_demotes_illegal_kind_to_raw():
    rt = WallRuntime()
    log = ThreadLog()
    a, b = open_virtual_serial_pair(rt)
    tapped = TappedEndpoint(b, log, rt, read_dir=PT2DT)
    a.write_frame(encode_message(command(5)))  # command on the PT2DT stream
    assert tapped.read_frame() == encode_message(command(5))  # delivered intact
    assert [r.kind for r in log.records] == ["RAW"]


def test_recording_file_from_thread(tmp_path):
    rec_path = tmp_path / "rec.log"
    log = ThreadLog(str(rec_path))
    log.append_message(1, PT2DT, encode_message(status(0)))
    log.append_message(2, DT2PT, encode_message(command(50)))   # skipped
    log.append_message(3, PT2DT, encode_message(status(1)))
    log.append_raw(4, PT2DT, b"\x99")                            # skipped
    log.append_message(5, PT2DT, encode_message(measurement(12)))
    log.append_note(6, "skip me")                               # skipped
    log.close()
    assert load_recordings(str(rec_path)) == [
        encode_message(m) for m in (status(0), status(1), measurement(12))]



def test_a_direction_kind_clash_in_a_file_names_its_seq(tmp_path):
    path = tmp_path / "clash.log"
    path.write_text(
        "seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n"
        "seq=2 ts=1 dir=DT2PT kind=STA hex=2001\n"
    )
    with pytest.raises(CorruptRecord, match="DT2PT record cannot carry STA") \
            as exc:
        read_thread_file(str(path))
    assert exc.value.seq == 2


# ---------------------------------------------------------------------------
# grammar properties: the reader against the reference line parser
# ---------------------------------------------------------------------------

U64 = st.integers(0, U64_MAX)
TAGGED = {
    "CMD": st.builds(command, st.integers(COMMAND_MIN, COMMAND_MAX)),
    "MEA": st.builds(measurement,
                     st.integers(MEASUREMENT_MIN, MEASUREMENT_MAX)),
    "STA": st.builds(status, st.sampled_from(STATUS_CODES)),
}
SLOTS = [(PT2DT, "MEA"), (PT2DT, "STA"), (DT2PT, "CMD")] + [
    (d, k) for d in (PT2DT, DT2PT) for k in ("RAW", "NOTE")]


@st.composite
def records(draw, seq=st.integers(1, U64_MAX)):
    """Any record the grammar admits."""
    direction, kind = draw(st.sampled_from(SLOTS))
    if kind in TAGGED:
        payload = encode_message(draw(TAGGED[kind]))
    else:
        payload = draw(st.binary(max_size=12))
    return ThreadRecord(draw(seq), draw(U64), direction, kind, payload)


@given(records())
def test_parse_is_inverse_of_format_for_every_legal_record(rec):
    assert parse_record_line(rec.format_line()) == rec


def append(log, rec):
    """Append `rec` through the writer for its kind (a NOTE's text is its
    payload read as latin-1, and a NOTE is always DT2PT)."""
    if rec.kind in TAGGED:
        return log.append_message(rec.ts, rec.direction, rec.payload)
    if rec.kind == "RAW":
        return log.append_raw(rec.ts, rec.direction, rec.payload)
    return log.append_note(rec.ts, rec.payload.decode("latin-1"))


@given(st.lists(records(), max_size=20))
def test_a_recording_file_gives_back_the_pt2dt_messages_in_order(recs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.log")
        log = ThreadLog(path)
        for rec in recs:
            append(log, rec)
        log.close()
        assert read_thread_file(path) == log.records
        assert load_recordings(path) == [
            r.payload for r in recs
            if r.direction is PT2DT and r.kind in ("MEA", "STA")]


def two_pass_replay_plan(records):
    """What replay fed and judged before its walk was fused into one pass:
    one pass for the PT2DT frames, one for the states their statuses walk
    through from STANDBY."""
    frames = [r for r in records if r.direction is PT2DT and r.is_frame]
    walk, current = [], State.STANDBY
    for rec in records:
        if rec.direction is PT2DT and rec.kind == "STA":
            state = STATE_OF_CODE[rec.payload[1]]
            if state is not current:
                walk.append(state)
                current = state
    return frames, [state.name for state in walk]


@given(st.lists(records(), max_size=40))
def test_replays_one_pass_feeds_and_walks_as_the_two_passes_did(recs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "thread.log")
        log = ThreadLog(path)
        for rec in recs:
            append(log, rec)
        log.close()
        frames = read_frames(path)
    fed, walk = two_pass_replay_plan(log.records)
    assert frames == [(rec.kind, rec.ts, rec.payload) for rec in fed]
    assert harness._record_walk(frames) == walk


def test_a_raw_frame_that_decodes_as_a_status_is_fed_but_not_walked(
        tmp_path):
    path = tmp_path / "thread.log"
    path.write_text("seq=1 ts=0 dir=PT2DT kind=STA hex=2001\n"
                    "seq=2 ts=1 dir=PT2DT kind=RAW hex=2002\n")
    result = harness.replay_thread(path)
    assert (result.frames_fed, result.statuses_seen) == (2, 2)
    assert result.trajectory == ["ACTIVE", "OFF"]
    assert result.failures == [
        "trajectory ['ACTIVE', 'OFF'] != record walk ['ACTIVE']"]


class Draft:
    """A legal line taken apart: five (key, value) fields, the four
    separators between them and the line end, for one mutation to edit."""

    def __init__(self, rec):
        self.fields = [("seq", str(rec.seq)), ("ts", str(rec.ts)),
                       ("dir", rec.direction.value), ("kind", rec.kind),
                       ("hex", rec.payload.hex())]
        self.seps = [" "] * 4
        self.end = "\n"

    def line(self):
        parts = [f"{key}={value}" for key, value in self.fields]
        return (parts[0] + "".join(s + p for s, p in zip(self.seps, parts[1:]))
                + self.end)


def _key(draft, draw):
    i = draw(st.integers(0, 4))
    draft.fields[i] = (draw(st.sampled_from(
        ["", "Seq", "sq", "ts", "hex", "x=y", " seq", "kind"])),
        draft.fields[i][1])


def _value(i, edit):
    def mutate(draft, draw):
        key, value = draft.fields[i]
        draft.fields[i] = (key, edit(value, draw))
    return mutate


def _one_of(*values):
    return lambda _value, draw: draw(st.sampled_from(values))


def _insert(*chars):
    def edit(value, draw):
        at = draw(st.integers(0, len(value)))
        return value[:at] + draw(st.sampled_from(chars)) + value[at:]
    return edit


def _separator(*seps):
    def mutate(draft, draw):
        draft.seps[draw(st.integers(0, 3))] = draw(st.sampled_from(seps))
    return mutate


def _end(*ends):
    def mutate(draft, draw):
        draft.end = draw(st.sampled_from(ends))
    return mutate


def _flip_direction(value, _draw):
    return "DT2PT" if value == "PT2DT" else "PT2DT"


# one mutation of a legal line, each a way a line can go wrong or be written
# differently and still be legal
MUTATIONS = {
    "key": _key,
    "order": lambda draft, _draw: draft.fields.reverse(),
    "dir": _value(2, _one_of("NORTH", "pt2dt", "", "DT2PT2", "PT2DT\r")),
    "kind": _value(3, _one_of("XYZ", "sta", "", "NOTES", "MEA\t", "CMD\r")),
    "clash": _value(2, _flip_direction),
    "tag": _value(3, _one_of("CMD", "MEA", "STA")),
    "non-hex": _value(4, _insert("zz", "g", "0x", "-", "\u00e9")),
    "odd-hex": _value(4, lambda v, draw: draw(st.sampled_from([v + "0",
                                                               v[:-1]]))),
    "upper-hex": _value(4, lambda v, _draw: v.upper()),
    "seq-0": _value(0, _one_of("0", "-0", "+0", "0_0")),
    "seq-u64": _value(0, _one_of(str(U64_MAX), str(U64_MAX + 1))),
    "ts-negative": _value(1, lambda v, _draw: "-" + v),
    "seq-plus": _value(0, lambda v, _draw: "+" + v),
    "ts-plus": _value(1, lambda v, _draw: "+" + v),
    "seq-underscore": _value(0, _insert("_")),
    "ts-underscore": _value(1, _insert("_", "__")),
    "tab-in-value": _value(4, _insert("\t")),
    "tab": _separator("\t", " \t"),
    "double-space": _separator("  "),
    "cr-in-value": _value(0, lambda v, _draw: v + "\r"),
    "end": _end("", "\r\n", "\r", " \n", "\n\n"),
    "none": lambda draft, _draw: None,
}


@st.composite
def lines(draw):
    """A formatted legal line with one mutation applied."""
    draft = Draft(draw(records(seq=st.integers(1, 10 ** 6))))
    MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](draft, draw)
    return draft.line()


def _agrees_with_reference(line, lineno):
    try:
        want = ref_parse_line(line, lineno)
    except Rejected as ref:
        # the reference raised a clash with no seq; the reader names it
        with pytest.raises(CorruptRecord) as got:
            parse_record_line(line, lineno)
        assert got.value.seq == ref.seq, (line, str(got.value))
        return False
    rec = parse_record_line(line, lineno)
    assert (rec.seq, rec.ts, rec.direction.value, rec.kind,
            rec.payload) == want
    return True


def _file_agrees_with_the_line_reader(line):
    """A file holding just `line` reads as `parse_record_line` reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.log")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(line)
        try:
            want = [parse_record_line(line, 1)]
        except CorruptRecord as exc:
            with pytest.raises(CorruptRecord) as got:
                read_thread_file(path)
            assert got.value.seq == exc.seq, (line, str(got.value))
            return
        assert read_thread_file(path) == want, line


@given(lines(), st.sampled_from([None, 7]))
def test_the_reader_accepts_exactly_what_the_reference_accepts(line, lineno):
    _agrees_with_reference(line, lineno)
    _file_agrees_with_the_line_reader(line)


@pytest.mark.parametrize("line, accepted", [
    ("seq=+1 ts=0 dir=PT2DT kind=STA hex=2001\n", True),
    ("seq=1_0 ts=0 dir=PT2DT kind=STA hex=2001\n", True),
    ("seq=1 ts=0 dir=PT2DT kind=MEA hex=10FFFFFFFF\n", True),
    ("seq=1 ts=0 dir=PT2DT kind=STA hex=2001\r\n", True),
    ("seq=1 ts=0 dir=PT2DT kind=STA hex=20\t01\n", True),
    ("seq=1 ts=0 dir=PT2DT kind=STA hex=2001 \n", False),
    ("seq=1  ts=0 dir=PT2DT kind=STA hex=2001\n", False),
    ("seq=1\tts=0 dir=PT2DT kind=STA hex=2001\n", False),
    ("seq=_1 ts=0 dir=PT2DT kind=STA hex=2001\n", False),
    ("seq=5 ts=0 dir=NORTH kind=STA hex=2001\n", False),
    ("seq=5 ts=0 dir=PT2DT kind=XYZ hex=2001\n", False),
    ("seq=5 ts=0 dir=DT2PT kind=STA hex=2001\n", False),
    ("seq=5 ts=0 dir=PT2DT kind=STA hex=200\n", False),
    ("", False),
])
def test_named_line_shapes_agree_with_the_reference(line, accepted):
    assert _agrees_with_reference(line, 3) is accepted


# ---------------------------------------------------------------------------
# the block reader: its pattern against the codec, and whole files
# ---------------------------------------------------------------------------

def _payloads_to_tag():
    """Every opcode at every length from 0 to 8 (zero and 0xff value
    bytes), every STATUS byte, and sampled CMD and MEA values."""
    payloads = {b""}
    for opcode in range(256):
        for length in range(1, 9):
            for fill in (0x00, 0xFF):
                payloads.add(bytes([opcode]) + bytes([fill]) * (length - 1))
    payloads.update(bytes([messages.OP_STATUS, code]) for code in range(256))
    rng = random.Random(5)
    for low, high, build in ((COMMAND_MIN, COMMAND_MAX, command),
                             (MEASUREMENT_MIN, MEASUREMENT_MAX, measurement)):
        values = [low, high, 0, -1, 1] + [rng.randint(low, high)
                                          for _ in range(200)]
        payloads.update(encode_message(build(v)) for v in values)
    return sorted(payloads)


def test_the_block_pattern_takes_a_tagged_payload_exactly_when_it_has_its_kind():
    taken = set()
    for (dir_text, tag), (direction, tagged) in thread_log._SLOTS.items():
        if tagged is None:
            continue
        for payload in _payloads_to_tag():
            line = ThreadRecord(1, 0, direction, tag, payload).format_line()
            try:
                want = payload_kind(payload) is tagged
            except CodecError:
                want = False
            got = thread_log._BLOCK_LINE.fullmatch(line.encode()) is not None
            assert got == want, line
            if want:
                taken.add(tag)
    assert taken == {"CMD", "MEA", "STA"}


@pytest.mark.parametrize("kind, size, taken", [
    ("RAW", MAX_FRAME_PAYLOAD, True), ("RAW", MAX_FRAME_PAYLOAD + 1, False),
    ("RAW", 0, True), ("NOTE", 0, True), ("NOTE", 300, True),
])
def test_the_block_pattern_takes_raw_up_to_a_link_and_any_note(kind, size,
                                                               taken):
    for direction in (PT2DT, DT2PT):
        line = ThreadRecord(3, 4, direction, kind, b"\xa5" * size).format_line()
        assert (thread_log._BLOCK_LINE.fullmatch(line.encode()) is not None
                ) is taken


def test_the_line_patterns_compile_on_python_3_10():
    # possessive repeats and atomic groups: `re` takes them only from 3.11
    for pattern in (thread_log._LINE.pattern,
                    thread_log._BLOCK_LINE.pattern.decode("ascii")):
        assert re.search(r"[*+?}]\+|\(\?>", pattern) is None


@st.composite
def thread_files(draw):
    """The bytes of a file the writer wrote, perhaps with one line edited
    by a MUTATIONS entry, with blank lines, or with no final newline."""
    # each record's seq is drawn as the step from the one before
    steps = st.sampled_from([1, 1, 1, 1, 1, 2, 10 ** 6, 0])
    seq, drafts = 0, []
    for rec in draw(st.lists(records(seq=steps), max_size=5)):
        seq += rec.seq
        drafts.append(Draft(rec._replace(seq=seq)))
    if drafts and draw(st.booleans()):
        at = draw(st.integers(0, len(drafts) - 1))
        MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](drafts[at], draw)
    lines = [draft.line() for draft in drafts]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["\n", "\r\n", " \n"])))
    text = "".join(lines)
    if text.endswith("\n") and draw(st.booleans()):
        text = text[:-1]
    return text.encode("utf-8")


# each reader, and what it keeps of the records a file reads as line by line
READERS = [
    (read_thread_file, list),
    (load_recordings, lambda records: [rec.payload for rec in records
                                       if rec.kind in ("MEA", "STA")]),
    (read_frames, lambda records: [(rec.kind, rec.ts, rec.payload)
                                   for rec in records
                                   if rec.direction is PT2DT
                                   and rec.is_frame]),
]


@given(thread_files(), st.integers(8, 64))
def test_a_file_read_in_blocks_reads_as_it_does_line_by_line(data, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "thread.log")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            records = read_line_by_line(path)
        except CorruptRecord as exc:
            for read, _ in READERS:
                with mock.patch.object(thread_log, "_BLOCK", block), \
                        pytest.raises(CorruptRecord) as got:
                    read(path)
                assert (str(got.value), got.value.seq) == (str(exc), exc.seq)
            return
        with mock.patch.object(thread_log, "_BLOCK", block):
            for read, keep in READERS:
                assert read(path) == keep(records), read.__name__


@pytest.mark.parametrize("data", [
    b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000\nseq=2 ts=1 dir=PT2DT kind=STA "
    b"hex=20\xff\n",
    b"\xef\xbb\xbfseq=1 ts=0 dir=PT2DT kind=STA hex=2000\n",
    b"seq=2 ts=0 dir=PT2DT kind=STA hex=2000\nseq=1 ts=1 dir=PT2DT kind=STA "
    b"hex=2001\n",
    b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000\n" * 2,
    b"seq=0 ts=0 dir=PT2DT kind=STA hex=2000\n",
    b"seq=1 ts=18446744073709551615 dir=PT2DT kind=STA hex=2000\n",
    b"seq=1 ts=18446744073709551616 dir=PT2DT kind=STA hex=2000\n",
    b"seq=18446744073709551616 ts=0 dir=PT2DT kind=STA hex=2000\n",
    b"seq=1 ts=0 dir=PT2DT kind=STA hex=2000",
    b"seq=1 ts=0 dir=DT2PT kind=NOTE hex=6f6\n",
    b"seq=1 ts=0 dir=PT2DT kind=RAW hex=0\n",
])
def test_a_file_the_writer_did_not_write_reads_as_it_does_line_by_line(
        tmp_path, data):
    path = tmp_path / "thread.log"
    path.write_bytes(data)
    try:
        records = read_line_by_line(str(path))
    except (CorruptRecord, UnicodeDecodeError) as exc:
        for read, _ in READERS:
            with pytest.raises(type(exc)) as got:
                read(str(path))
            assert (str(got.value), getattr(got.value, "seq", None)) == (
                str(exc), getattr(exc, "seq", None))
        return
    for read, keep in READERS:
        assert read(str(path)) == keep(records), read.__name__


def test_a_bad_line_past_the_first_blocks_names_its_line_in_the_file(
        tmp_path):
    # the line count runs on from block to block
    path = tmp_path / "thread.log"
    log = ThreadLog(str(path))
    for i in range(400):
        log.append_message(i, PT2DT, encode_message(measurement(i)))
    log.close()
    data = path.read_bytes()
    ends = [0]  # where each block ends, as the reader cuts them
    while len(ends) < 4:
        ends.append(data.index(b"\n", ends[-1] + thread_log._BLOCK - 1) + 1)
    lineno = data[:ends[2]].count(b"\n") + 2  # the third block's second line
    lines = data.splitlines(keepends=True)
    lines[lineno - 1] = re.sub(rb"^seq=[0-9]+", b"seq=x", lines[lineno - 1])
    path.write_bytes(b"".join(lines))
    for read, _ in READERS:
        with pytest.raises(CorruptRecord) as exc:
            read(str(path))
        assert exc.value.seq == lineno, read.__name__
