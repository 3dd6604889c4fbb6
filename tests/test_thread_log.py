"""Digital thread tests: line format, invariants, taps, file round-trip."""

from __future__ import annotations

import pytest

from twinproto.errors import CorruptRecord, DirectionKindMismatch
from twinproto.messages import command, encode_message, measurement, status
from twinproto.runtime import WallRuntime
from twinproto.thread_log import (
    TappedEndpoint,
    ThreadDirection,
    ThreadLog,
    ThreadRecord,
    load_recordings,
    parse_record_line,
    read_thread_file,
    write_recording_file,
)
from twinproto.transport import open_virtual_serial_pair

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


def test_append_assigns_strictly_increasing_seq():
    log = ThreadLog()
    r1 = log.append_message(10, PT2DT, status(1))
    r2 = log.append_message(11, PT2DT, measurement(5))
    r3 = log.append_note(12, "hello")
    assert [r1.seq, r2.seq, r3.seq] == [1, 2, 3]


def test_direction_kind_invariant_enforced():
    log = ThreadLog()
    with pytest.raises(DirectionKindMismatch):
        log.append_message(0, PT2DT, command(5))
    with pytest.raises(DirectionKindMismatch):
        log.append_message(0, DT2PT, status(1))
    with pytest.raises(DirectionKindMismatch):
        log.append_message(0, DT2PT, measurement(1))
    assert log.records == []  # nothing committed


def test_file_roundtrip(tmp_path):
    path = tmp_path / "thread.log"
    log = ThreadLog(str(path))
    log.append_message(1, PT2DT, status(0))
    log.append_message(2, DT2PT, command(50))
    log.append_message(3, PT2DT, status(1))
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
        log.append_message(i, PT2DT, measurement(i))
    log.close()
    back = read_thread_file(str(path))
    assert len(back) == 2000
    assert [r.message().value for r in back] == list(range(2000))


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
    log = ThreadLog()
    log.append_message(1, PT2DT, status(0))
    log.append_message(2, DT2PT, command(50))   # filtered out
    log.append_message(3, PT2DT, status(1))
    log.append_message(4, PT2DT, measurement(12))
    log.append_note(5, "skip me")               # filtered out
    rec_path = tmp_path / "rec.log"
    n = write_recording_file(log.records, str(rec_path))
    assert n == 3
    assert load_recordings(str(rec_path)) == [status(0), status(1),
                                              measurement(12)]

