"""DTP fidelity: a plant on its emulator sends the PT2DT stream its recording
holds, whatever the command script and the measurement schedule.

A real sensor answers the boot and each command with one status and sends
measurements unprompted. A recording of it is replayed in `dtp` (the
operator holds the plant's links) and in an emulated shadow; both must put
the recorded bytes on the plant's outbound link, in the recorded order.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from twinproto import transport
from twinproto.config import parse_scenario
from twinproto.harness import record_session, run_scenario
from twinproto.messages import (MEASUREMENT_MAX, MEASUREMENT_MIN, command,
                                encode_message, measurement, status)
from twinproto.thread_log import (ThreadDirection, load_recordings,
                                  read_thread_file)

TWIN_END = "link:peer-up"  # the twin side of the plant's outbound link


@contextlib.contextmanager
def pt2dt_stream():
    """Every payload read at the twin side of the plant's outbound link."""
    seen = []
    read_frame = transport.Endpoint.read_frame

    def recording_read(self):
        payload = read_frame(self)
        if self.name == TWIN_END:
            seen.append(payload)
        return payload

    transport.Endpoint.read_frame = recording_read
    try:
        yield seen
    finally:
        transport.Endpoint.read_frame = read_frame


def record_and_replay(workdir: Path, seed, steps, measurements, duration_ms):
    """Record a lockstep shadow against the real sensor, then replay the
    recording in dtp and in an emulated shadow; returns the recorded
    payloads and the stream each run put on the outbound link."""
    data = {"name": "fidelity", "mode": "shadow", "clock": "lockstep",
            "seed": seed, "duration_ms": duration_ms, "steps": steps,
            "measurements": measurements}
    rec = workdir / "plant.rec"
    with pt2dt_stream() as real:
        recorded = record_session(parse_scenario(data), record_path=rec)
    assert recorded.ok, recorded.failures
    frames = load_recordings(rec)
    streams = {"real": real}
    for mode in ("dtp", "shadow"):
        with pt2dt_stream() as got:
            result = run_scenario(parse_scenario(
                dict(data, mode=mode, recording=str(rec))))
        assert result.ok, (mode, result.failures)
        streams[mode] = got
    return frames, streams


def test_the_emulator_replays_measurements_after_the_status_they_follow(
        tmp_path):
    # STANDBY, ACTIVE and ACTIVE again; the three measurements come while
    # the first ACTIVE lasts. Replaying each command's answer as the next
    # recording answered the STANDBY command with MEA 7 and left MEA 9 and
    # both later statuses unsent, and both runs still passed
    steps = [{"at_ms": 0, "do": "command", "value": 50},
             {"at_ms": 100, "do": "command", "value": 0},
             {"at_ms": 200, "do": "command", "value": 50}]
    frames, streams = record_and_replay(tmp_path, 3, steps,
                                        [[20, 7], [30, 8], [40, 9]], 400)
    want = [encode_message(m) for m in (
        status(0), status(1), measurement(7), measurement(8), measurement(9),
        status(0), status(1))]
    assert frames == want
    assert streams == {"real": want, "dtp": want, "shadow": want}


def test_a_twin_recording_holds_its_commands_and_dtp_plays_its_pt2dt_bytes(
        tmp_path):
    # a recording is the thread file of the run that made it, so a twin's
    # holds its uplink commands too; the emulator plays only MEA and STA
    steps = [{"at_ms": 0, "do": "command", "value": 50},
             {"at_ms": 100, "do": "command", "value": 0},
             {"at_ms": 200, "do": "command", "value": -1}]
    data = {"name": "fidelity", "mode": "twin", "clock": "lockstep",
            "seed": 5, "duration_ms": 300, "steps": steps,
            "measurements": [[20, 7], [30, 8], [40, 9]]}
    rec = tmp_path / "twin.rec"
    recorded = record_session(parse_scenario(data), record_path=rec)
    assert recorded.ok, recorded.failures
    records = read_thread_file(rec)
    assert [r.payload for r in records if r.kind == "CMD"] == [
        encode_message(command(s["value"])) for s in steps]
    pt2dt = [r.payload for r in records
             if r.direction is ThreadDirection.PT2DT and r.is_frame]
    assert pt2dt == load_recordings(rec)
    with pt2dt_stream() as got:
        result = run_scenario(parse_scenario(
            dict(data, mode="dtp", recording=str(rec))))
    assert result.ok, result.failures
    assert got == pt2dt


PERIODS = st.one_of(st.sampled_from((-1, 0, 1, 50)),
                    st.integers(min_value=-3, max_value=60))


@st.composite
def plant_scripts(draw):
    """A command script (periods positive, zero, negative and repeated, some
    at the same tick) and a measurement schedule, on one time line."""
    gaps = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                         max_size=6))
    steps, at = [], 0
    for gap in gaps:
        at += gap
        steps.append({"at_ms": at, "do": "command", "value": draw(PERIODS)})
    times = draw(st.lists(st.integers(min_value=0, max_value=at + 40),
                          max_size=12))
    values = st.integers(min_value=MEASUREMENT_MIN, max_value=MEASUREMENT_MAX)
    measurements = [[t, draw(values)] for t in sorted(times)]
    seed = draw(st.integers(min_value=0, max_value=7))
    return seed, steps, measurements, at + 60


@given(plant_scripts())
def test_dtp_and_the_emulated_shadow_send_the_recorded_stream(script):
    seed, steps, measurements, duration_ms = script
    with tempfile.TemporaryDirectory() as tmp:
        frames, streams = record_and_replay(Path(tmp), seed, steps,
                                            measurements, duration_ms)
    assert streams["real"] == frames
    assert streams["dtp"] == frames
    assert streams["shadow"] == frames
