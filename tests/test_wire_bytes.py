"""A frame stays its wire bytes from where it is encoded to where a value is
read: a relay hop (a driver's `forward`, control, the transmitter, the
emulator, the tap) never calls the codec.

So a lockstep twin encodes each frame once, where it is made: the sensor's
answers and measurements, and the twin's own commands. An emulated plant
replays recorded bytes and encodes nothing.
"""

from __future__ import annotations

import sys

from twinproto import messages
from twinproto.config import parse_scenario
from twinproto.harness import record_session, run_scenario

STEPS = [{"at_ms": 0, "do": "command", "value": 50},
         {"at_ms": 100, "do": "command", "value": 0},
         {"at_ms": 150, "do": "inject", "value": 50},
         {"at_ms": 250, "do": "command", "value": -1}]
MISSION = {"name": "wire", "mode": "twin", "clock": "lockstep", "seed": 2,
           "duration_ms": 400, "steps": STEPS,
           "measurements": [[20, 7], [30, 8], [40, 9], [180, 10]],
           "expect": {"final_status": "OFF"}}


def count_encodes(monkeypatch):
    """A list that gets one entry per `encode_message` call, wrapped in
    every package module that binds it, which is where callers look it
    up."""
    calls = []
    original = messages.encode_message

    def counting(msg):
        calls.append(msg)
        return original(msg)

    for name, module in list(sys.modules.items()):
        if name == "twinproto" or name.startswith("twinproto."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_a_real_backed_twin_encodes_each_frame_once(monkeypatch):
    encodes = count_encodes(monkeypatch)
    result = run_scenario(parse_scenario(MISSION))
    assert result.ok, result.failures
    assert result.dt2pt_frames >= 3 and result.measurements_seen >= 3
    assert len(encodes) == result.pt2dt_frames + result.dt2pt_frames


def test_an_emulated_twin_encodes_only_its_own_commands(tmp_path, monkeypatch):
    # a recording session takes command steps only
    data = dict(MISSION, steps=[s for s in STEPS if s["do"] == "command"])
    rec = tmp_path / "wire.rec"
    recorded = record_session(parse_scenario(data), record_path=rec)
    assert recorded.ok, recorded.failures
    encodes = count_encodes(monkeypatch)
    result = run_scenario(parse_scenario(dict(data, recording=str(rec))))
    assert result.ok, result.failures
    assert result.pt2dt_frames == recorded.pt2dt_frames
    assert len(encodes) == result.dt2pt_frames >= 3
