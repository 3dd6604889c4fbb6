"""Only `_wire` reads a shape's drivers: every other reader walks its chains.

`_wire` builds each direction's chain of hops once, and the link losses,
the record check, the dry check and the result read those chains. A
function in `harness.py` that reads a driver, or the device's serve-loop
counts, off the plant or the twin keeps a second list of a shape's hops.
The scan fails on any function or class other than `_wire` that loads one
of DRIVER_ATTRIBUTES. Replay reads no driver: its feeder calls the shadow's
engine itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

from twinproto import harness

DRIVER_ATTRIBUTES = frozenset({"sensor_driver", "tx_driver", "ingest_driver",
                               "uplink_driver", "device_stats"})


def driver_reads(source: str) -> dict:
    """Top-level function or class name -> the sorted DRIVER_ATTRIBUTES
    that its body, nested definitions included, loads."""
    found = {}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and node.attr in DRIVER_ATTRIBUTES
                    and isinstance(node.ctx, ast.Load)):
                found.setdefault(getattr(top, "name", "<module>"),
                                 set()).add(node.attr)
    return {name: sorted(attrs) for name, attrs in found.items()}


def test_the_scan_finds_a_planted_driver_read():
    source = ("def _wire(plant):\n"
              "    def hop():\n"
              "        return plant.sensor_driver\n"
              "    return hop()\n"
              "\n"
              "class Result:\n"
              "    def collect(self, twin):\n"
              "        self.seen = twin.ingest_driver.stats\n"
              "\n"
              "def _losses(wiring):\n"
              "    wiring.tx_driver = None\n"  # a store, not a read
              "    return wiring.plant.device_stats.exhausted\n")
    assert driver_reads(source) == {"_wire": ["sensor_driver"],
                                    "Result": ["ingest_driver"],
                                    "_losses": ["device_stats"]}


def test_only_wire_reads_a_shapes_drivers():
    source = Path(harness.__file__).read_text(encoding="utf-8")
    assert sorted(set(driver_reads(source)) - {"_wire"}) == []
