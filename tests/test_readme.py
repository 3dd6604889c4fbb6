"""The README's key tables list exactly what the code declares.

Each table's first column names one key per row, in backticks. The run
config table must name the `RunConfig` fields, the scenario table the
top-level keys `parse_scenario` accepts, and the example scenario's
`expect` object must hold every key of the expectation table. The hop
chain table must list, for each shape, the hops of the chains the harness
builds, in their order.
"""

import json
import re
from dataclasses import fields
from pathlib import Path

from twinproto import harness
from twinproto.cli import BUNDLED_SUITE
from twinproto.config import (EXPECTATIONS, SCENARIO_KEYS, RunConfig,
                              parse_scenario)

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title) -> str:
    """The README text under the `### title` heading, up to the next
    heading."""
    text = README.read_text(encoding="utf-8")
    heading = f"\n### {title}\n"
    start = text.index(heading) + len(heading)
    end = re.compile(r"^#{2,3} ", re.M).search(text, start)
    return text[start:end.start() if end else len(text)]


def table_keys(text) -> list:
    return sorted(re.findall(r"^\| `(\w+)` +\|", text, re.M))


def test_the_run_config_table_lists_the_run_config_fields():
    assert table_keys(section("Run config files")) == \
        sorted(f.name for f in fields(RunConfig))


def test_the_scenario_table_lists_the_scenario_keys():
    assert table_keys(section("Scenario files")) == sorted(SCENARIO_KEYS)


def test_the_example_scenario_sets_every_expectation_key():
    example = re.search(r"```json\n(.*?)```", section("Scenario files"),
                        re.S).group(1)
    assert sorted(json.loads(example)["expect"]) == \
        sorted(row.key for row in EXPECTATIONS)



def wired_chains(monkeypatch, mode, clock="lockstep", **config):
    """The hop names of each chain `_wire` builds for a short `mode` run:
    (PT2DT, DT2PT)."""
    wire, chains = harness._wire, []

    def wire_and_keep(rt, scenario, cfg, wiring):
        wire(rt, scenario, cfg, wiring)  # fills the run's wiring
        chains.append(tuple([hop.name for hop in chain]
                            for chain in (wiring.pt2dt, wiring.dt2pt)))

    monkeypatch.setattr(harness, "_wire", wire_and_keep)
    recording = BUNDLED_SUITE / "recordings" / "mission.rec"
    scenario = parse_scenario({
        "name": "chains", "mode": mode, "clock": clock, "duration_ms": 50,
        "steps": [], **({"recording": str(recording)} if mode == "dtp"
                        else {})})
    assert harness.run_scenario(scenario, RunConfig(**config)).ok
    return chains[0]


def test_the_hop_chain_table_lists_each_shapes_chains(monkeypatch):
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]+)\| ([^|]+)\|$",
                      section("Hop chains"), re.M)
    table = {shape: tuple([hop.strip() for hop in chain.split(",")]
                          for chain in (up, down))
             for shape, up, down in rows}
    assert table == {mode: wired_chains(monkeypatch, mode)
                     for mode in ("pt", "dtp", "shadow", "twin")}


def test_an_isolated_run_chains_only_the_parents_hops(monkeypatch):
    text = " ".join(section("Hop chains").split())
    plant = re.search(r"the plant's hops \(([^)]+)\) run in the plant "
                      r"process", text).group(1).split(", ")
    isolated = re.search(r"a `twin` has `([^`]+)` and `([^`]+)`", text)
    in_process = wired_chains(monkeypatch, "twin")
    want = tuple(chain.split(", ") for chain in isolated.groups())
    assert want == tuple([hop for hop in chain if hop not in plant]
                         for chain in in_process)
    assert wired_chains(monkeypatch, "twin", clock="wall",
                        isolate=True) == want
