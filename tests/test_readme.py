"""The README's key tables list exactly what the code declares.

Each table's first column names one key per row, in backticks. The run
config table must name the `RunConfig` fields, the scenario table the
top-level keys `parse_scenario` accepts, and the example scenario's
`expect` object must hold every key of the expectation table.
"""

import json
import re
from dataclasses import fields
from pathlib import Path

from twinproto.config import EXPECTATIONS, SCENARIO_KEYS, RunConfig

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

