"""The README's rule table names every ladder rule with the tolerances the code uses."""

from pathlib import Path

import pytest

from hbspace.convergence import RULES

README = Path(__file__).resolve().parents[1] / "README.md"


def _number(x):
    return "—" if x is None else f"{x:g}".replace("e-0", "e-")


def _rows():
    rows = {}
    for line in README.read_text().splitlines():
        if not line.lstrip().startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|", 6)]
        if len(cells) == 7:
            rows[cells[0].strip("`")] = cells[1:6]
    return rows


@pytest.mark.parametrize("name", sorted(RULES))
def test_readme_table_row_matches_the_rule(name):
    rule = RULES[name]
    trend = ("—" if rule.trend is None
             else f"exponent ≤ {_number(rule.trend)} over the last {rule.trend_rungs} rungs")
    runs = "—" if rule.runs is None else str(rule.runs)
    expected = [_number(rule.rtol), _number(rule.atol), _number(rule.floor), runs, trend]
    assert _rows().get(name) == expected


def test_readme_table_has_no_stale_rows():
    assert set(_rows()) == set(RULES)
