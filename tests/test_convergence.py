"""Every rule has a reader, and the kernel rule's edges, on ladders of chosen kernel-ratio maxima."""

from pathlib import Path

import numpy as np
import pytest

import hbspace
from hbspace.convergence import RULES, Ladder, Rule

SIZES = [2 ** j for j in range(1, 11)]


def _kernel(values):
    return Ladder(rule=RULES["kernel"], sizes=SIZES, values=list(values))


@pytest.mark.parametrize("last, verdict", [(1.3, "pass"), (1.34, "undetermined")])
def test_last_step_against_the_025_window(last, verdict):
    # |last - 1| <= 0.25 last holds up to last = 4/3; the trend stays near -0.03
    assert _kernel([1.0] * 9 + [last]).verdict() == verdict


@pytest.mark.parametrize("power, verdict", [(0.09, "pass"), (0.11, "fail")])
def test_growth_like_a_power_of_the_level_size(power, verdict):
    # maxima growing like 2^(j power) rise by at most 8% a level, so only the
    # trend (exponent <= -0.1 against 2^-j over the last 8 levels) can fire
    ladder = _kernel(np.asarray(SIZES, dtype=float) ** power)
    assert ladder.trend_exponent() == pytest.approx(-power, rel=1e-9)
    assert ladder.verdict() == verdict


@pytest.mark.parametrize("power, verdict", [(-0.5, "fail"), (0.5, "undetermined")])
def test_an_inf_ladder_reads_its_trend_on_the_reciprocals(power, verdict):
    # minima decaying like size^-1/2 have reciprocals growing like size^1/2: decay fails;
    # growing minima are not decay, and they never stabilize
    rule = Rule("t", rtol=0.05, runs=None, trend=-0.1)
    ladder = Ladder(rule=rule, mode="inf", sizes=SIZES,
                    values=list(np.asarray(SIZES, dtype=float) ** power))
    assert ladder.trend_exponent() == pytest.approx(power, rel=1e-9)
    assert ladder.verdict() == verdict


def test_every_rule_is_read_by_name():
    # a row that no module reads has outlived its reader
    source = "".join(p.read_text() for p in Path(hbspace.__file__).parent.glob("*.py"))
    assert [name for name in RULES if f'RULES["{name}"]' not in source] == []
