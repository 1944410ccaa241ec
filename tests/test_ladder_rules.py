"""The edges of every refinement-ladder rule, through the public entry points.

Each test feeds a ladder whose rungs it chooses: a scan whose per-level
values are given, a pair whose |a| + |b| minima are given, a symbol whose
log(1 - |b|) is given, or a pair whose truncated norms are given.  The
expected verdicts follow from the documented tolerances alone.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hbspace.analyzers import arc_scan, corona_check
from hbspace.convergence import Ladder
from hbspace.errors import ConvergenceError
from hbspace.space import classify_extremeness, hb_norm_squared

DEPTH = 8
UNDETERMINED = "undetermined"


def _scan(series, mode):
    """arc_scan over aligned and half-shifted arcs, every arc of level k valued series[k - 1]."""

    def value_fn(starts, length):
        level = int(round(-np.log2(length)))
        return np.full(np.size(starts), series[level - 1])

    return arc_scan(value_fn, len(series), mode=mode, complements=False)


class TestScanRule:
    @pytest.mark.parametrize("prev, verdict", [(0.9501, "pass"), (0.9499, "undetermined")])
    def test_sup_last_step_against_the_005_window(self, prev, verdict):
        scan = _scan([prev] * (DEPTH - 1) + [1.0], "sup")
        assert scan.resolutions() == (prev, 1.0)
        assert scan.verdict() == verdict

    @pytest.mark.parametrize("last, verdict", [(0.9525, "pass"), (0.9523, "undetermined")])
    def test_inf_last_step_against_the_005_window(self, last, verdict):
        # |1 - last| <= 0.05 last holds from last = 1/1.05 = 0.95238...
        scan = _scan([1.0] * (DEPTH - 1) + [last], "inf")
        assert scan.verdict() == verdict

    def test_three_consecutive_rises_by_125_diverge(self):
        scan = _scan([1.0, 1.25, 1.5625, 1.953125] + [1.953125] * (DEPTH - 4), "sup")
        assert scan.verdict() == "fail"

    @pytest.mark.parametrize("series", [
        [1.0, 1.25, 1.5625] + [1.5625] * (DEPTH - 3),  # two rises, then flat
        [1.0, 1.2499, 1.2499**2, 1.2499**3] + [1.2499**3] * (DEPTH - 4),  # rises under 1.25
        [1.0, 1.25, 1.5625, 1.5625, 1.953125, 2.44140625] + [2.44140625] * (DEPTH - 6),
    ])
    def test_fewer_than_three_consecutive_rises_stabilize(self, series):
        assert _scan(series, "sup").verdict() == "pass"

    def test_inf_series_halving_three_times_decays(self):
        scan = _scan([1.0, 0.5, 0.25, 0.125] + [0.125] * (DEPTH - 4), "inf")
        assert scan.verdict() == "fail"

    def test_inf_series_halving_twice_stabilizes(self):
        scan = _scan([1.0, 0.5, 0.25] + [0.25] * (DEPTH - 3), "inf")
        assert scan.verdict() == "pass"

    def test_inf_series_reaching_zero_fails(self):
        scan = _scan([1.0] * (DEPTH - 2) + [0.0, 0.0], "inf")
        assert scan.value == 0.0
        assert scan.verdict() == "fail"

    def test_zero_sup_series_is_bounded(self):
        # a measure that never charges a window: every ratio is 0
        assert _scan([0.0] * DEPTH, "sup").verdict() == "pass"

    def test_an_infinite_arc_fails_a_sup_scan_whose_finite_ladder_passes(self):
        # every finite ratio is 1, and one arc of the deepest level is infinite
        def value_fn(starts, length):
            vals = np.ones(np.size(starts))
            if length == 2.0 ** -DEPTH:
                vals[0] = np.inf
            return vals

        scan = arc_scan(value_fn, DEPTH, mode="sup", complements=False)
        assert scan.values == [1.0] * DEPTH
        assert Ladder.verdict(scan) == "pass"
        assert scan.infinite_witnesses and scan.verdict() == "fail"


def _corona(minima):
    """corona_check on a pair whose |a| + |b| has minimum minima[j - 1] on the radius 1 - 2^-j."""

    def a_on_circle(radius, m):
        level = int(round(-np.log2(1.0 - radius)))
        return np.full(m, minima[level - 1])

    zero = lambda radius, m: np.zeros(m)
    pair = SimpleNamespace(a=SimpleNamespace(eval_on_circle=a_on_circle),
                           b=SimpleNamespace(fn=SimpleNamespace(eval_on_circle=zero)))
    return corona_check(pair, depth=len(minima))


class TestCoronaRule:
    @pytest.mark.parametrize("floor_multiple, verdict", [
        (2.0, "pass"), (1.0, "fail"), (0.5, "fail"), (0.0, "fail"),
    ])
    def test_flat_minima_around_the_1e12_floor(self, floor_multiple, verdict):
        res = _corona([floor_multiple * 1e-12] * DEPTH)
        assert res.verdict() == verdict

    @pytest.mark.parametrize("last, verdict", [(0.9525, "pass"), (0.9523, "undetermined")])
    def test_last_step_against_the_005_window(self, last, verdict):
        assert _corona([1.0] * (DEPTH - 1) + [last]).verdict() == verdict

    def test_minima_halving_three_times_decay(self):
        assert _corona([1.0, 0.5, 0.25, 0.125] + [0.125] * (DEPTH - 4)).verdict() == "fail"

    def test_minima_halving_twice_stabilize(self):
        assert _corona([1.0, 0.5, 0.25] + [0.25] * (DEPTH - 3)).verdict() == "pass"


def _symbol(logs):
    """A symbol whose log(1 - |b|) is logs[k] everywhere on the grid of 2^(10 + k) points."""

    def gap_log(t):
        k = int(np.log2(np.size(t))) - 10
        return np.full(np.size(t), logs[k])

    return SimpleNamespace(gap_log=gap_log)


class TestExtremenessRule:
    @pytest.mark.parametrize("step, verdict", [(0.9e-6, "non-extreme"), (1.1e-6, UNDETERMINED)])
    def test_small_integrals_stabilize_by_the_1e6_atol(self, step, verdict):
        # rtol 1e-3 of 1e-4 is 1e-7, so only the absolute tolerance can hold
        got = classify_extremeness(_symbol([-1e-4, -1e-4 - step]), cap_exponent=11)
        assert got.verdict == verdict
        assert len(got.trace_values) == 2

    @pytest.mark.parametrize("step, verdict", [(0.9e-3, "non-extreme"), (1.1e-3, UNDETERMINED)])
    def test_large_integrals_stabilize_by_the_1e3_rtol(self, step, verdict):
        got = classify_extremeness(_symbol([-1.0, -1.0 - step]), cap_exponent=11)
        assert got.verdict == verdict

    def test_minus_inf_is_extreme(self):
        got = classify_extremeness(_symbol([-1.0, -np.inf, -1.0]))
        assert (got.verdict, got.log_integral) == ("extreme", None)
        assert "-inf" in got.note
        assert got.trace_sizes == (1024, 2048)

    def test_three_rises_of_the_magnitude_are_extreme(self):
        got = classify_extremeness(_symbol([-1.0, -1.5, -2.25, -3.375, -3.375]))
        assert got.verdict == "extreme"
        assert "divergence" in got.note
        assert got.trace_values == (-1.0, -1.5, -2.25, -3.375)

    def test_two_rises_then_flat_are_non_extreme(self):
        got = classify_extremeness(_symbol([-1.0, -1.5, -2.25, -2.25, -9.0]))
        assert (got.verdict, got.log_integral) == ("non-extreme", -2.25)
        assert got.trace_sizes == (1024, 2048, 4096, 8192)

    def test_neither_by_the_cap_is_undetermined(self):
        got = classify_extremeness(_symbol([-1.0, -1.125, -1.0, -1.125]), cap_exponent=13)
        assert (got.verdict, got.log_integral) == (UNDETERMINED, -1.125)


def _pair(scale):
    """A stub pair with b = 0.5 and 1/a = scale(n) on a truncation of n terms.

    For f = 1 the solve gives ||f||_b^2 = 1 + |0.5 scale(n)|^2.
    """

    def taylor(value):
        def coeffs(n):
            out = np.zeros(n, dtype=complex)
            out[0] = value(n)
            return out
        return coeffs

    return SimpleNamespace(require_nonextreme=lambda what: None,
                           b_taylor=taylor(lambda n: 0.5), inv_a_taylor=taylor(scale))


class TestNormRule:
    def test_moving_norm_raises_at_the_cap(self):
        # rungs 256, 512, ..., 4096 terms: the norm moves on every one
        pair = _pair(lambda n: (n - 1) / 1024)
        with pytest.raises(ConvergenceError, match="4096") as err:
            hb_norm_squared(np.array([1.0]), pair, start=256, cap=4096, cross_check=False)
        assert err.value.last_values == pytest.approx((2.0, 5.0), rel=1e-12)

    @pytest.mark.parametrize("step, stops", [(0.9e-8, True), (1.1e-8, False)])
    def test_last_step_against_the_1e8_rtol(self, step, stops):
        # rungs of 1024 and 2048 terms: the norm goes from 2 to 2 (1 + step)
        pair = _pair(lambda n: 2.0 if n <= 1025 else 2.0 * np.sqrt(1.0 + 2.0 * step))
        call = lambda: hb_norm_squared(np.array([1.0]), pair, start=1024, cap=2048,
                                       cross_check=False)
        if stops:
            assert call() == pytest.approx(2.0 * (1.0 + step), rel=1e-12)
        else:
            with pytest.raises(ConvergenceError):
                call()
