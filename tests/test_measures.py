import gc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from hbspace.circle import grid_angles
from hbspace.errors import (
    AdmissibilityError,
    ConfigurationError,
    DomainError,
    HbError,
    WeightingError,
)
from hbspace.measures import (
    ArcWindow,
    DiskMeasure,
    FactoredArcWeight,
    FunctionOnDisk,
    GridArcWeight,
    PairWeight,
    PiecewiseBoundaryWeight,
    PowerArcWeight,
    RadialPower,
    l2mu_norm,
    window_mass,
)
from hbspace.space import SymbolB, pythagorean_mate
from oracles import quadrature_depth_mass

TWO_PI = 2 * np.pi


def const_fn(c=1.0):
    return FunctionOnDisk(
        interior=lambda z: np.full(np.shape(z), c, dtype=complex),
        boundary_angles=lambda t: np.full(np.shape(t), c, dtype=complex),
    )


class TestArcWindow:
    def test_window_geometry(self):
        w = ArcWindow(0.0, 0.25)
        assert w.contains_point(np.array([0.9]))[0]  # 1 - 0.9 <= 0.125
        assert not w.contains_point(np.array([0.5]))[0]
        assert w.contains_angle(0.1) and not w.contains_angle(np.pi)

    def test_length_bounds(self):
        with pytest.raises(DomainError):
            ArcWindow(0.0, 1.5)


class TestWindowMass:
    def test_lebesgue_quarter(self):
        m = DiskMeasure.lebesgue()
        assert window_mass(m, ArcWindow(0.0, 0.25)) == pytest.approx(0.25, abs=1e-9)

    def test_radial_power_closed_form(self):
        # the arc (e^(-i theta), e^(i theta)) has normalized length theta/pi and
        # the slice mass is (theta/(2 pi))^(1-beta)/(1-beta)
        beta = 0.5
        mu = DiskMeasure.radial_power(beta)
        for theta in (0.05, 0.4, 1.0):
            win = ArcWindow(0.0, theta / np.pi)
            expect = (theta / TWO_PI) ** (1 - beta) / (1 - beta)
            assert window_mass(mu, win) == pytest.approx(expect, rel=1e-14)

    def test_atom_outside_window(self):
        mu = DiskMeasure.point_mass(0.5, 2.0)
        assert window_mass(mu, ArcWindow(0.0, 0.2)) == 0.0
        assert window_mass(mu, ArcWindow(0.0, 1.0)) == 2.0

    def test_quadrature_agrees_with_closed_form(self):
        for beta in (0.25, 0.5, 0.75):
            r = RadialPower(0.0, beta, 1.0)
            for depth in (0.01, 0.2, 0.45):
                exact = float(r._depth_mass(depth))
                assert abs(exact - quadrature_depth_mass(r, depth)) < 1e-9

    def test_additivity_on_disjoint_arcs(self):
        rng = np.random.default_rng(7)
        mu = DiskMeasure.from_density_grid(rng.uniform(0.1, 3.0, 512))
        a = mu.arc_mass((0.1, 0.15))
        b = mu.arc_mass((0.25, 0.3))
        assert mu.arc_mass((0.1, 0.45)) == pytest.approx(a + b, abs=1e-12)

    def test_monotone_in_window(self):
        mu = DiskMeasure.radial_power(0.5).plus(DiskMeasure.lebesgue())
        small = window_mass(mu, ArcWindow(0.3, 0.1))
        large = window_mass(mu, ArcWindow(0.3, 0.4))
        assert small <= large + 1e-15


class TestPowerArcWeight:
    def test_nonintegrable_exponent_is_infinite_on_touching_arcs(self):
        rec = PowerArcWeight(-1.5)
        assert rec.arc_integral(np.array([0.0]), 0.1)[0] == np.inf
        away = rec.arc_integral(np.array([1.0]), 0.05)[0]
        oracle = quad(lambda u: (2 * np.sin(u / 2)) ** -1.5, 1.0, 1.0 + 0.05 * TWO_PI)[0] / TWO_PI
        assert away == pytest.approx(oracle, rel=1e-12)

    def test_positive_exponent_matches_quad(self):
        w = PowerArcWeight(1.5)
        got = w.arc_integral(np.array([2.0]), 0.2)[0]
        oracle = quad(lambda u: np.abs(2 * np.sin(u / 2)) ** 1.5, 2.0, 2.0 + 0.2 * TWO_PI)[0] / TWO_PI
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_total_of_lebesgue(self):
        assert PowerArcWeight(0.0).total() == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma, scale", [(2.0, 0.25), (-0.5, 1.0), (-1.5, 1.0), (-1.0, 1.0),
                                              (0.5, 1.0)])
    def test_short_arcs_just_below_two_pi_keep_relative_accuracy(self, gamma, scale):
        # arcs enter as normalized floats x1 = start / 2 pi and x2 = x1 + length, so
        # the 40-digit reference integrates |2 sin(pi u)|^gamma between those floats
        mpmath.mp.dps = 40
        w = PowerArcWeight(gamma, scale, 0.0)
        for length in (1e-5, 1e-7):
            starts = TWO_PI - np.geomspace(1e-9, 1e-3, 12) - length * TWO_PI
            got = w.arc_integral(starts, length)
            for start, value in zip(starts, got):
                x1 = start / TWO_PI % 1.0
                x2 = x1 + length
                exact = scale * mpmath.quad(lambda u: abs(2 * mpmath.sin(mpmath.pi * u)) ** gamma,
                                            [1 - mpmath.mpf(x2), 1 - mpmath.mpf(x1)])
                assert value == pytest.approx(float(exact), rel=1e-10)

    def test_reduction_below_minus_one_leaves_no_garbage(self):
        # a weight and its cell pyramid form no reference cycle, whatever the exponent
        PowerArcWeight(-2.5).arc_integral(np.array([0.1, 2.0]), 0.01)
        gc.collect()
        gc.disable()
        try:
            for gamma in (-0.5, -1.5, -2.5):
                PowerArcWeight(gamma).arc_integral(np.array([1e-5, 0.1, 2.0]), 0.01)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("gamma", [0.5, -0.5, 1.5, -1.5, 2.5])
    @pytest.mark.parametrize("scale, angle", [(1.0, 0.0), (1.25, 2.0)])
    def test_cells_are_those_of_the_one_factor_product(self, gamma, scale, angle):
        # a power weight is a one-factor product whose cofactor 1 is never evaluated:
        # multiplying by 1.0 is exact, so every level-12 cell keeps its bits
        calls = []

        def ones(t):
            calls.append(np.size(t))
            return np.ones_like(t)

        power = PowerArcWeight(gamma, scale, angle)
        product = FactoredArcWeight([PowerArcWeight(gamma, scale, angle)], ones)
        assert power.cofactor is None and power.factors == [power]
        assert np.array_equal(power.cell_integrals(12), product.cell_integrals(12))
        assert calls
        t = np.linspace(0.0, TWO_PI, 1001)
        assert np.array_equal(power.values(t), product.values(t))
        if power.integrable:
            other = PowerArcWeight(1.0, 2.0, 3.0)
            assert np.array_equal(power.weighted(other).cell_integrals(12),
                                  product.weighted(other).cell_integrals(12))

    def test_weighted_reciprocal_and_factors_leave_no_garbage(self):
        # the one factor of a power weight is the weight itself, handed out in a new list
        gc.collect()
        gc.disable()
        try:
            for gamma in (0.5, -0.5, -1.5, 0.0):
                w = PowerArcWeight(gamma, 2.0, 1.0)
                assert w.factors == [w]
                w.reciprocal().arc_integral(np.array([1e-5, 0.1, 2.0]), 0.01)
                if w.integrable:
                    w.weighted(PowerArcWeight(1.0)).arc_integral(np.array([0.1, 2.0]), 0.01)
                    w.weighted(lambda t: 1.0 + 0.5 * np.cos(t)).arc_integral(np.array([0.1]), 0.01)
                del w
            assert gc.collect() == 0
        finally:
            gc.enable()


    def test_a_fresh_weight_has_computed_no_breaks(self):
        # poles, exponents and scale are read at once; the cuts wait for the first integral
        w = PowerArcWeight(-1.5, 2.0, 1.0)
        product = FactoredArcWeight([w, PowerArcWeight(0.5, 1.0, 2.0)], lambda t: 2.0 + np.cos(t))
        assert w._breaks is None and product._breaks is None
        assert not w.integrable and not w.vanishes and len(product.poles) == 1
        assert DiskMeasure(ac=PowerArcWeight(0.5)).charges()
        product.cell_integrals(10)
        assert product._breaks is not None and w._breaks is None


class TestLebesgueCells:
    def test_grid_density_is_exactly_one(self):
        weight = DiskMeasure.lebesgue().ac
        density = weight.grid_density()
        assert density.size == 2 ** 16
        assert np.all(density == 1.0)
        assert np.all(weight.cell_integrals(17) == 2.0 ** -17)

    def test_scaled_segments_in_closed_form(self):
        weight = PowerArcWeight(0.0, 2.5, 1.0)
        lo = np.array([0.0, 0.1, 0.7])
        hi = np.array([1.0, 0.35, 0.71])
        assert np.array_equal(weight.segment_integrals(lo, hi), 2.5 * (hi - lo))


class TestFactoredArcWeight:
    @pytest.fixture()
    def weight(self):
        factors = [PowerArcWeight(2.0, 1.0, 0.5), PowerArcWeight(4.0, 1.0, 3.0)]
        return FactoredArcWeight(factors, lambda t: 1.0 + 0.5 * np.cos(t))

    @staticmethod
    def oracle(w, start, length):
        end = start + length * TWO_PI
        pts = [p for p in (0.5, 3.0, 0.5 + TWO_PI, 3.0 + TWO_PI) if start < p < end]
        return quad(w.values, start, end, points=pts or None, limit=200,
                    epsabs=0.0, epsrel=1e-13)[0] / TWO_PI

    def test_arc_integrals_match_quad(self, weight):
        rec = weight.reciprocal()
        for start, length in ((0.4, 1e-3), (0.5, 2.0 ** -12), (2.0, 0.3), (5.0, 0.4),
                              (3.2, 0.8)):
            got = weight.arc_integral(np.array([start]), length)[0]
            assert got == pytest.approx(self.oracle(weight, start, length), rel=1e-10)
        for start, length in ((0.6, 0.1), (0.5 + 1e-4, 2.0 ** -12), (1.0, 0.3)):
            got = rec.arc_integral(np.array([start]), length)[0]
            assert got == pytest.approx(self.oracle(rec, start, length), rel=1e-10)
        assert weight.total() == pytest.approx(self.oracle(weight, 0.0, 1.0), rel=1e-10)

    def test_reciprocal_infinite_on_arcs_touching_a_zero(self, weight):
        rec = weight.reciprocal()
        touching = rec.arc_integral(np.array([0.5, 0.5 - 0.01 * TWO_PI, 2.95]), 0.01)
        assert np.all(touching == np.inf)
        assert np.isfinite(rec.arc_integral(np.array([3.5]), 0.01)[0])
        assert rec.arc_integral(np.array([3.5]), 0.9)[0] == np.inf  # wraps past 0.5
        assert rec.total() == np.inf

    def test_values_multiply_the_factors(self, weight):
        # one factor per angle: the cofactor times each factor's values, in factor order
        t = np.linspace(0.0, TWO_PI, 97)
        want = (1.0 + 0.5 * np.cos(t)) * weight.factors[0].values(t) * weight.factors[1].values(t)
        assert np.array_equal(weight.values(t), want)

    def test_values_where_exponents_cancel(self):
        # reverse-canonical: (1 - |b|^2)^-1 (1 + |b|) dm weighted by 1 - |b|^2 is (1 + |b|) dm,
        # two power factors at angle 0 whose exponents cancel
        from hbspace.analyzers import _gap_weight
        from hbspace.scenarios import build

        sc = build("reverse-canonical")
        pair = sc.pair
        nu = sc.measure.weighted(
            _gap_weight(pair, pair.b.fn, lambda z: 1.0 - np.abs(np.asarray(pair.b.fn(z))) ** 2))
        got = nu.ac_grid(8)
        assert got[0] == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(got, 1.0 + pair.b.boundary_modulus(grid_angles(8)),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("gamma", [-0.5, 1.5, -1.5, -2.5])
    def test_non_even_exponent_arcs_match_mpmath(self, gamma):
        # 1.5 |1 - e^(it)|^gamma times a double zero at angle 3 and a smooth cofactor; arcs
        # enter as normalized floats x1 = start / 2 pi and x2 = x1 + length, as the reference takes them
        mpmath.mp.dps = 40
        weight = FactoredArcWeight([PowerArcWeight(gamma, 1.5, 0.0), PowerArcWeight(2.0, 1.0, 3.0)],
                                   lambda t: 1.0 + 0.5 * np.cos(t))
        zero = 3 / (2 * mpmath.pi)

        def density(u):  # in turns
            t = 2 * mpmath.pi * u
            return (1.5 * abs(2 * mpmath.sin(mpmath.pi * u)) ** gamma
                    * abs(2 * mpmath.sin((t - 3) / 2)) ** 2 * (1 + mpmath.cos(t) / 2))

        arcs = [(0.0, 2.0**-12), (1 - 2.0**-17, 2.0**-17), (1 - 2.0**-10 - 1e-7, 1e-7),
                (0.95, 0.1), (0.3, 0.25), (3 / TWO_PI - 1e-3, 2e-3), (0.1, 1.0)]
        for x, length in arcs:
            x1 = TWO_PI * x / TWO_PI % 1.0
            x2 = x1 + length
            got = weight.arc_integral(TWO_PI * x, length)
            if gamma <= -1 and (x1 == 0 or x2 >= 1):  # the arc's closure holds the pole at 0
                assert got == np.inf
                continue
            ends = [mpmath.mpf(x1), mpmath.mpf(x2)]
            inner = [p for p in (zero, 1, zero + 1) if ends[0] < p < ends[1]]
            exact = mpmath.quad(density, sorted(ends + inner))
            assert got == pytest.approx(float(exact), rel=1e-10, abs=0)


LEVEL = 8  # the lattice k / 2^LEVEL of the property tests
TURN = 16  # rotations are multiples of 1/16 turn, a lattice multiple every weight admits


@st.composite
def angles(draw):
    """An angle on the 2^LEVEL lattice or anywhere on the circle."""
    if draw(st.booleans()):
        return TWO_PI * draw(st.integers(0, 2 ** LEVEL - 1)) / 2 ** LEVEL
    return draw(st.floats(0.0, TWO_PI, exclude_max=True))


@st.composite
def weights(draw):
    """A function of a rotation (radians, a multiple of 1/TURN turn) building one weight.

    The four weight classes, with random pole and zero angles on and off the lattice;
    "powered" is a factored weight of one integrable power times a smooth cofactor.
    """
    kind = draw(st.sampled_from(["power", "grid", "factored", "piecewise", "powered"]))
    if kind == "power":
        gamma = draw(st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.0, 0.7, 2.0]))
        scale, angle = draw(st.floats(0.5, 2.0)), draw(angles())
        return lambda shift: PowerArcWeight(gamma, scale, angle + shift)
    if kind == "grid":
        size = 2 ** draw(st.integers(4, LEVEL))
        values = np.asarray(draw(st.lists(st.floats(0.1, 5.0), min_size=size, max_size=size)))
        return lambda shift: GridArcWeight(np.roll(values, round(shift / TWO_PI * size)))
    if kind == "factored":
        orders = draw(st.lists(st.sampled_from([-4.0, -2.0, 2.0, 4.0]), min_size=1, max_size=3))
        where = [draw(angles()) for _ in orders]
        phi = draw(angles())
        return lambda shift: FactoredArcWeight(
            [PowerArcWeight(g, 1.0, t + shift) for g, t in zip(orders, where)],
            lambda t: 1.0 + 0.5 * np.cos(t - phi - shift))
    if kind == "piecewise":
        ends = [draw(st.floats(0.2, 3.0)) for _ in range(TURN + 1)]
        steps = [draw(st.booleans()) for _ in range(TURN)]
        reciprocal = draw(st.booleans())

        def make(shift):
            k = round(shift / TWO_PI * TURN)
            pieces = [(TWO_PI * i / TURN, TWO_PI * (i + 1) / TURN, ends[(i - k) % TURN],
                       ends[(i - k) % TURN + 1] if steps[(i - k) % TURN] else ends[(i - k) % TURN])
                      for i in range(TURN)]
            return PiecewiseBoundaryWeight(pieces, reciprocal=reciprocal)
        return make
    gamma = draw(st.floats(-0.9, 1.5))
    scale, angle, phi = draw(st.floats(0.5, 2.0)), draw(angles()), draw(angles())
    zero = draw(st.booleans())  # a correction vanishing at phi, as |a|^2 does
    return lambda shift: FactoredArcWeight(
        [PowerArcWeight(gamma, scale, angle + shift)],
        lambda t: (1.0 - np.cos(t - phi - shift)) / 2 if zero else 1.5 + np.sin(t - phi - shift))


def same_masses(got, want, rel=1e-10):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=rel, atol=0.0)


class TestCellPyramid:
    @settings(max_examples=60, deadline=None)
    @given(make=weights())
    def test_each_node_is_the_sum_of_its_children(self, make):
        w = make(0.0)
        w.cell_integrals(LEVEL)
        levels = w._pyramid
        for parent, children in zip(levels[:-1], levels[1:]):
            assert np.array_equal(parent, children[0::2] + children[1::2])

    @settings(max_examples=60, deadline=None)
    @given(make=weights(), ends=st.tuples(st.integers(0, 2 ** LEVEL), st.integers(0, 2 ** LEVEL)),
           cut=st.floats(0.001, 0.999))
    def test_lattice_route_agrees_with_off_lattice_route(self, make, ends, cut):
        i, j = sorted(ends)
        if i == j:
            return
        w = make(0.0)
        a, b = i / 2 ** LEVEL, j / 2 ** LEVEL
        c = a + cut * (b - a)  # off every lattice but for rare cuts
        whole = w.arc_integral(TWO_PI * a, b - a)
        parts = w.arc_integral(TWO_PI * a, c - a) + w.arc_integral(TWO_PI * c, b - c)
        same_masses(parts, whole)

    @settings(max_examples=60, deadline=None)
    @given(make=weights())
    @example(make=lambda shift: PowerArcWeight(-2.5, 1.0, 1e-12 + shift))  # a pole at the tolerance
    def test_a_cell_is_infinite_iff_its_closure_holds_a_pole(self, make):
        w = make(0.0)
        n = 2 ** LEVEL
        cells = w.cell_integrals(LEVEL)
        held = np.zeros(n, dtype=bool)
        for p in w.poles:
            # offset in turns from the nearest lattice point, exact for a pole near it
            u = p / TWO_PI
            m = int(np.rint(u * n))
            offset = u - m / n
            if abs(offset) <= 1e-12 / TWO_PI:  # the 1e-12 radian closure tolerance
                held[[(m - 1) % n, m % n]] = True
            else:
                held[(m if offset > 0 else m - 1) % n] = True
        assert np.array_equal(np.isinf(cells), held)
        assert np.all(cells[~held] >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(make=weights(), k=st.integers(1, TURN - 1), level=st.integers(1, LEVEL),
           starts=st.lists(st.integers(0, 2 ** LEVEL - 1), min_size=1, max_size=8))
    def test_window_masses_invariant_under_a_joint_lattice_rotation(self, make, k, level, starts):
        shift = TWO_PI * k / TURN
        x = np.asarray(starts, dtype=float) / 2 ** LEVEL
        length = 2.0 ** -level
        before = make(0.0).window_mass(x, length)
        after = make(shift).window_mass((x + k / TURN) % 1.0, length)
        same_masses(after, before)

    def test_depth_14_scan_family_of_the_gap_weighted_half_sum(self):
        # |a|^2 = (1 - cos t)/2 for b = (1 + z)/2; over [t, t + 2x] it integrates to
        # (x - sin x) + 2 sin(x) sin(t/2 + x/2)^2, two nonnegative terms.  x - sin x is
        # taken at 40 digits, and each sin(pi u) from u less the nearest whole number
        mpmath.mp.dps = 40
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        nu = DiskMeasure.lebesgue().weighted(PairWeight(
            boundary=pair.gap2_weight, point=lambda z: 1.0 - np.abs(pair.b.fn(z)) ** 2))

        def sin_pi(u):  # |sin(pi u)|
            return np.abs(np.sin(np.pi * (u - np.rint(u))))

        worst = 0.0
        for level in range(1, 15):
            length = 2.0 ** -level
            aligned = np.arange(2 ** level) * length
            shifted = aligned + 0.5 * length
            families = [(aligned, length), (shifted, length)]
            if length < 0.5:
                families += [((aligned + length) % 1.0, 1.0 - length),
                             ((shifted + length) % 1.0, 1.0 - length)]
            for starts, ell in families:
                x = mpmath.pi * mpmath.mpf(ell)
                x_minus_sin = float(x - mpmath.sin(x))
                exact = (x_minus_sin + 2 * sin_pi(ell) * sin_pi(starts + ell / 2) ** 2) / TWO_PI
                got = nu.batch_window_masses(starts, ell)
                worst = max(worst, float(np.max(np.abs(got / exact - 1.0))))
        assert worst < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(pole=angles(), zero=angles(), power=angles(), phi=angles(),
           order=st.sampled_from([-1.0, -1.5, -2.0]), gamma=st.sampled_from([-0.5, 0.5, 1.5]),
           reciprocal=st.booleans(), k=st.integers(1, 14))
    def test_scan_family_slices_agree_with_the_tree_walk(self, pole, zero, power, phi, order,
                                                         gamma, reciprocal, k):
        # a pole, an even zero, a non-even power and a cofactor; the reciprocal has its
        # poles at the zero, and at the power when gamma >= 1
        w = FactoredArcWeight([PowerArcWeight(order, 1.0, pole), PowerArcWeight(2.0, 1.0, zero),
                               PowerArcWeight(gamma, 1.3, power)], lambda t: 1.5 + np.sin(t - phi))
        w = w.reciprocal() if reciprocal else w
        length = 2.0**-k
        starts = np.arange(2 ** (k + 1)) * length / 2  # the aligned and half-shifted starts
        for ell, first in [(length, starts)] + [(1.0 - length, (starts + length) % 1.0)] * (k >= 2):
            got = w.window_mass(first, ell)
            walked = w._walk(w._pyramid[: k + 2], first, first + ell)
            assert np.array_equal(np.isinf(got), np.isinf(walked))
            finite = np.isfinite(walked)
            np.testing.assert_allclose(got[finite], walked[finite], rtol=1e-15, atol=0)
        if k >= 2:
            # an arc holding every pole inside, away from its ends: its complement is finite
            margin = 2e-12 / TWO_PI
            offsets = (np.asarray(w.poles)[None, :] / TWO_PI - starts[:, None]) % 1.0
            holds = np.all((offsets > margin) & (offsets < length - margin), axis=1)
            assert np.all(np.isfinite(w.window_mass((starts[holds] + length) % 1.0, 1.0 - length)))

    def test_each_arc_of_a_call_is_its_lone_call_bit_for_bit(self):
        # the 2^-10 arc from 325/1024 alone and with a half-shifted start, on fresh weights
        x, length = 0.3173828125, 2.0**-10
        alone = PowerArcWeight(0.5, 1.0, 2.0).window_mass(np.array([x]), length)
        mixed = PowerArcWeight(0.5, 1.0, 2.0).window_mass(np.array([x, x + length / 2]), length)
        assert alone[0] == mixed[0]
        # scan, lattice and off-lattice arcs together, then one by one on the same weight
        w = FactoredArcWeight([PowerArcWeight(-0.5, 1.2, 1.0), PowerArcWeight(2.0, 1.0, 4.0)],
                              lambda t: 1.5 + np.sin(t))
        starts = np.array([x, x + length / 2, 0.123456789, 5 / 2**13, 0.99, 1 - 2.0**-16])
        for ell in (length, 1.0 - length, 0.125, 0.3):
            together = w.window_mass(starts, ell)
            for s, value in zip(starts, together):
                assert w.window_mass(np.array([s]), ell)[0] == value

    @pytest.mark.parametrize("gamma", [0.5, -0.5, 1.5])
    def test_no_lone_arc_sets_a_fresh_weights_level(self, gamma):
        # the family arc of 2^-10 turn from 325/1024 alone, and read with a lone arc
        # from a point of a finer lattice, in one call or after it
        x, length = 0.3173828125, 2.0**-10
        for angle in (2.0, 1.0, 4.0):
            alone = PowerArcWeight(gamma, 1.0, angle).window_mass(np.array([x]), length)[0]
            for level in (14, 16, 17, 18):
                lone = 3 * 2.0**-level
                together = PowerArcWeight(gamma, 1.0, angle).window_mass(np.array([x, lone]), length)
                w = PowerArcWeight(gamma, 1.0, angle)
                w.window_mass(np.array([lone]), length)
                assert together[0] == alone == w.window_mass(np.array([x]), length)[0]

    def test_off_lattice_arcs_reuse_the_finest_pyramid(self):
        # a lone arc, from a lattice point or off every lattice, reads the pyramid as it is,
        # level 10 when none is built
        fresh = PowerArcWeight(-0.5, 1.0, 1.0)
        fresh.arc_integral(TWO_PI * 3 * 2.0**-18, 5 * 2.0**-18)
        assert len(fresh._pyramid) == 11
        w = PowerArcWeight(-0.5, 1.0, 1.0)
        w.cell_integrals(12)
        pyramid = w._pyramid
        w.arc_integral(np.array([0.123, 4.5]), 0.01)
        w.arc_integral(np.array([0.0]), 2.0 ** -9)
        w.arc_integral(TWO_PI * 3 * 2.0**-18, 5 * 2.0**-18)
        assert w._pyramid is pyramid and len(pyramid) == 13


@st.composite
def cut_weights(draw):
    """A function building fresh copies of one factored weight.

    A lone power, or a product of a pole, an even zero and a non-even power,
    any of them left out, with a cofactor peaking at its focus angle; a
    product may be taken as its reciprocal.
    """
    if draw(st.booleans()):
        gamma = draw(st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.7, 1.5, 2.0]))
        scale, angle = draw(st.floats(0.5, 2.0)), draw(angles())
        return lambda: PowerArcWeight(gamma, scale, angle)
    orders = [draw(st.sampled_from([-1.0, -1.5, -2.0])), 2.0,
              draw(st.sampled_from([-0.5, 0.5, 1.5]))]
    where = [draw(angles()) for _ in orders]
    keep = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    phi, reciprocal = draw(angles()), draw(st.booleans())

    def make():
        factors = [PowerArcWeight(g, 1.3, t) for g, t, k in zip(orders, where, keep) if k]
        w = FactoredArcWeight(factors, lambda t: 1.5 + np.sin(t - phi), focus=(phi + np.pi / 2,))
        return w.reciprocal() if reciprocal else w
    return make


def _mp_cell(density, level, k, singular=()):
    """40-digit integral against dm of the cell [k, k + 1] / 2^level, split at singular angles."""
    mpmath.mp.dps = 40
    lo, hi = 2 * mpmath.pi * k / 2**level, 2 * mpmath.pi * (k + 1) / 2**level
    points = [lo, *sorted(t for t in singular if lo < t < hi), hi]
    return mpmath.quad(density, points) / (2 * mpmath.pi)


class TestCellRule:
    """Cells of 2^-11 turn or wider take 48 Gauss-Legendre nodes, narrower ones 16, and
    uncut cells of 2^-15 turn or narrower 8; a piece cut toward a singularity keeps 16."""

    LEVELS = (11, 12, 15, 17)

    @staticmethod
    def _cells(level, t0):
        k0 = int(t0 / TWO_PI * 2**level)  # the cell holding the singular angle
        half = 2 ** (level - 1)
        return sorted({(k0 + d) % 2**level for d in (-2, -1, 0, 1, 2, half, half + 1)}
                      | {round(0.3 * 2**level) + 5})

    def _errors(self, make, density, t0, singular, pole=False):
        """Relative errors of the cells against mpmath, by (level, cell).

        With pole=True the singular angle t0 is not integrable, and a cell whose
        closure holds it must be +inf.
        """
        errors = {}
        for level in self.LEVELS:
            cells = make().cell_integrals(level)  # a fresh weight, so a pyramid of this level
            for k in self._cells(level, t0):
                u = t0 / TWO_PI * 2**level
                if pole and (k <= u <= k + 1 or (u == 0 and k == 2**level - 1)):
                    assert cells[k] == np.inf
                    continue
                exact = _mp_cell(density, level, k, singular)
                errors[level, k] = abs(cells[k] / float(exact) - 1.0)
        return errors

    @pytest.mark.parametrize("gamma", [-0.5, 1.5, -1.5, -1.0, -2.5, 2.5])
    def test_power_cells(self, gamma):
        t0 = 1.0
        density = lambda t: abs(2 * mpmath.sin((t - t0) / 2)) ** gamma if t != t0 else 0
        errors = self._errors(lambda: PowerArcWeight(gamma, 1.0, t0), density, t0,
                              [mpmath.mpf(t0)], pole=gamma <= -1)
        assert max(errors.values()) < 1e-11

    @staticmethod
    def _half_sum_factored(reciprocal):
        # |a|^2 = |1 - e^(it)|^2 / 4 for b = (1 + z)/2, and its reciprocal with a double pole
        gap = pythagorean_mate(SymbolB.rational([0.5, 0.5])).gap2_weight
        g = -1 if reciprocal else 1
        density = lambda t: (abs(2 * mpmath.sin(t / 2)) ** 2 / 4) ** g

        def make():  # a fresh copy of the pair's weight, so a fresh pyramid
            weight = FactoredArcWeight(gap.factors, gap.cofactor)
            return weight.reciprocal() if reciprocal else weight

        assert isinstance(make(), FactoredArcWeight)
        return make, density

    @pytest.mark.parametrize("reciprocal", [False, True])
    def test_half_sum_factored_cells(self, reciprocal):
        make, density = self._half_sum_factored(reciprocal)
        errors = self._errors(make, density, 0.0, [], pole=reciprocal)
        assert max(errors.values()) < 1e-11

    def test_left_of_a_pole_at_angle_zero(self):
        # offsets in turns from the pole keep the cell next to 2 pi exact
        make, density = self._half_sum_factored(True)
        level, k = 17, 2**17 - 2
        exact = _mp_cell(density, level, k)
        assert make().cell_integrals(level)[k] == pytest.approx(float(exact), rel=1e-11)

    def test_power_times_gap_cells(self):
        # 1.2 |1 - e^(i(t - 1))|^-1/2 times the half-sum's |a|^2 = (1 - cos t)/2
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        t0 = 1.0
        make = lambda: FactoredArcWeight([PowerArcWeight(-0.5, 1.2, t0)], pair.gap2_fn)
        density = lambda t: (1.2 * abs(2 * mpmath.sin((t - t0) / 2)) ** -0.5 * (1 - mpmath.cos(t)) / 2
                             if t != t0 else 0)
        errors = self._errors(make, density, t0, [mpmath.mpf(t0)])
        assert max(errors.values()) < 1e-11

    def test_lebesgue_times_gap_with_a_pole_near_the_circle(self):
        # |a|^2 = 1 - |b|^2 for b = 0.008/(1 - 0.99 z), whose pole lies 0.01 outside the circle
        pair = pythagorean_mate(SymbolB.rational([0.008], [1.0, -0.99]))
        make = lambda: DiskMeasure.lebesgue().weighted(
            PairWeight(boundary=pair.gap2_fn, point=None)).ac
        assert isinstance(make(), FactoredArcWeight)
        density = lambda t: 1 - mpmath.mpf(0.008) ** 2 / abs(1 - mpmath.mpf(0.99) * mpmath.expj(t)) ** 2
        errors = self._errors(make, density, 0.0, [])
        assert max(errors.values()) < 1e-11

    @pytest.mark.parametrize("level, nodes", [(10, 48), (11, 48), (12, 16), (14, 16), (15, 8),
                                              (17, 8)])
    def test_nodes_per_cell(self, level, nodes):
        # a zero factor and no pole: each cell is one segment, integrated by one rule
        evaluated = []

        def cofactor(t):
            evaluated.append(np.size(t))
            return np.ones(np.shape(t))

        weight = FactoredArcWeight([PowerArcWeight(2.0, 1.0, 0.5)], cofactor)
        weight.cell_integrals(level)
        assert sum(evaluated) == nodes * 2**level

    def test_cut_pieces_keep_16_nodes(self):
        # a non-even exponent at angle 0.5 cuts the level-15 cells next to it: each of their
        # pieces takes 16 nodes, every other cell 8
        evaluated = []

        def cofactor(t):
            evaluated.append(np.size(t))
            return np.ones(np.shape(t))

        weight = FactoredArcWeight([PowerArcWeight(0.5, 1.0, 0.5)], cofactor)
        weight.cell_integrals(15)
        n = 2**15
        cells = np.floor(weight._breaks * n)  # the cell holding each break
        cut, breaks = np.unique(cells[weight._breaks * n != cells], return_counts=True)
        assert cut.size > 10
        assert sum(evaluated) == 8 * (n - cut.size) + 16 * (cut.size + breaks.sum())

    @settings(max_examples=40, deadline=None)
    @given(make=cut_weights(), level=st.sampled_from([10, 11, 12, 13, 14, 15, None]))
    # factor angles at and just above angle 0: offsets from cells just below 2 pi cross it
    @example(make=lambda: FactoredArcWeight(
        [PowerArcWeight(2.0, 1.3, 0.015625), PowerArcWeight(-0.5, 1.3, 0.0)],
        lambda t: 1.5 + np.sin(t), focus=(np.pi / 2,)), level=10)
    @example(make=lambda: FactoredArcWeight(
        [PowerArcWeight(-1.0, 1.3, 0.015625), PowerArcWeight(-0.5, 1.3, 0.0625)],
        lambda t: 1.5 + np.sin(t), focus=(np.pi / 2,)), level=10)
    @example(make=lambda: FactoredArcWeight(  # and on either side of it
        [PowerArcWeight(-2.0, 1.3, TWO_PI * 0.99723), PowerArcWeight(2.0, 1.3, TWO_PI * 0.00363)],
        lambda t: 1.5 + np.sin(t), focus=(np.pi / 2,)), level=12)
    def test_whole_cells_by_angle_addition_match_the_piece_rule(self, make, level):
        # a pyramid base (level) or the 2^16 centred cells of grid_density (None): a cell
        # holding a break or within two widths of a reference angle takes the piece rule
        # bit for bit, any other the whole-cell rule, within 1e-14 of it
        w = make()
        shift = 0.5 if level is None else 0.0  # cell k starts at (k - shift) / n
        if level is None:
            n = 2**16
            got = w.grid_density(n) / n
            ends = np.concatenate([[0.0], (np.arange(n) + 0.5) / n, [1.0]])
            pieces = make()._integrals(ends[:-1], ends[1:])
            pieces[0] += pieces[-1]
            pieces = pieces[:-1]
        else:
            n = 2**level
            got = w.cell_integrals(level)
            pieces = make()._integrals(np.arange(n) / n, np.arange(1, n + 1) / n)
        assert np.array_equal(np.isinf(got), np.isinf(pieces))
        finite = np.isfinite(pieces)
        np.testing.assert_allclose(got[finite], pieces[finite], rtol=1e-14, atol=0)
        pos = w._breaks * n + shift  # in cells; a break strictly inside cell floor(pos)
        cut = np.zeros(n, dtype=bool)
        cut[np.floor(pos[pos != np.floor(pos)]).astype(int) % n] = True
        lo = (np.arange(n) - shift) / n
        offset = (w._refs[:, None] - lo) % 1.0  # from each cell's start to each reference angle
        gap = np.where(offset <= 1.0 / n, 0.0, np.minimum(offset - 1.0 / n, 1.0 - offset))
        near = cut | (np.min(gap, axis=0) < 2.0 / n * (1 - 1e-9))
        near[0] |= level is None  # the centred cell around angle 0 is two half cells
        assert np.array_equal(got[near], pieces[near])

    def test_cells_where_exponents_cancel(self):
        # reverse-canonical's nu: |a|^-2 and |a|^2 cancel at angle 0, where the cofactor
        # 1 + |b| = 1 + (1 - |2 sin(t/2)|^(1/2) / sqrt(2))^(1/2) has a |t|^(1/2) branch, so
        # the cells are cut toward angle 0 too
        from hbspace.scenarios import build

        sc = build("reverse-canonical")
        density = lambda t: 1 + mpmath.sqrt(1 - abs(2 * mpmath.sin(t / 2)) ** 0.5 / mpmath.sqrt(2))
        for level in (11, 12, 15):
            cells = sc.measure.ac.weighted(sc.pair.gap2_weight).cell_integrals(level)
            for k in (0, 1, 2**level - 2, 2**level - 1):
                assert cells[k] == pytest.approx(float(_mp_cell(density, level, k)), rel=1e-14)


class TestWeighting:
    @pytest.mark.parametrize("make", [
        lambda: PowerArcWeight(0.0),
        lambda: PowerArcWeight(-0.5, 1.2, 1.0),
        lambda: pythagorean_mate(SymbolB.rational([0.5, 0.5])).gap2_weight,
        lambda: GridArcWeight(np.linspace(0.5, 2.0, 16)),
        lambda: PiecewiseBoundaryWeight([(0.0, 1.0, 2.0, 0.5), (1.0, TWO_PI, 0.5, 2.0)]),
    ], ids=["lebesgue", "power", "factored", "grid", "piecewise"])
    def test_an_ac_measure_is_checked_without_integrating(self, make):
        # finiteness and positive mass are read from the weight's form: no pyramid is built
        w = make()
        mu = DiskMeasure(ac=w)
        assert mu.charges() and mu.carried_on_boundary()
        if not isinstance(w, PiecewiseBoundaryWeight):
            nu = mu.weighted(PairWeight(boundary=PowerArcWeight(2.0, 0.25, 3.0),
                                        point=lambda z: np.abs(1 - z * np.exp(-3j)) ** 2 / 4))
            assert nu.ac._pyramid is None
        assert w._pyramid is None

    def test_lebesgue_times_a_factored_weight_is_that_weight(self):
        gap = pythagorean_mate(SymbolB.rational([0.5, 0.5])).gap2_weight
        assert PowerArcWeight(0.0).weighted(gap) is gap
        cells = gap.cell_integrals(12)
        doubled = PowerArcWeight(0.0, 2.0, 1.0).weighted(gap)
        assert doubled is not gap
        np.testing.assert_allclose(doubled.cell_integrals(12), 2.0 * cells, rtol=1e-14, atol=0)

    def test_finiteness_and_positivity_without_integrating(self):
        pole = PowerArcWeight(-1.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            DiskMeasure(ac=pole)
        assert pole._pyramid is None
        for empty in (PowerArcWeight(0.5, 0.0), GridArcWeight(np.zeros(8))):
            mu = DiskMeasure(ac=empty)
            assert not mu.charges() and not mu.carried_on_boundary()
            assert mu.total_mass() == 0.0
        assert DiskMeasure(ac=PowerArcWeight(0.5, 0.0), radial=[RadialPower()]).charges()

    def test_identity_weight(self):
        mu = DiskMeasure.radial_power(0.5).plus(DiskMeasure.point_mass(0.3j, 1.5))
        nu = mu.weighted(PairWeight.constant(1.0))
        for win in (ArcWindow(0.0, 0.3), ArcWindow(1.0, 0.05)):
            assert window_mass(nu, win) == pytest.approx(window_mass(mu, win), rel=1e-12)

    def test_zero_weight_kills_singular_atom(self):
        # |a(1)|^2 = 0 for a = (1 - z)/2 removes an atom at 1
        mu = DiskMeasure.point_mass(np.exp(0j), 3.0)
        a_mod2 = lambda t: np.abs((1 - np.exp(1j * t)) / 2.0) ** 2
        nu = mu.weighted(PairWeight(boundary=a_mod2, point=lambda z: np.abs((1 - z) / 2) ** 2))
        assert nu.total_mass() == 0.0

    def test_weighted_radial_against_quad(self):
        beta = 0.5
        mu = DiskMeasure.radial_power(beta)
        w = PairWeight(
            boundary=lambda t: np.abs((1 - np.exp(1j * t)) / 2.0) ** 2,
            point=lambda z: np.abs((1 - z) / 2.0) ** 2,
        )
        nu = mu.weighted(w)
        d = 0.07
        got = window_mass(nu, ArcWindow(0.0, 2 * d))
        oracle = quad(lambda t: (1 - t) ** 2 / 4 * (1 - t) ** -beta, 1 - d, 1)[0]
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_weight_composition(self):
        rng = np.random.default_rng(13)
        mu = DiskMeasure.from_density_grid(rng.uniform(0.5, 2.0, 256))
        w1 = PairWeight(boundary=lambda t: 1.0 + 0.5 * np.cos(t), point=None)
        w2 = PairWeight(boundary=lambda t: 2.0 - np.sin(t), point=None)
        w12 = PairWeight(
            boundary=lambda t: (1.0 + 0.5 * np.cos(t)) * (2.0 - np.sin(t)), point=None
        )
        lhs = mu.weighted(w12)
        rhs = mu.weighted(w1).weighted(w2)
        for _ in range(50):
            win = ArcWindow(rng.uniform(0, TWO_PI), rng.uniform(0.01, 0.9))
            assert window_mass(lhs, win) == pytest.approx(window_mass(rhs, win), abs=1e-10)

    def test_scale_equivariance(self):
        mu = DiskMeasure.radial_power(0.5).plus(DiskMeasure.point_mass(0.4, 2.0))
        t = 3.7
        nu = mu.scaled(t)
        win = ArcWindow(0.0, 0.2)
        assert window_mass(nu, win) == pytest.approx(t * window_mass(mu, win), rel=1e-12)
        assert l2mu_norm(const_fn(), nu) ** 2 == pytest.approx(
            t * l2mu_norm(const_fn(), mu) ** 2, rel=1e-12
        )


class TestL2Norms:
    def test_constant_function(self):
        mu = DiskMeasure.radial_power(0.5)
        assert l2mu_norm(const_fn(), mu) == pytest.approx(np.sqrt(mu.total_mass()))

    def test_kernel_against_interior_atom(self):
        lam, z0, wgt = 0.2 + 0.1j, 0.5j, 1.7
        mu = DiskMeasure.point_mass(z0, wgt)
        k = FunctionOnDisk(interior=lambda z: 1.0 / (1.0 - np.conj(lam) * np.asarray(z)))
        expect = np.sqrt(wgt) * abs(1.0 / (1.0 - np.conj(lam) * z0))
        assert l2mu_norm(k, mu) == pytest.approx(expect, rel=1e-12)

    def test_normalized_kernel_growth_on_power_boundary(self):
        # mass of the normalized Cauchy kernel at 1 - 2^-n against
        # |1 - z|^(-beta) dm grows like 2^(n beta)
        beta = 0.6
        mu = DiskMeasure.boundary_power(beta)
        vals = []
        for n in range(4, 11):
            lam = 1 - 2.0 ** (-n)
            s = np.sqrt(1 - lam**2)
            k = FunctionOnDisk(
                interior=lambda z, lam=lam, s=s: s / (1 - lam * np.asarray(z)),
                boundary_angles=lambda t, lam=lam, s=s: s / (1 - lam * np.exp(1j * np.asarray(t))),
                focus_angles=(0.0,),
            )
            vals.append(l2mu_norm(k, mu) ** 2)
        slope = np.polyfit(np.arange(4, 11, dtype=float), np.log2(vals), 1)[0]
        assert slope == pytest.approx(beta, abs=0.05)

    def test_boundary_measure_needs_declared_boundary_values(self):
        mu = DiskMeasure.lebesgue()
        f = FunctionOnDisk(interior=lambda z: np.ones_like(z))
        with pytest.raises(AdmissibilityError):
            l2mu_norm(f, mu)

    @pytest.mark.parametrize("gamma", [-0.6, 0.5])
    @pytest.mark.parametrize("theta", [1.0, 4.0], ids=["focus-at-singularity", "focus-away"])
    def test_power_density_kernel_l2_matches_mpmath(self, gamma, theta):
        # normalized Cauchy kernels at lam = (1 - 2^-n) e^(i theta), n = 2..12, against
        # 1.3 |1 - e^(i(t - 1))|^gamma dm.  The reference runs on either side of the
        # singular angle in w = u^(1 + gamma), u the distance to it, which absorbs the power.
        mpmath.mp.dps = 40
        t0, q = 1.0, 1 + mpmath.mpf(gamma)
        weight = PowerArcWeight(gamma, 1.3, t0)
        for n in range(2, 13):
            lam = (1 - 2.0**-n) * np.exp(1j * theta)
            s = np.sqrt(1 - abs(lam) ** 2)
            k = FunctionOnDisk(
                interior=lambda z: s / (1 - np.conj(lam) * np.asarray(z)),
                boundary_angles=lambda t: s / (1 - np.conj(lam) * np.exp(1j * np.asarray(t))),
                focus_angles=(float(np.angle(lam)),),
            )
            conj_lam, gap = mpmath.conj(mpmath.mpc(lam)), 1 - abs(mpmath.mpc(lam)) ** 2

            def density(w, side):
                u = w ** (1 / q)
                kernel = gap / abs(1 - conj_lam * mpmath.expj(t0 + side * u)) ** 2
                return 1.3 * (2 * mpmath.sin(u / 2) / u) ** gamma * kernel / q

            peak, width = (theta - t0) % TWO_PI, 2.0**-n
            exact = 0
            for side in (1, -1):
                near = [side * (peak + shift + j * width) for shift in (-TWO_PI, 0.0, TWO_PI)
                        for j in (-10, 0, 10)]
                inner = sorted(mpmath.mpf(u) ** q for u in near if 1e-9 < u < np.pi)
                exact += mpmath.quad(lambda w: density(w, side), [0, *inner, mpmath.pi ** q])
            assert weight.l2(k) == pytest.approx(float(exact / (2 * mpmath.pi)), rel=1e-10, abs=0)

    def test_infinite_norm_is_legal(self):
        # (1 - t)^(-1/4) kernel-like blowup: |f|^2 ~ (1-t)^(-1) against
        # (1-t)^(-0.5) dt diverges; the norm must come back as +inf, not raise
        mu = DiskMeasure.radial_power(0.5)
        f = FunctionOnDisk(interior=lambda z: 1.0 / (1.0 - np.abs(np.asarray(z)) + 1e-300) ** 0.5)
        assert l2mu_norm(f, mu) == np.inf


class TestPiecewiseWeight:
    def test_values_and_integrals(self):
        pieces = [
            (0.0, 1.0, 2.0, 2.0),
            (1.0, 2.0, 2.0, 0.5),
            (2.0, TWO_PI, 0.5, 0.5),
        ]
        w = PiecewiseBoundaryWeight(pieces)
        assert w.values(np.array([0.5]))[0] == pytest.approx(2.0)
        assert w.values(np.array([3.0]))[0] == pytest.approx(0.5)
        got = w.arc_integral(np.array([0.5]), 0.3)[0]
        oracle = quad(lambda t: float(w.values(np.array([t]))[0]), 0.5,
                      0.5 + 0.3 * TWO_PI, limit=200)[0] / TWO_PI
        assert got == pytest.approx(oracle, rel=1e-9)
        rec = w.reciprocal()
        got_r = rec.arc_integral(np.array([0.5]), 0.3)[0]
        oracle_r = quad(lambda t: 1.0 / float(w.values(np.array([t]))[0]), 0.5,
                        0.5 + 0.3 * TWO_PI, limit=200)[0] / TWO_PI
        assert got_r == pytest.approx(oracle_r, rel=1e-9)

    def test_reciprocal_joins_next_to_angle_zero_match_mpmath(self):
        # the oscillating-a2 weight's n = 8 joins, 0.5 <-> 0.00129, whose reciprocal has
        # poles 0.029 join-widths off a plateau end; each whole and split at a cell edge.
        # The mirrored joins next to 2 pi are taken between their float radian ends.
        from hbspace.scenarios import oscillating_modulus

        mpmath.mp.dps = 30
        rec = oscillating_modulus(1.2, 8)[0].reciprocal()
        joins = [p for p in rec.pieces if p[2] != p[3]]
        for piece in joins[:2] + joins[-2:]:
            lo, hi, v0, v1 = map(mpmath.mpf, piece)
            x = lambda t: min(max((t - lo) / (hi - lo), 0), 1)
            density = lambda t: 1 / (v0 + (v1 - v0) * (3 * x(t) ** 2 - 2 * x(t) ** 3))
            inner = [lo + (hi - lo) * mpmath.mpf(f)
                     for f in (1e-3, 0.01, 0.03, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.99, 0.999)]
            a, b = piece[0] / TWO_PI, piece[1] / TWO_PI  # turns
            edge = np.rint(0.5 * (a + b) * 2**30) / 2**30
            assert a < edge < b
            starts, ends = np.array([a, a, edge]), np.array([b, edge, b])
            for s, e, got in zip(starts, ends, rec.segment_integrals(starts, ends)):
                t1, t2 = mpmath.mpf(TWO_PI * s), mpmath.mpf(TWO_PI * e)
                exact = mpmath.quad(density, [t1, *[t for t in inner if t1 < t < t2], t2])
                assert got == pytest.approx(float(exact / (2 * mpmath.pi)), rel=1e-12, abs=0)

    def test_must_partition(self):
        with pytest.raises(Exception):
            PiecewiseBoundaryWeight([(0.0, 1.0, 1.0, 1.0)])

    @pytest.mark.parametrize("operation, error", [
        (lambda mu: mu.weighted(PairWeight.constant(2.0)), WeightingError),
        (lambda mu: mu.scaled(2.0), ConfigurationError),
        (lambda mu: mu.to_json(), ConfigurationError),
        (lambda mu: l2mu_norm(const_fn(), mu), AdmissibilityError),
    ], ids=["weighted", "scaled", "to_json", "l2"])
    @pytest.mark.parametrize("weight", [
        PiecewiseBoundaryWeight([(0.0, 1.0, 2.0, 0.5), (1.0, TWO_PI, 0.5, 2.0)]),
        FactoredArcWeight([PowerArcWeight(2.0, 1.0, 1.0)], lambda t: np.ones_like(t)),
    ], ids=["piecewise", "factored"])
    def test_operations_without_a_rule_raise_hb_errors(self, weight, operation, error):
        mu = DiskMeasure(ac=weight)
        if isinstance(weight, FactoredArcWeight) and error is WeightingError:
            # a factored weight has a rule for weighting: it multiplies its cofactor
            assert operation(mu).total_mass() == pytest.approx(2.0 * mu.total_mass(), rel=1e-14)
            return
        with pytest.raises(error) as err:
            operation(mu)
        assert isinstance(err.value, HbError)


class TestSerialization:
    def test_measure_round_trip(self):
        mu = DiskMeasure(
            ac=PowerArcWeight(-0.5, 2.0, 1.0),
            radial=[RadialPower(0.0, 0.5, 1.5)],
        ).plus(DiskMeasure.point_mass(0.3 + 0.1j, 2.0)).plus(
            DiskMeasure.point_mass(np.exp(1j), 0.7)
        )
        doc = mu.to_json()
        back = DiskMeasure.from_json(doc)
        for win in (ArcWindow(0.0, 0.21), ArcWindow(1.0, 0.05), ArcWindow(3.0, 0.6)):
            assert window_mass(back, win) == pytest.approx(window_mass(mu, win), rel=1e-12)

    def test_grid_density_round_trip(self):
        rng = np.random.default_rng(3)
        mu = DiskMeasure.from_density_grid(rng.uniform(0, 2, 64), label="x")
        back = DiskMeasure.from_json(mu.to_json())
        assert back.label == "x"
        assert back.total_mass() == pytest.approx(mu.total_mass())

    def test_infinite_power_rejected(self):
        with pytest.raises(DomainError):
            DiskMeasure.boundary_power(1.0)
        with pytest.raises(DomainError):
            DiskMeasure.radial_power(1.2)

    def test_symbol_round_trip(self):
        from hbspace.space import SymbolB

        b = SymbolB.rational([0.5, 0.5])
        back = SymbolB.from_json(b.to_json())
        z = 0.3 + 0.4j
        assert complex(np.asarray(back.fn(np.array([z])))[0]) == pytest.approx(
            complex(np.asarray(b.fn(np.array([z])))[0])
        )

    def test_outer_symbol_round_trip(self):
        from hbspace.space import SymbolB

        w = lambda t: 0.8 - 0.1 * np.cos(t)
        b = SymbolB.from_outer_modulus(w, size=2 ** 10)
        back = SymbolB.from_json(b.to_json())
        t = grid_angles(64)
        assert np.max(np.abs(back.boundary_modulus(t) - b.boundary_modulus(t))) < 1e-6

    def test_inner_times_outer_round_trip(self):
        from hbspace.space import SymbolB

        b = SymbolB.inner_times_outer([0.5, -0.25j], lambda t: 0.7 + 0.1 * np.sin(t),
                                      size=2 ** 10)
        back = SymbolB.from_json(b.to_json())
        z = np.array([0.2 + 0.3j])
        assert abs(complex(back.fn(z)[0]) - complex(b.fn(z)[0])) < 1e-5
