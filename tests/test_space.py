import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspace.circle import grid_angles
from hbspace.errors import (
    AlphaResonanceError,
    DiagnosticsError,
    DomainError,
    ExtremeDegenerateError,
    UnsupportedError,
)
from hbspace.functions import PowerOuter, RationalFn, polyval_ascending
from hbspace.measures import FactoredArcWeight, PowerArcWeight
from hbspace.scenarios import build
from hbspace.space import (
    SymbolB,
    cauchy_kernel_taylor,
    classify_extremeness,
    clark_density,
    hb_inner,
    hb_kernel_taylor,
    hb_norm,
    hb_norm_squared,
    kernel_eval,
    kernel_norm_closed_form,
    l1_gap_test,
    monomial_norm,
    pair_from_outer_a,
    pythagorean_mate,
    random_unimodular_alpha,
    rational_falpha_decompose,
    taylor_b_over_a,
)


def double_zero_symbol(turn=0.0):
    """The rational b whose mate is a = (1 - e^(-2 pi i turn) z)^2/4, zero twice at 2 pi turn."""
    from hbspace.functions import fejer_riesz, modulus_squared_coeffs

    tau = -modulus_squared_coeffs(np.array([0.25, -0.5, 0.25]))
    tau[0] += 1.0
    q = fejer_riesz(tau).q
    return SymbolB.rational(q * np.exp(-2j * np.pi * turn) ** np.arange(q.size))


@pytest.fixture(scope="module")
def half_sum():
    return pythagorean_mate(SymbolB.rational([0.5, 0.5]))


@pytest.fixture(scope="module")
def zero_pair():
    return pythagorean_mate(SymbolB.rational([0.0]))


@pytest.fixture(scope="module")
def alpha_pair():
    return pair_from_outer_a(PowerOuter(0.25))


class TestPythagoreanMate:
    def test_halfsum_mate_closed_form(self, half_sum):
        assert np.allclose(half_sum.a.num, [0.5, -0.5], atol=1e-12)
        assert np.allclose(half_sum.a.den, [1.0], atol=1e-12)

    def test_zero_symbol(self, zero_pair):
        assert np.allclose(zero_pair.a.num, [1.0])

    def test_alpha_power_mate_matches_closed_form(self):
        # build the mate from the b side and compare with c (1 - z)^alpha
        alpha, c = 0.25, 2.0 ** -0.25
        target = PowerOuter(alpha)
        w_b = lambda t: np.clip(1.0 - (c * np.abs(2 * np.sin(t / 2)) ** alpha) ** 2, 0, None)
        b = SymbolB.from_outer_modulus(lambda t: np.sqrt(w_b(t)))
        pair = pythagorean_mate(b)
        z = 0.9 * np.exp(1j * np.linspace(0.1, 6.2, 25))
        assert np.max(np.abs(pair.a(z) - target(z))) < 1e-6

    def test_mate_identity_for_all_pairs(self, half_sum, zero_pair, alpha_pair):
        for pair in (half_sum, zero_pair, alpha_pair):
            assert pair.mate_residual() <= 1e-7

    def test_inner_symbol_is_degenerate(self):
        with pytest.raises(ExtremeDegenerateError):
            pythagorean_mate(SymbolB.rational([0.0, 1.0]))

    def test_boundary_values_of_a_grid_outer_interpolate_its_grid(self, alpha_pair):
        # b of the outer route is interpolated on the 2^16 grid, cached in a slot of
        # the pair rather than in its reportable diagnostics
        n = 2 ** 16
        grid = alpha_pair.b_boundary(n)
        np.testing.assert_allclose(alpha_pair.b_at_angles(grid_angles(n)[::997]), grid[::997],
                                   rtol=1e-12, atol=0.0)
        mid = alpha_pair.b_at_angles(grid_angles(n, offset=True)[:5])
        np.testing.assert_allclose(mid, (grid[:5] + grid[1:6]) / 2, rtol=1e-12, atol=0.0)
        assert not any(k.startswith("_") for k in alpha_pair.diagnostics)

    def test_a_positive_at_zero(self, half_sum, alpha_pair):
        assert complex(np.asarray(half_sum.a(np.array([0.0])))[0]).real > 0
        assert complex(np.asarray(alpha_pair.a(np.array([0.0])))[0]).real > 0


class TestSymbolConstructors:
    MODULI = {"callable": lambda t: 0.7 + 0.1 * np.sin(t),
              "samples": 0.7 + 0.1 * np.sin(grid_angles(2 ** 10))}

    @pytest.mark.parametrize("kind", sorted(MODULI))
    def test_inner_times_outer_takes_the_outer_of_from_outer_modulus(self, kind):
        modulus = self.MODULI[kind]
        product = SymbolB.inner_times_outer([0.5, -0.25j], modulus, size=2 ** 10).fn
        outer = SymbolB.from_outer_modulus(modulus, size=2 ** 10).fn
        assert np.array_equal(product.factors[1].one_sided, outer.one_sided)

    @pytest.mark.parametrize("bad", [0.0, 1.5])
    @pytest.mark.parametrize("build", [
        lambda m: SymbolB.from_outer_modulus(m),
        lambda m: SymbolB.inner_times_outer([0.5], m),
    ], ids=["outer", "inner-times-outer"])
    def test_samples_outside_the_unit_interval_are_refused(self, build, bad):
        samples = np.full(256, 0.5)
        samples[3] = bad
        with pytest.raises(DomainError, match=r"outer-modulus samples must lie in \(0, 1\]"):
            build(samples)


class TestGapWeight:
    # by the order of the boundary zero of their mates (none, simple, double), symbols
    # 0.8 (1 + z)/2, (1 + z)/2 and (1 + z)/2 p with |p|^2 = (3 - cos t)/2; the zero, if
    # any, sits at angle 0 and moves to 2 pi turn when b(z) becomes b(e^(-2 pi i turn) z)
    SYMBOLS = ([0.4, 0.4], [0.5, 0.5], np.polynomial.polynomial.polymul(
        [0.5, 0.5], [np.sqrt((1.5 + np.sqrt(2)) / 2), -np.sqrt((1.5 - np.sqrt(2)) / 2)]))

    @settings(max_examples=25, deadline=None)
    @given(order=st.sampled_from([0, 1, 2]), turn=st.floats(0.0, 1.0, exclude_max=True),
           route=st.sampled_from(["mate", "outer-a"]))
    def test_gap_weight_is_one_minus_b_squared(self, order, turn, route):
        self.check_gap_weight(order, turn, route)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_outer_a_route_with_a_zero_of_b_on_a_grid_point(self, order):
        # at turn 2^-14 the zero of b, at angle pi + 2 pi turn, is a point of the
        # 2^13-point offset grid, where samples of 1 - |a|^2 read exactly 0
        self.check_gap_weight(order, 2.0 ** -14, "outer-a")

    def check_gap_weight(self, order, turn, route):
        coeffs = np.asarray(self.SYMBOLS[order])
        b = SymbolB.rational(coeffs * np.exp(-2j * np.pi * turn) ** np.arange(coeffs.size))
        pair = pythagorean_mate(b)
        if route == "outer-a":
            # the mate handed over alone: the pair finds its zeros by the same rule
            pair = pair_from_outer_a(pair.a)
        w = pair.gap2_weight
        # a zero of a is a pole of the reciprocal, wherever it sits
        assert len(w.reciprocal().poles) == min(order, 1)
        t = np.append(grid_angles(997, offset=True), 2 * np.pi * turn)
        gap = 1.0 - np.abs(b(np.exp(1j * t))) ** 2
        np.testing.assert_allclose(w.values(t), gap, rtol=0, atol=1e-12)
        off = np.abs((t / (2 * np.pi) - turn + 0.5) % 1.0 - 0.5) > 1e-3
        np.testing.assert_allclose(w.values(t[off]) * w.reciprocal().values(t[off]), 1.0,
                                   rtol=1e-12)
        assert abs(w.total() - np.mean(pair.gap2_grid(2 ** 16))) <= 1e-10

    def test_a_rational_a_handed_to_pair_from_outer_a_is_held(self):
        # (1 - z)/2, the mate of (1 + z)/2, handed over alone: the A2 scan of its gap
        # weight fails on the same three arcs as the Fejer-Riesz mate's
        from hbspace.analyzers import a2_check

        pair = pair_from_outer_a(RationalFn([0.5, -0.5]))
        assert pair.a_boundary_zeros == pytest.approx([1.0])
        got = a2_check(pair.gap2_weight, depth=10)
        want = a2_check(pythagorean_mate(SymbolB.rational([0.5, 0.5])).gap2_weight, depth=10)
        assert got.verdict() == "fail"
        assert len(got.infinite_witnesses) == 3
        assert got.infinite_witnesses == want.infinite_witnesses

    @pytest.mark.parametrize("theta", [0.0, 1.0, 4.0])
    def test_a_constant_cofactor_is_a_scale(self, theta):
        # the rotated half-sum: |a|^2 = |1 - e^(i(t - theta))|^2 / 4, a power product with
        # the scale 1/4 and no cofactor; its cells, and those of its reciprocal, match
        # the cofactor form within a few ulp
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j * theta)]))
        weight = pair.gap2_weight
        assert weight.cofactor is None
        quotient = RationalFn(pair.a_cofactor, pair.a.den)
        form = FactoredArcWeight(
            [PowerArcWeight(2.0, 1.0, np.angle(z)) for z in pair.a_boundary_zeros],
            lambda t: np.clip(quotient.boundary_modulus(t) ** 2, 0.0, None))
        ulps = 4 * np.finfo(float).eps
        np.testing.assert_allclose(weight.cell_integrals(15), form.cell_integrals(15),
                                   rtol=ulps, atol=0.0)
        np.testing.assert_allclose(weight.reciprocal().cell_integrals(12),
                                   form.reciprocal().cell_integrals(12), rtol=ulps, atol=0.0)


class TestInverseGapWeight:
    """pair.inverse_gap_weight is (1 - |b|)^-1 = (1 + |b|) |a|^-2 on the circle."""

    def test_values_and_the_one_reciprocal(self, half_sum):
        w = half_sum.inverse_gap_weight
        t = grid_angles(997, offset=True)
        expected = 1.0 / (1.0 - np.abs(half_sum.b(np.exp(1j * t))))
        np.testing.assert_allclose(w.values(t), expected, rtol=1e-9)
        # built from the gap weight's one reciprocal, which is kept
        assert half_sum.gap2_weight.reciprocal() is half_sum.gap2_weight.reciprocal()
        assert w.factors == half_sum.gap2_weight.reciprocal().factors

    def test_cells_next_to_the_antipode_against_mpmath(self, alpha_pair):
        # |a|^2 = |sin(t/2)|^(1/2) and 1 + |b| = 1 + sqrt(1 - |a|^2), which vanishes
        # at t = pi: a difference 1 - |a|^2 taken there loses its relative accuracy
        cells = alpha_pair.inverse_gap_weight.cell_integrals(17)
        n = 2 ** 17

        def density(t):
            a2 = abs(mpmath.sin(t / 2)) ** mpmath.mpf("0.5")
            return (1 + mpmath.sqrt(1 - a2)) / a2

        with mpmath.workdps(40):
            for k in range(n // 2 - 3, n // 2 + 3):
                exact = mpmath.quad(density, [2 * mpmath.pi * k / n, 2 * mpmath.pi * (k + 1) / n])
                assert cells[k] == pytest.approx(float(exact / (2 * mpmath.pi)), rel=1e-14, abs=0)


class TestExtremeness:
    def test_gauss_modulus_is_extreme(self):
        def gap_log(t):
            theta = np.angle(np.exp(1j * np.asarray(t, dtype=float)))
            with np.errstate(divide="ignore"):
                return -1.0 / np.where(theta == 0, 0.0, theta**2)

        def modulus(t):
            with np.errstate(over="ignore"):
                return 1.0 - np.exp(gap_log(t))

        b = SymbolB.modulus_only(modulus, gap_log_fn=gap_log)
        assert classify_extremeness(b).verdict == "extreme"

    def test_halfsum_nonextreme_with_stabilized_integral(self, half_sum):
        v = half_sum.extremeness
        assert v.verdict == "non-extreme"
        assert v.log_integral is not None and np.isfinite(v.log_integral)

    def test_inner_z_is_extreme(self):
        assert classify_extremeness(SymbolB.rational([0.0, 1.0])).verdict == "extreme"

    @pytest.mark.parametrize("turn", [k / n for n in (2048, 4096) for k in (1, 3, 5, 7, 9)])
    def test_a_zero_of_a_on_an_offset_grid_point_is_no_extremeness(self, turn):
        # the rotated half-sum's a vanishes at 2 pi turn, a point of the offset 2048-point
        # grid, which reads log(1 - |b|) = -inf there; b is rational and not inner
        b = SymbolB.rational([0.5, 0.5 * np.exp(-2j * np.pi * turn)])
        got = classify_extremeness(b)
        assert got.verdict == "non-extreme"
        assert np.all(np.isfinite(got.trace_values))
        assert len(got.trace_sizes) == len(got.trace_values)
        assert pythagorean_mate(b).is_nonextreme

    def test_rational_symbols_at_seeded_turns_are_non_extreme(self):
        # simple and double zeros of a; near a double zero 1 - |b| ~ t^4 / 32 rounds to 0
        for turn in np.random.default_rng(0).uniform(0, 1, 40):
            simple = SymbolB.rational([0.5, 0.5 * np.exp(-2j * np.pi * turn)])
            for b in (simple, double_zero_symbol(turn)):
                assert classify_extremeness(b).verdict == "non-extreme"

    @pytest.mark.parametrize("k", [1, 2])
    def test_declared_outer_mates_at_seeded_turns_are_non_extreme(self, k):
        # a = ((1 - e^(-2 pi i u) z)/2)^k; next to its zero |b| = sqrt(1 - |a|^2) rounds to 1
        for turn in np.random.default_rng(0).uniform(0, 1, 40):
            a = RationalFn(np.polynomial.polynomial.polypow(
                [0.5, -0.5 * np.exp(-2j * np.pi * turn)], k), [1.0])
            assert pair_from_outer_a(a).extremeness.verdict == "non-extreme"


class TestHbNorm:
    def test_h2_limit(self, zero_pair):
        assert hb_norm(np.array([1.0 + 0j]), zero_pair) == pytest.approx(1.0)

    def test_kernel_matches_closed_form_halfsum(self, half_sum):
        # oracle: norm^2 = (1 + |b/a|^2(lam)) / (1 - lam^2) = 40/3 at lam = 1/2
        lam = 0.5
        closed = kernel_norm_closed_form(lam, half_sum)
        assert closed.norm_squared == pytest.approx(40.0 / 3.0, rel=1e-12)
        got = hb_norm_squared(cauchy_kernel_taylor(lam), half_sum)
        assert got == pytest.approx(closed.norm_squared, rel=1e-6)

    def test_multiplier_contraction(self, half_sum):
        # ||a * 1||_b <= ||1||_2 = 1
        assert hb_norm(half_sum.a_taylor(4), half_sum) <= 1.0 + 1e-9

    def test_multiplier_contraction_random(self, half_sum):
        rng = np.random.default_rng(17)
        for _ in range(20):
            deg = int(rng.integers(1, 12))
            g = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            ag = np.convolve(half_sum.a_taylor(deg + 2)[:2], g)
            assert hb_norm(ag, half_sum, cross_check=False) <= np.linalg.norm(g) + 1e-9

    def test_contractive_in_h2(self, half_sum, alpha_pair):
        rng = np.random.default_rng(23)
        for pair in (half_sum, alpha_pair):
            for _ in range(5):
                f = rng.normal(size=8) + 1j * rng.normal(size=8)
                assert hb_norm(f, pair, cross_check=False) >= np.linalg.norm(f) - 1e-9

    def test_extreme_pair_unsupported(self):
        b = SymbolB.rational([0.0, 1.0])
        ext = classify_extremeness(b)
        from hbspace.space import PythagoreanPair

        pair = PythagoreanPair.__new__(PythagoreanPair)
        pair.extremeness = ext
        with pytest.raises(UnsupportedError):
            pair.require_nonextreme("x")

    def test_monomials_against_geometric_oracle(self, half_sum):
        # b/a = (1+z)/(1-z): coefficients 1, 2, 2, ...; the norm identity gives
        # ||z^n||^2 = 1 + (1 + 4n) = 2 + 4n, a closed form independent of the solver
        for n in (0, 3, 10):
            e = np.zeros(n + 1, dtype=complex)
            e[n] = 1.0
            assert hb_norm_squared(e, half_sum, cross_check=False) == pytest.approx(
                2.0 + 4.0 * n, rel=1e-10
            )

    def test_truncation_ladder_stays_under_the_cap(self, half_sum, monkeypatch):
        # the Taylor series of the kernel at 0.999 fills 36,824 terms of the 65,536 cap:
        # the first rung starts there and the second is clamped to the cap; a small
        # kernel keeps its rungs 2048, 4096, ...
        import hbspace.space as space

        rungs = []
        attempt = space._norm_attempt

        def recording(f, pair, m, norm2_f):
            rungs.append(m)
            return attempt(f, pair, m, norm2_f)

        monkeypatch.setattr(space, "_norm_attempt", recording)
        got = hb_norm_squared(cauchy_kernel_taylor(0.999), half_sum)
        assert rungs == [36824, 65536]
        # (1 + |b/a|^2)/(1 - lam^2) with b(0.999) = 1.999/2, a(0.999) = 0.001/2
        assert got == pytest.approx(1999000500.25, rel=1e-12)
        rungs.clear()
        hb_norm_squared(cauchy_kernel_taylor(0.5), half_sum)
        assert rungs[:2] == [2048, 4096]

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_cross_check_reads_the_known_zeros_of_a(self, theta, monkeypatch):
        # a of the rotated half-sum vanishes at theta: 4096 samples of |a| read 0 at
        # angle 0 but 7.8e-5 at angle 1, and the check skips both; a zero-free a runs it
        from hbspace import space

        calls = []
        mul = space.analytic_mul
        monkeypatch.setattr(space, "analytic_mul", lambda *args: calls.append(1) or mul(*args))
        for coeffs, runs in (([0.5, 0.5 * np.exp(-1j * theta)], []), ([0.0, 0.5], [1])):
            pair = pythagorean_mate(SymbolB.rational(coeffs))
            calls.clear()
            hb_norm_squared(cauchy_kernel_taylor(0.5), pair)
            assert calls == runs

    def test_cross_check_route_agrees_when_bounded(self):
        # b = z/2 has mate sqrt(3)/2, so conj(b/a) f is grid-bounded and the
        # direct T route must agree with the triangular solve
        pair = pythagorean_mate(SymbolB.rational([0.0, 0.5]))
        val = hb_norm(np.array([1.0, 0.5, 0.25j]), pair, cross_check=True)
        assert np.isfinite(val)


class TestKernels:
    def test_zero_symbol_gives_cauchy_kernel(self, zero_pair):
        lam, z = 0.3 + 0.2j, 0.1 - 0.4j
        assert kernel_eval(lam, z, zero_pair) == pytest.approx(
            1.0 / (1.0 - np.conj(lam) * z)
        )

    def test_lambda_zero(self, half_sum):
        z = 0.4
        expect = 1.0 - np.conj(0.5) * (1 + z) / 2.0
        assert kernel_eval(0.0, z, half_sum) == pytest.approx(expect)

    def test_halfsum_value(self, half_sum):
        assert kernel_eval(0.5, 0.0, half_sum) == pytest.approx(0.625)

    def test_closed_form_trivials(self, zero_pair, half_sum):
        assert kernel_norm_closed_form(0.0, zero_pair).norm_squared == pytest.approx(1.0)
        assert kernel_norm_closed_form(0.0, half_sum).norm_squared == pytest.approx(2.0)

    def test_reproducing_property(self, half_sum):
        # |f(lam) - <f, k^b_lam>_b| <= 1e-6 ||f||_b ||k^b_lam||_b via polarization
        rng = np.random.default_rng(31)
        for _ in range(20):
            deg = int(rng.integers(1, 8))
            f = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            lam = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            k = hb_kernel_taylor(lam, half_sum, n=64)
            inner = hb_inner(f, k, half_sum)
            f_at = polyval_ascending(f, lam)
            bound = hb_norm(f, half_sum, cross_check=False) * hb_norm(
                k, half_sum, cross_check=False
            )
            assert abs(inner - f_at) <= 1e-6 * bound


class TestTaylorBOverA:
    def test_zero_symbol(self, zero_pair):
        data = taylor_b_over_a(zero_pair, 16)
        assert np.max(np.abs(data.coefficients)) < 1e-12
        assert data.in_h2 == "yes"

    def test_halfsum_geometric_coefficients(self, half_sum):
        # b/a = (1 + z)/(1 - z) = 1 + 2 z + 2 z^2 + ...
        data = taylor_b_over_a(half_sum, 64)
        np.testing.assert_allclose(data.coefficients, np.r_[1.0, np.full(64, 2.0)],
                                   rtol=0.0, atol=1e-14)
        assert data.in_h2 == "no"

    def test_clustered_blaschke_zeros_match_the_circle_fft(self):
        # b = B u with the 12 zeros 1 - 2^-n of B crowding the point 1; on the circle
        # of radius 0.9 an FFT of the values of b/a reads its coefficients to rounding
        pair = build("blaschke-corona").pair
        r, m = 0.9, 4096
        z = r * np.exp(1j * grid_angles(m))
        expect = np.fft.fft(pair.b.fn(z) / pair.a(z))[:65] / m / r ** np.arange(65)
        data = taylor_b_over_a(pair, 64)
        assert np.max(np.abs(data.coefficients - expect)) < 1e-12

    def test_clustered_blaschke_zeros_are_in_h2(self):
        # the gap weight's total is finite, however slowly the first coefficients decay
        assert taylor_b_over_a(build("blaschke-corona").pair, 16).in_h2 == "yes"

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, 2.5, 4.0])
    def test_rotated_half_sum_is_not_in_h2_at_any_angle(self, theta):
        # a zero of a is a pole of the inverse gap weight, wherever it sits on a grid
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j * theta)]))
        assert taylor_b_over_a(pair, 16).in_h2 == "no"

    @pytest.mark.parametrize("make", [
        lambda: pythagorean_mate(SymbolB.from_outer_modulus(lambda t: np.abs(np.cos(t / 2.0)))),
    ], ids=["grid-outer-mate"])
    def test_a_zero_the_gap_weight_does_not_hold_is_not_in_h2(self, make):
        # b = (1 + z)/2 given by its modulus: no zero of a is recorded, and a
        # quadrature of 1/|a|^2 would read a finite total
        assert taylor_b_over_a(make(), 16).in_h2 == "no"

    def test_a_rational_a_handed_to_pair_from_outer_a_is_a_pole(self):
        # b = (1 + z)/2 given by its mate (1 - z)/2: the pair finds the zero of a, so
        # (1 - |b|)^-1 has a pole there and no grid is sampled
        pair = pair_from_outer_a(RationalFn([0.5, -0.5]))
        assert l1_gap_test(pair) == {"feasible": "no",
                                     "certificate": "(1 - |b|)^-1 is not integrable"}
        assert taylor_b_over_a(pair, 16).in_h2 == "no"

    def test_alpha_pair_in_h2(self, alpha_pair):
        assert taylor_b_over_a(alpha_pair, 64).in_h2 == "yes"

    def test_slow_geometric_decay_is_not_read_as_divergence(self):
        # sup|b| = 0.9, so b/a is in H^2, though |c_j| decays only like 0.95^j
        pair = pythagorean_mate(SymbolB.rational([0.045], [1.0, -0.95]))
        assert taylor_b_over_a(pair, 16).in_h2 == "yes"


class TestMonomialNorm:
    def test_zero_symbol(self, zero_pair):
        for n in (0, 5):
            assert monomial_norm(n, zero_pair) == pytest.approx(1.0)

    def test_alpha_first_value(self, alpha_pair):
        # c_0 = b(0)/a(0)
        b0 = complex(np.asarray(alpha_pair.b.fn(np.array([0.0])))[0])
        a0 = complex(np.asarray(alpha_pair.a(np.array([0.0])))[0])
        expect = np.sqrt(1.0 + abs(b0 / a0) ** 2)
        assert monomial_norm(0, alpha_pair) == pytest.approx(expect, rel=1e-9)

    def test_nondecreasing(self, alpha_pair):
        vals = [monomial_norm(n, alpha_pair, cross_check=False) for n in range(0, 20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_clustered_blaschke_zeros_pass_the_solver_cross_check(self, n):
        # the formula reads the coefficients alone; monomial_norm compares it with the solver
        pair = build("blaschke-corona").pair
        c = pair.b_over_a_taylor(n + 1)
        assert monomial_norm(n, pair) == np.sqrt(1.0 + np.sum(np.abs(c) ** 2))

    def test_value_does_not_depend_on_longer_series_read_before(self):
        # the isometry certificate reads 65 coefficients of b/a; the norm reads its own n + 1
        from hbspace.analyzers import isometry_refutation

        pair = pair_from_outer_a(PowerOuter(0.25))
        fresh = monomial_norm(3, pair)
        isometry_refutation(pair)
        assert monomial_norm(3, pair) == fresh

    # The name predates the formula holding without b/a in H^2; it is kept so
    # the test keeps its id.  Half-sum has c = (1, 2, 2, ...), so ||z^n||^2 = 2 + 4n.
    def test_requires_h2(self, half_sum):
        for n in (0, 3, 8):
            assert monomial_norm(n, half_sum) ** 2 == pytest.approx(2.0 + 4.0 * n, rel=1e-9)


class TestClarkDensity:
    def test_zero_symbol_gives_lebesgue(self, zero_pair):
        d = clark_density(zero_pair, 1.0, size=256)
        assert np.max(np.abs(d.values - 1.0)) < 1e-12

    def test_halfsum_at_minus_one(self, half_sum):
        # at theta = pi: b = 0, so the density is (1 - 0)/|1 - 0|^2 = 1
        d = clark_density(half_sum, -1.0, size=256)
        idx = 128  # theta = pi
        assert d.values[idx] == pytest.approx(1.0, rel=1e-12)

    def test_density_vanishes_where_modulus_peaks(self, half_sum):
        d = clark_density(half_sum, -1.0, size=256)
        assert d.values[0] == pytest.approx(0.0, abs=1e-12)  # |b| = 1 at theta = 0

    def test_resonant_alpha_rejected(self, half_sum):
        # b(1) = 1, so alpha = 1 makes 1 - conj(alpha) b vanish on the grid
        with pytest.raises(AlphaResonanceError):
            clark_density(half_sum, 1.0, size=256)

    def test_poisson_consistency(self, half_sum, alpha_pair):
        for pair in (half_sum, alpha_pair):
            d = clark_density(pair, -1.0, size=2 ** 12)
            assert d.poisson_check < 1e-4


class TestFAlphaDecomposition:
    def test_halfsum_single_boundary_root(self, half_sum):
        fa = rational_falpha_decompose(half_sum, seed=0)
        assert fa.codimension == 1
        assert fa.boundary_zeros[0] == pytest.approx(1.0)
        # p is monic with the root at 1
        assert np.allclose(fa.p, [-1.0, 1.0])
        assert fa.f_inf > 0 and np.isfinite(fa.f_sup)
        assert fa.min_r_one_minus_ab > 1e-6
        assert fa.a2_verdict == "pass"

    def test_zero_symbol_no_boundary_roots(self, zero_pair):
        fa = rational_falpha_decompose(zero_pair, seed=1)
        assert fa.codimension == 0
        assert np.allclose(fa.p, [1.0])
        assert fa.f_inf > 0

    def test_double_boundary_root_recovered(self):
        # construct-then-recover: pick a = (1 - z)^2/4 (double boundary root),
        # factor 1 - |a|^2 to get a rational b, and check the decomposition
        # finds the double root back
        pair = pythagorean_mate(double_zero_symbol())
        assert np.allclose(pair.a.num, [0.25, -0.5, 0.25], atol=1e-7)
        fa = rational_falpha_decompose(pair, seed=0)
        assert fa.codimension == 2
        assert np.allclose([abs(z) for z in fa.boundary_zeros], 1.0)

    @pytest.mark.parametrize("turn", [0.0, 0.1, 0.25, 0.37, 0.5, 0.75])
    def test_rotated_double_boundary_root_recovered(self, turn):
        # the double zero splits into roots about 1e-8 off the circle; p collects the
        # zeros that the Fejer-Riesz rule snapped back, at every angle
        pair = pythagorean_mate(double_zero_symbol(turn))
        fa = rational_falpha_decompose(pair, seed=0)
        assert fa.codimension == 2
        np.testing.assert_allclose(fa.boundary_zeros, np.exp(2j * np.pi * turn), atol=1e-7)
        np.testing.assert_allclose(np.polynomial.polynomial.polymul(fa.p, fa.f.q2),
                                   pair.a.num, atol=1e-12)
        assert fa.a2_verdict == "pass"

    def test_excluded_alpha_rejected(self, half_sum):
        # b(1) = 1 sits in the excluded set
        with pytest.raises(AlphaResonanceError):
            rational_falpha_decompose(half_sum, alpha=1.0)


class TestUnimodularAlpha:
    """`random_unimodular_alpha` and the F_alpha split draw alphas by one seeded loop."""

    # first draws for seeds 0..9 on the half-sum mate; every one passes the 1e-6 guard
    FIRST = [-0.6520162635843662 - 0.7582049802141122j,
             -0.9972426976221218 - 0.07420917759518231j,
             -0.0728964757119928 + 0.9973395128183636j,
             0.8586585755304812 + 0.5125479984040178j,
             0.9366733995096276 - 0.3502041442517173j,
             0.33875520457621455 - 0.9408745460328529j,
             -0.9713869940323033 - 0.23750222698931892j,
             -0.7066825070539889 - 0.7075308009011967j,
             -0.46499687149511487 + 0.8853123231378606j,
             0.6856876815361844 - 0.7278958740022724j]
    # margin 0.5 keeps only |alpha - 1/2| > 1, so seeds 3, 4, 5 and 9 take later draws
    WIDE = FIRST[:3] + [0.08277720600833575 + 0.9965680780385521j,
                        -0.9974682629676828 - 0.07111303939667908j,
                        -0.995367377629595 - 0.09614459709616079j] + FIRST[6:9] + [
                        -0.2292716624036455 + 0.9733624735003239j]

    def test_draws_are_pinned_for_seeds_0_to_9(self, half_sum):
        assert [random_unimodular_alpha(half_sum, seed=s) for s in range(10)] == self.FIRST
        assert [rational_falpha_decompose(half_sum, seed=s).alpha for s in range(10)] == self.FIRST
        assert [random_unimodular_alpha(half_sum, seed=s, margin=0.5)
                for s in range(10)] == self.WIDE

    def test_no_passing_draw_raises(self, half_sum):
        with pytest.raises(AlphaResonanceError):
            random_unimodular_alpha(half_sum, seed=3, margin=0.5, tries=1)


class TestHbInner:
    def test_inner_product_reduces_to_norm(self, half_sum):
        f = np.array([1.0, 0.5j])
        ip = hb_inner(f, f, half_sum)
        assert ip.real == pytest.approx(hb_norm_squared(f, half_sum, cross_check=False),
                                        rel=1e-9)
        assert abs(ip.imag) < 1e-9

    def test_conjugate_symmetry(self, half_sum):
        f = np.array([1.0, 0.3])
        g = np.array([0.2, -0.4j, 1.0])
        assert hb_inner(f, g, half_sum) == pytest.approx(
            np.conj(hb_inner(g, f, half_sum)), abs=1e-9
        )
