import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspace.circle import grid_angles
from hbspace.errors import (
    AlphaResonanceError,
    DiagnosticsError,
    ExtremeDegenerateError,
    UnsupportedError,
)
from hbspace.functions import PowerOuter, RationalFn, polyval_ascending
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
    monomial_norm,
    pair_from_outer_a,
    pythagorean_mate,
    rational_falpha_decompose,
    taylor_b_over_a,
)


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


class TestGapWeight:
    # by the order of the boundary zero of their mates (none, simple, double), symbols
    # 0.8 (1 + z)/2, (1 + z)/2 and (1 + z)/2 p with |p|^2 = (3 - cos t)/2; the zero, if
    # any, sits at angle 0 and moves to 2 pi turn when b(z) becomes b(e^(-2 pi i turn) z)
    SYMBOLS = ([0.4, 0.4], [0.5, 0.5], np.polynomial.polynomial.polymul(
        [0.5, 0.5], [np.sqrt((1.5 + np.sqrt(2)) / 2), -np.sqrt((1.5 - np.sqrt(2)) / 2)]))

    @settings(max_examples=25, deadline=None)
    @given(order=st.sampled_from([0, 1, 2]), turn=st.floats(0.0, 1.0, exclude_max=True))
    def test_gap_weight_is_one_minus_b_squared(self, order, turn):
        coeffs = np.asarray(self.SYMBOLS[order])
        b = SymbolB.rational(coeffs * np.exp(-2j * np.pi * turn) ** np.arange(coeffs.size))
        pair = pythagorean_mate(b)
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
        data = taylor_b_over_a(half_sum, 16)
        assert data.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(data.coefficients[1:], 2.0, atol=1e-9)
        assert data.in_h2 == "no"

    def test_alpha_pair_in_h2(self, alpha_pair):
        data = alpha_pair.b_over_a_cache(64)
        assert data.in_h2 == "yes"
        assert data.l1_verdict == "yes"

    def test_slow_geometric_decay_is_not_read_as_divergence(self):
        # sup|b| = 0.9, so b/a is in H^2, but |c_j| ~ 0.95^j makes the partial sums
        # over 4, 8 and 17 coefficients grow by more than 1.25x twice
        pair = pythagorean_mate(SymbolB.rational([0.045], [1.0, -0.95]))
        data = taylor_b_over_a(pair, 16)
        assert data.in_h2 == "yes"
        assert data.partial_sum_verdict in ("yes", "undetermined")


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
        from hbspace.functions import fejer_riesz, modulus_squared_coeffs

        a_target = np.array([0.25, -0.5, 0.25])
        tau = -modulus_squared_coeffs(a_target)
        tau[0] += 1.0
        b = SymbolB.rational(fejer_riesz(tau).q)
        pair = pythagorean_mate(b)
        assert np.allclose(pair.a.num, a_target, atol=1e-7)
        fa = rational_falpha_decompose(pair, seed=0)
        assert fa.codimension == 2
        assert np.allclose([abs(z) for z in fa.boundary_zeros], 1.0)

    def test_excluded_alpha_rejected(self, half_sum):
        # b(1) = 1 sits in the excluded set
        with pytest.raises(AlphaResonanceError):
            rational_falpha_decompose(half_sum, alpha=1.0)


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
