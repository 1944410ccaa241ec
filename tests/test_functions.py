import mpmath
import numpy as np
import pytest
from scipy.signal import lfilter

from hbspace.circle import grid_angles
from hbspace.errors import (
    DomainError,
    LogIntegrabilityError,
    NotNonnegativeError,
)
from hbspace.functions import (
    BlaschkeProduct,
    GridOuter,
    PowerOuter,
    RationalFn,
    blaschke_eval,
    eval_taylor_on_circle,
    fejer_riesz,
    modulus_squared_coeffs,
    outer_from_log_modulus,
    polyval_ascending,
    series_quotient,
    trig_poly_values,
)
from hbspace.scenarios import run_all
from hbspace.space import SymbolB, hb_norm, pair_from_outer_a


class TestRationalFn:
    def test_rejects_pole_in_disk(self):
        with pytest.raises(DomainError):
            RationalFn([1.0], [1.0, -2.0])  # pole at 1/2

    def test_rejects_common_root(self):
        # both vanish at z = 2
        with pytest.raises(DomainError):
            RationalFn([-2.0, 1.0], [2.0, -1.0])

    def test_taylor_and_inverse(self):
        f = RationalFn([1.0], [1.0, -0.5])  # 1/(1 - z/2): geometric series
        assert np.allclose(f.taylor(5), 0.5 ** np.arange(5))
        assert np.allclose(f.inverse_taylor(3), [1.0, -0.5, 0.0])

    def test_inverse_series_with_boundary_zero(self):
        # (1 - z)/2 has 1/(that) = 2 * sum z^k: bounded, non-decaying coefficients
        a = RationalFn([0.5, -0.5])
        inv = a.inverse_taylor(6)
        assert np.allclose(inv, 2.0 * np.ones(6))


    RATIONALS = [([0.5, 0.5], [1.0]), ([0.3, 0.4j, -0.1], [1.0, -0.2]),
                 ([1.0, 2.0, -1.5j, 0.25], [4.0, 0.5 - 0.5j, 0.3j])]

    @pytest.mark.parametrize("num, den", RATIONALS)
    def test_values_in_blocks_equal_one_polyval_quotient(self, num, den):
        # each block takes the same operations as one polyval over the whole array
        f = RationalFn(num, den)
        polyval = np.polynomial.polynomial.polyval
        for m in (8, 1000, 2 ** 11 + 3, 2 ** 16):
            z = np.exp(1j * grid_angles(m))
            expect = polyval(z, f.num) / polyval(z, f.den)
            assert f.boundary_values(m).tobytes() == expect.tobytes()
            assert f(z).tobytes() == expect.tobytes()
        z = np.random.default_rng(5).uniform(-0.7, 0.7, (2, 3000, 2)) @ [1.0, 1j]
        assert f(z).tobytes() == (polyval(z, f.num) / polyval(z, f.den)).tobytes()
        assert type(f(0.5)) is np.complex128

    @pytest.mark.parametrize("num, den", RATIONALS)
    def test_boundary_values_peak_near_their_own_size(self, num, den):
        # e^(it) formed in one buffer and the quotient taken in blocks: about 2.2 MB
        # traced for the 1 MB of values on 2^16 points
        import tracemalloc

        f = RationalFn(num, den)
        f.boundary_values(8)
        tracemalloc.start()
        try:
            f.boundary_values(2 ** 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

class TestSeriesQuotient:
    def test_matches_lfilter_on_random_rationals(self):
        rng = np.random.default_rng(17)
        for trial in range(16):
            deg = int(rng.integers(1, 7))
            roots = (1.02 + rng.exponential(0.5, deg)) * np.exp(2j * np.pi * rng.uniform(size=deg))
            den = np.polynomial.polynomial.polyfromroots(roots) * rng.uniform(0.5, 2.0)
            num = rng.normal(size=int(rng.integers(1, 8))) + 1j * rng.normal(size=1)
            for n in (1, 3, deg, 257, 2 ** 16):
                impulse = np.zeros(n)
                impulse[0] = 1.0
                expect = lfilter(num, den, impulse)
                got = series_quotient(num, den, n)
                assert got.shape == (n,)
                assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_geometric_series(self):
        got = series_quotient([1.0], [1.0, -0.5], 600)
        assert np.array_equal(got, 0.5 ** np.arange(600))

    def test_double_boundary_zero_is_exact(self):
        # 1 / ((1 - z)/2)^2 = 4 sum (k + 1) z^k, every term an integer
        den = np.polynomial.polynomial.polypow([0.5, -0.5], 2)
        got = series_quotient([1.0], den, 2 ** 16)
        assert np.array_equal(got, 4.0 * (np.arange(2 ** 16) + 1))

    @pytest.mark.parametrize("zeros", [
        [0.95, -0.3 + 0.9j, 0.0, 0.5j],
        # zeros crowding the point 1, where one recurrence over the expanded
        # quotient of all the factors is unstable
        [1.0 - 2.0 ** -n for n in range(1, 13)],
    ], ids=["scattered", "clustered"])
    def test_blaschke_coefficients_against_evaluation(self, zeros):
        B = BlaschkeProduct(zeros)
        r, m = 0.999, 64
        values = eval_taylor_on_circle(B.taylor(2 ** 15), r, m)
        expect = B(r * np.exp(1j * grid_angles(m)))
        assert np.max(np.abs(values - expect)) < 1e-12

    def test_constant_denominator_pads_the_numerator(self):
        assert np.array_equal(series_quotient([1.0, 2.0, 3.0], [2.0], 6),
                              [0.5, 1.0, 1.5, 0.0, 0.0, 0.0])
        assert np.array_equal(series_quotient([1.0, 2.0, 3.0], [2.0], 2), [0.5, 1.0])


class TestBlaschke:
    def test_empty_product_is_one(self):
        assert blaschke_eval([], 0.3 + 0.1j) == pytest.approx(1.0)

    def test_single_zero_at_origin_is_z(self):
        z = np.array([0.2 + 0.3j, -0.5])
        assert np.allclose(blaschke_eval([0.0], z), z)

    def test_listed_zero_evaluates_to_zero_exactly(self):
        zeros = [1.0 - 2.0 ** (-n) for n in range(1, 13)]
        B = BlaschkeProduct(zeros)
        assert complex(B(np.array([zeros[4]]))[0]) == 0.0

    def test_unimodular_on_circle(self):
        B = BlaschkeProduct([0.3, -0.2 + 0.4j, 0.0])
        vals = B(np.exp(1j * grid_angles(64)))
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10

    def test_contractive_on_disk(self):
        rng = np.random.default_rng(9)
        B = BlaschkeProduct([0.5, 0.1 - 0.6j])
        z = rng.uniform(0, 0.999, 500) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        assert np.max(np.abs(B(z))) <= 1.0 + 1e-12

    def test_zero_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            BlaschkeProduct([1.0])

    def test_taylor_matches_eval(self):
        B = BlaschkeProduct([0.4, -0.3j])
        tay = B.taylor(40)
        z = 0.5 + 0.2j
        assert polyval_ascending(tay, z) == pytest.approx(complex(B(np.array([z]))[0]), abs=1e-10)


class TestFejerRiesz:
    def test_constant_one(self):
        fact = fejer_riesz([1.0])
        assert np.allclose(fact.q, [1.0])

    def test_halfsum_gap(self):
        # 1 - |(1 + e^(it))/2|^2 = (1 - cos t)/2 factors as |(1 - z)/2|^2
        tau = -modulus_squared_coeffs(np.array([0.5, 0.5]))
        tau[0] += 1.0
        fact = fejer_riesz(tau)
        assert np.allclose(fact.q, [0.5, -0.5], atol=1e-12)
        assert fact.q[0].real == pytest.approx(0.5)
        assert len(fact.boundary_zeros) == 1
        assert fact.boundary_zeros[0] == pytest.approx(1.0)

    def test_double_boundary_zero_recovered(self):
        q0 = np.array([0.25, -0.5, 0.25])  # (1 - z)^2 / 4
        fact = fejer_riesz(modulus_squared_coeffs(q0))
        assert np.allclose(fact.q, q0, atol=1e-7)
        assert len(fact.boundary_zeros) == 2
        assert fact.residual < 1e-8

    def test_negative_polynomial_rejected(self):
        with pytest.raises(NotNonnegativeError):
            fejer_riesz([0.1, 0.5])  # 0.1 + cos(t) dips below zero

    def test_random_reconstruction(self):
        rng = np.random.default_rng(21)
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        for _ in range(10):
            deg = int(rng.integers(1, 13))
            roots = rng.uniform(1.05, 2.5, deg) * np.exp(2j * np.pi * rng.uniform(0, 1, deg))
            q = np.array([1.0 + 0j])
            for r in roots:
                q = np.polynomial.polynomial.polymul(q, [-r, 1.0])
            q /= np.sqrt(np.max(np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), q)) ** 2))
            fact = fejer_riesz(modulus_squared_coeffs(q))
            recon = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), fact.q)) ** 2
            target = trig_poly_values(modulus_squared_coeffs(q), theta)
            assert np.max(np.abs(recon - target)) < 1e-8
            mods = np.abs(np.polynomial.polynomial.polyroots(fact.q))
            assert np.min(mods) >= 1.0 - 1e-9
            assert fact.q[0].real > 0 and abs(fact.q[0].imag) < 1e-10


class TestOneMinusModulusSquared:
    # angles next to pi from either side, as a cell's nodes reach it (-pi + d included),
    # next to the zero at 0, and elsewhere
    ANGLES = [np.pi - 1e-9, np.pi + 3e-7, -np.pi + 2e-6, np.pi, 1e-9, -1e-4, 2.0, 5.5]

    @pytest.mark.parametrize("scale", [None, 0.7], ids=["unit-peak", "scaled"])
    def test_power_outer_against_mpmath(self, scale):
        f = PowerOuter(0.25, scale)
        got = f.one_minus_modulus_squared(np.array(self.ANGLES))
        with mpmath.workdps(40):
            c = mpmath.mpf(2) ** mpmath.mpf("-0.25") if scale is None else mpmath.mpf(scale)
            for t, value in zip(self.ANGLES, got):
                # an angle is read as a multiple of the float pi, whose own 1.2e-16 offset
                # from pi would otherwise swamp 1 - |f|^2 ~ (t - pi)^2 next to pi
                t = mpmath.mpf(t) * mpmath.pi / mpmath.mpf(np.pi)
                exact = 1 - c**2 * abs(2 * mpmath.sin(t / 2)) ** mpmath.mpf("0.5")
                # abs: the 40-digit reference's own rounding, where 1 - |f|^2 vanishes at pi
                assert value == pytest.approx(float(exact), rel=1e-14, abs=1e-35)

    @pytest.mark.parametrize("scale", [None, 0.7], ids=["unit-peak", "scaled"])
    def test_angles_over_three_turns_against_mpmath(self, scale):
        # from -2 pi to 4 pi: next to the zeros at 0 and +-2 pi and the peaks at +-pi
        # and 3 pi, on both sides of the quarter turn from a peak where the rule
        # changes; whole turns are taken off without a float remainder
        offsets = np.array([0.0, 1e-9, 1e-5, 0.3, 1.2, 1.9])
        t = (np.pi * np.arange(-2.0, 4.0)[:, None]
             + np.concatenate([offsets, -offsets[1:]])).ravel()
        t = t[(t >= -2 * np.pi) & (t < 4 * np.pi)]
        got = PowerOuter(0.25, scale).one_minus_modulus_squared(t)
        turns = np.floor(t / (2 * np.pi))
        near_peak = np.abs(t / np.pi - 2 * turns - 1) < 0.5
        assert 0 < np.count_nonzero(near_peak) < t.size
        with mpmath.workdps(40):
            c = mpmath.mpf(2) ** mpmath.mpf("-0.25") if scale is None else mpmath.mpf(scale)
            for angle, value, near in zip(t, got, near_peak):
                # next to a peak the angle is a multiple of the float pi, as in the test
                # above; elsewhere sin(t/2) is read at the float angle itself
                angle = mpmath.mpf(angle) * (mpmath.pi / mpmath.mpf(np.pi) if near else 1)
                exact = 1 - c**2 * abs(2 * mpmath.sin(angle / 2)) ** mpmath.mpf("0.5")
                assert value == pytest.approx(float(exact), rel=1e-14, abs=1e-35)

    @pytest.mark.parametrize("scale", [None, 0.7], ids=["unit-peak", "scaled"])
    def test_log_and_gap_come_from_one_read_of_the_modulus(self, scale):
        # 2 log|f| is the log that 1 - |f|^2 is -expm1 of, so both keep their
        # accuracy next to the peak; the zero at 0 reads -inf and 1
        f = PowerOuter(0.3, scale)
        t = np.array(self.ANGLES + [0.0])
        log_sq, gap = f.log_and_gap(t)
        assert np.array_equal(gap, f.one_minus_modulus_squared(t))
        assert np.array_equal(gap, -np.expm1(log_sq))
        assert log_sq[-1] == -np.inf and gap[-1] == 1.0
        np.testing.assert_allclose(np.exp(log_sq / 2), f.boundary_modulus(t), rtol=1e-14)

    def test_default_is_one_minus_the_modulus_squared(self):
        f = RationalFn([0.3, 0.4j], [1.0, -0.2])
        t = np.array(self.ANGLES)
        assert np.array_equal(f.one_minus_modulus_squared(t), 1.0 - f.boundary_modulus(t) ** 2)
        log_sq, gap = f.log_and_gap(t)
        assert np.array_equal(gap, 1.0 - f.boundary_modulus(t) ** 2)
        assert np.array_equal(log_sq, 2.0 * np.log(f.boundary_modulus(t)))


class TestOuterFromLogModulus:
    def test_constant_one(self):
        g = outer_from_log_modulus(lambda t: np.ones_like(t), size=2 ** 10)
        z = np.array([0.0, 0.3 + 0.2j, -0.7])
        assert np.max(np.abs(g(z) - 1.0)) < 1e-12

    def test_power_closed_form(self):
        # boundary modulus c |1 - e^(it)|^alpha with alpha = 1/4 and c = 2^(-1/4)
        # recovers c (1 - z)^(1/4) in the disk
        alpha, c = 0.25, 2.0 ** -0.25
        w = lambda t: (c * np.abs(2.0 * np.sin(t / 2.0)) ** alpha) ** 2
        g = outer_from_log_modulus(w, size=2 ** 14)
        target = PowerOuter(alpha)
        for z in (0.0, 0.5, 0.9j):
            got = complex(g(np.array([z]))[0])
            expect = complex(target(np.array([z]))[0])
            assert abs(got - expect) < 1e-6

    def test_rational_closed_form(self):
        a = RationalFn([0.5, -0.5])
        w = lambda t: np.abs((1.0 - np.exp(1j * t)) / 2.0) ** 2
        g = outer_from_log_modulus(w, size=2 ** 14)
        z = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 50))
        assert np.max(np.abs(g(z) - a(z))) < 1e-8

    def test_boundary_modulus_refinement(self):
        # C^2-but-not-smooth modulus: deviation should at least halve per doubling
        w = lambda t: 1.0 + 0.5 * np.abs(np.sin(t / 2.0)) ** 2.5
        errs = []
        for n in (2 ** 9, 2 ** 10):
            g = outer_from_log_modulus(w, size=n)
            m = 2 ** 13
            got = np.abs(g.boundary_values(m))
            errs.append(np.max(np.abs(got - np.sqrt(w(grid_angles(m))))))
        assert errs[1] <= errs[0] / 2.0 or errs[1] < 1e-12

    def test_nonpositive_sample_rejected(self):
        with pytest.raises(DomainError):
            outer_from_log_modulus(np.concatenate([[0.0], np.ones(255)]))

    def test_divergent_log_rejected(self):
        # log w ~ -|theta|^(-3/2): power-type divergence that still keeps the
        # samples positive in double precision on the probe grids
        def w(t):
            theta = np.angle(np.exp(1j * t))
            with np.errstate(divide="ignore"):
                return np.exp(-np.abs(np.where(theta == 0, 1e-300, theta)) ** -1.5)

        with pytest.raises(LogIntegrabilityError):
            outer_from_log_modulus(w, size=2 ** 6)

    def test_reciprocal(self):
        w = lambda t: 1.5 + np.cos(t)
        g = outer_from_log_modulus(w, size=2 ** 10)
        inv = g.reciprocal()
        z = np.array([0.2, 0.5j, -0.4 + 0.3j])
        assert np.max(np.abs(g(z) * inv(z) - 1.0)) < 1e-10

    def test_positive_at_zero(self):
        g = outer_from_log_modulus(lambda t: 2.0 + np.sin(t), size=2 ** 10)
        v = complex(g(np.array([0.0]))[0])
        assert v.real > 0 and abs(v.imag) < 1e-12

    def test_log_series_from_the_real_transform(self):
        # the first n/2 bins of the rfft of real logs are those of their complex transform
        n = 2 ** 10
        logs = np.log(1.5 + np.cos(grid_angles(n, offset=True)))
        expect = np.fft.fft(logs)[: n // 2] / n * np.exp(-1j * np.pi * np.arange(n // 2) / n)
        np.testing.assert_allclose(GridOuter._log_series_from_logs(logs), expect,
                                   rtol=0.0, atol=1e-15)

    def test_callable_is_sampled_once_per_grid(self):
        # the integrability rungs n/4..4n; the log series reuse the n and 2n samples
        sizes = []

        def w(t):
            sizes.append(np.size(t))
            return 1.5 + np.cos(t)

        outer_from_log_modulus(w, size=2 ** 10)
        assert sorted(sizes) == [2 ** 8, 2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12]


class TestGridOuterMaster:
    def test_master_owns_its_data_and_equals_the_out_of_place_transform(self):
        # reverse-canonical's b, the mate of a = ((1 - z)/2)^(1/4): its master series and
        # boundary values come from one buffer transformed in place
        fn = pair_from_outer_a(PowerOuter(0.25)).b.fn
        assert isinstance(fn, GridOuter)
        one_sided = np.concatenate([fn.log_coeffs[:1], 2.0 * fn.log_coeffs[1:]])
        assert np.array_equal(fn.one_sided, one_sided)

        def log_values(n):
            spec = np.zeros(n, dtype=complex)
            np.add.at(spec, np.arange(one_sided.size) % n, one_sided)
            return np.fft.ifft(spec) * n

        degree = GridOuter.MASTER_DEGREE
        master = fn.taylor(degree + 1)[:degree]
        assert fn._master_taylor().base is None
        assert np.array_equal(fn._master_taylor(), master)
        m = 2 * degree
        assert np.array_equal(master, (np.fft.fft(np.exp(0.5 * log_values(m))) / m)[:degree])
        for n in (2 ** 12, 2 ** 16):
            assert np.array_equal(fn.log_values_on_circle(n), log_values(n))
            assert np.array_equal(fn.boundary_values(n), np.exp(0.5 * log_values(n)))

    @pytest.fixture
    def master_builds(self, monkeypatch):
        """The grid outers whose master is built while the test runs."""
        builds = []
        build = GridOuter._master_taylor

        def counted(fn):
            if fn._master is None:
                builds.append(fn)
            return build(fn)

        monkeypatch.setattr(GridOuter, "_master_taylor", counted)
        return builds

    def test_symbols_and_scans_build_no_master(self, master_builds):
        # the unit-ball check of a new symbol and every corona and kernel scan of the
        # catalog read grid outers inside the disk, from their log series
        _smooth_outer()
        assert run_all(depth=12)["all_ok"]
        assert master_builds == []

    def test_the_toeplitz_norm_builds_one_master(self, master_builds):
        # the alpha-power pair: b is a grid outer, a a closed-form power
        pair = pair_from_outer_a(PowerOuter(0.25))
        assert master_builds == []
        hb_norm([0.0, 1.0], pair)
        assert master_builds == [pair.b.fn]


def _smooth_outer():
    return SymbolB.from_outer_modulus(lambda t: 0.9 * np.exp(-0.4 * (1 - np.cos(t - 1)))).fn


def _reverse_canonical_b():
    # vanishes like |t - pi|^(1/2) at pi, so its log series decays like 1/k
    return pair_from_outer_a(PowerOuter(0.25)).b.fn


class TestGridOuterValues:
    """Interior values of a grid outer are exp(L/2), L its stored log series."""

    @staticmethod
    def reference(fn, z):
        """exp(L(z)/2) with L summed by Horner in extended precision."""
        total = np.zeros(z.shape, dtype=np.clongdouble)
        for c in fn.one_sided[::-1].astype(np.clongdouble):
            total = total * z + c
        return np.exp(total / 2)

    @pytest.mark.parametrize("make", [_smooth_outer, _reverse_canonical_b],
                             ids=["smooth", "reverse-canonical-b"])
    def test_values_match_extended_precision(self, make):
        # eval_on_circle at r = 1 - 2^-j, j = 1..14, on exact angles, and __call__ just
        # inside INTERIOR_LIMIT; at j = 14 a sum of the first 2^16 Taylor coefficients
        # would miss a tail of order r^(2^16) = e^-4
        fn, m = make(), 64
        turn = 8 * np.arctan(np.longdouble(1))
        radii = 1.0 - 2.0 ** -np.arange(1, 15)
        circles = radii.astype(np.longdouble)[:, None] * np.exp(
            1j * turn * np.arange(m, dtype=np.longdouble) / m)
        got = np.array([fn.eval_on_circle(r, m) for r in radii])
        want = self.reference(fn, circles)
        np.testing.assert_allclose(got, want.astype(complex), rtol=1e-13, atol=0)
        z = GridOuter.INTERIOR_LIMIT * (1 - 2.0 ** -50) * np.exp(1j * grid_angles(m, offset=True))
        want = self.reference(fn, z.astype(np.clongdouble))
        np.testing.assert_allclose(fn(z), want.astype(complex), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("make", [_smooth_outer, _reverse_canonical_b],
                             ids=["smooth", "reverse-canonical-b"])
    def test_the_last_interior_circle_meets_the_boundary_values(self, make):
        # from r = 1 - 1e-12 to the circle, L/2 moves by at most (1 - r)/2 sum k |c_k|,
        # which is 1.1e-8 where the log series decays like 1/k
        fn = make()
        moves = 0.5e-12 * np.sum(np.arange(fn.one_sided.size) * np.abs(fn.one_sided))
        for m in (64, 2 ** 12):
            gap = np.log(fn.eval_on_circle(1.0 - 1e-12, m) / fn.boundary_values(m))
            assert np.max(np.abs(gap)) <= moves + 1e-14


class TestEvalOnCircle:
    def test_folding_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=200) * 0.9 ** np.arange(200)
        r, m = 0.8, 16
        got = eval_taylor_on_circle(coeffs, r, m)
        z = r * np.exp(1j * grid_angles(m))
        direct = polyval_ascending(coeffs, z)
        assert np.max(np.abs(got - direct)) < 1e-11

    @pytest.mark.parametrize("r", [0.5, 15 / 16, 1.0 - 2.0 ** -14])
    @pytest.mark.parametrize("size, m", [(1000, 64), (777, 8), (2 ** 12, 1)])
    def test_folded_power_sums_match_horner(self, r, size, m):
        # row powers r^(i m) times column powers r^j against Horner in extended
        # precision at every grid point, to 1e-14 of the sum of the terms' moduli;
        # a coefficient count off every multiple of m pads its last row
        rng = np.random.default_rng(size + m)
        coeffs = (rng.normal(size=size) + 1j * rng.normal(size=size)) / (1.0 + np.arange(size))
        z = (r * np.exp(1j * grid_angles(m).astype(np.longdouble))).astype(np.clongdouble)
        direct = np.zeros(m, dtype=np.clongdouble)
        for c in coeffs[::-1].astype(np.clongdouble):
            direct = direct * z + c
        got = eval_taylor_on_circle(coeffs, r, m)
        scale = np.sum(np.abs(coeffs) * r ** np.arange(size))
        assert float(np.max(np.abs(got - direct))) <= 1e-14 * scale


    @pytest.mark.parametrize("r", [*(1.0 - 2.0 ** -np.arange(1, 13)), 0.999],
                             ids=[*(f"1-2^-{j}" for j in range(1, 13)), "0.999"])
    def test_fold_matches_the_matrix_vector_product(self, r):
        # a grid outer's 2^14-term log series on the 64 probe angles of a kernel scan
        # and on the 4096 angles of the unit-ball check, against the BLAS product
        # r^(i n) @ rows the fold replaced, to 1e-14 of the largest value (a value
        # next to a zero of the sum cancels); rows below the normal range add nothing
        c = _reverse_canonical_b().one_sided
        for n in (64, 2 ** 12):
            rows = c.size // n
            folded = r ** (n * np.arange(rows)) @ c.reshape(rows, n) * r ** np.arange(n)
            want = np.fft.ifft(folded) * n
            got = eval_taylor_on_circle(c, r, n)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
