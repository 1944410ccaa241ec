import numpy as np
import pytest

from hbspace.circle import (
    CircleGrid,
    FourierSeries,
    _fft_convolve,
    analytic_mul,
    coanalytic_apply,
    fourier_analyze,
    fourier_synthesize,
    grid_angles,
    riesz_project,
    toeplitz_apply,
)
from hbspace.errors import ConfigurationError, DomainError, TruncationOverflowError


def series_from_coeffs(pairs, size):
    """Build a FourierSeries from {frequency: value}."""
    c = np.zeros(size, dtype=complex)
    for k, v in pairs.items():
        c[k % size] = v
    return FourierSeries(c)


class TestFourierAnalyze:
    def test_constant(self):
        g = CircleGrid(np.ones(16, dtype=complex))
        s = fourier_analyze(g)
        assert s.coefficient(0) == pytest.approx(1.0)
        assert np.max(np.abs(s.coefficients[1:])) < 1e-14

    def test_monomial(self):
        t = grid_angles(32)
        s = fourier_analyze(CircleGrid(np.exp(1j * t)))
        assert s.coefficient(1) == pytest.approx(1.0)
        others = [s.coefficient(k) for k in range(-16, 16) if k != 1]
        assert np.max(np.abs(others)) < 1e-14

    def test_polynomial_coefficients_read_off(self):
        t = grid_angles(8)
        s = fourier_analyze(CircleGrid((1.0 + np.exp(1j * t)) / 2.0))
        assert s.coefficient(0) == pytest.approx(0.5)
        assert s.coefficient(1) == pytest.approx(0.5)
        assert abs(s.coefficient(2)) < 1e-15 and abs(s.coefficient(-1)) < 1e-15

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CircleGrid(np.ones(24, dtype=complex))
        with pytest.raises(ConfigurationError):
            CircleGrid(np.ones(4, dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=256) + 1j * rng.normal(size=256)
        g = CircleGrid(values)
        back = fourier_synthesize(fourier_analyze(g))
        assert np.max(np.abs(back.values - values)) < 1e-10 * np.max(np.abs(values))

    def test_parseval(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=128) + 1j * rng.normal(size=128)
        g = CircleGrid(values)
        s = fourier_analyze(g)
        assert s.energy() == pytest.approx(g.mean_square(), rel=1e-10)


class TestRieszProjection:
    def test_kills_negative_keeps_positive(self):
        s = series_from_coeffs({-1: 1.0, 1: 1.0}, 16)
        p = riesz_project(s)
        assert p.coefficient(1) == 1.0
        assert p.coefficient(-1) == 0.0

    def test_identity_on_analytic(self):
        s = series_from_coeffs({0: 1.0, 2: 0.5j, 5: -1.0}, 32)
        p = riesz_project(s)
        assert np.array_equal(p.coefficients, s.coefficients)

    def test_conjugate_of_halfsum_symbol(self):
        # conj((1 + z)/2) on the circle has coefficients 1/2 at 0 and -1
        t = grid_angles(16)
        s = fourier_analyze(CircleGrid(np.conj((1.0 + np.exp(1j * t)) / 2.0)))
        p = riesz_project(s)
        assert p.coefficient(0) == pytest.approx(0.5)
        assert np.max(np.abs(p.coefficients[1:])) < 1e-15


def brute_toeplitz_matvec(phi_hat, f_taylor, n_out):
    """(T_phi f)_i = sum_j phi_hat(i - j) f_j, straight from the definition."""
    out = np.zeros(n_out, dtype=complex)
    for i in range(n_out):
        for j, fj in enumerate(f_taylor):
            out[i] += phi_hat(i - j) * fj
    return out


class TestToeplitzApply:
    def test_identity_symbol(self):
        f = series_from_coeffs({0: 1.0, 1: 2.0, 3: -1j}, 16)
        out = toeplitz_apply(CircleGrid(np.ones(16, dtype=complex)), f)
        for k in range(8):
            assert out.coefficient(k) == pytest.approx(f.coefficient(k), abs=1e-13)

    def test_coanalytic_symbol_on_kernel(self):
        # T_conj(b) k_lam = conj(b(lam)) k_lam for analytic b; here b = (1+z)/2,
        # lam = 0.5 gives the factor 0.75.  Oracle: brute-force correlation.
        lam = 0.5
        n = 64
        f = FourierSeries.from_taylor(lam ** np.arange(n), 256)
        t = grid_angles(256)
        phi = CircleGrid(np.conj((1.0 + np.exp(1j * t)) / 2.0))
        out = toeplitz_apply(phi, f)
        expected = 0.75 * lam ** np.arange(n)
        got = out.taylor(n)
        assert np.max(np.abs(got - expected)) < 1e-12
        # brute-force check of the first few coefficients
        phi_hat = lambda k: 0.5 if k in (0, -1) else 0.0
        brute = brute_toeplitz_matvec(phi_hat, lam ** np.arange(n), 8)
        assert np.max(np.abs(out.taylor(8) - brute)) < 1e-12

    def test_backward_shift_kills_constants(self):
        t = grid_angles(16)
        out = toeplitz_apply(CircleGrid(np.exp(-1j * t)), series_from_coeffs({0: 1.0}, 16))
        assert np.max(np.abs(out.coefficients)) < 1e-14

    def test_requires_analytic_input(self):
        s = series_from_coeffs({-2: 1.0}, 16)
        with pytest.raises(DomainError):
            toeplitz_apply(CircleGrid(np.ones(16, dtype=complex)), s)

    def test_bandwidth_overflow_carries_requested_size(self):
        f = FourierSeries.from_taylor(np.ones(300), 1024)
        phi = CircleGrid(np.ones(1024, dtype=complex))
        with pytest.raises(TruncationOverflowError) as err:
            toeplitz_apply(phi, f, max_size=512)
        assert err.value.requested > 512

    def test_agrees_with_explicit_matrix_on_random_symbols(self):
        # invariant: matrix entries phi_hat(i - j) against the FFT route,
        # 20 random bounded symbols, truncations to degree 64, tol 1e-9
        rng = np.random.default_rng(11)
        n = 256
        t = grid_angles(n)
        for trial in range(20):
            deg = int(rng.integers(1, 33))
            coeffs = (rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1)) / deg
            phi_vals = np.zeros(n, dtype=complex)
            for k in range(-deg, deg + 1):
                phi_vals += coeffs[k + deg] * np.exp(1j * k * t)
            f_deg = int(rng.integers(1, 65))
            f_tay = rng.normal(size=f_deg) + 1j * rng.normal(size=f_deg)
            out = toeplitz_apply(CircleGrid(phi_vals), FourierSeries.from_taylor(f_tay, n))
            phi_hat = lambda k: coeffs[k + deg] if -deg <= k <= deg else 0.0
            brute = brute_toeplitz_matvec(phi_hat, f_tay, 65)
            assert np.max(np.abs(out.taylor(65) - brute)) < 1e-9


class TestCoanalyticApply:
    def test_matches_definition(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = rng.normal(size=11) + 1j * rng.normal(size=11)
        got = coanalytic_apply(psi, f)
        brute = np.array(
            [
                sum(np.conj(psi[k]) * f[i + k] for k in range(len(psi)) if i + k < len(f))
                for i in range(len(f))
            ]
        )
        assert np.max(np.abs(got - brute)) < 1e-12


class TestFftConvolve:
    def test_matches_numpy_convolve(self):
        rng = np.random.default_rng(23)
        for na, nb in ((1, 1), (1, 9), (7, 1), (5, 12), (64, 64), (100, 3), (1000, 777)):
            a = rng.normal(size=na) + 1j * rng.normal(size=na)
            b = rng.normal(size=nb) + 1j * rng.normal(size=nb)
            expect = np.convolve(a, b)
            got = _fft_convolve(a, b)
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))

    def test_empty_input_gives_empty_output(self):
        one = np.ones(1, dtype=complex)
        empty = np.zeros(0, dtype=complex)
        assert _fft_convolve(empty, one).size == 0
        assert _fft_convolve(one, empty).size == 0
        assert analytic_mul(empty, [1.0, 2.0]).size == 0
