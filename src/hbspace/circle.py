"""Grid-based calculus on the unit circle.

Boundary functions live on uniform power-of-two grids e^(2*pi*i*k/N); their
frequency content is a FourierSeries indexed over [-N/2, N/2).  The discrete
transform uses the convention that coefficient c_k multiplies e^(i*k*t), so
for an analytic function the nonnegative-frequency coefficients coincide with
Taylor coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .convergence import is_power_of_two
from .errors import ConfigurationError, DomainError, TruncationOverflowError

#: hard ceiling for zero-padded transform sizes in toeplitz_apply
MAX_TRANSFORM_SIZE = 2 ** 18

MIN_GRID_SIZE = 8


def grid_angles(size, offset=False):
    """Sample angles 2*pi*k/N, or the half-cell offset grid 2*pi*(k+1/2)/N."""
    k = np.arange(size, dtype=float)
    if offset:
        k = k + 0.5
    return 2.0 * np.pi * k / size


@dataclass(frozen=True)
class CircleGrid:
    """Samples of a boundary function on the uniform N-point grid.

    N must be a power of two, at least 8.  Values are stored as a complex
    array; the object is immutable and safe to share between threads.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or not is_power_of_two(v.size) or v.size < MIN_GRID_SIZE:
            raise ConfigurationError(
                f"grid size must be a power of two >= {MIN_GRID_SIZE}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, f, size):
        return cls(np.asarray(f(grid_angles(size)), dtype=complex))

    @property
    def size(self):
        return self.values.size

    def angles(self):
        return grid_angles(self.size)

    def mean_square(self):
        """Grid quadrature of |values|^2 against normalized Lebesgue measure."""
        return float(np.mean(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class FourierSeries:
    """Frequency-domain data c_k for k in [-N/2, N/2), stored in numpy FFT order."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or not is_power_of_two(c.size) or c.size < MIN_GRID_SIZE:
            raise ConfigurationError(f"series length must be a power of two >= {MIN_GRID_SIZE}")
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def from_taylor(cls, taylor, size=None):
        """Embed one-sided Taylor coefficients as an analytic series."""
        t = np.asarray(taylor, dtype=complex)
        n = size or max(MIN_GRID_SIZE, 1 << int(np.ceil(np.log2(max(2 * t.size, MIN_GRID_SIZE)))))
        if t.size > n // 2:
            raise ConfigurationError(f"{t.size} Taylor coefficients do not fit in size {n}")
        c = np.zeros(n, dtype=complex)
        c[: t.size] = t
        return cls(c)

    @property
    def size(self):
        return self.coefficients.size

    def frequencies(self):
        return np.fft.fftfreq(self.size, 1.0 / self.size).astype(int)

    def coefficient(self, k):
        n = self.size
        if not -n // 2 <= k < n // 2:
            return 0.0 + 0.0j
        return complex(self.coefficients[k % n])

    def energy(self):
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def is_analytic(self, tol=1e-12):
        neg = self.coefficients[self.size // 2 :]
        scale = max(1.0, np.sqrt(self.energy()))
        return float(np.max(np.abs(neg), initial=0.0)) <= tol * scale

    def taylor(self, n=None):
        """Nonnegative-frequency coefficients as a Taylor array of length n."""
        half = self.size // 2
        t = self.coefficients[:half]
        if n is None:
            return t.copy()
        out = np.zeros(n, dtype=complex)
        m = min(n, half)
        out[:m] = t[:m]
        return out


def fourier_analyze(grid):
    """Exact DFT of a CircleGrid; c_k multiplies e^(i*k*t)."""
    if not isinstance(grid, CircleGrid):
        grid = CircleGrid(np.asarray(grid, dtype=complex))
    return FourierSeries(np.fft.fft(grid.values) / grid.size)


def fourier_synthesize(series):
    """Inverse of fourier_analyze."""
    return CircleGrid(np.fft.ifft(series.coefficients * series.size))


def riesz_project(series):
    """Zero all strictly negative frequencies (the Nyquist bin -N/2 included)."""
    c = series.coefficients.copy()
    c[series.size // 2 :] = 0.0
    return FourierSeries(c)


def _bandwidth(series, tol=1e-14):
    freqs = series.frequencies()
    mask = np.abs(series.coefficients) > tol
    if not np.any(mask):
        return 0
    return int(np.max(np.abs(freqs[mask])))


def toeplitz_apply(symbol, series, max_size=MAX_TRANSFORM_SIZE):
    """Apply the Toeplitz operator with the given boundary symbol to an analytic series.

    Computes P_+(phi * f) by pointwise multiplication on a zero-padded grid of
    at least twice the combined bandwidth of symbol and input, which keeps the
    circular convolution alias-free.
    """
    if not isinstance(symbol, CircleGrid):
        symbol = CircleGrid(np.asarray(symbol, dtype=complex))
    if not series.is_analytic():
        raise DomainError("toeplitz_apply requires an analytic input (no negative frequencies)")
    phi = fourier_analyze(symbol)
    need = max(2 * (_bandwidth(phi) + _bandwidth(series)) + 2, phi.size, series.size)
    size = MIN_GRID_SIZE
    while size < need:
        size *= 2
    if size > max_size:
        raise TruncationOverflowError(
            f"toeplitz_apply needs a transform of size {size} > cap {max_size}", requested=size
        )
    big_phi = np.zeros(size, dtype=complex)
    big_f = np.zeros(size, dtype=complex)
    _embed(big_phi, phi)
    _embed(big_f, series)
    product = np.fft.ifft(big_phi * size) * np.fft.ifft(big_f * size)
    return riesz_project(fourier_analyze(CircleGrid(product)))


def _embed(target, series):
    n = series.size
    half = n // 2
    target[:half] = series.coefficients[:half]
    target[-half:] = series.coefficients[half:]


def _fft_convolve(a, b):
    """Full linear convolution of two complex arrays, by FFT on a zero-padded power-of-two grid."""
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=complex)
    size = a.size + b.size - 1
    n = 1 << (size - 1).bit_length()
    return np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))[:size]


def coanalytic_apply(psi_taylor, f_taylor):
    """Coefficients of T_conj(psi) f for analytic psi and f.

    In coefficient space (T_conj(psi) f)_i = sum_k conj(psi_k) f_(i+k), a
    cross-correlation; computed with an FFT so large truncations stay cheap.
    """
    p = np.conj(np.asarray(psi_taylor, dtype=complex))[::-1]
    f = np.asarray(f_taylor, dtype=complex)
    if p.size == 0 or f.size == 0:
        return np.zeros(f.size, dtype=complex)
    full = _fft_convolve(p, f)
    return full[p.size - 1 :]


def analytic_mul(a_taylor, b_taylor, n=None):
    """Truncated Cauchy product of two Taylor series."""
    a = np.asarray(a_taylor, dtype=complex)
    b = np.asarray(b_taylor, dtype=complex)
    out = _fft_convolve(a, b)
    if n is not None:
        out = out[:n]
    return out
