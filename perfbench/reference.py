"""Reference values the benchmark computes apart from hbspace.

Everything here uses numpy only, so a fault in the package cannot hide in
its own check: polynomials are evaluated with numpy's polyval, window masses
of the half-sum gap weight come from their closed form, and outer functions
from their own Herglotz series.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
P = np.polynomial.polynomial


def rational_eval(num, den, z):
    """p(z)/r(z) for ascending coefficient arrays."""
    z = np.asarray(z, dtype=complex)
    return P.polyval(z, np.asarray(num, dtype=complex)) / P.polyval(z, np.asarray(den, dtype=complex))


def circle(n):
    return np.exp(1j * TWO_PI * np.arange(n) / n)


def random_rational(rng, degree, sup=0.9, grid=2 ** 14):
    """Rational symbol of the given degree scaled so that max |b| on a fine grid is `sup`.

    Poles lie at moduli 1.3 to 2.5, so b is smooth on the closed disk and the
    grid maximum is the supremum to about 1e-8.
    """
    poles = rng.uniform(1.3, 2.5, degree) * np.exp(1j * rng.uniform(0.0, TWO_PI, degree))
    den = P.polyfromroots(poles)
    den = den / den[0]
    num = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    peak = float(np.max(np.abs(rational_eval(num, den, circle(grid)))))
    return num * (sup / peak), den


def mate_errors(b_num, b_den, a_num, a_den, n=4096):
    """How far a rational a is from being the Pythagorean mate of b.

    Returns the largest | |a|^2 + |b|^2 - 1 | on the n-point circle grid,
    a(0), and the smallest modulus of a zero of the numerator of a (the
    denominator is that of b, whose zeros are poles of b outside the disk).
    """
    z = circle(n)
    identity = np.abs(np.abs(rational_eval(a_num, a_den, z)) ** 2
                      + np.abs(rational_eval(b_num, b_den, z)) ** 2 - 1.0)
    a0 = complex(rational_eval(a_num, a_den, np.array([0.0]))[0])
    a_num = np.trim_zeros(np.asarray(a_num, dtype=complex), "b")
    zeros = P.polyroots(a_num) if a_num.size > 1 else np.array([np.inf])
    return {
        "identity": float(np.max(identity)),
        "a0": a0,
        "min_zero_modulus": float(np.min(np.abs(zeros))),
    }


def kernel_norm_squared(b_value, a_value, lam):
    """||k_lam||_b^2 = (1 + |b(lam)/a(lam)|^2) / (1 - |lam|^2) (Sarason)."""
    return (1.0 + abs(b_value / a_value) ** 2) / (1.0 - abs(lam) ** 2)


def outer_eval(log_modulus, z, n=2 ** 16):
    """The outer function with log |f| = log_modulus(t) on the circle, at points z.

    log f(z) = c_0 + 2 sum_(k>=1) c_k z^k, c_k the Fourier coefficients of
    log_modulus on an n-point grid.
    """
    t = TWO_PI * np.arange(n) / n
    c = np.fft.fft(log_modulus(t)) / n
    series = c[: n // 2].copy()
    series[1:] *= 2.0
    return np.exp(P.polyval(np.asarray(z, dtype=complex), series))


def _x_minus_sin(x):
    """x - sin(x) without cancellation for small x."""
    x = np.asarray(x, dtype=float)
    small = x < 0.1
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
    series = xs * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return np.where(small, series, x - np.sin(x))


def gap_arc_integral(start, length, angle=0.0):
    """Integral of (1 - cos(t - angle))/2 over [start, start + length] (radians).

    With x = length/2 and u the arc's centre minus `angle`, the integral is
    (x - sin x) + 2 sin(x) sin(u/2)^2: two nonnegative terms, so small arcs
    keep full relative accuracy.  (1 - cos(t - angle))/2 is |a|^2 for the
    half-sum b = (1 + conj(zeta) z)/2, zeta = e^(i angle).
    """
    start = np.asarray(start, dtype=float)
    x = 0.5 * float(length)
    u = start + x - angle
    return _x_minus_sin(x) + 2.0 * np.sin(x) * np.sin(0.5 * u) ** 2


def scan_family(depth):
    """(level, normalized starts, normalized length) of every scan arc up to `depth`.

    Dyadic arcs k 2^-level, their half-shifted translates, and from level 2
    on the complements of both, as the analyzers module documents its scans.
    """
    for level in range(1, depth + 1):
        length = 2.0 ** -level
        aligned = np.arange(2 ** level, dtype=float) * length
        shifted = (aligned + 0.5 * length) % 1.0
        yield level, aligned, length
        yield level, shifted, length
        if length < 0.5:
            yield level, (aligned + length) % 1.0, 1.0 - length
            yield level, (shifted + length) % 1.0, 1.0 - length


def gap_window_ratio(starts, length, angle=0.0):
    """nu(S(I))/m(I) for nu = (1 - cos(t - angle))/2 dm and normalized arcs I."""
    ell = TWO_PI * length
    return gap_arc_integral(TWO_PI * np.asarray(starts, dtype=float), ell, angle) / ell


def reverse_window_inf(depth, angle=0.0):
    """Closed-form infimum of the reverse window scan of |a|^2 dm for a rotated half-sum."""
    return min(float(np.min(gap_window_ratio(s, ell, angle))) for _, s, ell in scan_family(depth))
