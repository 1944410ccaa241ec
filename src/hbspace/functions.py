"""Analytic function evaluators on the unit disk.

Every symbol the package manipulates (rational functions, Blaschke products,
outer functions recovered from boundary log-modulus, and products of these)
implements the same small protocol:

* ``f(z)`` evaluates inside the disk (closed disk where the class allows it);
* ``f.taylor(n)`` returns the first n Taylor coefficients;
* ``f.boundary_values(m)`` returns values on the uniform m-point grid of the
  circle; for discretized outer functions these come from the boundary data
  itself, not from a slowly converging Taylor sum;
* ``f.boundary_modulus(t)`` evaluates |f| on the circle, exactly whenever a
  closed form is known.

The Taylor data of an object is the single source of truth for all
coefficient-space algorithms downstream.  Rational functions, Blaschke
products and powers evaluate inside the disk in closed form; a grid outer
evaluates there from the log series it is built from, and its Taylor data, a
master series of 2^16 coefficients, is built only for the algorithms that
read coefficients: the Toeplitz norm solve and the series of b/a.
"""

from functools import reduce
from operator import mul

import numpy as np

from .convergence import RULES, Ladder
from .errors import (
    DomainError,
    LogIntegrabilityError,
    NotNonnegativeError,
    NumericalFactorizationError,
    ResolutionError,
)
from .circle import CircleGrid, analytic_mul, grid_angles

_TAIL_TOL = 1e-18

#: log of the least normal double, below which a row power of eval_taylor_on_circle is dropped
_LOG_TINY = float(np.log(np.finfo(float).tiny))
#: terms per step of the homogeneous tail in series_quotient
_SERIES_BLOCK = 256
#: points per step of RationalFn.__call__
_CALL_BLOCK = 2 ** 11


def polyval_ascending(coeffs, z):
    """Sum of c_k z^k over a (possibly long) coefficient array, vectorized in z.

    Block-Horner with a geometric tail cutoff; for evaluation on full circles
    prefer eval_taylor_on_circle, which is O(n log n) by coefficient folding.
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = np.atleast_1d(z).ravel().astype(complex)
    out = np.zeros(zf.shape, dtype=complex)
    if c.size == 0:
        return complex(0) if scalar else out.reshape(np.atleast_1d(z).shape)
    scale = float(np.max(np.abs(c), initial=0.0))
    rmax = float(np.max(np.abs(zf), initial=0.0))
    # chunked power-matrix evaluation: one cumprod + one matvec per chunk
    chunk = max(64, min(4096, int(2 ** 22 / max(zf.size, 1))))
    zpow = np.ones(zf.shape, dtype=complex)
    steps = np.empty((zf.size, chunk), dtype=complex)
    for s in range(0, c.size, chunk):
        if s > 0 and rmax < 1.0 and scale * rmax**s * (c.size - s) < _TAIL_TOL:
            break
        block = c[s : s + chunk]
        steps_view = steps[:, : block.size]
        steps_view[:, :] = zf[:, None]
        steps_view[:, 0] = 1.0
        powers = np.cumprod(steps_view, axis=1)
        out += zpow * (powers @ block)
        if s + chunk < c.size:
            zpow = zpow * powers[:, -1] * zf
    out = out.reshape(np.atleast_1d(z).shape)
    return complex(out[0]) if scalar else out


def series_quotient(num, den, n):
    """First n Taylor coefficients of num / den: the exact solution y of den * y = num.

    The first max(len(num), deg den) terms run the recurrence
    den_0 y_k = num_k - sum_i den_i y_(k-i) one by one.  Past them num adds
    nothing, and the homogeneous recurrence advances _SERIES_BLOCK terms at a
    time: a companion matrix maps the last deg values to the next block.  The
    matrix is the recurrence run once from unit states, in numpy's extended
    precision, so that its entries are rounded once and their error does not
    build up from block to block.
    """
    num = np.asarray(num, dtype=complex) / den[0]
    rec = np.asarray(den, dtype=complex)[1:] / den[0]
    deg = rec.size
    y = np.zeros(n, dtype=complex)
    head = min(n, max(num.size, deg))
    for k in range(head):
        m = min(k, deg)
        y[k] = (num[k] if k < num.size else 0.0) - np.dot(rec[:m], y[k - m : k][::-1])
    if head == n or deg == 0:
        return y
    steps = np.zeros((deg + _SERIES_BLOCK, deg), dtype=np.clongdouble)
    steps[:deg] = np.eye(deg)
    back = -rec[::-1].astype(np.clongdouble)
    for j in range(_SERIES_BLOCK):
        steps[deg + j] = back @ steps[j : j + deg]
    companion = steps[deg:].astype(complex)
    for s in range(head, n, _SERIES_BLOCK):
        e = min(s + _SERIES_BLOCK, n)
        y[s:e] = companion[: e - s] @ y[s - deg : s]
    return y


def eval_taylor_on_circle(coeffs, radius, n_angles):
    """Exact partial sum of c_k (r e^(it))^k on the uniform n-point angle grid.

    With k = i n + j, r^k = r^(i n) r^j: the coefficients, laid out in rows of
    n, are summed down their columns against the row powers r^(i n), each
    column sum is scaled by r^j, and an n-point inverse FFT takes the folded
    sums to the grid.  Only rows + n powers are taken, not one per coefficient,
    and the rows whose power falls below the normal range, where it adds less
    than 2^-1022 |c_k|, are left out.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = int(n_angles)
    rows = -(-c.size // n)
    if c.size != rows * n:
        c = np.concatenate([c, np.zeros(rows * n - c.size, dtype=complex)])
    r = float(radius)
    live = rows
    if r < 1.0:
        with np.errstate(divide="ignore"):
            live = min(rows, 1 + int(_LOG_TINY / (n * np.log(r))))
    folded = r ** (n * np.arange(live)) @ c.reshape(rows, n)[:live] * r ** np.arange(n)
    return np.fft.ifft(folded) * n


class AnalyticFunction:
    """Protocol base; concrete classes override what they can do exactly."""

    #: whether the function extends continuously to the closed disk
    continuous_on_closure = False

    def __call__(self, z):
        raise NotImplementedError

    def taylor(self, n):
        raise NotImplementedError

    def boundary_values(self, m):
        z = 1j * grid_angles(m)
        return self(np.exp(z, out=z))

    def boundary_modulus(self, t):
        return np.abs(self(np.exp(1j * np.asarray(t, dtype=float))))

    def one_minus_modulus_squared(self, t):
        """1 - |f|^2 on the circle, as a difference, which cancels where |f| nears 1.

        A class with a closed form that keeps its relative accuracy there overrides it.
        """
        return 1.0 - self.boundary_modulus(t) ** 2

    def eval_on_circle(self, radius, n_angles):
        return self(radius * np.exp(1j * grid_angles(n_angles)))


class RationalFn(AnalyticFunction):
    """Quotient of polynomials with a denominator free of zeros on the closed disk.

    Coefficients are ascending.  The denominator is normalized so den(0) > 0,
    which pins the phase convention used by Pythagorean mates.
    """

    continuous_on_closure = True

    #: tolerance for the pole-location and coprimality invariants
    POLE_TOL = 1e-9
    GCD_TOL = 1e-8

    def __init__(self, numerator, denominator=(1.0,)):
        num = np.atleast_1d(np.asarray(numerator, dtype=complex))
        den = np.atleast_1d(np.asarray(denominator, dtype=complex))
        num = _trim(num)
        den = _trim(den)
        if den.size == 0 or np.all(den == 0):
            raise DomainError("denominator is identically zero")
        if den.size > 1:
            poles = np.polynomial.polynomial.polyroots(den)
            if poles.size and np.min(np.abs(poles)) <= 1.0 + self.POLE_TOL:
                raise DomainError(
                    f"denominator has a root of modulus {np.min(np.abs(poles)):.3e} "
                    "inside or too close to the closed unit disk"
                )
            zeros = (
                np.polynomial.polynomial.polyroots(num) if num.size > 1 else np.array([])
            )
            for p in poles:
                if zeros.size and np.min(np.abs(zeros - p)) < self.GCD_TOL:
                    raise DomainError("numerator and denominator share a root (not coprime)")
        # normalize so den(0) is positive real
        d0 = den[0]
        if d0 == 0:
            raise DomainError("denominator vanishes at the origin")
        phase = np.conj(d0) / abs(d0)
        self.num = num * phase
        self.den = den * phase
        self.num.setflags(write=False)
        self.den.setflags(write=False)

    def __call__(self, z):
        """num(z) / den(z) by numpy's polyval, _CALL_BLOCK points at a time.

        Each value takes the same operations whatever block it is in, and a
        large z forms no full-size temporary besides the result.  A 0-d z
        gives a scalar, as polyval does.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.empty(flat.size, dtype=complex)
        for s in range(0, flat.size, _CALL_BLOCK):
            w = flat[s : s + _CALL_BLOCK]
            out[s : s + _CALL_BLOCK] = (np.polynomial.polynomial.polyval(w, self.num)
                                        / np.polynomial.polynomial.polyval(w, self.den))
        return out.reshape(z.shape)[()]

    def taylor(self, n):
        return series_quotient(self.num, self.den, n)

    def inverse_taylor(self, n):
        """Taylor series of the reciprocal; valid while num(0) != 0.

        Boundary zeros of the numerator are allowed: the recurrence is the
        exact truncated inverse even when the coefficients do not decay.
        """
        if self.num.size == 0 or self.num[0] == 0:
            raise DomainError("reciprocal series undefined: function vanishes at 0")
        return series_quotient(self.den, self.num, n)

    @property
    def degree(self):
        return max(self.num.size - 1, self.den.size - 1)


def _trim(c, tol=0.0):
    """Drop trailing (highest-order) zero coefficients."""
    nz = np.nonzero(np.abs(c) > tol)[0]
    if nz.size == 0:
        return c[:1] * 0
    return c[: nz[-1] + 1]


def polynomial_fn(coeffs):
    return RationalFn(coeffs, (1.0,))


class BlaschkeProduct(AnalyticFunction):
    """Finite Blaschke product with the standard normalized factors.

    The factor for a zero l != 0 is (|l|/l)(l - z)/(1 - conj(l) z); the factor
    for l = 0 is z.  Zeros are listed with multiplicity.
    """

    continuous_on_closure = True

    def __init__(self, zeros):
        zs = np.asarray(list(zeros), dtype=complex)
        if zs.size and np.max(np.abs(zs)) >= 1.0:
            raise DomainError("Blaschke zeros must lie strictly inside the unit disk")
        self.zeros = zs
        self.zeros.setflags(write=False)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=complex)
        for lam in self.zeros:
            if lam == 0:
                out = out * z
            else:
                out = out * (abs(lam) / lam) * (lam - z) / (1.0 - np.conj(lam) * z)
        return out

    def taylor(self, n):
        """Cauchy product of the factors' one-pole series; z for a zero at 0."""
        factors = (([0.0, 1.0], [1.0]) if lam == 0 else
                   ([abs(lam), -abs(lam) / lam], [1.0, -np.conj(lam)]) for lam in self.zeros)
        return _series_product((series_quotient(num, den, n) for num, den in factors), n)

    def boundary_modulus(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


def _series_product(series, n):
    """First n Taylor coefficients of a product, as Cauchy products of its factors' series.

    Each factor keeps its own exact series, so a product of clustered
    Blaschke factors is not run through one ill-conditioned recurrence.
    """
    out = None
    for c in series:
        out = c if out is None else analytic_mul(out, c, n)
    if out is None:
        out = np.zeros(n, dtype=complex)
        out[:1] = 1.0
    return out


def blaschke_eval(product, z):
    """Evaluate a BlaschkeProduct on the closed disk."""
    if not isinstance(product, BlaschkeProduct):
        product = BlaschkeProduct(product)
    return product(z)


class PowerOuter(AnalyticFunction):
    """The outer function c (1 - z)^alpha, principal branch.

    For alpha in (0, 1/2) and c = 2^-alpha this is the standard example of an
    outer function with a single boundary zero whose square modulus satisfies
    the Muckenhoupt condition.
    """

    continuous_on_closure = True

    def __init__(self, alpha, scale=None):
        if alpha <= 0:
            raise DomainError("power exponent must be positive")
        self.alpha = float(alpha)
        self.scale = float(scale) if scale is not None else 2.0 ** (-self.alpha)
        # log |f(-1)|, the largest |f| on the circle: exactly 0 for the default scale,
        # which 2.0 ** -alpha rounds
        self._log_peak = 0.0 if scale is None else np.log(self.scale) + self.alpha * np.log(2.0)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = 1.0 - z
        out = np.where(w == 0, 0.0, np.exp(self.alpha * np.log(np.where(w == 0, 1.0, w))))
        return self.scale * out

    def taylor(self, n):
        # binomial series of (1 - z)^alpha
        c = np.empty(n, dtype=complex)
        c[0] = 1.0
        for k in range(1, n):
            c[k] = c[k - 1] * (k - 1 - self.alpha) / k
        return self.scale * c

    def inverse_taylor(self, n):
        c = np.empty(n, dtype=complex)
        c[0] = 1.0
        for k in range(1, n):
            c[k] = c[k - 1] * (k - 1 + self.alpha) / k
        return c / self.scale

    def boundary_modulus(self, t):
        return self.scale * np.abs(2.0 * np.sin(np.asarray(t, dtype=float) / 2.0)) ** self.alpha

    def one_minus_modulus_squared(self, t):
        """1 - |f|^2 = -expm1(2 log|f(-1)| + 2 alpha log|sin(t/2)|), accurate where |f| nears 1.

        Within a quarter turn of t = pi, where sin(t/2) rounds toward 1, the
        log is taken as log1p(-2 sin^2(u/4)), u = |t - pi| up to whole turns,
        since |sin(t/2)| = cos(u/2).  With r = t less its nearest whole turn,
        u = pi - |r|, exact in that quarter turn.
        """
        t = np.asarray(t, dtype=float)
        u = np.pi - np.abs(t - 2.0 * np.pi * np.rint(t / (2.0 * np.pi)))
        near = u < np.pi / 2.0
        log_sin = np.empty(t.shape)
        log_sin[near] = np.log1p(-2.0 * np.sin(u[near] / 4.0) ** 2)
        with np.errstate(divide="ignore"):
            log_sin[~near] = np.log(np.abs(np.sin(t[~near] / 2.0)))
        return -np.expm1(2.0 * (self._log_peak + self.alpha * log_sin))


class GridOuter(AnalyticFunction):
    """Outer function reconstructed from boundary log-modulus data.

    The Herglotz transform of log w is discretized as the one-sided series
    L(z) = l_0 + 2 sum l_k z^k, and the function is exp(L(z)/2), which has
    boundary modulus sqrt(w) and is positive at the origin.  Values inside
    the disk and on the circle are exp(L/2) of that one series, summed where
    they are asked for.  The Taylor data is the master array: the first
    MASTER_DEGREE coefficients of exp(L/2), built on the first call of
    `taylor` or `inverse_taylor` and kept, so that every coefficient reader
    sees the same discretized object.

    Callable inputs are sampled on half-offset grids at two resolutions and
    Richardson-combined; this is what keeps boundary zeros of w off the sample
    points and removes the O(1/N) quadrature bias of log-type singularities.
    """

    #: master Taylor degree and the transform size used to extract it
    MASTER_DEGREE = 2 ** 16
    #: largest |z| at which the log series is summed
    INTERIOR_LIMIT = 1.0 - 1e-9

    def __init__(self, log_coeffs, modulus_fn=None, diagnostics=None):
        self.log_coeffs = np.asarray(log_coeffs, dtype=complex)
        self.log_coeffs.setflags(write=False)
        #: the coefficients of L: l_0, 2 l_1, 2 l_2, ...
        self.one_sided = 2.0 * self.log_coeffs
        self.one_sided[:1] = self.log_coeffs[:1]
        self.one_sided.setflags(write=False)
        self._modulus_fn = modulus_fn
        self.diagnostics = diagnostics or {}
        self._master = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_log_modulus(cls, w, size=None):
        """Build the outer function with boundary modulus sqrt(w).

        `w` may be a CircleGrid / array of strictly positive samples on the
        standard grid, or a callable of the angle (sampled internally on
        offset grids).
        """
        if callable(w):
            n = size or 2 ** 14
            log_n, log_2n = cls._check_log_integrable(w, n)
            lam_n = cls._log_series_from_logs(log_n)
            lam_2n = cls._log_series_from_logs(log_2n)
            half = lam_n.size
            lam = lam_2n.copy()
            lam[:half] = 2.0 * lam_2n[:half] - lam_n
            diag = {
                "sampling": "offset+richardson",
                "size_pair": (n, 2 * n),
                "mean_log_pair": (float(lam_n[0].real), float(lam_2n[0].real)),
            }
            fn = lambda t: np.sqrt(np.asarray(w(np.asarray(t, dtype=float)), dtype=float))
            return cls(lam, modulus_fn=fn, diagnostics=diag)
        values = w.values.real if isinstance(w, CircleGrid) else np.asarray(w, dtype=float)
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise DomainError("log-modulus data must be strictly positive and finite")
        n = values.size
        return cls(np.fft.fft(np.log(values))[: n // 2] / n)

    @staticmethod
    def _log_series_from_logs(logs):
        """The log series from log w on the half-offset grid of their size.

        The samples are real, so the first n/2 bins of their rfft are those
        of the full transform.
        """
        n = logs.size
        if not np.all(np.isfinite(logs)):
            raise DomainError("log-modulus callable must be strictly positive on sample grids")
        spec = np.fft.rfft(logs)[: n // 2] / n
        k = np.arange(n // 2)
        return spec * np.exp(-1j * np.pi * k / n)

    @staticmethod
    def _check_log_integrable(w, n):
        """Refuse w if mean |log w| grows on the offset grids n/4..4n; give log w on n and 2n."""
        ladder = Ladder(rule=RULES["grid-integral"])
        logs = {}
        for m in (n // 4, n // 2, n, 2 * n, 4 * n):
            t = grid_angles(m, offset=True)
            vals = np.asarray(w(t), dtype=float)
            if np.any(vals <= 0):
                raise DomainError("log-modulus callable must be strictly positive on sample grids")
            logs[m] = np.log(vals)
            ladder.add(m, np.mean(np.abs(logs[m])))
        if ladder.divergent():
            raise LogIntegrabilityError(
                f"log integral keeps growing under refinement: {ladder.values}"
            )
        return logs[n], logs[2 * n]

    # -- evaluation --------------------------------------------------------

    def log_values_on_circle(self, n):
        """L(e^(it)) on the uniform grid, exact for the stored series, in one buffer."""
        values = np.zeros(n, dtype=complex)
        np.add.at(values, np.arange(self.one_sided.size) % n, self.one_sided)
        np.fft.ifft(values, out=values)
        values *= n
        return values

    def _master_taylor(self):
        """The first MASTER_DEGREE Taylor coefficients: the FFT of the values on twice as many points.

        The values are exponentiated and transformed in their one buffer, and
        the master keeps a copy of its coefficients, not a view that would
        hold the whole transform.
        """
        if self._master is None:
            degree = self.MASTER_DEGREE
            m = 2 * degree
            values = self.log_values_on_circle(m)
            values *= 0.5
            np.exp(values, out=values)
            np.fft.fft(values, out=values)
            values /= m
            self._master = values[:degree].copy()
            self._master.setflags(write=False)
        return self._master

    def taylor(self, n):
        master = self._master_taylor()
        if n <= master.size:
            return master[:n].copy()
        out = np.zeros(n, dtype=complex)
        out[: master.size] = master
        return out

    def inverse_taylor(self, n):
        return self.reciprocal().taylor(n)

    def reciprocal(self):
        inv_fn = None
        if self._modulus_fn is not None:
            mod = self._modulus_fn
            inv_fn = lambda t: 1.0 / np.asarray(mod(t), dtype=float)
        return GridOuter(-self.log_coeffs, modulus_fn=inv_fn, diagnostics=self.diagnostics)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > self.INTERIOR_LIMIT):
            raise ResolutionError(
                "GridOuter interior evaluation requires |z| <= 1 - 1e-9; "
                "use boundary_values for circle data"
            )
        return np.exp(0.5 * polyval_ascending(self.one_sided, z))

    def eval_on_circle(self, radius, n_angles):
        if radius > 1.0 - 1e-12:
            return self.boundary_values(n_angles)
        values = eval_taylor_on_circle(self.one_sided, radius, n_angles)
        values *= 0.5
        return np.exp(values, out=values)

    def boundary_values(self, m):
        values = self.log_values_on_circle(m)
        values *= 0.5
        return np.exp(values, out=values)

    def boundary_modulus(self, t):
        t = np.asarray(t, dtype=float)
        if self._modulus_fn is not None:
            return self._modulus_fn(t)
        return np.exp(0.5 * np.real(polyval_ascending(self.one_sided, np.exp(1j * t))))

    def value_at_zero(self):
        return float(np.exp(0.5 * self.log_coeffs[0].real))


def outer_from_log_modulus(w, size=None):
    """Outer function on the disk with boundary modulus sqrt(w), positive at 0."""
    return GridOuter.from_log_modulus(w, size=size)


class ProductFn(AnalyticFunction):
    """Pointwise product of analytic factors (e.g. Blaschke times outer)."""

    def __init__(self, factors):
        self.factors = list(factors)
        self.continuous_on_closure = all(f.continuous_on_closure for f in self.factors)

    def __call__(self, z):
        return reduce(mul, (f(z) for f in self.factors))

    def taylor(self, n):
        return _series_product((f.taylor(n) for f in self.factors), n)

    def boundary_values(self, m):
        return reduce(mul, (f.boundary_values(m) for f in self.factors))

    def boundary_modulus(self, t):
        return reduce(mul, (f.boundary_modulus(t) for f in self.factors))

    def eval_on_circle(self, radius, n_angles):
        return reduce(mul, (f.eval_on_circle(radius, n_angles) for f in self.factors))


# ---------------------------------------------------------------------------
# Fejer-Riesz spectral factorization
# ---------------------------------------------------------------------------


class FejerRieszFactorization:
    """Result of factoring a nonnegative trigonometric polynomial as |q|^2."""

    def __init__(self, q, boundary_zeros, residual):
        self.q = np.asarray(q, dtype=complex)
        self.q.setflags(write=False)
        self.boundary_zeros = list(boundary_zeros)
        self.residual = float(residual)

    def __iter__(self):  # allows q, zeros = factorization
        yield self.q
        yield self.boundary_zeros


def trig_poly_values(tau, theta):
    """Evaluate t(theta) = tau_0 + 2 Re sum tau_k e^(ik theta)."""
    tau = np.asarray(tau, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, tau[0].real, dtype=float)
    for k in range(1, tau.size):
        out += 2.0 * np.real(tau[k] * np.exp(1j * k * theta))
    return out


def modulus_squared_coeffs(poly):
    """One-sided coefficients of |p(e^(i theta))|^2 for an analytic polynomial p."""
    p = np.asarray(poly, dtype=complex)
    # gamma_k = sum_j p_(j+k) conj(p_j)
    full = np.correlate(p, p, mode="full")
    return full[p.size - 1 :]


#: roots further than this from the circle are unambiguous
#: (a 2m-fold boundary root of the lift splits numerically by ~eps^(1/2m),
#: which is ~1e-4 already for m = 2)
_BOUNDARY_BAND = 1e-3
#: literal snapping tolerance for isolated near-circle roots
_SNAP_TOL = 1e-9
#: angular clustering threshold for split boundary roots
_CLUSTER_GAP = 2e-3


def fejer_riesz(tau):
    """Factor a nonnegative real trigonometric polynomial as |q(e^(i theta))|^2.

    `tau` holds the one-sided coefficients [tau_0, ..., tau_d] (tau_0 real,
    negative frequencies implied by conjugation).  The returned q is the
    analytic polynomial with all roots outside the open disk, boundary roots
    allowed, normalized so q(0) > 0.  A dip below -1e-12 on the probe grid
    raises NotNonnegativeError.

    Exact double roots on the circle split numerically into reflected pairs
    straddling it; such pairs are detected by reflection-pairing and snapped
    to the circle before assignment, which is what keeps the residual at the
    1e-8 level the contract requires.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=complex))
    tau = _trim(tau, tol=0.0)
    if abs(tau[0].imag) > 1e-12:
        raise DomainError("tau_0 must be real for a real trigonometric polynomial")
    d = tau.size - 1
    probe = np.linspace(0.0, 2.0 * np.pi, max(4096, 16 * (d + 1)), endpoint=False)
    tvals = trig_poly_values(tau, probe)
    if np.min(tvals) < -1e-12:
        raise NotNonnegativeError(
            f"trigonometric polynomial dips to {np.min(tvals):.3e} on the circle"
        )
    if d == 0:
        q = np.array([np.sqrt(max(tau[0].real, 0.0))], dtype=complex)
        return FejerRieszFactorization(q, [], 0.0)

    # Laurent lift T(z) = z^d t(z): roots come in pairs (rho, 1/conj(rho))
    laurent = np.concatenate([np.conj(tau[1:][::-1]), tau])
    roots = np.polynomial.polynomial.polyroots(laurent)
    if not np.all(np.isfinite(roots)):
        raise NumericalFactorizationError("root finding failed on the Laurent lift")

    selected, boundary = _select_roots(roots, d)
    q_raw = np.array([1.0 + 0j])
    for rho in selected:
        q_raw = np.polynomial.polynomial.polymul(q_raw, [-rho, 1.0])

    theta_star = probe[int(np.argmax(tvals))]
    denom = abs(np.polynomial.polynomial.polyval(np.exp(1j * theta_star), q_raw))
    if denom == 0:
        raise NumericalFactorizationError("factor vanishes at the calibration angle")
    gamma_mag = np.sqrt(tvals.max()) / denom
    q0 = q_raw[0] * gamma_mag
    phase = np.conj(q0) / abs(q0) if q0 != 0 else 1.0
    q = q_raw * gamma_mag * phase

    check = np.linspace(0.0, 2.0 * np.pi, 4 * probe.size, endpoint=False)
    recon = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * check), q)) ** 2
    residual = float(np.max(np.abs(recon - trig_poly_values(tau, check))))
    scale = max(1.0, float(np.max(tvals)))
    if residual > 1e-8 * scale:
        raise NumericalFactorizationError(
            f"factorization residual {residual:.3e} exceeds tolerance", residual=residual
        )
    return FejerRieszFactorization(q, boundary, residual)


def _select_roots(roots, degree):
    """Split Laurent roots into the outer/boundary half that defines q.

    Near-circle roots are clustered by angle; a cluster of 2m roots is the
    numerically split image of an m-fold boundary zero, and its circular
    centroid recovers the true angle to second order in the split radius.
    """
    mods = np.abs(roots)
    outside = [r for r, m in zip(roots, mods) if m > 1.0 + _BOUNDARY_BAND]
    inside = [r for r, m in zip(roots, mods) if m < 1.0 - _BOUNDARY_BAND]
    near = [r for r, m in zip(roots, mods) if 1.0 - _BOUNDARY_BAND <= m <= 1.0 + _BOUNDARY_BAND]

    boundary = []
    if near:
        order = np.argsort(np.angle(near))
        near = [near[i] for i in order]
        clusters = [[near[0]]]
        for r in near[1:]:
            prev = clusters[-1][-1]
            gap = abs(np.angle(r * np.conj(prev)))
            if gap <= _CLUSTER_GAP:
                clusters[-1].append(r)
            else:
                clusters.append([r])
        # a cluster can wrap around angle 0
        if len(clusters) > 1:
            gap = abs(np.angle(clusters[0][0] * np.conj(clusters[-1][-1])))
            if gap <= _CLUSTER_GAP:
                clusters[0] = clusters.pop() + clusters[0]
        for cluster in clusters:
            if len(cluster) % 2:
                lone = cluster[0]
                if len(cluster) == 1 and abs(abs(lone) - 1.0) <= _SNAP_TOL:
                    boundary.append(lone / abs(lone))
                    continue
                raise NumericalFactorizationError(
                    f"odd cluster of {len(cluster)} roots near the unit circle "
                    f"at moduli {[round(abs(r), 9) for r in cluster]}"
                )
            centroid = np.sum([r / abs(r) for r in cluster])
            snapped = centroid / abs(centroid)
            boundary.extend([snapped] * (len(cluster) // 2))
    selected = outside + boundary
    if len(selected) != degree:
        raise NumericalFactorizationError(
            f"expected {degree} factor roots, found {len(selected)} "
            f"({len(outside)} outside, {len(boundary)} boundary, {len(inside)} inside)"
        )
    return selected, boundary
