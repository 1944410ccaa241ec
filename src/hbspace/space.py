"""Pythagorean pairs and the Hilbert space H(b).

For a non-extreme symbol b in the unit ball of H-infinity there is a unique
outer function a with a(0) > 0 and |a|^2 + |b|^2 = 1 a.e. on the circle.  The
space norm is computed from the operator identity

    T_conj(b) f = T_conj(a) g,        ||f||_b^2 = ||f||_2^2 + ||g||_2^2.

In coefficient space T_conj(a) truncates to an upper-triangular Toeplitz
matrix with diagonal a(0) > 0; its inverse is the conjugate-transposed
triangular Toeplitz matrix of the reciprocal power series, so the solve is a
pair of FFT correlations.  Truncations are doubled until the norm stabilizes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import FourierSeries, analytic_mul, coanalytic_apply, grid_angles
from .convergence import (
    DEFAULT_TRUNCATION,
    FAIL,
    PASS,
    RULES,
    TRUNCATION_CAP,
    UNDETERMINED,
    refine,
)
from .errors import (
    AlphaResonanceError,
    ConvergenceError,
    DiagnosticsError,
    DomainError,
    ExtremeDegenerateError,
    LogIntegrabilityError,
    UnsupportedError,
)
from .functions import (
    BlaschkeProduct,
    GridOuter,
    PowerOuter,
    ProductFn,
    RationalFn,
    fejer_riesz,
    modulus_squared_coeffs,
    outer_from_log_modulus,
)
from .measures import FactoredArcWeight, PowerArcWeight

NONEXTREME = "non-extreme"
EXTREME = "extreme"
TWO_PI = 2.0 * np.pi
_BOUNDARY_INTERP_SIZE = 2 ** 16  # grid on which b is interpolated for grid outers


@dataclass(frozen=True)
class ExtremenessVerdict:
    verdict: str
    log_integral: float | None
    trace_sizes: tuple
    trace_values: tuple
    note: str = ""

    def to_json(self):
        return {
            "verdict": self.verdict,
            "log_integral": self.log_integral,
            "trace_sizes": list(self.trace_sizes),
            "trace_values": list(self.trace_values),
            "note": self.note,
        }


class SymbolB:
    """A symbol b in the unit ball of H-infinity.

    Carries an evaluator (optional for modulus-only uses such as extremeness
    classification), an exact boundary-modulus callable when one is known, an
    optional exact log(1 - |b|) callable for moduli that underflow, and the
    user-declared admissibility metadata.
    """

    SUP_TOL = 1e-9

    def __init__(
        self,
        fn=None,
        *,
        form,
        modulus_fn=None,
        gap_log_fn=None,
        admissible_for=(),
    ):
        self.fn = fn
        self.form = form
        self._modulus_fn = modulus_fn
        self.gap_log_fn = gap_log_fn
        if admissible_for == "all":
            self.admissible_for = "all"
        else:
            self.admissible_for = frozenset(admissible_for)
        self._check_unit_ball()

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, numerator, denominator=(1.0,), admissible_for="all"):
        fn = RationalFn(numerator, denominator)
        return cls(fn, form="rational", admissible_for=admissible_for)

    @classmethod
    def constant(cls, value):
        if abs(value) > 1:
            raise DomainError("constant symbol must have modulus <= 1")
        return cls.rational([value])

    @classmethod
    def from_outer_modulus(cls, modulus, size=2 ** 14, admissible_for=(), gap_log_fn=None):
        """b is the outer function whose boundary modulus is `modulus`.

        `modulus` is a callable of the angle or an array of samples in (0, 1].
        """
        fn, modulus_fn = cls._outer(modulus, size)
        return cls(
            fn,
            form="outer_modulus",
            modulus_fn=modulus_fn,
            gap_log_fn=gap_log_fn,
            admissible_for=admissible_for,
        )

    @classmethod
    def inner_times_outer(cls, blaschke_zeros, outer_modulus, size=2 ** 14, admissible_for=()):
        """b is the Blaschke product with `blaschke_zeros` times the outer of `outer_modulus`.

        `outer_modulus` is given, and its samples checked, as for `from_outer_modulus`.
        """
        outer, modulus_fn = cls._outer(outer_modulus, size)
        return cls(
            ProductFn([BlaschkeProduct(blaschke_zeros), outer]),
            form="inner_times_outer",
            modulus_fn=modulus_fn,
            admissible_for=admissible_for,
        )

    @classmethod
    def _outer(cls, modulus, size):
        """The outer function with boundary modulus `modulus`, and that modulus as a callable.

        For samples the callable is None, and |b| is read from the outer itself.
        """
        if callable(modulus):
            modulus_fn = lambda t: np.asarray(modulus(t), dtype=float)
            return outer_from_log_modulus(lambda t: modulus_fn(t) ** 2, size=size), modulus_fn
        samples = np.asarray(modulus, dtype=float)
        if np.any(samples <= 0) or np.any(samples > 1 + cls.SUP_TOL):
            raise DomainError("outer-modulus samples must lie in (0, 1]")
        return outer_from_log_modulus(samples ** 2), None

    @classmethod
    def modulus_only(cls, modulus_fn, gap_log_fn=None):
        """Symbol known only through |b| on the boundary (enough for extremeness)."""
        return cls(None, form="modulus_only", modulus_fn=modulus_fn, gap_log_fn=gap_log_fn)

    # -- basic queries -------------------------------------------------------

    def _check_unit_ball(self):
        if self.fn is None:
            return
        sup = float(np.max(np.abs(self.fn.eval_on_circle(1.0 - 1e-3, 2 ** 12))))
        if sup > 1.0 + self.SUP_TOL:
            raise DomainError(f"symbol is not in the unit ball: sup |b| = {sup:.6f} at r=0.999")

    @property
    def is_rational(self):
        return isinstance(self.fn, RationalFn)

    def boundary_modulus(self, t):
        t = np.asarray(t, dtype=float)
        if self._modulus_fn is not None:
            return np.asarray(self._modulus_fn(t), dtype=float)
        if self.fn is None:
            raise DomainError("symbol has neither an evaluator nor a modulus")
        return np.asarray(self.fn.boundary_modulus(t), dtype=float)

    def gap_log(self, t):
        """log(1 - |b|), exact when a closed form was declared."""
        if self.gap_log_fn is not None:
            return np.asarray(self.gap_log_fn(np.asarray(t, dtype=float)), dtype=float)
        gap = 1.0 - self.boundary_modulus(t)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(gap, 0.0))

    def admissible_with(self, measure):
        """True when the symbol's boundary values exist mu-a.e. by declaration or continuity."""
        if self.fn is not None and self.fn.continuous_on_closure:
            return True
        if self.admissible_for == "all":
            return True
        label = getattr(measure, "label", None)
        return label is not None and label in self.admissible_for

    def __call__(self, z):
        if self.fn is None:
            raise DomainError("symbol has no evaluator")
        return self.fn(z)

    def to_json(self):
        doc = {"form": self.form}
        if isinstance(self.fn, RationalFn):
            doc["numerator"] = _complex_list(self.fn.num)
            doc["denominator"] = _complex_list(self.fn.den)
        if isinstance(self.fn, GridOuter):
            doc["modulus_samples"] = [
                float(v) for v in np.abs(self.fn.boundary_values(2 ** 10))
            ]
        if isinstance(self.fn, ProductFn):
            for f in self.fn.factors:
                if isinstance(f, BlaschkeProduct):
                    doc["blaschke_zeros"] = _complex_list(f.zeros)
                if isinstance(f, GridOuter):
                    doc["modulus_samples"] = list(np.abs(f.boundary_values(2 ** 10)))
        if self.admissible_for == "all":
            doc["declared_admissibility"] = "all"
        elif self.admissible_for:
            doc["declared_admissibility"] = sorted(self.admissible_for)
        return doc

    @classmethod
    def from_json(cls, doc):
        form = doc.get("form")
        adm = doc.get("declared_admissibility", ())
        if form == "rational":
            return cls.rational(
                _complex_array(doc["numerator"]),
                _complex_array(doc.get("denominator", [[1.0, 0.0]])),
                admissible_for=adm if adm else "all",
            )
        if form == "outer_modulus":
            return cls.from_outer_modulus(np.asarray(doc["modulus_samples"], dtype=float),
                                          admissible_for=adm)
        if form == "inner_times_outer":
            return cls.inner_times_outer(
                _complex_array(doc.get("blaschke_zeros", [])),
                np.asarray(doc["modulus_samples"], dtype=float),
                admissible_for=adm,
            )
        raise DomainError(f"unknown symbol form {form!r}")


def _complex_list(arr):
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(arr)]


def _complex_array(pairs):
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=complex)


# ---------------------------------------------------------------------------
# extremeness
# ---------------------------------------------------------------------------


def classify_extremeness(b, cap_exponent=16):
    """Classify b by the behaviour of the integral of log(1 - |b|).

    The integral is refined on half-offset grids; a finite stabilizing value
    means non-extreme, sustained growth fires the divergence rule and means
    extreme, anything else is reported as undetermined with the evidence.
    The ladder holds the integral of log 1/(1 - |b|) >= 0, whose growth the
    'grid-integral' rule reads; the verdict reports the integral of log(1 - |b|).
    A rational b is classified by its form: 1 - |b|^2 is a nonnegative
    trigonometric rational function, whose log is integrable unless it
    vanishes identically, that is unless b is inner.  So a rational b that is
    not inner is non-extreme, whatever the grids read: a grid point where
    1 - |b| rounds to 0, next to a zero of high order, reads -inf.  Unless its
    ladder stabilizes, it gets no log integral, and its finite rungs are kept
    as the trace alone.
    """
    def evaluate(n):
        t = grid_angles(n, offset=True)
        return float(np.mean(-b.gap_log(t)))

    ladder = refine(evaluate, [2 ** k for k in range(10, cap_exponent + 1)],
                    RULES["grid-integral"])
    sizes, values = tuple(ladder.sizes), tuple(-v for v in ladder.values)
    rational = isinstance(b, SymbolB) and b.is_rational and _gap_numerator(b.fn) is not None
    if rational and not ladder.stabilized():
        return ExtremenessVerdict(
            NONEXTREME, None, tuple(n for n, v in zip(sizes, values) if np.isfinite(v)),
            tuple(v for v in values if np.isfinite(v)),
            note="rational and not inner: log(1 - |b|^2) is integrable")
    if not np.isfinite(values[-1]):
        return ExtremenessVerdict(EXTREME, None, sizes, values,
                                  note="log(1 - |b|) = -inf at grid points")
    if ladder.divergent():
        return ExtremenessVerdict(EXTREME, None, sizes, values, note="divergence rule fired")
    if ladder.stabilized():
        return ExtremenessVerdict(NONEXTREME, values[-1], sizes, values)
    return ExtremenessVerdict(
        UNDETERMINED, values[-1], sizes, values,
        note="neither stabilization nor divergence by the grid cap",
    )


def _gap_numerator(fn):
    """|r|^2 - |p|^2 for the rational p / r, as trigonometric coefficients; None if it vanishes.

    It is the numerator of 1 - |b|^2 over |r|^2, identically 0 exactly when b is inner.
    """
    rsq = modulus_squared_coeffs(fn.den)
    psq = modulus_squared_coeffs(fn.num)
    tau = np.zeros(max(rsq.size, psq.size), dtype=complex)
    tau[: rsq.size] = rsq
    tau[: psq.size] -= psq
    if np.max(np.abs(tau)) < 1e-14 * max(1.0, float(np.max(np.abs(rsq)))):
        return None
    return tau


# ---------------------------------------------------------------------------
# the pair
# ---------------------------------------------------------------------------


class PythagoreanPair:
    """(a, b) with |a|^2 + |b|^2 = 1 on the circle, a outer with a(0) > 0.

    For a rational a, `a_boundary_zeros` lists the zeros of a on the circle with
    multiplicity, as the Fejer-Riesz rule finds them: handed over by the
    factorization that built a, or else found by factoring |a.num|^2.  The gap
    weight and the F_alpha split read this one list.
    """

    def __init__(self, b, a, extremeness, a_boundary_zeros=None):
        self.b = b
        self.a = a
        self.extremeness = extremeness
        if a_boundary_zeros is None and isinstance(a, RationalFn):
            a_boundary_zeros = fejer_riesz(modulus_squared_coeffs(a.num)).boundary_zeros
        self.a_boundary_zeros = list(a_boundary_zeros or ())
        self._b_taylor = np.zeros(0, dtype=complex)
        self._a_taylor = np.zeros(0, dtype=complex)
        self._inv_a_taylor = np.zeros(0, dtype=complex)
        self._boundary_interp = None  # b on the 2^16 grid, closed, for interpolation
        residual = self.mate_residual()
        self.diagnostics = {"mate_residual": residual}
        if residual > 1e-7:
            raise DiagnosticsError(
                f"|a|^2 + |b|^2 - 1 reaches {residual:.3e} on the boundary grid",
                details={"mate_residual": residual},
            )

    # -- invariants ----------------------------------------------------------

    def mate_residual(self):
        t = grid_angles(2 ** 12)
        err = np.abs(
            self.a.boundary_modulus(t) ** 2 + self.b.boundary_modulus(t) ** 2 - 1.0
        )
        return float(np.max(err))

    @property
    def is_nonextreme(self):
        return self.extremeness.verdict == NONEXTREME

    def require_nonextreme(self, what):
        if not self.is_nonextreme:
            raise UnsupportedError(
                f"{what} requires a non-extreme symbol "
                f"(classified {self.extremeness.verdict})"
            )

    # -- coefficient caches ----------------------------------------------------

    def b_taylor(self, n):
        if self._b_taylor.size < n:
            self._b_taylor = np.asarray(self.b.fn.taylor(_next_size(n)), dtype=complex)
        return self._b_taylor[:n]

    def a_taylor(self, n):
        if self._a_taylor.size < n:
            self._a_taylor = np.asarray(self.a.taylor(_next_size(n)), dtype=complex)
        return self._a_taylor[:n]

    def inv_a_taylor(self, n):
        if self._inv_a_taylor.size < n:
            self._inv_a_taylor = np.asarray(
                self.a.inverse_taylor(_next_size(n)), dtype=complex
            )
        return self._inv_a_taylor[:n]

    def b_over_a_taylor(self, n):
        """The first n Taylor coefficients of b/a: the Cauchy product of the b and 1/a series.

        Nothing is kept, so a reader's value does not depend on what was read before.
        """
        self.require_nonextreme("Taylor data of b/a")
        return analytic_mul(self.b_taylor(n), self.inv_a_taylor(n), n)

    # -- boundary data ---------------------------------------------------------

    def gap2_grid(self, n):
        """(1 - |b|^2) on the n-point grid, computed as |a|^2 (exact mate route)."""
        return self.gap2_fn(grid_angles(n))

    def gap2_fn(self, t):
        return np.clip(self.a.boundary_modulus(np.asarray(t, dtype=float)) ** 2, 0.0, None)

    @cached_property
    def gap2_weight(self):
        """(1 - |b|^2) = |a|^2 on the circle as an arc weight, the one that every scan reads.

        A `PowerOuter` mate gives its power.  A rational mate gives one exact
        |1 - e^(i(t - t_j))|^2 factor per boundary zero e^(i t_j) in
        `a_boundary_zeros`, so that the reciprocal is infinite on every arc
        touching a zero, times |a|^2 with those roots divided out; when that
        quotient is a constant c, as for the half-sum family, the weight is the
        power product with the scale |c|^2 and no cofactor.  Any other mate
        gives the clipped |a|^2 alone.  The cofactor closes over a, not the
        pair, so that the pair holds no reference cycle.
        """
        a = self.a
        if isinstance(a, PowerOuter):
            return PowerArcWeight(2.0 * a.alpha, a.scale**2, 0.0)
        zeros = self.a_boundary_zeros
        if zeros:
            a = RationalFn(self.a_cofactor, a.den)
        factors = [PowerArcWeight(2.0, 1.0, np.angle(z)) for z in zeros]
        if isinstance(a, RationalFn) and a.degree == 0:
            return FactoredArcWeight(factors + [PowerArcWeight(0.0, abs(a.num[0] / a.den[0]) ** 2)])
        return FactoredArcWeight(factors, lambda t: np.clip(a.boundary_modulus(t) ** 2, 0.0, None))

    @cached_property
    def a_cofactor(self):
        """a.num with one factor z - zeta divided out per zeta in `a_boundary_zeros`."""
        num = self.a.num
        for zeta in self.a_boundary_zeros:
            num = np.polynomial.polynomial.polydiv(num, [-zeta, 1.0])[0]
        return num

    @cached_property
    def inverse_gap_weight(self):
        """(1 - |b|)^-1 = (1 + |b|) |a|^-2 on the circle: the reciprocal gap weight times 1 + |b|.

        Its cofactor closes over b, not the pair.
        """
        b = self.b
        return self.gap2_weight.reciprocal().weighted(lambda t: 1.0 + b.boundary_modulus(t))

    def b_boundary(self, n):
        return np.asarray(self.b.fn.boundary_values(n), dtype=complex)

    def b_at_angles(self, t):
        """b on the circle at arbitrary angles; interpolated on the 2^16 grid for grid outers."""
        fn = self.b.fn
        if fn.continuous_on_closure:
            return np.asarray(fn(np.exp(1j * t)), dtype=complex)
        if self._boundary_interp is None:
            vals = self.b_boundary(_BOUNDARY_INTERP_SIZE)
            self._boundary_interp = np.concatenate([vals, vals[:1]])
        pos = (np.asarray(t, dtype=float) % TWO_PI) / TWO_PI * _BOUNDARY_INTERP_SIZE
        idx = np.floor(pos).astype(int)
        frac = pos - idx
        return self._boundary_interp[idx] * (1 - frac) + self._boundary_interp[idx + 1] * frac

    @cached_property
    def a_vanishes_on_circle(self):
        """Whether a vanishes somewhere on the circle, read from the zeros it is known to have.

        A rational a has its listed zeros, a power its zero at 1; a grid outer
        lists none, and |a| <= 1e-6 on 4096 samples reads one.
        """
        if isinstance(self.a, RationalFn):
            return bool(self.a_boundary_zeros)
        if isinstance(self.a, PowerOuter):
            return True
        return float(np.min(self.a.boundary_modulus(grid_angles(2 ** 12)))) <= 1e-6


def _next_size(n):
    return 1 << int(np.ceil(np.log2(max(n, 256))))


def pythagorean_mate(b, size=2 ** 14, extremeness=None):
    """Construct the Pythagorean mate a of the symbol b.

    Rational b goes through Fejer-Riesz factorization of |r|^2 - |p|^2 over
    the common denominator; everything else through the outer function with
    boundary modulus sqrt(1 - |b|^2).
    """
    if extremeness is None:
        extremeness = classify_extremeness(b)
    if b.is_rational:
        tau = _gap_numerator(b.fn)
        if tau is None:
            raise ExtremeDegenerateError("|b| = 1 a.e. on the circle (b is inner)")
        fact = fejer_riesz(tau)
        return PythagoreanPair(b, RationalFn(fact.q, b.fn.den), extremeness,
                               a_boundary_zeros=fact.boundary_zeros)
    # outer route: a is the outer function with |a|^2 = 1 - |b|^2
    gap2 = lambda t: np.clip(1.0 - b.boundary_modulus(t) ** 2, 0.0, None)
    try:
        a = outer_from_log_modulus(gap2, size=size)
    except LogIntegrabilityError as exc:
        raise ExtremeDegenerateError(
            f"1 - |b|^2 is not log-integrable: {exc}"
        ) from exc
    except DomainError as exc:
        raise ExtremeDegenerateError(
            f"1 - |b|^2 vanishes on sample grids: {exc}"
        ) from exc
    return PythagoreanPair(b, a, extremeness)


def pair_from_outer_a(a, size=2 ** 14, admissible_for="all"):
    """Build the pair starting from a declared outer a (e.g. a closed form).

    b is the outer function with |b|^2 = 1 - |a|^2; its own Pythagorean mate
    is a again.  For a rational a, b is built as `pythagorean_mate` builds a:
    the Fejer-Riesz factor of |r|^2 - |p|^2 over a's denominator r, or 0
    when a is unimodular, so no grid is sampled and no zero of b can land on one.
    """
    if isinstance(a, RationalFn):
        tau = _gap_numerator(a)
        num = [0.0] if tau is None else fejer_riesz(tau).q
        b = SymbolB.rational(num, a.den, admissible_for=admissible_for)
        return PythagoreanPair(b, a, classify_extremeness(b))
    w_b = lambda t: np.clip(1.0 - np.asarray(a.boundary_modulus(t), dtype=float) ** 2, 0.0, None)
    # |b| keeps its accuracy where it vanishes; the outer's samples carry its own
    # discretization error, far above the rounding of the difference
    mod_b = lambda t: np.sqrt(np.clip(a.one_minus_modulus_squared(t), 0.0, None))

    def gap_log(t):  # log(|a|^2 / (1 + |b|)), finite next to a zero of a, where |b| rounds to 1
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(a.boundary_modulus(t)) - np.log1p(mod_b(t))

    fn = outer_from_log_modulus(w_b, size=size)
    b = SymbolB(fn, form="outer_modulus", modulus_fn=mod_b, gap_log_fn=gap_log,
                admissible_for=admissible_for)
    extremeness = classify_extremeness(b)
    return PythagoreanPair(b, a, extremeness)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _as_taylor(f):
    if isinstance(f, FourierSeries):
        if not f.is_analytic():
            raise DomainError("hb_norm requires an analytic input")
        t = f.taylor()
    else:
        t = np.asarray(f, dtype=complex)
    nz = np.nonzero(np.abs(t) > 0)[0]
    return t[: nz[-1] + 1] if nz.size else t[:1]


def hb_norm_squared(f, pair, start=DEFAULT_TRUNCATION, cap=TRUNCATION_CAP, cross_check=True):
    """||f||_b^2 by the truncated triangular Toeplitz solve, doubled to stabilization.

    Rungs double up to `cap` and are clamped to it; the first starts no
    higher than max(len(f), cap / 2), so that an input whose Taylor series
    fills most of the cap still gets two rungs and none runs above the cap.
    The 'hb-norm' rule reads the rungs; it has no divergence test.
    """
    pair.require_nonextreme("the H(b) norm algorithm")
    f = _as_taylor(f)
    norm2_f = float(np.sum(np.abs(f) ** 2))
    rungs = [min(max(start, 2 * f.size), max(f.size, cap // 2))]
    while rungs[-1] < cap:
        rungs.append(min(2 * rungs[-1], cap))
    ladder = refine(lambda m: _norm_attempt(f, pair, m, norm2_f), rungs, RULES["hb-norm"])
    if not ladder.stabilized():
        raise ConvergenceError(f"H(b) norm did not stabilize by truncation {cap}",
                               last_values=(None, *ladder.values)[-2:])
    value, m = ladder.value, ladder.sizes[-1]
    if cross_check and not pair.a_vanishes_on_circle:
        c = pair.b_over_a_taylor(m + 1)
        f_pad = np.zeros(m + 1, dtype=complex)
        f_pad[: f.size] = f
        g2 = coanalytic_apply(c, f_pad)
        alt = norm2_f + float(np.sum(np.abs(g2) ** 2))
        if abs(np.sqrt(alt) - np.sqrt(value)) > 1e-6 * max(np.sqrt(value), 1e-15):
            raise DiagnosticsError(
                "triangular solve and direct T_conj(b/a) route disagree",
                details={"solve": value, "direct": alt},
            )
    return value


def _norm_attempt(f, pair, m, norm2_f):
    length = m + 1
    f_pad = np.zeros(length, dtype=complex)
    f_pad[: min(f.size, length)] = f[:length]
    u = coanalytic_apply(pair.b_taylor(length), f_pad)
    g = coanalytic_apply(pair.inv_a_taylor(length), u)
    return norm2_f + float(np.sum(np.abs(g) ** 2))


def hb_norm(f, pair, **kw):
    return float(np.sqrt(hb_norm_squared(f, pair, **kw)))


def hb_inner(f, g, pair, **kw):
    """Inner product by polarization of the norm algorithm (single source of truth)."""
    f = _as_taylor(f)
    g = _as_taylor(g)
    n = max(f.size, g.size)
    fp = np.zeros(n, dtype=complex)
    gp = np.zeros(n, dtype=complex)
    fp[: f.size] = f
    gp[: g.size] = g
    kw.setdefault("cross_check", False)
    re = (hb_norm_squared(fp + gp, pair, **kw) - hb_norm_squared(fp - gp, pair, **kw)) / 4.0
    im = (
        hb_norm_squared(fp + 1j * gp, pair, **kw)
        - hb_norm_squared(fp - 1j * gp, pair, **kw)
    ) / 4.0
    return complex(re, im)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPoint:
    lam: complex
    b_value: complex
    a_value: complex
    norm_squared: float


def _value_at(f, z):
    """f at the one point z, as a complex number."""
    return complex(np.asarray(f(np.array([z])))[0])


def cauchy_kernel_taylor(lam, n=None):
    """Taylor coefficients conj(lam)^k of the Cauchy kernel at lam, by default down to 1e-16."""
    lam = complex(lam)
    if abs(lam) >= 1:
        raise DomainError("kernel point must lie in the open disk")
    if n is None:
        n = 1 if lam == 0 else min(int(np.log(1e-16) / np.log(abs(lam))) + 2, 2 ** 17)
    return np.conj(lam) ** np.arange(max(n, 1))


def kernel_norm_closed_form(lam, pair):
    """Closed-form H(b) norm of the Cauchy kernel k_lam.

    norm^2 = (1 + |b(lam)|^2/|a(lam)|^2) / (1 - |lam|^2); a is outer hence
    zero-free in the open disk, so the ratio is always defined.
    """
    pair.require_nonextreme("Cauchy kernels in H(b)")
    lam = complex(lam)
    if abs(lam) >= 1:
        raise DomainError("kernel point must lie in the open disk")
    bv = _value_at(pair.b.fn, lam)
    av = _value_at(pair.a, lam)
    norm2 = (1.0 + abs(bv) ** 2 / abs(av) ** 2) / (1.0 - abs(lam) ** 2)
    return KernelPoint(lam, bv, av, float(norm2))


def hb_kernel_norm_squared(lam, pair):
    """||k^b_lam||_b^2 = k^b_lam(lam) = (1 - |b(lam)|^2)/(1 - |lam|^2)."""
    lam = complex(lam)
    bv = _value_at(pair.b.fn, lam)
    return (1.0 - abs(bv) ** 2) / (1.0 - abs(lam) ** 2)


def kernel_eval(lam, z, pair):
    """Evaluate k^b_lam(z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z)."""
    lam = complex(lam)
    z = np.asarray(z, dtype=complex)
    denom = 1.0 - np.conj(lam) * z
    if np.any(np.abs(denom) < 1e-14):
        raise DomainError("kernel pole: z = 1/conj(lam)")
    bl = _value_at(pair.b.fn, lam)
    return (1.0 - np.conj(bl) * pair.b.fn(z)) / denom


def hb_kernel_taylor(lam, pair, n=None):
    """Taylor coefficients of k^b_lam = (I - T_b T_conj(b)) k_lam."""
    k = cauchy_kernel_taylor(lam, n)
    bl = _value_at(pair.b.fn, lam)
    b_tay = pair.b_taylor(k.size)
    return k - np.conj(bl) * analytic_mul(b_tay, k, k.size)


# ---------------------------------------------------------------------------
# Taylor data of b/a
# ---------------------------------------------------------------------------


@dataclass
class BOverATaylor:
    coefficients: np.ndarray
    in_h2: str


def taylor_b_over_a(pair, degree):
    """Taylor coefficients of b/a through z^degree, and whether b/a lies in H^2.

    a is outer, so 1/a has a Taylor series even when a has boundary zeros,
    and the truncated Cauchy product of the b and 1/a series is exact.  As a
    is outer, b/a lies in the Smirnov class N^+, and N^+ ∩ L^2 = H^2
    (Smirnov; Duren, Theory of H^p Spaces).  So b/a is in H^2 exactly when
    |b/a|^2 = |b|^2 / (1 - |b|^2) is integrable on the circle, that is when
    (1 - |b|)^-1 is, and `l1_gap_test` is the verdict.
    """
    return BOverATaylor(pair.b_over_a_taylor(degree + 1), l1_gap_test(pair)["feasible"])


def l1_gap_test(pair):
    """Whether (1 - |b|)^-1 is integrable, that is whether b/a lies in H^2 and whether
    the space admits a reverse Carleson measure (Sarason).

    As 1 <= 1 + |b| <= 2, the pair's `inverse_gap_weight` has a pole exactly
    where |a|^-2 has one, which means "no"; else its total is the integral.
    `gap2_weight` holds the zeros of a power or rational a; a zero of a grid
    outer is no pole, and a quadrature of 1/|a|^2 stays finite next to it, so
    there `gap_reciprocal_ladder` decides on the offset sample grids.
    """
    weight = pair.inverse_gap_weight
    if not weight.integrable:
        out = {"feasible": "no"}
    elif isinstance(pair.a, (PowerOuter, RationalFn)):
        total = weight.total()
        out = {"feasible": "yes" if np.isfinite(total) else UNDETERMINED, "integral": total}
    else:
        ladder = gap_reciprocal_ladder(pair.b)
        out = {"feasible": {FAIL: "no", PASS: "yes"}.get(ladder.verdict(), UNDETERMINED),
               "integral": ladder.value, "trace": ladder.values}
    if out["feasible"] == "no":
        out["certificate"] = "(1 - |b|)^-1 is not integrable"
    if out["feasible"] == "yes":
        out["certificate"] = "(1 - |b|)^-1 dm is itself a reverse Carleson measure"
    return out


def gap_reciprocal_ladder(b):
    """Means of (1 - |b|)^-1 over {|b| < 1} on the offset grids 2^10..2^16, through `b.gap_log`."""
    def evaluate(n):
        logs = b.gap_log(grid_angles(n, offset=True))
        with np.errstate(over="ignore"):
            vals = np.exp(-logs)
        return float(np.mean(np.where(logs > -np.inf, vals, 0.0)))

    return refine(evaluate, [2 ** k for k in range(10, 17)], RULES["grid-integral"])


def monomial_norm(n, pair, cross_check=True):
    """||z^n||_b = sqrt(1 + sum_{j<=n} |c_j|^2), c = Taylor data of b/a.

    Holds for every non-extreme b, whether or not b/a lies in H^2: as power
    series b = a (b/a), so f^+ = sum_{j<=n} conj(c_j) z^(n-j) solves
    T_conj(b) z^n = T_conj(a) f^+, and ||z^n||_b^2 = 1 + ||f^+||_2^2
    (Sarason, Sub-Hardy Hilbert Spaces).  The cross-check compares against
    the generic solver.
    """
    c = pair.b_over_a_taylor(n + 1)
    value = float(np.sqrt(1.0 + np.sum(np.abs(c) ** 2)))
    if cross_check:
        e_n = np.zeros(n + 1, dtype=complex)
        e_n[n] = 1.0
        direct = hb_norm(e_n, pair, cross_check=False)
        if abs(direct - value) > 1e-6 * value:
            raise DiagnosticsError(
                "monomial norm formula and generic solver disagree",
                details={"formula": value, "solver": direct, "n": n},
            )
    return value


# ---------------------------------------------------------------------------
# Clark densities and the rational F_alpha decomposition
# ---------------------------------------------------------------------------


@dataclass
class ClarkDensity:
    alpha: complex
    values: np.ndarray
    poisson_check: float


def clark_density(pair, alpha, size=2 ** 12, rng=None):
    """Absolutely continuous density (1 - |b|^2)/|1 - conj(alpha) b|^2 on the grid."""
    pair.require_nonextreme("Clark densities")
    alpha = complex(alpha)
    alpha /= abs(alpha)
    bvals = pair.b_boundary(size)
    denom = np.abs(1.0 - np.conj(alpha) * bvals) ** 2
    if float(np.min(denom)) < 1e-18:
        raise AlphaResonanceError(
            f"1 - conj(alpha) b nearly vanishes on the grid (min |.|^2 = {np.min(denom):.3e}); "
            "choose another alpha"
        )
    density = pair.gap2_grid(size) / denom
    rng = rng or np.random.default_rng(0)
    pts = 0.8 * rng.uniform(0.1, 1.0, 10) * np.exp(2j * np.pi * rng.uniform(0, 1, 10))
    t = grid_angles(size)
    worst = 0.0
    for z in pts:
        poisson = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * t) - z) ** 2
        extension = float(np.mean(poisson * density))
        bz = _value_at(pair.b.fn, z)
        target = (1.0 - abs(bz) ** 2) / abs(1.0 - np.conj(alpha) * bz) ** 2
        worst = max(worst, abs(extension - target))
    return ClarkDensity(alpha, density, worst)


def random_unimodular_alpha(pair, seed=0, size=2 ** 12, margin=1e-6, tries=64):
    """Scan pseudo-random unimodular alphas until the resonance guard passes."""
    return _unimodular_alpha(pair, seed, size, margin, tries)


def _unimodular_alpha(pair, seed, size, margin=1e-6, tries=64, excluded=()):
    """The first of `tries` seeded draws alpha = e^(2 pi i u) that passes the guards.

    The resonance guard asks |1 - conj(alpha) b| > margin on the size-point
    grid; a draw within 1e-3 of an `excluded` value is skipped.
    """
    rng = np.random.default_rng(seed)
    bvals = pair.b_boundary(size)
    excluded = np.asarray(excluded)
    for _ in range(tries):
        alpha = np.exp(2j * np.pi * rng.uniform())
        if excluded.size and np.min(np.abs(alpha - excluded)) < 1e-3:
            continue
        if float(np.min(np.abs(1.0 - np.conj(alpha) * bvals))) > margin:
            return complex(alpha)
    raise AlphaResonanceError(f"no alpha passed the guards in {tries} draws")


@dataclass
class FAlphaDecomposition:
    """F_alpha = p * f with p collecting the pair's `a_boundary_zeros` and |f|^2 in A2."""

    alpha: complex
    p: np.ndarray
    boundary_zeros: list
    f: object
    f_sup: float
    f_inf: float
    min_r_one_minus_ab: float
    a2_verdict: str

    @property
    def codimension(self):
        return len(self.boundary_zeros)


class _FAlphaF:
    """Evaluator for f = q2 / (r (1 - conj(alpha) b)); continuous on the closed disk."""

    continuous_on_closure = True

    def __init__(self, q2, r, alpha, b_fn):
        self.q2 = np.asarray(q2, dtype=complex)
        self.r = np.asarray(r, dtype=complex)
        self.alpha = complex(alpha)
        self.b_fn = b_fn

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        pv = np.polynomial.polynomial.polyval
        return pv(z, self.q2) / (pv(z, self.r) * (1.0 - np.conj(self.alpha) * self.b_fn(z)))


def rational_falpha_decompose(pair, alpha=None, seed=0, size=2 ** 12):
    """Split F_alpha = a/(1 - conj(alpha) b) as p * f for rational non-extreme b.

    p is the monic polynomial collecting the boundary zeros of a that the
    Fejer-Riesz rule found (`pair.a_boundary_zeros`), q2 = a.num / p is the
    pair's `a_cofactor`, and f = q2/(r (1 - conj(alpha) b)) together with 1/f
    is continuous on the closed disk, so |f|^2 satisfies the A2 condition.
    """
    pair.require_nonextreme("the F_alpha decomposition")
    if not isinstance(pair.a, RationalFn) or not pair.b.is_rational:
        raise UnsupportedError("F_alpha decomposition implemented for rational symbols only")
    a = pair.a
    boundary = pair.a_boundary_zeros

    bvals_at_bz = (
        np.asarray(pair.b.fn(np.array(boundary))) if boundary else np.array([])
    )
    if alpha is None:
        alpha = _unimodular_alpha(pair, seed, size, excluded=bvals_at_bz)
    else:
        alpha = complex(alpha)
        alpha /= abs(alpha)
        if bvals_at_bz.size and np.min(np.abs(alpha - bvals_at_bz)) < 1e-9:
            raise AlphaResonanceError("alpha lies in the excluded set {b(zeta_i)}")

    p = np.array([1.0 + 0j])
    for zeta in boundary:
        p = np.polynomial.polynomial.polymul(p, [-zeta, 1.0])

    f = _FAlphaF(pair.a_cofactor, a.den, alpha, pair.b.fn)
    zgrid = _closed_disk_grid(size)
    pv = np.polynomial.polynomial.polyval
    guard = np.abs(pv(zgrid, a.den) * (1.0 - np.conj(alpha) * pair.b.fn(zgrid)))
    min_guard = float(np.min(guard))
    if min_guard < 1e-9:
        raise AlphaResonanceError(
            f"inf |r (1 - conj(alpha) b)| = {min_guard:.3e} on the closed-disk grid"
        )
    fvals = np.abs(f(zgrid))
    f_sup, f_inf = float(np.max(fvals)), float(np.min(fvals))
    verdict = "pass" if (np.isfinite(f_sup) and f_inf > 0) else "fail"
    return FAlphaDecomposition(
        alpha=alpha,
        p=p,
        boundary_zeros=list(boundary),
        f=f,
        f_sup=f_sup,
        f_inf=f_inf,
        min_r_one_minus_ab=min_guard,
        a2_verdict=verdict,
    )


def _closed_disk_grid(size):
    t = grid_angles(min(size, 2 ** 12))
    pieces = [np.exp(1j * t)]
    for j in range(1, 9):
        radius = 1.0 - 2.0 ** (-j)
        angles = grid_angles(2 ** 8)
        pieces.append(radius * np.exp(1j * angles))
    pieces.append(np.zeros(1, dtype=complex))
    return np.concatenate(pieces)
