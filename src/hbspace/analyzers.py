"""Verdict engines: window scans, weight conditions, and embedding reports.

Every analyzer is three-valued (pass / fail / undetermined) and reports its
numeric evidence at two resolutions.  Scans run over the dyadic arcs, their
half-shifted translates, and the complements of both; the complements are
what exhibit the growth of Muckenhoupt products pinched against a weight
singularity, where the small arcs at the singularity are already infinite.
The cumulative extremes are monotone in depth by construction.
"""

import csv
import io
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .circle import grid_angles
from .convergence import (
    DEFAULT_DEPTH,
    FAIL,
    PASS,
    RULES,
    UNDETERMINED,
    Ladder,
    dyadic_arcs,
    growth_exponent,
)
from .errors import (
    AdmissibilityError,
    DegenerateMeasureError,
    DomainError,
    ResolutionError,
    UnsupportedError,
)
from .functions import GridOuter, RationalFn
from .measures import (
    DiskAtoms,
    DiskMeasure,
    FunctionOnDisk,
    PairWeight,
    as_arc_weight,
    window_span,
)
from .space import (
    EXTREME,
    NONEXTREME,
    gap_reciprocal_ladder,
    hb_kernel_norm_squared,
    rational_falpha_decompose,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------


@dataclass
class ConditionResult:
    verdict: str
    value: float | None = None
    resolutions: tuple | None = None
    witness: dict | None = None
    evidence: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "value": _jsonable(self.value),
            "resolutions": _jsonable(self.resolutions),
            "witness": _jsonable(self.witness),
            "evidence": _jsonable(self.evidence),
        }


@dataclass
class AnalysisReport:
    kind: str
    overall: str
    conditions: dict
    constants: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "kind": self.kind,
            "overall": self.overall,
            "conditions": {k: v.to_json() for k, v in self.conditions.items()},
            "constants": _jsonable(self.constants),
            "witnesses": _jsonable(self.witnesses),
            "diagnostics": _jsonable(self.diagnostics),
        }


def _condition(verdict, scan, **evidence):
    """A condition read off a level scan: its last value, two resolutions and witness."""
    return ConditionResult(verdict=verdict, value=scan.value, resolutions=scan.resolutions(),
                           witness=scan.witness, evidence=evidence)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    return str(obj)


# ---------------------------------------------------------------------------
# arc scan engine
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class LevelScan(Ladder):
    """A ladder of cumulative extremes over scan levels, with each level's own extreme."""

    per_level: list = field(default_factory=list)
    witness: dict | None = None

    @property
    def cumulative(self):
        return self.values

    def add_level(self, size, values, witness):
        """Add one level: its extreme of `values` (-inf or +inf when empty) and the cumulative one.

        On a strict improvement of the cumulative extreme, the witness
        becomes witness(index, value) for the index of the level's extreme.
        """
        sup = self.mode == "sup"
        values = np.asarray(values, dtype=float)
        best = last = -np.inf if sup else np.inf
        if values.size:
            idx = int(np.argmax(values) if sup else np.argmin(values))
            best = float(values[idx])
        if self.values:
            last = self.values[-1]
        better = best > last if sup else best < last
        self.per_level.append(best)
        self.add(size, best if better else last)
        if better:
            self.witness = witness(idx, best)


@dataclass(kw_only=True)
class ScanResult(LevelScan):
    depth: int
    infinite_witnesses: list = field(default_factory=list)
    table: list | None = None

    @property
    def exponent(self):
        """Slope of log(cumulative) against log(1/size), size 2^level."""
        return growth_exponent([1.0 / s for s in self.sizes], self.values)

    def verdict_bounded(self):
        """pass = stabilized finite sup, fail = infinite/divergent, else undetermined."""
        return FAIL if self.infinite_witnesses else self.verdict()

    def verdict_positive_inf(self):
        """pass = stabilized positive infimum, fail = zero/decaying, else undetermined."""
        return self.verdict()

    def table_csv(self):
        if self.table is None:
            raise DomainError("scan was run without table collection")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["level", "arc_center", "arc_length", "value"])
        for row in self.table:
            writer.writerow(row)
        return buf.getvalue()

    def to_json(self):
        return {
            "mode": self.mode,
            "depth": self.depth,
            "value": _jsonable(self.value),
            "per_level": _jsonable(self.per_level),
            "cumulative": _jsonable(self.cumulative),
            "witness": _jsonable(self.witness),
            "exponent": _jsonable(self.exponent),
            "stabilized": self.stabilized(),
            "divergent": self.divergent(),
            "infinite_witnesses": _jsonable(self.infinite_witnesses),
        }


def _scan_families(level, complements=True):
    aligned, shifted = dyadic_arcs(level)
    length = 2.0 ** (-level)
    fams = [(aligned, length), (shifted, length)]
    if complements and level >= 1 and length < 0.5:
        fams.append((((aligned + length) % 1.0), 1.0 - length))
        fams.append((((shifted + length) % 1.0), 1.0 - length))
    return fams


def arc_scan(value_fn, depth, mode="sup", complements=True, collect_table=False):
    """Run value_fn(starts, length) over the dyadic scan family up to `depth`.

    mode 'sup' tracks maxima of the finite values (infinities reported
    separately), mode 'inf' tracks minima.  Level k has size 2^k.  The
    cumulative series is what verdict rules read, by the 'scan' rule, and
    the witness is the arc of the cumulative extreme.
    The infinite witnesses are the infinite arcs of the shortest scanned
    length that has one; they locate every singularity that makes a longer
    arc infinite.
    """
    scan = ScanResult(rule=RULES["scan"], mode=mode, depth=depth,
                      table=[] if collect_table else None)
    shortest = np.inf
    # the finest family is valued first, so that an arc weight integrates its
    # cells once, on the finest lattice the scan reads
    deepest = _scan_families(depth, complements)
    first = np.asarray(value_fn(*deepest[-1]), dtype=float)
    for level in range(1, depth + 1):
        families = deepest if level == depth else _scan_families(level, complements)
        starts = np.concatenate([s for s, _ in families])
        lengths = np.concatenate([np.full(s.size, ell) for s, ell in families])
        vals = np.concatenate([first if s is deepest[-1][0]
                               else np.asarray(value_fn(s, ell), dtype=float)
                               for s, ell in families])
        if collect_table:
            centers = (starts + lengths / 2.0) % 1.0 * TWO_PI
            scan.table.extend((level, c, ell, v) for c, ell, v
                              in zip(centers.tolist(), lengths.tolist(), vals.tolist()))
        if mode == "sup":
            hit = vals == np.inf
            if np.any(hit):
                ell = float(lengths[hit].min())
                if ell < shortest:
                    scan.infinite_witnesses, shortest = [], ell
                if ell == shortest:
                    scan.infinite_witnesses += [{"level": level, "start": float(x), "length": ell}
                                                for x in starts[hit & (lengths == ell)]]
            keep = np.isfinite(vals)
            starts, lengths, vals = starts[keep], lengths[keep], vals[keep]
        scan.add_level(2 ** level, vals, lambda i, v: {
            "level": level, "start": float(starts[i]), "length": float(lengths[i]), "value": v})
    return scan


def _mass_ratios(measure):
    """starts, length -> nu(S(I)) / m(I) on the arcs I of that length from those starts."""
    return lambda starts, length: measure.batch_window_masses(starts, length) / length


def reverse_inf_scan(measure, depth=DEFAULT_DEPTH, collect_table=False):
    """inf over scan arcs of nu(S(I))/m(I), with level-by-level minima."""
    return arc_scan(_mass_ratios(measure), depth, mode="inf", collect_table=collect_table)


def carleson_sup_scan(measure, depth=DEFAULT_DEPTH, collect_table=False):
    """sup over scan arcs of nu(S(I))/m(I), growth-exponent fit included."""
    return arc_scan(_mass_ratios(measure), depth, mode="sup", collect_table=collect_table)


# ---------------------------------------------------------------------------
# weight conditions
# ---------------------------------------------------------------------------


def _paired_averages(u, v, starts, length):
    """(avg of u)(avg of v) on the arcs of normalized length `length` from the normalized starts."""
    s = np.asarray(starts, dtype=float) * TWO_PI
    with np.errstate(invalid="ignore"):
        return (np.asarray(u.arc_integral(s, length), dtype=float)
                * np.asarray(v.arc_integral(s, length), dtype=float) / length**2)


def a2_product(weight, window):
    """The Muckenhoupt product (avg of w)(avg of 1/w) on one arc."""
    w = as_arc_weight(weight)
    start, length = window_span(window)
    return _paired_averages(w, w.reciprocal(), [start], length)[0]


def a2_check(weight, depth=DEFAULT_DEPTH, collect_table=False):
    """Scan of Muckenhoupt products over the arc family.

    Arcs whose closure contains a strong singularity produce infinite
    products and an immediate fail; the growth fit is taken over the finite
    products (dominated by arcs pinched against the singularity).
    """
    w = as_arc_weight(weight)
    return arc_scan(partial(_paired_averages, w, w.reciprocal()), depth, mode="sup",
                    collect_table=collect_table)


def two_weight_necessary(h, w, depth=DEFAULT_DEPTH, collect_table=False):
    """Scan of the paired averages (avg h)(avg w); necessary, never sufficient."""
    products = partial(_paired_averages, as_arc_weight(h), as_arc_weight(w))
    scan = arc_scan(products, depth, mode="sup", collect_table=collect_table)
    report = AnalysisReport(
        kind="two-weight-necessary",
        overall=scan.verdict_bounded(),
        conditions={
            "GenMuckenhoupt.sup": _condition(scan.verdict_bounded(), scan,
                                             exponent=scan.exponent)
        },
        constants={"sup": scan.value},
        diagnostics={"note": "necessary condition only; boundedness is not implied"},
    )
    return report, scan


# ---------------------------------------------------------------------------
# essential infimum of (1 - |b|^2) h
# ---------------------------------------------------------------------------


def _ess_inf_scan(ac, last):
    """The least cell average 2^level * ac.cell_integrals(level) at levels 1..last, in inf mode.

    A parent cell's average is the mean of its children's, so the level
    minima never rise: they tend to the essential infimum of the density,
    and a density vanishing anywhere makes them decay, which the 'scan'
    rule reads as fail.  Without an a.c. part (`ac` None) every average is 0.
    The witness is the cell of the cumulative minimum.
    """
    scan = LevelScan(rule=RULES["scan"], mode="inf")
    if ac is not None:
        ac.cell_integrals(last)  # the finest level first, so that one pyramid holds them all
    for level in range(1, last + 1):
        n = 2 ** level
        averages = np.zeros(n) if ac is None else n * ac.cell_integrals(level)
        scan.add_level(n, averages, lambda i, v: {
            "level": level, "start": i / n, "length": 1.0 / n, "value": v})
    return scan


def ess_inf_weighted(pair, measure, size=None):
    """Essential infimum of (1 - |b|^2) h, as the least cell average over dyadic levels.

    (1 - |b|^2) is the pair's gap weight |a|^2, which weights the measure's
    a.c. part h; the levels run up to log2(size), 14 by default.  An a.c.
    part that cannot be weighted, a piecewise weight say, raises WeightingError.
    """
    ac = None if measure.ac is None else measure.ac.weighted(pair.gap2_weight)
    return _ess_inf_scan(ac, int(np.log2(size or 2 ** 14)))


# ---------------------------------------------------------------------------
# corona check
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class CoronaResult(LevelScan):
    infimum = Ladder.value
    verdict = property(Ladder.verdict)

    def to_json(self):
        return {
            "infimum": _jsonable(self.infimum),
            "witness": _jsonable(self.witness),
            "per_level": _jsonable(self.per_level),
            "cumulative": _jsonable(self.cumulative),
            "verdict": self.verdict,
        }


def corona_check(pair, depth=DEFAULT_DEPTH, angle_cap=512):
    """inf of |a| + |b| over a log-radial interior grid.

    Radii 1 - 2^-j probe the boundary-approach regime; the cumulative minima
    are an inf ladder read by the 'corona' rule: stabilizing positive minima
    pass, minima decaying geometrically or down to its floor fail.
    """
    scan = CoronaResult(rule=RULES["corona"], mode="inf")
    for j in range(1, depth + 1):
        radius = 1.0 - 2.0 ** (-j)
        m = int(min(2 ** (j + 2), angle_cap))
        s = np.abs(pair.a.eval_on_circle(radius, m)) + np.abs(pair.b.fn.eval_on_circle(radius, m))
        scan.add_level(2 ** j, s, lambda i, v: {
            "radius": radius, "angle": float(grid_angles(m)[i]), "value": v})
    return scan


# ---------------------------------------------------------------------------
# kernel ratio scans
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class KernelRatioResult(LevelScan):
    variant: str
    max_ratio = Ladder.value

    @property
    def per_level_max(self):
        return self.per_level

    def to_json(self):
        return {
            "max_ratio": _jsonable(self.max_ratio),
            "witness": _jsonable(self.witness),
            "per_level_max": _jsonable(self.per_level_max),
            "cumulative": _jsonable(self.cumulative),
            "variant": self.variant,
        }


def _up_to_circle(fn, value, boundary):
    """z -> value(z) inside the disk, and boundary(angle of z) past fn's interior limit.

    A function that is not continuous on the closed disk, a grid outer say,
    is summed only up to |z| = GridOuter.INTERIOR_LIMIT.  A point past that,
    as the deepest nodes of a radial ray are, takes the boundary value at
    its angle, the limit of value(z) there.
    """
    limit = 1.0 if fn.continuous_on_closure else GridOuter.INTERIOR_LIMIT

    def at(z):
        z = np.asarray(z, dtype=complex)
        past = np.abs(z) > limit
        out = np.asarray(value(np.where(past, 0.0, z)))
        if np.any(past):
            out[past] = boundary(np.angle(z[past]))
        return out

    return at


def _gap_weight(pair, fn, interior):
    """Weight pair.gap2_weight on the circle and interior(z) inside, up to fn's interior limit."""
    return PairWeight(pair.gap2_weight, _up_to_circle(fn, interior, pair.gap2_weight))


def _kernel_adapter(pair, lam, bl, variant):
    """k_lam as a FunctionOnDisk, given bl = b(lam)."""
    lam = complex(lam)
    if variant == "hb":
        b_at = _up_to_circle(pair.b.fn, pair.b.fn, pair.b_at_angles)

        def interior(z):
            return (1.0 - np.conj(bl) * b_at(z)) / (
                1.0 - np.conj(lam) * np.asarray(z, dtype=complex)
            )

        def boundary(t):
            zb = pair.b_at_angles(np.asarray(t, dtype=float))
            return (1.0 - np.conj(bl) * zb) / (1.0 - np.conj(lam) * np.exp(1j * np.asarray(t)))

    else:

        def interior(z):
            return 1.0 / (1.0 - np.conj(lam) * np.asarray(z, dtype=complex))

        def boundary(t):
            return 1.0 / (1.0 - np.conj(lam) * np.exp(1j * np.asarray(t, dtype=float)))

    return FunctionOnDisk(interior, boundary_angles=boundary,
                          focus_angles=(float(np.angle(lam)),))


def _kernel_mu_norms_squared(pair, measure, lams, variant, beta=None):
    """||k_lam||^2 in L2(mu) for every lam of one probe level.

    `beta` holds b at the lams; without it, b is evaluated there.  The
    boundary a.c. part takes the grid sum of its density through FFT
    convolutions; atoms and radial parts take their own l2 rule at each lam.
    """
    lams = np.asarray(lams, dtype=complex)
    if beta is None:
        beta = np.asarray(pair.b.fn(lams), dtype=complex)
    out = np.zeros(lams.size)
    if measure.ac is not None:
        out += _grid_kernel_norms_squared(pair, measure.ac, lams, beta, variant)
    for comp in measure.components():
        if comp is not measure.ac and comp.mass() > 0:
            for i, lam in enumerate(lams):
                out[i] += comp.l2(_kernel_adapter(pair, lam, beta[i], variant))
    return out


_NEAR_POINTS = 64  # grid points on either side of a probe angle that are summed directly


def _kernel_spectra(pair, weight, variant):
    """The weight's grid density h, b on its grid, and the FFTs the kernel sums convolve.

    For 'hb' these are the FFTs of h, h b and h |b|^2; for 'cauchy' the FFT
    of h alone, with b zero.  The pair keeps those of its last weight and
    variant, so that a kernel scan takes them once for all its levels.  It
    holds the weight by a weak reference: a weight built from the pair would
    otherwise form a cycle that only a full garbage collection frees.
    """
    cached = pair._kernel_spectra
    if cached is None or cached[0]() is not weight or cached[1] != variant:
        h = weight.grid_density()
        parts = [h]
        b = np.zeros(h.size)
        if variant == "hb":
            b = pair.b_boundary(h.size)
            parts += [h * b, h * np.abs(b) ** 2]
        cached = pair._kernel_spectra = (weakref.ref(weight), variant, h, b,
                                         np.fft.fft(parts))
    return cached[2:]


def _grid_kernel_norms_squared(pair, weight, lams, beta, variant):
    """The grid sums mean_j h_j |k_lam(e^(i t_j))|^2 over the weight's grid density h.

    `beta` holds b at the lams.  With lam = r e^(i(t_q + delta)) and
    K(s) = 1/|1 - r e^(is)|^2, the grid sum of g K(t_j - t_q - delta) is the
    circular convolution of g with K sampled at t_j + delta, read at q: one
    kernel FFT and one inverse FFT for each radius and sub-grid offset.  The
    hb numerator |1 - conj(b(lam)) b|^2 expands over g = h, h b and h |b|^2.
    That expansion cancels where the numerator vanishes under the peak of K,
    next to a boundary zero of a, so the points nearest each probe angle
    are summed directly and only the rest of K goes through the FFT.
    Only the outputs at the probe indices q are read.  With s the largest
    stride dividing n and every q of a group, those are the outputs of an
    (n/s)-point inverse FFT of the product spectrum folded onto n/s bins
    (bin k takes the terms k + i n/s), scaled by 1/s: one level's m probe
    angles on an n-point grid take an m-point inverse FFT.
    """
    h, b, spectra = _kernel_spectra(pair, weight, variant)
    n = h.size
    coefficients = np.stack([np.ones(lams.size), -2.0 * np.conj(beta), np.abs(beta) ** 2])
    pos = np.angle(lams) / TWO_PI * n % n
    q = np.floor(pos + 1e-9)
    delta = (pos - q) * (TWO_PI / n)
    q = q.astype(int) % n
    radius = np.abs(lams)
    # the probe points of one level share their radius, and many their offset,
    # up to rounding; each such group takes one kernel
    groups = {}
    for i, key in enumerate(zip(np.round(radius, 13), np.round(delta, 13))):
        groups.setdefault(key, []).append(i)
    w = min(_NEAR_POINTS, (n - 1) // 2)
    near = np.arange(-w, w + 1) % n
    t = grid_angles(n)
    out = np.empty(lams.size)
    for idx in groups.values():
        r = radius[idx[0]]
        kernel = 1.0 / ((1.0 - r) ** 2 + 4.0 * r * np.sin((t + delta[idx[0]]) / 2.0) ** 2)
        j = (q[idx, None] - near) % n
        numer = np.abs(1.0 - np.conj(beta[idx, None]) * b[j]) ** 2
        out[idx] = (h[j] * numer) @ kernel[near] / n
        kernel[near] = 0.0
        stride = int(np.gcd.reduce(np.append(q[idx], n)))
        folded = (spectra * np.fft.fft(kernel)).reshape(len(spectra), stride, n // stride)
        sums = np.fft.ifft(folded.sum(axis=1), axis=-1)[:, q[idx] // stride] / (n * stride)
        out[idx] += np.sum(coefficients[: len(spectra), idx] * sums, axis=0).real
    return out


def log_radial_points(depth, angle_cap=64):
    """The lambda probe family: radii 1 - 2^-j with dyadic angles."""
    levels = []
    for j in range(1, depth + 1):
        m = int(min(2 ** (j + 1), angle_cap))
        angles = grid_angles(m)
        levels.append((j, (1.0 - 2.0 ** (-j)) * np.exp(1j * angles)))
    return levels


def kernel_ratio_scan(pair, measure, depth=12, variant="hb", angle_cap=64):
    """max over the log-radial family of ||k_lam||_b / ||k_lam||_mu.

    variant 'hb' uses the space's own kernels, 'cauchy' the plain Cauchy
    kernels (both sides of the reproducing-kernel test).  A level's probes
    are the m points r e^(i t_k) of one circle, so b (and a, for 'cauchy')
    is evaluated there once, by eval_on_circle, and every norm of the level
    reuses those values.  The cumulative maxima are read by the 'kernel' rule,
    against the level sizes 2^j.
    """
    pair.require_nonextreme("kernel ratio scans")
    if not measure.charges():
        raise DegenerateMeasureError("measure has zero total mass")
    scan = KernelRatioResult(rule=RULES["kernel"], variant=variant)
    for j, lams in log_radial_points(depth, angle_cap):
        radius = 1.0 - 2.0 ** (-j)
        bvals = np.asarray(pair.b.fn.eval_on_circle(radius, lams.size), dtype=complex)
        mu_sq = _kernel_mu_norms_squared(pair, measure, lams, variant, bvals)
        if np.any(mu_sq <= 0):
            raise DegenerateMeasureError(
                "a kernel has zero L2(mu) norm; the measure misses the relevant carrier"
            )
        if variant == "hb":
            b_sq = (1.0 - np.abs(bvals) ** 2) / (1.0 - np.abs(lams) ** 2)
        else:
            avals = np.asarray(pair.a.eval_on_circle(radius, lams.size), dtype=complex)
            b_sq = (1.0 + np.abs(bvals) ** 2 / np.abs(avals) ** 2) / (1.0 - np.abs(lams) ** 2)
        ratios = np.sqrt(b_sq / mu_sq)
        scan.add_level(2 ** j, ratios, lambda i, v: {
            "level": j, "lambda": complex(lams[i]), "ratio": v})
    return scan


# ---------------------------------------------------------------------------
# symbol-level feasibility (Sarason test and the necessary integral)
# ---------------------------------------------------------------------------


def symbol_reverse_feasibility(b, extremeness):
    """Whether the space of b can admit reverse Carleson measures at all.

    Non-extreme b: feasible iff (1 - |b|)^-1 is integrable, in which case
    (1 - |b|)^-1 dm itself is a reverse Carleson measure.  Extreme non-inner
    b: the same integral over {|b| < 1} is necessary; when it diverges, or
    when {|b| < 1} has full measure (which would force non-extremeness),
    no reverse Carleson measure exists.  The remaining extreme case is open
    and reported as such.
    """
    t = grid_angles(2 ** 14, offset=True)
    logs = b.gap_log(t)
    # inner detection must tolerate rounding noise in |b| around 1; the
    # full-measure test for {|b| < 1} uses the exact (possibly declared) logs
    inner_fraction = float(np.mean(logs > np.log(1e-9)))
    zb_fraction = float(np.mean(logs > -np.inf))
    if extremeness.verdict == NONEXTREME:
        ladder = gap_reciprocal_ladder(b)
        if ladder.divergent():
            return {
                "feasible": "no",
                "certificate": "(1 - |b|)^-1 is not integrable",
                "trace": ladder.values,
            }
        if ladder.stabilized():
            return {
                "feasible": "yes",
                "certificate": "(1 - |b|)^-1 dm is itself a reverse Carleson measure",
                "integral": ladder.value,
            }
        return {"feasible": UNDETERMINED, "trace": ladder.values}
    if extremeness.verdict == EXTREME:
        if inner_fraction < 0.005:
            return {
                "feasible": "out-of-scope",
                "certificate": "b is inner to grid tolerance (model-space regime)",
            }
        ladder = gap_reciprocal_ladder(b, mask_zb=True)
        if ladder.divergent():
            return {
                "feasible": "no",
                "certificate": "necessary integral of (1 - |b|)^-1 over {|b| < 1} diverges",
                "zb_measure": zb_fraction,
                "trace": ladder.values,
            }
        if ladder.stabilized() and zb_fraction > 1.0 - 1e-6:
            return {
                "feasible": "no",
                "certificate": "{|b| < 1} has full measure, which would force non-extremeness",
                "zb_measure": zb_fraction,
            }
        return {
            "feasible": "open",
            "certificate": "extreme, not inner, necessary integral finite: open question",
            "zb_measure": zb_fraction,
        }
    return {"feasible": UNDETERMINED, "certificate": "extremeness undetermined"}


# ---------------------------------------------------------------------------
# reverse Carleson verdict
# ---------------------------------------------------------------------------


def reverse_carleson_verdict(pair, measure, depth=DEFAULT_DEPTH, kernel_depth=12, size=None):
    """Decide whether mu is a reverse Carleson measure for the space of b.

    The primary criterion is the essential infimum of (1 - |b|^2) h, read
    from cell averages up to level log2(size), `depth` by default; the
    window infimum of (1 - |b|^2) d(mu) and the kernel-ratio test provide
    the cross-checks; determinate disagreement downgrades the verdict to
    undetermined with a diagnostics flag.
    """
    pair.require_nonextreme("the reverse Carleson analysis")
    if measure.carried_on_boundary() and not pair.b.admissible_with(measure):
        raise AdmissibilityError(
            "measure charges the boundary but b is not declared admissible for it"
        )
    conditions = {}
    diagnostics = {}

    feasibility = symbol_reverse_feasibility(pair.b, pair.extremeness)
    sarason = {"yes": PASS, "no": FAIL}.get(feasibility.get("feasible"), UNDETERMINED)
    conditions["Sarason.L1gap"] = ConditionResult(
        verdict=sarason, evidence=feasibility
    )

    nu = measure.weighted(
        _gap_weight(pair, pair.b.fn, lambda z: 1.0 - np.abs(np.asarray(pair.b.fn(z))) ** 2))
    inf_scan = reverse_inf_scan(nu, depth=depth)
    # nu.ac is (1 - |b|^2) h, and its cells come from the pyramid the scan built
    ess = _ess_inf_scan(nu.ac, int(np.log2(size)) if size else depth)
    v4 = ess.verdict()
    conditions["MainThm.4"] = _condition(v4, ess, per_level=ess.per_level)
    if v4 == FAIL:
        # decaying cell minima mean the essential infimum is zero, whatever the last one
        conditions["MainThm.4"].value = 0.0
    conditions["MainThm.3"] = _condition(inf_scan.verdict_positive_inf(), inf_scan,
                                         per_level=inf_scan.per_level)

    kernels = kernel_ratio_scan(pair, measure, depth=kernel_depth, variant="hb")
    conditions["MainThm.2"] = _condition(kernels.verdict(), kernels,
                                         per_level_max=kernels.per_level)

    # the three theorem conditions must agree whenever determinate
    determinate = {k: c.verdict for k, c in conditions.items()
                   if k.startswith("MainThm") and c.verdict != UNDETERMINED}
    overall = v4
    if len(set(determinate.values())) > 1:
        overall = UNDETERMINED
        diagnostics["equivalence_violation"] = determinate
    if sarason == FAIL:
        overall = FAIL
        diagnostics["symbol_certificate"] = feasibility.get("certificate")

    constants = {
        "ess_inf": ess.value,
        "reverse_window_inf": inf_scan.value,
        "kernel_ratio_max": kernels.max_ratio,
    }
    witnesses = {}
    if inf_scan.witness:
        witnesses["reverse_inf_arc"] = inf_scan.witness
    if kernels.witness:
        witnesses["kernel_lambda"] = kernels.witness
    return AnalysisReport(
        kind="reverse-carleson",
        overall={PASS: "reverse-carleson", FAIL: "not-reverse-carleson"}.get(overall, overall),
        conditions=conditions,
        constants=constants,
        witnesses=witnesses,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# direct Carleson verdict
# ---------------------------------------------------------------------------


def direct_carleson_verdict(pair, measure, depth=DEFAULT_DEPTH, seed=0):
    """Decide whether mu embeds the space into L2(mu), via the weighted window test.

    For rational b the equivalence with the H^2 Carleson condition on
    |a|^2 d(mu) is a theorem and the F_alpha certificate is attached; for
    other symbols the same scans run but the verdict is labelled heuristic.
    """
    pair.require_nonextreme("the direct Carleson analysis")
    conditions = {}
    diagnostics = {}

    mu_scan = carleson_sup_scan(measure, depth=depth)
    conditions["H2Window.mu"] = _condition(mu_scan.verdict_bounded(), mu_scan,
                                           exponent=mu_scan.exponent,
                                           per_level=mu_scan.per_level)

    nu = measure.weighted(_gap_weight(pair, pair.a, lambda z: np.abs(np.asarray(pair.a(z))) ** 2))
    nu_scan = carleson_sup_scan(nu, depth=depth)
    v = nu_scan.verdict_bounded()
    conditions["CorRationnel.nu"] = _condition(v, nu_scan, exponent=nu_scan.exponent,
                                               per_level=nu_scan.per_level)

    rational = pair.b.is_rational and isinstance(pair.a, RationalFn)
    if rational:
        try:
            fa = rational_falpha_decompose(pair, seed=seed)
            diagnostics["falpha_certificate"] = {
                "alpha": fa.alpha,
                "boundary_root_count": fa.codimension,
                "f_sup": fa.f_sup,
                "f_inf": fa.f_inf,
                "min_r_one_minus_ab": fa.min_r_one_minus_ab,
                "a2_verdict": fa.a2_verdict,
            }
        except UnsupportedError:
            rational = False
    overall = {PASS: "carleson-for-hb", FAIL: "not-carleson-for-hb"}.get(v, v)
    if not rational:
        diagnostics["heuristic"] = (
            "symbol is not rational; the weighted window test is reported "
            "outside the proven equivalence"
        )
        overall = f"heuristic-{overall}"
    return AnalysisReport(
        kind="direct-carleson",
        overall=overall,
        conditions=conditions,
        constants={"mu_window_sup": mu_scan.value, "nu_window_sup": nu_scan.value},
        witnesses={k: c.witness for k, c in conditions.items() if c.witness},
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# norm equivalence
# ---------------------------------------------------------------------------


def norm_equivalence_verdict(pair, measure, depth=DEFAULT_DEPTH):
    """Is ||.||_mu an equivalent norm? corona pair + A2 + two-sided window test."""
    pair.require_nonextreme("the norm-equivalence analysis")
    conditions = {}

    a_admissible = pair.a.continuous_on_closure or pair.diagnostics.get(
        "a_admissible", False
    )
    b_admissible = pair.b.admissible_with(measure)
    adm = PASS if (a_admissible and b_admissible) else FAIL
    conditions["EquivNorm.admissible"] = ConditionResult(
        verdict=adm,
        evidence={"a_admissible": bool(a_admissible), "b_admissible": bool(b_admissible)},
    )

    corona = corona_check(pair, depth=depth)
    conditions["EquivNorm.corona"] = _condition(corona.verdict, corona,
                                                per_level=corona.per_level)

    a2 = a2_check(pair.gap2_weight, depth=depth)
    conditions["EquivNorm.a2"] = _condition(a2.verdict_bounded(), a2, exponent=a2.exponent,
                                            infinite_witnesses=a2.infinite_witnesses)

    nu = measure.weighted(_gap_weight(pair, pair.a, lambda z: np.abs(np.asarray(pair.a(z))) ** 2))
    lo = reverse_inf_scan(nu, depth=depth)
    hi = carleson_sup_scan(nu, depth=depth)
    conditions["EquivNorm.window_inf"] = _condition(lo.verdict_positive_inf(), lo)
    conditions["EquivNorm.window_sup"] = _condition(hi.verdict_bounded(), hi,
                                                    exponent=hi.exponent)

    verdicts = [c.verdict for c in conditions.values()]
    if FAIL in verdicts:
        overall = "not-equivalent"
    elif UNDETERMINED in verdicts:
        overall = UNDETERMINED
    else:
        overall = "equivalent-norm"
    return AnalysisReport(
        kind="norm-equivalence",
        overall=overall,
        conditions=conditions,
        constants={
            "corona_inf": corona.infimum,
            "a2_sup": a2.value,
            "window_inf": lo.value,
            "window_sup": hi.value,
        },
        witnesses={k: c.witness for k, c in conditions.items() if c.witness},
    )


# ---------------------------------------------------------------------------
# isometry and sampling refutations
# ---------------------------------------------------------------------------


def isometry_refutation(pair, degree_bound=64, tol=1e-10):
    """Certificate that no positive measure is isometric for the space.

    Non-constant b: the first Taylor coefficient of b/a with |c_n|^2 above
    tolerance contradicts the vanishing tail the isometry identities force.
    Constant b: the space is H^2 up to a constant factor, and the unique
    isometric measure is Lebesgue measure rescaled accordingly.
    """
    pair.require_nonextreme("the isometry analysis")
    b_tay = pair.b_taylor(8)
    is_constant = float(np.max(np.abs(b_tay[1:]))) < 1e-13
    if is_constant:
        b0 = complex(b_tay[0])
        scale = 1.0 / (1.0 - abs(b0) ** 2)
        return {
            "kind": "constant-symbol",
            "isometric_measure": "lebesgue",
            "measure_scale": scale,
            "note": "space is H^2 with norm scaled by (1 - |b|^2)^(-1/2); "
                    "the only isometric measure for H^2 is normalized Lebesgue measure",
        }
    data = pair.b_over_a_cache(degree_bound)
    if data.in_h2 != "yes":
        raise UnsupportedError(
            f"isometry certificate requires b/a in H^2 (verdict: {data.in_h2})"
        )
    mags = np.abs(data.coefficients[: degree_bound + 1]) ** 2
    hits = np.nonzero(mags > tol)[0]
    if hits.size == 0:
        raise ResolutionError(
            f"no coefficient of b/a exceeds {tol} below degree {degree_bound}; "
            "increase the degree bound"
        )
    n = int(hits[0])
    return {
        "kind": "certificate",
        "index": n,
        "coefficient_magnitude_squared": float(mags[n]),
        "note": "a vanishing tail of b/a coefficients is impossible, so no "
                "positive isometric measure exists",
    }


def sampling_refutation(pair, points, depth=DEFAULT_DEPTH):
    """Refute a candidate sampling sequence for a non-inner symbol.

    The induced measure sum ||k^b||^-2 delta_lambda has no absolutely
    continuous boundary part, so the reverse Carleson test fails at its
    essential-infimum condition.
    """
    pair.require_nonextreme("the sampling analysis")
    gap = 1.0 - pair.b.boundary_modulus(grid_angles(2 ** 12, offset=True))
    if float(np.mean(gap > 1e-6)) < 0.005:
        raise UnsupportedError("symbol is inner to grid tolerance; no refutation applies")
    points = np.asarray(points, dtype=complex)
    if points.size == 0 or np.max(np.abs(points)) >= 1.0:
        raise DomainError("candidate sequence must be a nonempty subset of the open disk")
    weights = np.array([1.0 / hb_kernel_norm_squared(lam, pair) for lam in points])
    mu = DiskMeasure(disk_atoms=DiskAtoms(points, weights), label="sampling-candidate")
    truncation_warning = bool(weights[-1] > 1e-6 * np.sum(weights))
    report = reverse_carleson_verdict(pair, mu, depth=depth)
    report.diagnostics["sequence_length"] = int(points.size)
    report.diagnostics["truncation_warning"] = truncation_warning
    report.diagnostics["certificate"] = (
        "the boundary density of the induced measure vanishes identically"
    )
    report.kind = "sampling-refutation"
    return report


# ---------------------------------------------------------------------------
# Poisson square-limit table
# ---------------------------------------------------------------------------


def poisson_square_limit_check(q, zeta_angle, radii, max_size=2 ** 18):
    """Table of int |q(r xi)|^2 P_(r zeta)(xi) dm against the target |q(zeta)|^2.

    The integral is a grid sum whose error decays like r^n, so the grid is
    sized from the radius; radii needing more than `max_size` points raise.
    """
    zeta_angle = float(zeta_angle)
    target = float(np.abs(np.asarray(q.boundary_modulus(np.array([zeta_angle])))[0]) ** 2)
    rows = []
    for r in radii:
        r = float(r)
        if not 0 <= r < 1:
            raise DomainError("radii must lie in [0, 1)")
        need = max(4096, int(40.0 / max(1.0 - r, 1e-9)))
        n = 1 << int(np.ceil(np.log2(need)))
        if n > max_size:
            raise ResolutionError(
                f"radius {r} needs {n} quadrature points, above the cap {max_size}"
            )
        t = grid_angles(n)
        qvals = np.abs(q.eval_on_circle(r, n)) ** 2
        zr = r * np.exp(1j * zeta_angle)
        poisson = (1.0 - r**2) / np.abs(np.exp(1j * t) - zr) ** 2
        value = float(np.mean(qvals * poisson))
        rows.append({"r": r, "value": value, "error": abs(value - target), "grid": n})
    return {"target": target, "rows": rows}
