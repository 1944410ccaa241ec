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
    PairWeight,
    ScanFamily,
    as_arc_weight,
    window_span,
)
from .space import (
    EXTREME,
    NONEXTREME,
    gap_reciprocal_ladder,
    hb_kernel_norm_squared,
    l1_gap_test,
    pythagorean_mate,
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


def _condition(scan, **evidence):
    """A condition read off a level scan: its verdict, last value, two resolutions and witness."""
    return ConditionResult(verdict=scan.verdict(), value=scan.value,
                           resolutions=scan.resolutions(), witness=scan.witness, evidence=evidence)


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

    def verdict(self):
        """The ladder's verdict, and fail for a sup scan that met an infinite arc."""
        return FAIL if self.infinite_witnesses else super().verdict()

    def add_family(self, level, families, vals):
        """Add one level's scan families (`ScanFamily`), with the values of their arcs in order."""
        n = 2 ** level
        if self.table is not None:
            for fam, fam_vals in zip(families, np.split(vals, len(families))):
                centers = (fam.starts + fam.length / 2.0) % 1.0 * TWO_PI
                self.table.extend((level, c, fam.length, v)
                                  for c, v in zip(centers.tolist(), fam_vals.tolist()))
        if self.mode == "sup":
            finite = np.isfinite(vals)
            if not finite.all():
                hits = [(fam, np.nonzero(hit)[0]) for fam, hit
                        in zip(families, np.split(vals == np.inf, len(families))) if hit.any()]
                ell = min((fam.length for fam, _ in hits), default=np.inf)
                shortest = min((w["length"] for w in self.infinite_witnesses), default=np.inf)
                if ell < shortest:
                    self.infinite_witnesses = []
                if ell <= shortest:
                    self.infinite_witnesses += [
                        {"level": level, "start": float(x), "length": ell}
                        for fam, idx in hits if fam.length == ell for x in fam.start(idx)]
                # the finite values alone take part in the extremes
                vals = np.where(finite, vals, -np.inf)
        self.add_level(n, vals, lambda i, v: {
            "level": level, "start": float(families[i // n].start(i % n)),
            "length": families[i // n].length, "value": v})

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
            "cumulative": _jsonable(self.values),
            "witness": _jsonable(self.witness),
            "exponent": _jsonable(self.exponent),
            "stabilized": self.stabilized(),
            "divergent": self.divergent(),
            "infinite_witnesses": _jsonable(self.infinite_witnesses),
        }


def _scan_families(level, complements=True):
    """The (family, length) pairs of one level: aligned, shifted, from level 2 their complements."""
    families = [ScanFamily(level), ScanFamily(level, shifted=True)]
    if complements and level >= 2:
        families += [ScanFamily(level, complement=True),
                     ScanFamily(level, shifted=True, complement=True)]
    return [(fam, fam.length) for fam in families]


def _valued_families(value_fn, depth, complements=True):
    """(level, families, values) of the dyadic scan families for levels 1..depth.

    Each family is valued once, by value_fn(family, length), and the finest
    first, so that an arc weight integrates its cells once, on the finest
    lattice the scan reads.  A `ScanFamily` is read by lattice index by the
    measures; as an array it is the family's normalized starts.
    """
    deepest = _scan_families(depth, complements)
    first = np.asarray(value_fn(*deepest[-1]), dtype=float)
    for level in range(1, depth + 1):
        families = deepest if level == depth else _scan_families(level, complements)
        vals = np.concatenate([first if fam is deepest[-1][0]
                               else np.asarray(value_fn(fam, ell), dtype=float)
                               for fam, ell in families])
        yield level, [fam for fam, _ in families], vals


def arc_scans(value_fn, depth, modes, complements=True, collect_table=False):
    """One ScanResult per mode from one valuation of the dyadic scan family up to `depth`.

    mode 'sup' tracks maxima of the finite values (infinities reported
    separately), mode 'inf' tracks minima.  Level k has size 2^k.  The
    cumulative series is what verdict rules read, by the 'scan' rule, and
    the witness is the arc of the cumulative extreme.
    The infinite witnesses are the infinite arcs of the shortest scanned
    length that has one; they locate every singularity that makes a longer
    arc infinite.
    """
    scans = [ScanResult(rule=RULES["scan"], mode=mode, depth=depth,
                        table=[] if collect_table else None) for mode in modes]
    for level, families, vals in _valued_families(value_fn, depth, complements):
        for scan in scans:
            scan.add_family(level, families, vals)
    return scans


def arc_scan(value_fn, depth, mode="sup", complements=True, collect_table=False):
    """The one ScanResult of `arc_scans` in the given mode."""
    return arc_scans(value_fn, depth, (mode,), complements, collect_table)[0]


def _mass_ratios(measure):
    """starts, length -> nu(S(I)) / m(I) on the arcs I of that length from those starts."""
    return lambda starts, length: measure.batch_window_masses(starts, length) / length


def reverse_inf_scan(measure, depth=DEFAULT_DEPTH, collect_table=False):
    """inf over scan arcs of nu(S(I))/m(I), with level-by-level minima."""
    return arc_scan(_mass_ratios(measure), depth, mode="inf", collect_table=collect_table)


def carleson_sup_scan(measure, depth=DEFAULT_DEPTH, collect_table=False):
    """sup over scan arcs of nu(S(I))/m(I), growth-exponent fit included."""
    return arc_scan(_mass_ratios(measure), depth, mode="sup", collect_table=collect_table)


def window_scans(measure, depth=DEFAULT_DEPTH):
    """`reverse_inf_scan` and `carleson_sup_scan` of one measure, valuing each scan arc once."""
    return arc_scans(_mass_ratios(measure), depth, ("inf", "sup"))


# ---------------------------------------------------------------------------
# weight conditions
# ---------------------------------------------------------------------------


def _paired_averages(u, v, starts, length):
    """(avg of u)(avg of v) on the arcs of normalized length `length` from the normalized starts.

    The starts may be a `ScanFamily`, which the weights read by lattice index.
    """
    s = starts if isinstance(starts, ScanFamily) else np.asarray(starts, dtype=float) * TWO_PI
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


def two_weight_necessary(h, w, depth=DEFAULT_DEPTH):
    """Scan of the paired averages (avg h)(avg w); necessary, never sufficient."""
    products = partial(_paired_averages, as_arc_weight(h), as_arc_weight(w))
    scan = arc_scan(products, depth, mode="sup")
    condition = _condition(scan, exponent=scan.exponent)
    report = AnalysisReport(
        kind="two-weight-necessary",
        overall=condition.verdict,
        conditions={"GenMuckenhoupt.sup": condition},
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


def ess_inf_weighted(pair, measure, depth=DEFAULT_DEPTH):
    """Essential infimum of (1 - |b|^2) h, as the least cell average over dyadic levels.

    (1 - |b|^2) is the pair's gap weight |a|^2, which weights the measure's
    a.c. part h; the levels run up to `depth`.  An a.c. part that cannot be
    weighted, a piecewise weight say, raises WeightingError.
    """
    ac = None if measure.ac is None else measure.ac.weighted(pair.gap2_weight)
    return _ess_inf_scan(ac, depth)


# ---------------------------------------------------------------------------
# corona check
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class CoronaResult(LevelScan):
    def to_json(self):
        return {
            "infimum": _jsonable(self.value),
            "witness": _jsonable(self.witness),
            "per_level": _jsonable(self.per_level),
            "cumulative": _jsonable(self.values),
            "verdict": self.verdict(),
        }


def corona_check(pair, depth=DEFAULT_DEPTH):
    """inf of |a| + |b| over a log-radial interior grid.

    Radii 1 - 2^-j probe the boundary-approach regime, at 2^(j + 2) angles
    up to 512; the cumulative minima are an inf ladder read by the 'corona'
    rule: stabilizing positive minima pass, minima decaying geometrically or
    down to its floor fail.
    """
    scan = CoronaResult(rule=RULES["corona"], mode="inf")
    for j in range(1, depth + 1):
        radius = 1.0 - 2.0 ** (-j)
        m = min(2 ** (j + 2), 512)
        s = np.abs(pair.a.eval_on_circle(radius, m)) + np.abs(pair.b.fn.eval_on_circle(radius, m))
        scan.add_level(2 ** j, s, lambda i, v: {
            "radius": radius, "angle": float(grid_angles(m)[i]), "value": v})
    return scan


# ---------------------------------------------------------------------------
# kernel ratio scans
# ---------------------------------------------------------------------------


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


_BATCH = 2 ** 14  # complex entries of one batched kernel temporary: 256 kB
_NEAR_POINTS = 64  # grid points on either side of a probe angle that are summed directly
#: the most probe angles of a level, and the bins of a kernel scan's phase layout
_PROBE_ANGLES = 64


class _KernelNorms:
    """lams, b(lams) -> ||k_lam||^2 in L2(mu), for the probe levels of one kernel scan.

    The kernel is k_lam(z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z) for
    'hb' and 1 / (1 - conj(lam) z) for 'cauchy'.  What the levels share is
    taken once per scan and dropped with it: for the boundary a.c. part its
    grid density h, b on that grid, the phase layout of the rows the grid
    sums convolve (`_layout`; one per number of phases, and a single one on
    the 2^16 grid) and one sine table per sub-grid offset; for every other
    component the nodes of its own l2 rule (`l2_by_nodes`) with b read
    there.  A level's probes are summed at those nodes in batches of at
    most _BATCH entries.
    """

    def __init__(self, pair, measure, variant):
        self.ac, self.b = measure.ac, None
        self.tables = {}  # sub-grid offset -> its sine table
        self.layouts = {}  # number of phases -> the rows in that many phases
        if self.ac is not None:
            self.h = self.ac.grid_density()
            if variant == "hb":
                self.b = pair.b_boundary(self.h.size)
        b_at = _up_to_circle(pair.b.fn, pair.b.fn, pair.b_at_angles)
        self.components = []
        for comp in measure.components():
            if comp is not measure.ac and comp.mass() > 0:
                nodes, boundary, integral = comp.l2_nodes()
                bz = None
                if variant == "hb":
                    bz = pair.b_at_angles(nodes) if boundary else b_at(nodes)
                self.components.append((np.exp(1j * nodes) if boundary else nodes, bz, integral))

    def _layout(self, phases):
        """The real rows h, Re(h b), Im(h b), h |b|^2 (h alone without b) in `phases` phases.

        With P phases and m = n / P bins, row g is laid out as (m, P): column
        c holds the phase g[l P + c], l < m, and takes an m-point rfft.
        Column 0 is kept; columns 1..P-1 are reversed and multiplied by
        e^(-2 pi i k / m), so that column c holds the spectrum of phase P - c
        delayed by one bin step, which is what meets the kernel's own column
        c in `_grid_sums`.  Each row is formed in one buffer and stored in
        one (m/2 + 1, rows, P) array, so that the four real rows are never
        held at once.
        """
        if phases not in self.layouts:
            h, b = self.h, self.b
            m = h.size // phases
            delay = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)[:, None]
            layout = np.empty((m // 2 + 1, 1 if b is None else 4, phases), dtype=complex)
            for i, g in enumerate(self._rows()):
                spectra = np.fft.rfft(g.reshape(m, phases), axis=0)
                layout[:, i, 0] = spectra[:, 0]
                np.multiply(spectra[:, :0:-1], delay, out=layout[:, i, 1:])
            self.layouts[phases] = layout
        return self.layouts[phases]

    def _rows(self):
        """h, then for 'hb' h Re(b), h Im(b) and h |b|^2, formed in turn in one buffer."""
        h, b = self.h, self.b
        yield h
        if b is not None:
            row = np.empty(h.size)
            yield np.multiply(h, b.real, out=row)
            yield np.multiply(h, b.imag, out=row)
            np.abs(b, out=row)
            row **= 2
            yield np.multiply(h, row, out=row)

    def __call__(self, lams, beta):
        out = np.zeros(lams.size)
        if self.ac is not None:
            out += self._grid_sums(lams, beta)
        for z, bz, integral in self.components:
            step = max(1, _BATCH // z.size)
            for s in range(0, lams.size, step):
                part = slice(s, s + step)
                lam = lams[part].reshape((-1,) + (1,) * z.ndim)
                numer = 1.0 if bz is None else 1.0 - np.conj(beta[part]).reshape(lam.shape) * bz
                out[part] += integral(np.abs(numer / (1.0 - np.conj(lam) * z)) ** 2)
        return out

    def _grid_sums(self, lams, beta):
        """The grid sums mean_j h_j |k_lam(e^(i t_j))|^2 over the grid density h.

        `beta` holds b at the lams.  With lam = r e^(i(t_q + delta)) and
        K(s) = 1/|1 - r e^(is)|^2 = 1/((1 - r)^2 + 4 r sin^2(s/2)), the grid
        sum of g K(t_j - t_q - delta) is the circular convolution
        sum_j g_j K[q - j] of g with K sampled at t_j + delta, read at q.  The
        hb numerator |1 - conj(b(lam)) b|^2 expands over the real rows
        g = h, Re(h b), Im(h b) and h |b|^2.  That expansion cancels where
        the numerator vanishes under the peak of K, next to a boundary zero
        of a, so the points nearest each probe angle are summed directly and
        only the rest of K is convolved.

        The probes of one radius and offset share a kernel, and with s the
        largest stride dividing n and each of their indices q, they read the
        layout in P = gcd(s, n // _PROBE_ANGLES) phases of m = n / P bins.
        With q = u P and j = l P + c, the sum splits over the phases c into
        P circular convolutions of length m: phase 0 of g against column 0
        of K, phase c > 0 against column P - c one step later.  So the
        kernel, laid out as (m, P), takes P m-point rffts, one batched
        product over the phases with the layout gives each row's m-bin
        spectrum, and one m-point irfft per row is read at u = q / P.  On
        the 2^16 grid every level reads 64 bins; other grids and probes off
        that lattice take fewer, longer phases, down to P = 1, one n-point
        transform.
        """
        h, b = self.h, self.b
        n = h.size
        coefficients = np.stack([np.ones(lams.size), -2.0 * beta.real, -2.0 * beta.imag,
                                 np.abs(beta) ** 2])
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
        out = np.empty(lams.size)
        for (_, offset), idx in groups.items():
            r = radius[idx[0]]
            stride = int(np.gcd.reduce(np.append(q[idx], n)))
            phases = int(np.gcd(stride, max(1, n // _PROBE_ANGLES)))
            layout = self._layout(phases)
            if offset not in self.tables:
                self.tables[offset] = _sine_table(n, delta[idx[0]])
            kernel = 1.0 / ((1.0 - r) ** 2 + 4.0 * r * self.tables[offset])
            j = (q[idx, None] - near) % n
            numer = 1.0 if b is None else np.abs(1.0 - np.conj(beta[idx, None]) * b[j]) ** 2
            # at most _PROBE_ANGLES x (2 _NEAR_POINTS + 1) = 8,256 entries: below the
            # 9,216 past which OpenBLAS hands a matrix-vector product to a second thread
            out[idx] = (h[j] * numer) @ kernel[near] / n
            kernel[near] = 0.0
            spectra = np.fft.rfft(kernel.reshape(-1, phases), axis=0)
            del kernel
            sums = np.fft.irfft(layout @ spectra[:, :, None], n // phases, axis=0)
            rows = sums[q[idx] // phases, :, 0]
            out[idx] += np.einsum("ir,ri->i", rows, coefficients[: layout.shape[1], idx]) / n
        return out


def _sine_table(n, delta):
    """sin((t_j + delta)/2)^2 on the n-point grid t_j: the part of a kernel the radius leaves."""
    return np.sin((grid_angles(n) + delta) / 2.0) ** 2


def log_radial_points(depth):
    """The lambda probe family: radii 1 - 2^-j at 2^(j + 1) dyadic angles, up to _PROBE_ANGLES."""
    levels = []
    for j in range(1, depth + 1):
        m = min(2 ** (j + 1), _PROBE_ANGLES)
        angles = grid_angles(m)
        levels.append((j, (1.0 - 2.0 ** (-j)) * np.exp(1j * angles)))
    return levels


def kernel_ratio_scan(pair, measure, depth=12, variant="hb"):
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
    scan = LevelScan(rule=RULES["kernel"])
    norms = _KernelNorms(pair, measure, variant)
    for j, lams in log_radial_points(depth):
        radius = 1.0 - 2.0 ** (-j)
        bvals = np.asarray(pair.b.fn.eval_on_circle(radius, lams.size), dtype=complex)
        mu_sq = norms(lams, bvals)
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
    (1 - |b|)^-1 dm itself is a reverse Carleson measure; the mate's
    `inverse_gap_weight` decides (`l1_gap_test`).  Extreme non-inner
    b: the same integral over {|b| < 1} is necessary; when it diverges, or
    when {|b| < 1} has full measure (which would force non-extremeness),
    no reverse Carleson measure exists.  The remaining extreme case is open
    and reported as such.
    """
    if extremeness.verdict == NONEXTREME:
        return l1_gap_test(pythagorean_mate(b, extremeness=extremeness))
    if extremeness.verdict != EXTREME:
        return {"feasible": UNDETERMINED, "certificate": "extremeness undetermined"}
    logs = b.gap_log(grid_angles(2 ** 14, offset=True))
    # inner detection must tolerate rounding noise in |b| around 1; the
    # full-measure test for {|b| < 1} uses the exact (possibly declared) logs
    if float(np.mean(logs > np.log(1e-9))) < 0.005:
        return {
            "feasible": "out-of-scope",
            "certificate": "b is inner to grid tolerance (model-space regime)",
        }
    zb_fraction = float(np.mean(logs > -np.inf))
    ladder = gap_reciprocal_ladder(b)
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


# ---------------------------------------------------------------------------
# reverse Carleson verdict
# ---------------------------------------------------------------------------


def reverse_carleson_verdict(pair, measure, depth=DEFAULT_DEPTH, kernel_depth=12):
    """Decide whether mu is a reverse Carleson measure for the space of b.

    The primary criterion is the essential infimum of (1 - |b|^2) h, read
    from cell averages up to level `depth`; the window infimum of
    (1 - |b|^2) d(mu) and the kernel-ratio test provide the cross-checks;
    determinate disagreement downgrades the verdict to undetermined with a
    diagnostics flag.
    """
    pair.require_nonextreme("the reverse Carleson analysis")
    if measure.carried_on_boundary() and not pair.b.admissible_with(measure):
        raise AdmissibilityError(
            "measure charges the boundary but b is not declared admissible for it"
        )
    # the kernel scan, the verdict's largest allocation, runs before nu exists, so
    # that nu's pyramid and its pair complements are not held through it
    kernels = kernel_ratio_scan(pair, measure, depth=kernel_depth, variant="hb")
    nu = measure.weighted(
        _gap_weight(pair, pair.b.fn, lambda z: 1.0 - np.abs(np.asarray(pair.b.fn(z))) ** 2))
    inf_scan = reverse_inf_scan(nu, depth=depth)
    # nu.ac is (1 - |b|^2) h, and its cells come from the pyramid the scan built
    ess = _ess_inf_scan(nu.ac, depth)
    # the kernel spectra integrate mu's cells directly, so when mu's a.c. part is the
    # pair's inverse gap weight, as for reverse-canonical, Sarason's total is read
    # from a level-10 pyramid of that weight's own
    feasibility = l1_gap_test(pair)
    sarason = {"yes": PASS, "no": FAIL}.get(feasibility["feasible"], UNDETERMINED)
    conditions = {"Sarason.L1gap": ConditionResult(verdict=sarason, evidence=feasibility)}
    main4 = conditions["MainThm.4"] = _condition(ess, per_level=ess.per_level)
    if main4.verdict == FAIL:
        # decaying cell minima mean the essential infimum is zero, whatever the last one
        main4.value = 0.0
    conditions["MainThm.3"] = _condition(inf_scan, per_level=inf_scan.per_level)
    conditions["MainThm.2"] = _condition(kernels, per_level_max=kernels.per_level)

    diagnostics = {}
    # the three theorem conditions must agree whenever determinate
    determinate = {k: c.verdict for k, c in conditions.items()
                   if k.startswith("MainThm") and c.verdict != UNDETERMINED}
    overall = main4.verdict
    if len(set(determinate.values())) > 1:
        overall = UNDETERMINED
        diagnostics["equivalence_violation"] = determinate
    if sarason == FAIL:
        overall = FAIL
        diagnostics["symbol_certificate"] = feasibility.get("certificate")

    constants = {
        "ess_inf": ess.value,
        "reverse_window_inf": inf_scan.value,
        "kernel_ratio_max": kernels.value,
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
    conditions["H2Window.mu"] = _condition(mu_scan, exponent=mu_scan.exponent,
                                           per_level=mu_scan.per_level)

    nu = measure.weighted(_gap_weight(pair, pair.a, lambda z: np.abs(np.asarray(pair.a(z))) ** 2))
    nu_scan = carleson_sup_scan(nu, depth=depth)
    conditions["CorRationnel.nu"] = _condition(nu_scan, exponent=nu_scan.exponent,
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
    v = conditions["CorRationnel.nu"].verdict
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

    a_admissible = pair.a.continuous_on_closure
    b_admissible = pair.b.admissible_with(measure)
    adm = PASS if (a_admissible and b_admissible) else FAIL
    conditions["EquivNorm.admissible"] = ConditionResult(
        verdict=adm,
        evidence={"a_admissible": bool(a_admissible), "b_admissible": bool(b_admissible)},
    )

    corona = corona_check(pair, depth=depth)
    conditions["EquivNorm.corona"] = _condition(corona, per_level=corona.per_level)

    a2 = a2_check(pair.gap2_weight, depth=depth)
    conditions["EquivNorm.a2"] = _condition(a2, exponent=a2.exponent,
                                            infinite_witnesses=a2.infinite_witnesses)

    nu = measure.weighted(_gap_weight(pair, pair.a, lambda z: np.abs(np.asarray(pair.a(z))) ** 2))
    lo, hi = window_scans(nu, depth=depth)
    conditions["EquivNorm.window_inf"] = _condition(lo)
    conditions["EquivNorm.window_sup"] = _condition(hi, exponent=hi.exponent)

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
            "corona_inf": corona.value,
            "a2_sup": a2.value,
            "window_inf": lo.value,
            "window_sup": hi.value,
        },
        witnesses={k: c.witness for k, c in conditions.items() if c.witness},
    )


# ---------------------------------------------------------------------------
# isometry and sampling refutations
# ---------------------------------------------------------------------------


_ISOMETRY_DEGREE_BOUND = 64  # the last j >= 1 whose monomial norm is compared
_ISOMETRY_TOL = 1e-10  # least gain ||z^j||_b^2 - ||1||_b^2 that certifies


def isometry_refutation(pair):
    """Certificate that no positive measure is isometric for the space.

    Non-constant b: an isometric mu would give ||z^j||_mu^2 <= mu(closed disk)
    = ||1||_b^2, while ||z^j||_b^2 - ||1||_b^2 = sum_(1<=i<=j) |c_i|^2, c the
    Taylor data of b/a, for every non-extreme b (the `monomial_norm`
    identity).  The first j >= 1 whose sum exceeds tolerance is the
    certificate; c_0 does not enter.
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
    mags = np.abs(pair.b_over_a_taylor(_ISOMETRY_DEGREE_BOUND + 1)) ** 2
    one = float(1.0 + mags[0])
    gains = np.cumsum(mags[1:])  # ||z^j||_b^2 - ||1||_b^2 for j = 1.._ISOMETRY_DEGREE_BOUND
    hits = np.nonzero(gains > _ISOMETRY_TOL)[0]
    if hits.size == 0:
        raise ResolutionError(
            f"no partial sum of |c_j|^2 over 1 <= j <= {_ISOMETRY_DEGREE_BOUND} exceeds "
            f"{_ISOMETRY_TOL}"
        )
    n = int(hits[0]) + 1
    return {
        "kind": "certificate",
        "index": n,
        "coefficient_magnitude_squared": float(mags[n]),
        "norm_squared_one": one,
        "norm_squared_monomial": float(one + gains[n - 1]),
        "note": "||z^n||_b^2 exceeds ||1||_b^2, while an isometric measure would "
                "give ||z^n||_mu^2 <= mu(closed disk) = ||1||_b^2, so no positive "
                "isometric measure exists",
    }


def sampling_refutation(pair, points, depth=DEFAULT_DEPTH):
    """Refute a candidate sampling sequence for a non-extreme symbol, which is never inner.

    The induced measure sum ||k^b||^-2 delta_lambda has no absolutely
    continuous boundary part, so the reverse Carleson test fails at its
    essential-infimum condition.
    """
    pair.require_nonextreme("the sampling analysis")
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


_POISSON_GRID_CAP = 2 ** 18


def poisson_square_limit_check(q, zeta_angle, radii):
    """Table of int |q(r xi)|^2 P_(r zeta)(xi) dm against the target |q(zeta)|^2.

    The integral is a grid sum whose error decays like r^n, so the grid is
    sized from the radius; radii needing more than _POISSON_GRID_CAP points raise.
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
        if n > _POISSON_GRID_CAP:
            raise ResolutionError(
                f"radius {r} needs {n} quadrature points, above the cap {_POISSON_GRID_CAP}"
            )
        t = grid_angles(n)
        qvals = np.abs(q.eval_on_circle(r, n)) ** 2
        zr = r * np.exp(1j * zeta_angle)
        poisson = (1.0 - r**2) / np.abs(np.exp(1j * t) - zr) ** 2
        value = float(np.mean(qvals * poisson))
        rows.append({"r": r, "value": value, "error": abs(value - target), "grid": n})
    return {"target": target, "rows": rows}
