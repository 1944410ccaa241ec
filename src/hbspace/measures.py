"""Finite positive measures on the closed unit disk.

A measure is a sum of four kinds of components: atoms inside the disk, an
absolutely continuous boundary part h dm, singular boundary atoms, and
radial line densities (1-t)^-beta along a ray.  Window and arc masses are
exact wherever a closed form exists; power-type arc integrals take
Gauss-Legendre on pieces cut geometrically toward their singularity, the
innermost piece in a variable that absorbs the power, so the singular
examples are not quadrature-limited there.

Every boundary weight h is an `ArcWeight`, and the a.c. part of a measure is
its weight itself: window masses of h dm are the weight's arc integrals,
sums over a dyadic pyramid of cell integrals built once per weight.  Inside
it, positions are turns (fractions of the circle), so lattice points are
exact.  A power density is a `FactoredArcWeight` of one factor, so every
product of powers takes one rule.

Angles are radians; arcs are handled internally as normalized spans
(m(circle) = 1), matching the window definition 1 - |z| <= m(I)/2.
"""

from dataclasses import dataclass

import numpy as np

from .circle import grid_angles
from .errors import AdmissibilityError, ConfigurationError, DomainError, WeightingError

TWO_PI = 2.0 * np.pi

#: Gauss-Legendre rules as (nodes, weights), by node count: 48 nodes for whole rays and for
#: segments longer than 2^-12 turn, 16 up to that, for pieces cut toward a singularity and for
#: cut smoothstep joins, 8 for uncut segments of at most 2^-15 turn; see ArcWeight
_GL = {n: np.polynomial.legendre.leggauss(n) for n in (8, 16, 48)}

#: normalized distance within which an arc end or a singular angle counts as a lattice point
_SNAP = 1e-15
#: finest lattice k / 2^_MAX_LEVEL that family starts and singular angles are matched against
_MAX_LEVEL = 18


def _gl_integrate(fn, lo, hi, rule=_GL[48]):
    """Gauss-Legendre with the given rule on [lo, hi] (vectorized endpoints allowed)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)
    nodes = mid[..., None] + rad[..., None] * rule[0]
    vals = fn(nodes)
    return np.sum(vals * rule[1], axis=-1) * rad


def _rule_nodes(width):
    """Gauss-Legendre nodes for a segment of this width (turns): 48, 16 to 2^-12, 8 to 2^-15."""
    return np.where(width <= 2.0 ** -15, 8, np.where(width <= 2.0 ** -12, 16, 48))


def _distinct(x):
    """The sorted distinct values of x, like np.unique but without importing numpy.ma."""
    x = np.sort(np.ravel(x))
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _pieces(lo, hi, breaks):
    """Segments [lo, hi] cut at the sorted `breaks`: the pieces (a, b) and the segment of each."""
    first = np.searchsorted(breaks, lo, side="right")
    count = np.maximum(np.searchsorted(breaks, hi, side="left") - first, 0) + 1
    owner = np.repeat(np.arange(lo.size), count)
    k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    cuts = np.append(breaks, np.nan)
    idx = first[owner] + k
    a = np.where(k == 0, lo[owner], cuts[idx - 1])
    b = np.where(k == count[owner] - 1, hi[owner], cuts[idx])
    return a, b, owner


def _offset(x, c):
    """Signed offset in turns from c to x, in [-1/2, 1/2], for x and c in [0, 1] or c = 0.

    One rounding only: a whole turn comes off whichever of x and c is the
    larger, where the subtraction is exact, and not off x - c, which rounds
    in the last bit of 1 when the two lie on either side of angle 0.
    """
    k = np.rint(x - c)
    return np.where(k > 0, (x - k) - c, x - (c + k))


def _piecewise_integrals(lo, hi, edges, prefix, piece):
    """Integrals over [lo, hi] of a weight given piece by piece on the partition `edges`.

    `piece(i, a, b)` integrates piece i over [a, b] inside it, and `prefix`
    holds the integrals from edges[0] to each edge.
    """
    last = edges.size - 2
    i = np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, last)
    j = np.clip(np.searchsorted(edges, hi, side="left") - 1, 0, last)
    out = piece(i, lo, np.minimum(hi, edges[i + 1]))
    more = j > i
    if np.any(more):
        i, j = i[more], j[more]
        out[more] += prefix[j] - prefix[i + 1] + piece(j, edges[j], hi[more])
    return out


def _on_arc(x, start, length):
    """Whether the point x lies on the arc [start, start + length) of the circle; all in turns.

    `start` is normalized.  The normalized x is compared with the ends of the
    arc, and with the end less a turn for an arc that wraps past 0: both are
    exact for lattice arcs, so a point decides as a scan family places it.
    """
    x = x % 1.0
    end = start + length
    return (start <= x) & (x < end) | (x < end - 1.0)


def _point_masses(x, weights, start, length):
    """Sums of the weights of the points x (turns) on each arc [start, start + length).

    `start` holds normalized starts, or is a `ScanFamily`, read by lattice
    index: a point lies on one arc of an aligned or shifted family, and on
    every complement but the one that leaves that arc out.  Each arc sums
    its points in their order, so a family arc equals its lone call.
    """
    if isinstance(start, ScanFamily):
        n = start.size
        if not x.size:
            return np.zeros(n)
        idx = np.floor(x * n - 0.5 * start.shifted).astype(np.int64) % n
        if not start.complement:
            return np.bincount(idx, weights=weights, minlength=n)
        out = np.full(n, np.bincount(np.zeros_like(idx), weights=weights)[0])
        left_out = _distinct(idx)
        rows, cols = np.nonzero(idx[None, :] != left_out[:, None])
        out[left_out] = np.bincount(rows, weights=weights[cols], minlength=left_out.size)
        return out
    starts = np.atleast_1d(np.asarray(start, dtype=float))
    rows, cols = np.nonzero(_on_arc(x[None, :], starts[:, None], length))
    out = np.bincount(rows, weights=weights[cols], minlength=starts.size)
    return out if np.ndim(start) else float(out[0])


def _family(x, length):
    """The scan-family level k of arcs of this length from the starts x (turns), and their indices.

    An arc of 2^-k turn whose start lies on the level-(k + 1) lattice covers the
    pair of level-(k + 1) nodes (j, j + 1); so does the arc that a complement of
    1 - 2^-k turn (k >= 2) leaves out.  Returns (k, complement, j), with j -1
    for an arc off that lattice, or None for a length of neither kind.
    """
    for ell, complement in ((length, False), (1.0 - length, True)):
        mantissa, exponent = np.frexp(ell)
        k = 1 - int(exponent)
        if mantissa == 0.5 and k < _MAX_LEVEL and (k >= 2 or not complement):
            n = 2 ** (k + 1)
            pos = x * n
            idx = np.rint(pos)
            # the arc a complement leaves out ends where the complement starts
            j = (idx.astype(np.int64) - (2 if complement else 0)) % n
            return k, complement, np.where(np.abs(pos - idx) <= _SNAP * n, j, -1)
    return None


def _pair_complements(levels, m):
    """Integrals over the complements of the pairs of adjacent level-l nodes (j, j + 1), l = 1..m.

    Returns {l: array indexed by j}.  A pair from an even j is one
    level-(l - 1) node, whose complement is one sibling per ancestor level;
    one from an odd j has two flanking nodes, and its parents form the pair
    from (j - 1) / 2 a level up.  The nodes are summed level by level and no
    difference is taken, so a complement is infinite only when it holds an
    infinite node.
    """
    single, pair = levels[1][::-1].copy(), np.zeros(2)  # at level 1 a pair is the whole circle
    pairs = {1: pair}
    for level, nodes in enumerate(levels[2 : m + 1], start=2):
        left, right = nodes[0::2], nodes[1::2]
        up_single, up_pair = single, pair
        single, pair = np.empty(nodes.size), np.empty(nodes.size)
        single[0::2], single[1::2] = right + up_single, left + up_single
        pair[0::2] = up_single
        pair[1::2] = left + np.append(right[1:], right[0]) + up_pair  # nodes j - 1, j + 2, parents
        pairs[level] = pair
    return pairs


def _turn(angle):
    """An angle in turns, moved onto the finest lattice when within _SNAP of it.

    A singular angle meant to sit on a lattice point, such as one rotated by
    a lattice multiple, then sits exactly there, so that no sliver of an
    integrable singularity leaks into the neighbouring cell.
    """
    u = float(angle) / TWO_PI % 1.0
    on = np.rint(u * 2.0 ** _MAX_LEVEL) / 2.0 ** _MAX_LEVEL
    return float(on % 1.0) if abs(u - on) <= _SNAP else u


def _tree_sums(levels, lo, hi):
    """Sums of the finest cells lo..hi-1, taking at most two nodes per pyramid level."""
    out = np.zeros(lo.shape)
    for nodes in reversed(levels):
        left = (lo & 1).astype(bool) & (lo < hi)
        out[left] += nodes[lo[left]]
        lo = lo + left
        right = (hi & 1).astype(bool) & (lo < hi)
        hi = hi - right
        out[right] += nodes[hi[right]]
        lo, hi = lo >> 1, hi >> 1
    return out


@dataclass(frozen=True)
class ScanFamily:
    """The 2^level arcs of one scan family, read by lattice index.

    Arc i takes 2^-level turn from the level-(level + 1) lattice point
    j = 2i, or j = 2i + 1 when `shifted`; with `complement` it is the rest
    of the circle, 1 - 2^-level turn from where that arc ends.  Components
    value a family by index, without its starts; any other reader takes the
    normalized starts, as an array too.
    """

    level: int
    shifted: bool = False
    complement: bool = False

    @property
    def length(self):
        return 1.0 - 2.0 ** -self.level if self.complement else 2.0 ** -self.level

    @property
    def size(self):
        return 2 ** self.level

    def start(self, i):
        """The normalized start of arc i, or of the arcs of an index array: lattice points."""
        n = 2 ** (self.level + 1)
        return (2 * i + self.shifted + 2 * self.complement) % n / n

    @property
    def starts(self):
        return self.start(np.arange(self.size))

    def __array__(self, dtype=None, copy=None):
        return self.starts.astype(dtype or float)


# ---------------------------------------------------------------------------
# the cell pyramid behind every arc integral
# ---------------------------------------------------------------------------


class ArcWeight:
    """Boundary weight whose arc integrals are sums over a dyadic cell pyramid.

    A subclass gives `segment_integrals(lo, hi)`, its integrals against dm
    over segments [lo, hi] of turns, 0 <= lo <= hi <= 1, that stay farther
    than `_EPS` radians from its poles, and `poles`, the angles where it is
    not integrable.  The 2^m cells of the lattice k / 2^m are integrated
    once, when first needed, as one run of equal cells (`_run`, which a
    subclass may override with a rule for whole runs), and summed pairwise
    into a pyramid; `_pyramid` holds the finest one built.
    Every segment that reaches `segment_integrals` lies inside one cell of a
    pyramid, so a Gauss-Legendre rule is sized from each segment: 48 nodes
    above 2^-12 turn, 16 up to that and 8 up to 2^-15 turn.  For an
    integrand analytic within distance d of a segment of half-width w, the
    n-node error is O(rho^-2n), rho = x + sqrt(x^2 + 1), x = d / w
    (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
    Review 50, 2008).  Whatever d, each rule stays below the larger of 1e-20
    and the bound of 48 nodes on a cell of the coarsest pyramid (level 10);
    that bound needs 27 nodes at level 11, 16 at 12 and 7 at 15.  Pieces cut
    geometrically toward a singularity sit only their own length from it
    (rho >= 5.8), where 8 nodes reach about 6e-13, so they keep 16.
    A scan-family arc is read by whole-array slices: an arc of 2^-k turn from
    the level-(k + 1) lattice is a pair of adjacent level-(k + 1) nodes, one
    level-k node when aligned, and its complement is the sum, level by level,
    of the nodes flanking it (see `_pair_complements`, summed once per
    pyramid and kept with it); such an arc reads a pyramid of level k + 1 or
    finer.  A `ScanFamily` is read so as a whole, and a lone arc of one the
    same way, node by node.  Only these reads and `cell_integrals`, which
    read by lattice index, build a finer pyramid.  Any other arc reads the
    pyramid as it is, level 10 when none is built yet: a walk down it takes
    its whole cells, at most two nodes per level, adds the two partial cells
    at its ends, integrated directly, and a wrapping arc is two walks.  No
    difference is taken on either path, so a small arc keeps its relative
    accuracy next to a zero or a pole, and given the pyramid an arc's value
    never depends on the other arcs of its call.  A cell whose closure holds
    a pole is +inf, and so is every arc holding that cell.
    A subclass with a rule of its own for `l2`, `weighted`, `scaled` or
    `to_json` overrides it; the defaults raise.  One with a reciprocal gives
    `_inverted`, which `reciprocal` calls once per weight.
    """

    poles = ()
    _EPS = 1e-12  # closure tolerance around a pole, radians
    # coarsest pyramid: cells short enough for the 48-node rule (see above)
    _MIN_LEVEL = 10
    _CHUNK = 2 ** 10  # segments per segment_integrals call, bounding quadrature temporaries
    _pyramid = None  # node integrals against dm, one array per level, coarsest first
    _pairs = None  # the pyramid's pair complements by level, once a complement is read
    _inverse = None  # the reciprocal weight, once `reciprocal` has built it
    #: whether the weight vanishes almost everywhere, read from its form without integrating
    vanishes = False

    def __call__(self, t):
        """The density at the angles t, so that a weight serves as a boundary function."""
        return self.values(t)

    @property
    def integrable(self):
        """Whether the total is finite, read from the poles without integrating."""
        return not len(self.poles)

    def cell_integrals(self, level):
        """Integrals against dm of the 2^level cells [k, k + 1] / 2^level (turns)."""
        return self._levels(level)[level]

    def total(self):
        return float(self.cell_integrals(0)[0])

    # as the a.c. part h dm of a measure: its component methods
    mass = total

    def window_mass(self, start, length):
        """Integrals over the arcs of normalized length `length` from the normalized starts."""
        if isinstance(start, ScanFamily):
            return self._family_integrals(start)
        return self._arcs(start, length)

    arc_mass = window_mass

    def grid_density(self, n=2 ** 16):
        """The density on the grid t_k = 2 pi k / n (n a power of two), as kernel sums take it.

        Each value is the mass of the cell [k - 1/2, k + 1/2] / n (turns)
        centred on its grid point, times n, so that pairing it with pointwise
        kernel values is midpoint quadrature with an exactly integrated
        weight; a weight singularity costs nothing.  The cells are integrated
        directly, not read from a pyramid; the one around angle 0 wraps, and
        is integrated in its two halves.
        """
        half = 0.5 / n
        ends = self._integrals(np.array([0.0, 1.0 - half]), np.array([half, 1.0]))
        return np.concatenate([[ends[0] + ends[1]], self._run(half, 1.0 / n, n - 1)]) * n

    def arc_integral(self, start, length):
        """Integral against dm over the arc of normalized length `length` from angle `start`."""
        if isinstance(start, ScanFamily):
            return self._family_integrals(start)
        return self._arcs(np.asarray(start, dtype=float) / TWO_PI, length)

    def _arcs(self, start, length):
        """Integrals over the arcs of normalized length `length` from the normalized starts."""
        x = np.atleast_1d(np.asarray(start, dtype=float) % 1.0)
        length = min(float(length), 1.0)
        k, complement, j = _family(x, length) or (0, False, np.full(x.size, -1))
        scan, rest = j >= 0, j < 0
        # a family arc, read by lattice index, needs level k + 1; any other arc reads
        # the pyramid as it is
        levels = self._levels(k + 1 if np.any(scan) else 0)
        out = np.empty(x.size)
        if np.any(scan):
            if complement:
                out[scan] = self._complements(k + 1)[j[scan]]
            else:
                nodes = levels[k + 1]
                out[scan] = nodes[j[scan]] + nodes[(j[scan] + 1) % nodes.size]
        if np.any(rest):
            out[rest] = self._walk(levels, x[rest], x[rest] + length)
        return out if np.ndim(start) else float(out[0])

    def _family_integrals(self, family):
        """The integrals over the arcs of a `ScanFamily`, by whole-array slices of the pyramid.

        An aligned arc is one level-k node, a shifted one a pair of adjacent
        level-(k + 1) nodes, and a complement that of such a pair: the same
        nodes, summed in the same order, as the lone arc reads.
        """
        k = family.level
        levels = self._levels(k + 1)
        if family.complement:
            return self._complements(k + 1)[int(family.shifted)::2].copy()
        if not family.shifted:
            return levels[k].copy()
        nodes = levels[k + 1]
        return nodes[1::2] + np.roll(nodes[0::2], -1)

    def _complements(self, m):
        """The level-m pair complements (see `_pair_complements`), summed once per pyramid.

        They are kept with the pyramid and dropped with it.
        """
        if self._pairs is None or m not in self._pairs:
            self._pairs = _pair_complements(self._pyramid, m)
        return self._pairs[m]

    def reciprocal(self):
        """The weight 1/w, built once and kept, so that all its readers share one pyramid.

        The reciprocal holds no reference back to this weight, so no cycle forms.
        """
        if self._inverse is None:
            self._inverse = self._inverted()
        return self._inverse

    def l2(self, fn):
        """Integral of |fn|^2 against the weight, from fn's boundary values."""
        raise AdmissibilityError("no L2 rule for this boundary density type")

    def weighted(self, boundary):
        """The weight times the function boundary(t)."""
        raise WeightingError("cannot weight this boundary density type")

    def scaled(self, t):
        raise ConfigurationError("cannot scale this density type")

    def to_json(self):
        """The `ac_density` entry of a measure file."""
        raise ConfigurationError("cannot serialize a runtime-weighted density")

    def _levels(self, level):
        """The pyramid, built first when the slot holds none reaching `level`."""
        if self._pyramid is None or len(self._pyramid) <= level:
            m = max(level, self._MIN_LEVEL)
            levels = [self._run(0.0, 2.0 ** -m, 2 ** m)]
            while levels[-1].size > 1:
                levels.append(levels[-1][0::2] + levels[-1][1::2])
            self._pyramid, self._pairs = levels[::-1], None
        return self._pyramid

    def _run(self, start, width, count):
        """Integrals over the `count` segments of `width` turns laid end to end from `start`."""
        lo = start + width * np.arange(count)
        return self._integrals(lo, lo + width)

    def _walk(self, levels, x, end):
        """Integrals over the arcs [x, end], 0 <= x < 1 and x <= end <= x + 1, from `levels`."""
        n = levels[-1].size
        out = self._span(levels, x * n, np.minimum(end, 1.0) * n)
        wrap = end > 1.0
        if np.any(wrap):
            out[wrap] += self._span(levels, np.zeros(np.count_nonzero(wrap)),
                                    (end[wrap] - 1.0) * n)
        return out

    def _span(self, levels, a, b):
        """Integrals over [a, b], 0 <= a <= b <= n, in units of the n finest cells."""
        n = levels[-1].size
        tol = _SNAP * n
        lo = np.ceil(a - tol)
        hi = np.maximum(np.floor(b + tol), lo)
        out = _tree_sums(levels, lo.astype(np.int64), hi.astype(np.int64))
        for s, e in ((a, np.minimum(lo, b)), (hi, b)):  # the partial cells at either end
            part = e - s > tol
            if np.any(part):
                out[part] += self._integrals(s[part] / n, e[part] / n)
        return out

    def _integrals(self, lo, hi):
        """Integrals against dm over [lo, hi] (turns); +inf where a pole is within _EPS."""
        eps = self._EPS / TWO_PI
        held = np.zeros(lo.shape, dtype=bool)
        for p in self.poles:
            rel = (lo - p / TWO_PI) % 1.0
            held |= (rel <= eps) | (rel + (hi - lo) >= 1.0 - eps)
        out = np.full(lo.shape, np.inf)
        idx = np.nonzero(~held)[0]
        for s in range(0, idx.size, self._CHUNK):
            part = idx[s : s + self._CHUNK]
            out[part] = self.segment_integrals(lo[part], hi[part])
        return out


class GridArcWeight(ArcWeight):
    """Piecewise-constant boundary weight given by grid samples (exact arc sums)."""

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError("grid weight must be nonnegative and finite")
        self.grid = v
        self._edges = np.arange(v.size + 1) / v.size
        self._prefix = np.concatenate([[0.0], np.cumsum(v)]) / v.size

    def values(self, t):
        idx = (np.floor(np.asarray(t, dtype=float) / TWO_PI * self.grid.size).astype(int)
               % self.grid.size)
        return self.grid[idx]

    def grid_density(self, n=None):
        """The samples, each repeated n / size times (n a multiple of the size, default the size)."""
        return np.repeat(self.grid, (n or self.grid.size) // self.grid.size)

    @property
    def vanishes(self):
        return not np.any(self.grid)

    def segment_integrals(self, lo, hi):
        return _piecewise_integrals(lo, hi, self._edges, self._prefix,
                                    lambda i, a, b: self.grid[i] * (b - a))

    def _inverted(self):
        if np.any(self.grid <= 0):
            raise DomainError("weight vanishes on the grid; reciprocal undefined")
        return GridArcWeight(1.0 / self.grid)

    def l2(self, fn):
        return float(np.mean(self.grid * np.abs(fn.boundary_grid(self.grid.size)) ** 2))

    def weighted(self, boundary):
        w = np.asarray(boundary(grid_angles(self.grid.size)), dtype=float)
        _check_weight_values(w)
        return GridArcWeight(self.grid * w)

    def scaled(self, t):
        return GridArcWeight(self.grid * t)

    def to_json(self):
        return {"grid": [float(v) for v in self.grid]}


class FactoredArcWeight(ArcWeight):
    """Boundary weight c(t) * prod_j scale_j |1 - e^(i(t - t_j))|^gamma_j, c smooth and positive.

    Each factor is a `PowerArcWeight`, with any real exponent; factors at one
    angle add their exponents.  A `cofactor` of None is c = 1 and is never
    evaluated; with no nonzero exponent either, the weight is a constant and
    integrates in closed form.  An angle whose exponent is <= -1 is a pole:
    an arc whose closure holds it has infinite integral, wherever the pole
    sits relative to any lattice.  Segments are cut geometrically toward
    every pole, every angle of a non-even exponent and each `focus` angle,
    where the cofactor peaks; an even zero is analytic and needs no cut.
    With a cofactor, an angle whose exponents cancel is cut toward as well:
    the cofactor may branch there (1 + |b| where |a|^-2 |a|^2 is 1, say).
    Each piece is integrated in its offset in turns from the nearest factor
    or focus angle, exact next to 0 and 2 pi.  A piece within its own length
    of an angle whose exponent is a non-even gamma > -1 runs in v =
    u^(1 + gamma), u the distance from that angle, which absorbs the power;
    every other piece sits at least its own length from any branch point
    (see ArcWeight) and takes plain Gauss-Legendre.  In a run of equal cells
    (a pyramid base, the centred cells of `grid_density`), a cell with no
    cut that lies two widths or more from every factor and focus angle is
    one such piece, and takes its nodes' factor values by angle addition
    (see `_run`).  The cuts are sorted on the first integral, not when the
    weight is built.
    """

    #: offsets (turns) of the cuts toward a cut angle, from the pole closure tolerance to the antipode
    _CUTS = np.geomspace(ArcWeight._EPS / TWO_PI, 0.5, 100)
    _breaks = None  # the sorted cuts (turns), set by `_cut` on the first integral

    def __init__(self, factors, cofactor=None, focus=()):
        self.factors = list(factors)
        self._factorize(cofactor, focus)

    def _factorize(self, cofactor, focus):
        """Set the cofactor, and the powers and poles that `self.factors` give.

        The cuts wait for the first integral (see `_cut`): a weight that only
        serves as a factor, or is only asked for its poles, never sorts them.
        """
        self.cofactor = cofactor
        factors = self.factors
        turns = np.array([_turn(f.angle) for f in factors])
        angles = _distinct(turns)
        where = np.searchsorted(angles, turns)
        gammas = np.bincount(where, weights=[f.gamma for f in factors], minlength=angles.size)
        live = np.bincount(where, weights=[f.gamma != 0 for f in factors],
                           minlength=angles.size) > 0
        self._scale = float(np.prod([f.scale for f in factors]))
        # one (angle, exponent, scale) per distinct angle, so that factors whose
        # exponents cancel give their scale
        groups = {}
        for u, f in zip(turns, factors):
            groups.setdefault(u, []).append(f)
        self._powers = [(fs[0].angle, sum(f.gamma for f in fs),
                         float(np.prod([f.scale for f in fs]))) for fs in groups.values()]
        self._angles, self._gammas = angles[gammas != 0], gammas[gammas != 0]
        self.poles = TWO_PI * self._angles[self._gammas <= -1.0]
        self._focus = [_turn(t) for t in focus]
        if cofactor is not None:
            self._focus += list(angles[live & (gammas == 0)])

    def _cut(self):
        """Set the breaks, the reference angles and their absorbed exponents, once."""
        if self._breaks is not None:
            return
        even = self._gammas % 2 == 0
        # a focus within the innermost cut of a factor is that factor's angle
        focus = [u for u in self._focus
                 if np.all(np.abs(_offset(u, self._angles)) > self._CUTS[0])]
        cut = _distinct(np.append(self._angles[~even | (self._gammas <= -1.0)], focus))
        steps = np.concatenate([-self._CUTS, [0.0], self._CUTS])
        # the angles pieces take offsets from (angle 0 when there is none), and the
        # exponent each one's substitution absorbs (0: none)
        refs = _distinct(np.append(self._angles, focus))
        self._refs = refs if refs.size else np.zeros(1)
        self._absorbed = np.zeros(self._refs.size)
        self._absorbed[np.searchsorted(self._refs, self._angles)] = np.where(
            ~even & (self._gammas > -1.0), self._gammas, 0.0)
        self._breaks = _distinct((cut[:, None] + steps) % 1.0)

    def values(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones(t.shape) if self.cofactor is None else np.asarray(self.cofactor(t), float)
        with np.errstate(divide="ignore"):
            for angle, gamma, scale in self._powers:
                out = out * (scale * np.abs(2.0 * np.sin((t - angle) / 2.0)) ** gamma)
        return out

    @property
    def vanishes(self):
        return self._scale == 0.0

    def segment_integrals(self, lo, hi):
        if self.cofactor is None and not self._angles.size:
            return self._scale * (hi - lo)
        a, b, owner, nodes = self._segment_pieces(lo, hi)
        parts = np.empty(a.size)
        for n in _distinct(nodes):
            pick = nodes == n
            parts[pick] = self._piece_integrals(a[pick], b[pick], _GL[n])
        return self._scale * np.bincount(owner, weights=parts, minlength=lo.size)

    def _segment_pieces(self, lo, hi):
        """The segments cut at the breaks: pieces (a, b), the segment of each and its node count.

        The rule is sized from each segment's width (see ArcWeight); a cut piece keeps 16 nodes.
        """
        self._cut()
        a, b, owner = _pieces(lo, hi, self._breaks)
        nodes = _rule_nodes((hi - lo)[owner])
        cut = (a != lo[owner]) | (b != hi[owner])
        nodes[cut] = np.maximum(nodes[cut], 16)
        return a, b, owner, nodes

    def _run(self, start, width, count):
        """Cells of a run: whole ones by angle addition, cut and near ones piece by piece.

        A cell that holds no break and lies two widths or more from every
        reference angle has no substituted piece, and its node offsets from
        each factor angle are its start's offset d plus the rule's fixed
        offsets o: sin(pi (d + o)) = sin(pi d) cos(pi o) + cos(pi d) sin(pi o)
        takes one sine and one cosine per cell and factor.  The sum stays
        clear of cancellation there, since |d + o| > |o|.
        """
        if self.cofactor is None and not self._angles.size:
            return np.full(count, self._scale * width)
        lo, near = self._near_cells(start, width, count)
        out = np.empty(count)
        part = np.nonzero(near)[0]
        out[part] = self._integrals(lo[part], lo[part] + width)
        whole = np.nonzero(~near)[0]
        rule = _GL[int(_rule_nodes(width))]
        step = self._CHUNK * 48 // rule[0].size
        for s in range(0, whole.size, step):
            part = whole[s : s + step]
            out[part] = self._whole_cells(lo[part], width, rule)
        return out

    def _near_cells(self, start, width, count):
        """The starts of the cells of a run, and which ones `_run` takes piece by piece."""
        self._cut()
        lo = start + width * np.arange(count)
        near = np.zeros(count, dtype=bool)
        # the cells holding a break strictly inside: lo[c] < b < lo[c] + width
        c = np.searchsorted(lo, self._breaks) - 1
        ok = c >= 0
        c, b = c[ok], self._breaks[ok]
        near[c[b < lo[c] + width]] = True
        # the cells within two widths of a reference angle, on either side of a whole turn
        k = np.floor((self._refs[:, None] + [-1.0, 0.0, 1.0] - start) / width).astype(np.int64)
        c = (k[..., None] + np.arange(-2, 3)).ravel()
        near[c[(c >= 0) & (c < count)]] = True
        return lo, near

    def _whole_cells(self, lo, width, rule):
        """Integrals over whole far cells [lo, lo + width] (see `_run`), with the scale.

        Node values are laid out one row per node, and the rows are summed in
        order, so a cell's integral does not depend on the other cells.
        """
        offsets, factors = self._whole_nodes(lo, width, rule)
        vals = None
        if self.cofactor is not None:
            vals = np.asarray(self.cofactor(_radians(offsets + lo)), dtype=float)
        for base in factors:
            vals = base if vals is None else np.multiply(vals, base, out=base)
        out = vals[0] * rule[1][0]
        for row, weight in zip(vals[1:], rule[1][1:]):
            out += row * weight
        return self._scale * (out * 0.5 * width)

    def _whole_nodes(self, lo, width, rule):
        """The offsets o of the rule's nodes in a cell, as a column, and the factors' values.

        The nodes (turns) of the whole far cells from `lo` are o + lo, one row
        per node.  The values come one factor at a time, each
        |2 sin(pi (d + o))|^gamma in a new array.
        """
        offsets = (0.5 * width * (1.0 + rule[0]))[:, None]
        cos_o, sin_o = 2.0 * np.cos(np.pi * offsets), 2.0 * np.sin(np.pi * offsets)

        def factors():
            for angle, gamma in zip(self._angles, self._gammas):
                d = np.pi * _offset(lo, angle)
                base = np.abs(np.sin(d) * cos_o + np.cos(d) * sin_o)
                base **= gamma
                yield base

        return offsets, factors()

    def _piece_integrals(self, a, b, rule):
        """Integrals against dm over pieces [a, b] (turns) holding no break, without the scale."""
        x, factors, dv, q = self._piece_nodes(a, b, rule)
        vals = 1.0
        if self.cofactor is not None:
            vals = np.asarray(self.cofactor(_radians(x)), dtype=float)
        for base in factors:
            vals = vals * base
        # summed row by row, so that a piece's integral does not depend on its batch (a
        # BLAS matrix-vector product sums the rows past a multiple of four in another order)
        return np.sum(vals * rule[1], axis=-1) * 0.5 * dv / q

    def _piece_nodes(self, a, b, rule):
        """The nodes (turns) of pieces [a, b], one row per piece, and the factors' values there.

        Also gives each piece's length dv in its variable and the power q of
        that variable, whose quotient, halved, is the Jacobian.
        """
        mid = _offset(0.5 * (a + b), self._refs[:, None])
        near = np.argmin(np.abs(mid), axis=0)
        c, below = self._refs[near], mid[near, np.arange(near.size)] < 0
        # the distance from c of the piece's near end: the piece is substituted
        # when that is less than its length
        u1 = np.abs(_offset(np.where(below, b, a), c))
        p = np.where(u1 < b - a, self._absorbed[near], 0.0)
        # a substituted piece runs in the distance u from c on its own side; any
        # other in the signed offset from c
        side = np.where((p != 0) & below, -1.0, 1.0)
        u1 = np.where(p != 0, u1, _offset(a, c))
        q, v1, dv = 1.0 + p, u1, b - a
        if np.any(p):
            v1 = u1 ** q
            dv = np.where(p == 0, dv, (u1 + dv) ** q - v1)
        v = v1[:, None] + 0.5 * dv[:, None] * (1.0 + rule[0])
        u = v ** (1.0 / q)[:, None] if np.any(p) else v
        s = side[:, None] * u

        def factors():
            for angle, gamma in zip(self._angles, self._gammas):
                base = np.abs(2.0 * np.sin(np.pi * _offset(_offset(c, angle)[:, None] + s, 0.0)))
                absorbed = (c == angle) & (p != 0)
                base[absorbed] = TWO_PI * np.sinc(u[absorbed])
                yield base ** gamma

        return c[:, None] + s, factors(), dv, q

    def node_rule(self):
        """The nodes at which `total` takes the cofactor, as angles (radians) and weights.

        They are the nodes of the cells of the coarsest pyramid base, whole or
        cut into pieces, as `_run` integrates them, each weight the rule's
        weight times the factor values, the Jacobian and the scale.  So the
        sum of the weights times the cofactor at the angles is the total, up
        to the order of the sum.  None with a pole, which some cell holds.
        """
        if not self.integrable:
            return None
        count = 2 ** self._MIN_LEVEL
        width = 1.0 / count
        lo, near = self._near_cells(0.0, width, count)
        rule = _GL[int(_rule_nodes(width))]
        offsets, factors = self._whole_nodes(lo[~near], width, rule)
        nodes = [(offsets + lo[~near], factors, rule[1][:, None] * (0.5 * width))]
        a, b, _, counts = self._segment_pieces(lo[near], lo[near] + width)
        for n in _distinct(counts):
            pick = counts == n
            x, factors, dv, q = self._piece_nodes(a[pick], b[pick], _GL[n])
            nodes.append((x, factors, _GL[n][1] * (0.5 * dv / q)[:, None]))
        angles, weights = [], []
        for x, factors, w in nodes:
            w = np.broadcast_to(w, x.shape)
            for base in factors:
                w = w * base
            angles.append(_radians(x).ravel())
            weights.append(np.ravel(w))
        angles, weights = np.concatenate(angles), self._scale * np.concatenate(weights)
        angles.setflags(write=False)
        weights.setflags(write=False)
        return angles, weights

    def weighted(self, boundary):
        """The weight times boundary(t); a factored boundary, a power one too, joins its factors.

        Lebesgue measure (no nonzero exponent, no cofactor, scale 1) times a
        factored boundary is that boundary itself, with the cells it has integrated.
        """
        factored = isinstance(boundary, FactoredArcWeight)
        if factored and self.cofactor is None and not self._angles.size and self._scale == 1.0:
            return boundary
        factors, other = (boundary.factors, boundary.cofactor) if factored else ([], boundary)
        return FactoredArcWeight(self.factors + factors, _times(self.cofactor, other))

    def _inverted(self):
        cofactor = self.cofactor
        inverse = None if cofactor is None else lambda t: 1.0 / np.asarray(cofactor(t), dtype=float)
        return FactoredArcWeight([f.reciprocal() for f in self.factors], inverse)


def _radians(x):
    """Turns x as angles in [-pi, pi], exact next to 0."""
    return TWO_PI * (x - np.rint(x))


def _times(f, g):
    """The pointwise product of two cofactors, None standing for 1."""
    if f is None or g is None:
        return g if f is None else f
    return lambda t: np.asarray(f(t), dtype=float) * np.asarray(g(t), dtype=float)


class PowerArcWeight(FactoredArcWeight):
    """Boundary weight scale * |1 - e^(i(t - t0))|^gamma: a `FactoredArcWeight` of one factor.

    Integrals are taken against normalized Lebesgue measure dm = dt/(2*pi).
    For gamma <= -1 an arc whose closure contains the singular angle has
    infinite integral, and that infinity is returned as such.  Lebesgue
    measure (gamma = 0) has no factor left and integrates in closed form.
    """

    _rule = None  # (focus angles, node rule) of the last `l2`

    def __init__(self, gamma, scale=1.0, angle=0.0):
        if scale < 0:
            raise DomainError("weight scale must be nonnegative")
        self.gamma = float(gamma)
        self.scale = float(scale)
        self.angle = float(angle) % TWO_PI
        self._factorize(None, ())

    # bound here as well as inherited: perfbench's tracer tests look the
    # method up in this class's own namespace
    arc_integral = ArcWeight.arc_integral

    @property
    def factors(self):
        """The one factor, the weight itself, in a new list: the weight never holds itself."""
        return [self]

    def _inverted(self):
        return PowerArcWeight(-self.gamma, 1.0 / self.scale, self.angle)

    def l2(self, fn):
        """Total of the weight times |fn|^2 on the circle, cut toward fn's focus angles too.

        It is the total of the weight with cofactor |fn|^2, whose nodes depend
        on the focus angles alone: their node rule is kept with the weight, as
        its pyramid is, until a norm with other focus angles replaces it, so
        that norms sharing them, such as kernels peaking at one angle, take one
        weighted sum of |fn|^2 at the rule's angles each.  One rule is kept,
        not one per tuple, since each holds some 60k nodes.
        """
        focus = tuple(fn.focus_angles)
        if self._rule is None or self._rule[0] != focus:
            self._rule = focus, FactoredArcWeight(
                [self], lambda t: np.abs(fn.boundary_angles(t)) ** 2, focus).node_rule()
        if self._rule[1] is None:
            return np.inf
        angles, weights = self._rule[1]
        return float(np.sum(weights * np.abs(fn.boundary_angles(angles)) ** 2))

    def scaled(self, t):
        return PowerArcWeight(self.gamma, self.scale * t, self.angle)

    def to_json(self):
        return {"power": {"beta": -self.gamma, "scale": self.scale,
                          "singularity_angle": self.angle}}


class PiecewiseBoundaryWeight(ArcWeight):
    """Boundary weight built from constant plateaus and cubic smoothstep joins.

    Exact arc integrals: constant pieces and the smoothstep antiderivative in
    closed form, reciprocal-of-smoothstep portions by Gauss-Legendre on
    pieces cut geometrically toward both ends of the join, next to which the
    poles of 1/(v0 + (v1 - v0) s) lie (0.029 join-widths off the real line
    for 0.00129 against 0.5).  This is what makes Muckenhoupt products on
    arcs far narrower than any practical grid cell trustworthy.

    Pieces are (t_lo, t_hi, v0, v1): value v0 + (v1 - v0) s((t-lo)/(hi-lo))
    with s(x) = 3x^2 - 2x^3; a constant piece has v0 == v1.  Pieces must
    partition [0, 2*pi).
    """

    #: cuts of a join, as fractions of its width, toward both ends (ascending)
    _JOIN_CUTS = np.concatenate([np.geomspace(1e-6, 0.5, 20), 1.0 - np.geomspace(1e-6, 0.5, 20)[-2::-1]])

    def __init__(self, pieces, reciprocal=False):
        self.pieces = [(float(a), float(b), float(v0), float(v1)) for a, b, v0, v1 in pieces]
        self.pieces.sort()
        lo = np.array([p[0] for p in self.pieces])
        hi = np.array([p[1] for p in self.pieces])
        if abs(lo[0]) > 1e-12 or abs(hi[-1] - TWO_PI) > 1e-12 or np.any(
            np.abs(hi[:-1] - lo[1:]) > 1e-12
        ):
            raise ConfigurationError("pieces must partition [0, 2*pi)")
        if min(min(p[2], p[3]) for p in self.pieces) <= 0:
            raise DomainError("piecewise weight must be strictly positive")
        self._reciprocal = bool(reciprocal)
        self._lo = lo
        self._hi = hi
        self._v0 = np.array([p[2] for p in self.pieces])
        self._v1 = np.array([p[3] for p in self.pieces])
        self._edges = np.append(lo, hi[-1])
        whole = self._piece_integrals(np.arange(len(self.pieces)), lo, hi)
        self._prefix = np.concatenate([[0.0], np.cumsum(whole)])

    def values(self, t):
        t = np.asarray(t, dtype=float)
        t = t - TWO_PI * np.floor(t / TWO_PI)  # whole turns off; an angle in [0, 2 pi) stays
        idx = np.clip(np.searchsorted(self._hi, t, side="right"), 0, len(self.pieces) - 1)
        lo = self._lo[idx]
        width = np.maximum(self._hi[idx] - lo, 1e-300)
        x = np.clip((t - lo) / width, 0.0, 1.0)
        v = self._v0[idx] + (self._v1[idx] - self._v0[idx]) * (3.0 * x**2 - 2.0 * x**3)
        return 1.0 / v if self._reciprocal else v

    def _piece_integrals(self, idx, a, b):
        """Vectorized integral over [a, b] inside piece i = idx[j]."""
        lo = self._lo[idx]
        v0 = self._v0[idx]
        v1 = self._v1[idx]
        width = np.maximum(self._hi[idx] - lo, 1e-300)
        out = np.zeros(idx.shape)
        const = v0 == v1
        span = np.maximum(b - a, 0.0)
        if np.any(const):
            val = v0[const] if not self._reciprocal else 1.0 / v0[const]
            out[const] = val * span[const]
        step = ~const & (span > 0)
        if np.any(step):
            xa = np.clip((a[step] - lo[step]) / width[step], 0.0, 1.0)
            xb = np.clip((b[step] - lo[step]) / width[step], 0.0, 1.0)
            v0, v1 = v0[step], v1[step]
            dv = v1 - v0
            if not self._reciprocal:
                out[step] = width[step] * (
                    v0 * (xb - xa) + dv * (xb**3 - xa**3 - 0.5 * (xb**4 - xa**4))
                )
            else:
                pa, pb, owner = _pieces(xa, xb, self._JOIN_CUTS)
                v0, v1, dv = v0[owner, None], v1[owner, None], dv[owner, None]

                def reciprocal(x):  # 1 / (v0 + dv s(x)), s taken from the nearer end
                    return 1.0 / np.where(x < 0.5, v0 + dv * x**2 * (3.0 - 2.0 * x),
                                          v1 - dv * (1.0 - x) ** 2 * (1.0 + 2.0 * x))

                out[step] = width[step] * np.bincount(
                    owner, weights=_gl_integrate(reciprocal, pa, pb, _GL[16]), minlength=xa.size)
        return out

    def segment_integrals(self, lo, hi):
        """Integrals over [lo, hi] (turns); a reciprocal join takes its own cuts and rule.

        A smoothstep join can be far narrower than a cell, and the poles of
        its reciprocal lie within a fraction of the join's width, so a cell's
        width does not size the rule here.
        """
        return _piecewise_integrals(TWO_PI * lo, TWO_PI * hi, self._edges, self._prefix,
                                    self._piece_integrals) / TWO_PI

    def _inverted(self):
        return PiecewiseBoundaryWeight(self.pieces, reciprocal=not self._reciprocal)


def as_arc_weight(w):
    if hasattr(w, "arc_integral"):
        return w
    return GridArcWeight(np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# measure components
# ---------------------------------------------------------------------------


class DiskAtoms:
    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise DomainError("atom weights must be nonnegative")
        if self.points.size and np.max(np.abs(self.points)) >= 1.0:
            raise DomainError("disk atoms must lie strictly inside the disk")

    def mass(self):
        return float(np.sum(self.weights))

    def window_mass(self, start, length):
        deep = (1.0 - np.abs(self.points)) <= length / 2.0 + 1e-15
        x = (np.angle(self.points[deep]) / TWO_PI) % 1.0
        return _point_masses(x, self.weights[deep], start, length)

    def arc_mass(self, start, length):
        return np.zeros(np.shape(start)) if np.shape(start) else 0.0

    def l2_nodes(self):
        """The atoms as interior nodes, and their weighted sum (see `l2_by_nodes`)."""
        return self.points, False, lambda v: np.sum(self.weights * v, axis=-1)

    def l2(self, fn):
        return l2_by_nodes(self, fn)

    def weighted(self, weight):
        w = weight.point(self.points) if self.points.size else np.array([])
        _check_weight_values(w)
        new_w = self.weights * np.asarray(w, dtype=float)
        keep = new_w > 0
        return DiskAtoms(self.points[keep], new_w[keep])

    def scaled(self, t):
        return DiskAtoms(self.points, self.weights * t)

    def to_json(self):
        return [[float(p.real), float(p.imag), float(w)]
                for p, w in zip(self.points, self.weights)]


class SingularAtoms:
    def __init__(self, angles, weights):
        self.angles = np.asarray(angles, dtype=float) % TWO_PI
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise DomainError("atom weights must be nonnegative")

    def mass(self):
        return float(np.sum(self.weights))

    def window_mass(self, start, length):
        return _point_masses(self.angles / TWO_PI, self.weights, start, length)

    arc_mass = window_mass

    def l2_nodes(self):
        """The atoms as boundary angles, and their weighted sum (see `l2_by_nodes`)."""
        return self.angles, True, lambda v: np.sum(self.weights * v, axis=-1)

    def l2(self, fn):
        return l2_by_nodes(self, fn)

    def weighted(self, weight):
        w = np.asarray(weight.boundary(self.angles), dtype=float) if self.angles.size else np.array([])
        _check_weight_values(w)
        new_w = self.weights * w
        keep = new_w > 0
        return SingularAtoms(self.angles[keep], new_w[keep])

    def scaled(self, t):
        return SingularAtoms(self.angles, self.weights * t)

    def to_json(self):
        return [[float(a), float(w)] for a, w in zip(self.angles, self.weights)]


class RadialPower:
    """Density scale * (1-t)^-beta dt along the ray of the given angle, t in [r0, 1).

    beta < 1 keeps the mass finite.  Window masses have the closed form
    d^(1-beta)/(1-beta); a correction factor (e.g. |a|^2 along the ray) is
    absorbed exactly by the substitution v = (1-t)^(1-beta).
    """

    def __init__(self, angle=0.0, beta=0.5, scale=1.0, r0=0.0, correction=None):
        if beta >= 1.0:
            raise DomainError(
                f"radial exponent beta = {beta} >= 1 gives an infinite measure"
            )
        if not 0.0 <= r0 < 1.0:
            raise DomainError("radial support must start inside [0, 1)")
        self.angle = float(angle) % TWO_PI
        self.beta = float(beta)
        self.scale = float(scale)
        self.r0 = float(r0)
        self.correction = correction
        self._window_depth_masses = {}  # arc length -> the depth mass its windows hold

    def _depth_mass(self, depth):
        """Mass of the slice 1 - d <= t < 1 (closed form, or substituted quadrature)."""
        e = np.minimum(np.asarray(depth, dtype=float), 1.0 - self.r0)
        e = np.maximum(e, 0.0)
        onem = 1.0 - self.beta
        if self.correction is None:
            return self.scale * e ** onem / onem
        corr = self.correction
        beta = self.beta

        def h(v):
            t = 1.0 - v ** (1.0 / onem)
            return np.asarray(corr(t), dtype=float)

        return self.scale * _gl_integrate(h, np.zeros_like(e), e ** onem) / onem

    def mass(self):
        return float(self._depth_mass(1.0 - self.r0))

    def window_mass(self, start, length):
        """The ray's mass to the depth length / 2 on the arcs that hold its angle.

        A scan asks every length more than once, so each length's depth
        mass is taken once per ray.
        """
        length = float(length)
        mass = self._window_depth_masses.get(length)
        if mass is None:
            mass = self._window_depth_masses[length] = float(self._depth_mass(length / 2.0))
        x = np.array([(self.angle / TWO_PI) % 1.0])
        return _point_masses(x, np.array([mass]), start, length)

    def arc_mass(self, start, length):
        return np.zeros(np.shape(start)) if np.shape(start) else 0.0

    def l2_nodes(self):
        """Nodes along the ray, and the integral of |f|^2 by dyadic shells in s = 1 - t.

        On each shell [d 2^(-k-1), d 2^(-k)] the integrand s^-beta |f|^2 has
        bounded variation, so fixed Gauss-Legendre is accurate; shells whose
        contributions stop decaying expose a divergent integral, returned as
        +inf, and a decaying tail is closed by geometric extrapolation.  See
        `l2_by_nodes`.
        """
        edges = (1.0 - self.r0) * 0.5 ** np.arange(0, 45)
        mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] - edges[1:])
        s = mid[:, None] + rad[:, None] * _GL[48][0]
        t = 1.0 - s
        s_power = s ** (-self.beta)
        corr = None if self.correction is None else np.asarray(self.correction(t), dtype=float)

        def integral(v):
            vals = v * s_power
            if corr is not None:
                vals = vals * corr
            shells = np.sum(vals * _GL[48][1], axis=-1) * rad
            tail = shells[..., -6:]
            last, prev = shells[..., -1], shells[..., -2]
            with np.errstate(invalid="ignore", over="ignore"):
                stalled = np.all(tail[..., 1:] >= 0.9 * tail[..., :-1], axis=-1)
                infinite = np.any(~np.isfinite(shells), axis=-1) | (tail[..., -1] > 0) & stalled
                geometric = (last > 0) & (prev > last)
                ratio = last / np.where(geometric, prev, 1.0)
                total = np.sum(shells, axis=-1) + np.where(
                    geometric, last * ratio / np.maximum(1.0 - ratio, 1e-3), 0.0)
            return np.where(infinite, np.inf, self.scale * total)

        return t * np.exp(1j * self.angle), False, integral

    def l2(self, fn):
        return l2_by_nodes(self, fn)

    def weighted(self, weight):
        direction = np.exp(1j * self.angle)
        new = lambda t: np.asarray(weight.point(np.asarray(t) * direction), dtype=float)
        if self.correction is not None:
            old = self.correction
            prev = new
            new = lambda t: np.asarray(old(t), dtype=float) * prev(t)
        probe = new(np.linspace(self.r0, 1.0 - 1e-9, 64))
        _check_weight_values(probe)
        return RadialPower(self.angle, self.beta, self.scale, self.r0, new)

    def scaled(self, t):
        return RadialPower(self.angle, self.beta, self.scale * t, self.r0, self.correction)

    def to_json(self):
        if self.correction is not None:
            raise ConfigurationError("cannot serialize a runtime-weighted radial density")
        return {"angle": self.angle, "power_beta": self.beta, "scale": self.scale}


def l2_by_nodes(component, fn):
    """Integral of |fn|^2 against a component, by its `l2_nodes`: (nodes, boundary, integral).

    fn is read at the nodes, as boundary angles or as interior points, and
    `integral` maps |fn|^2 there, with any leading axes, to the integrals;
    a kernel scan reads many functions at the same nodes that way.
    """
    nodes, boundary, integral = component.l2_nodes()
    if nodes.size == 0:
        return 0.0
    return float(integral(np.abs(fn.boundary_angles(nodes) if boundary
                                 else fn.interior(nodes)) ** 2))


def _check_weight_values(w):
    w = np.asarray(w, dtype=float)
    if w.size and (np.any(~np.isfinite(w)) or np.any(w < 0)):
        raise WeightingError("weight must be finite and nonnegative on the carrier")


# ---------------------------------------------------------------------------
# windows and the measure itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcWindow:
    """Open arc given by center angle (radians) and normalized length in (0, 1]."""

    center: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= 1.0:
            raise DomainError("arc length must be normalized into (0, 1]")

    @property
    def start(self):
        """Normalized start position in [0, 1)."""
        return (self.center / TWO_PI - self.length / 2.0) % 1.0

    @property
    def depth(self):
        return self.length / 2.0

    def contains_angle(self, t):
        return _on_arc(np.asarray(t, dtype=float) / TWO_PI, self.start, self.length)

    def contains_point(self, z):
        z = np.asarray(z, dtype=complex)
        return self.contains_angle(np.angle(z)) & (1.0 - np.abs(z) <= self.depth + 1e-15)

    @classmethod
    def from_span(cls, start, length):
        center = (start + length / 2.0) * TWO_PI
        return cls(center, length)


def window_span(window):
    """The normalized (start, length) of an `ArcWindow` or of a (start, length) pair."""
    if isinstance(window, ArcWindow):
        return window.start, window.length
    return window


class FunctionOnDisk:
    """Adapter handing a function's interior and declared boundary values to measures."""

    def __init__(self, interior, boundary_angles=None, boundary_grid=None, focus_angles=()):
        self.interior = interior
        self._boundary_angles = boundary_angles
        self._boundary_grid = boundary_grid
        self.focus_angles = tuple(focus_angles)

    @property
    def has_boundary_values(self):
        return self._boundary_angles is not None or self._boundary_grid is not None

    def boundary_angles(self, t):
        if self._boundary_angles is None:
            raise AdmissibilityError("function has no declared boundary values")
        return self._boundary_angles(np.asarray(t, dtype=float))

    def boundary_grid(self, n):
        if self._boundary_grid is not None:
            return self._boundary_grid(n)
        return self.boundary_angles(grid_angles(n))


class DiskMeasure:
    """Finite positive Borel measure on the closed disk, in component form.

    The a.c. part `ac` is the boundary weight h of h dm, an `ArcWeight`, or None.
    """

    def __init__(self, disk_atoms=None, ac=None, singular_atoms=None, radial=(), label=None):
        self.disk_atoms = disk_atoms or DiskAtoms([], [])
        self.ac = ac
        self.singular_atoms = singular_atoms or SingularAtoms([], [])
        self.radial = list(radial)
        self.label = label
        # finite without integrating the a.c. part: a boundary weight is finite off its poles
        if not all(c.integrable if c is ac else np.isfinite(c.mass()) for c in self.components()):
            raise DomainError("measure must be finite")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def lebesgue(cls, label="lebesgue"):
        return cls(ac=PowerArcWeight(0.0, 1.0, 0.0), label=label)

    @classmethod
    def from_density_grid(cls, values, label=None):
        return cls(ac=GridArcWeight(values), label=label)

    @classmethod
    def boundary_power(cls, beta, scale=1.0, angle=0.0, label=None):
        """d mu = scale |1 - e^(i(t-angle))|^-beta dm; beta < 1 for finiteness."""
        if beta >= 1.0:
            raise DomainError(f"boundary exponent beta = {beta} >= 1 gives an infinite measure")
        return cls(ac=PowerArcWeight(-beta, scale, angle), label=label)

    @classmethod
    def radial_power(cls, beta, scale=1.0, angle=0.0, r0=0.0, label=None):
        return cls(radial=[RadialPower(angle, beta, scale, r0)], label=label)

    @classmethod
    def point_mass(cls, z, weight=1.0, label=None):
        z = complex(z)
        if abs(z) < 1.0:
            return cls(disk_atoms=DiskAtoms([z], [weight]), label=label)
        return cls(singular_atoms=SingularAtoms([np.angle(z)], [weight]), label=label)

    # -- structure ------------------------------------------------------------

    def components(self):
        out = [self.disk_atoms, self.singular_atoms]
        if self.ac is not None:
            out.append(self.ac)
        out.extend(self.radial)
        return out

    def total_mass(self):
        return float(sum(c.mass() for c in self.components()))

    def window_mass(self, window):
        start, length = window_span(window)
        return float(sum(np.asarray(c.window_mass(start, length)) for c in self.components()))

    def batch_window_masses(self, starts, length):
        """Window masses over the arcs of one length from the normalized starts.

        The starts may be a `ScanFamily`, which every component reads by lattice index.
        """
        if not isinstance(starts, ScanFamily):
            starts = np.asarray(starts, dtype=float)
        out = 0.0
        for c in self.components():
            out = out + np.asarray(c.window_mass(starts, length))
        return out

    def arc_mass(self, window):
        start, length = window_span(window)
        return float(sum(np.asarray(c.arc_mass(start, length)) for c in self.components()))

    def ac_grid(self, n):
        """Values of d(mu|T)/dm on the n-point grid (zero when there is no a.c. part)."""
        if self.ac is None:
            return np.zeros(n)
        with np.errstate(divide="ignore"):
            return np.asarray(self.ac.values(grid_angles(n)), dtype=float)

    def charges(self):
        """Whether the total mass is positive, the a.c. part read from its form, not integrated."""
        return any(not c.vanishes if c is self.ac else c.mass() > 0 for c in self.components())

    def carried_on_boundary(self):
        return (self.ac is not None and not self.ac.vanishes) or self.singular_atoms.mass() > 0

    # -- operations -------------------------------------------------------------

    def l2_norm(self, fn):
        """L2(mu) norm of the adapted function; may legitimately be +inf."""
        if not isinstance(fn, FunctionOnDisk):
            raise AdmissibilityError("l2_norm expects a FunctionOnDisk adapter")
        boundary_needed = self.carried_on_boundary()
        if boundary_needed and not fn.has_boundary_values:
            raise AdmissibilityError(
                "measure charges the boundary but the function declares no boundary values"
            )
        total = 0.0
        for c in self.components():
            total += c.l2(fn)
            if not np.isfinite(total):
                return np.inf
        return float(np.sqrt(total))

    def weighted(self, weight):
        """Componentwise reweighting d(nu) = w d(mu)."""
        return DiskMeasure(
            disk_atoms=self.disk_atoms.weighted(weight),
            ac=self.ac.weighted(weight.boundary) if self.ac is not None else None,
            singular_atoms=self.singular_atoms.weighted(weight),
            radial=[r.weighted(weight) for r in self.radial],
            label=self.label,
        )

    def scaled(self, t):
        if t < 0:
            raise DomainError("scale must be nonnegative")
        return DiskMeasure(
            disk_atoms=self.disk_atoms.scaled(t),
            ac=self.ac.scaled(t) if self.ac is not None else None,
            singular_atoms=self.singular_atoms.scaled(t),
            radial=[r.scaled(t) for r in self.radial],
            label=self.label,
        )

    def plus(self, other):
        if (self.ac is not None) and (other.ac is not None):
            raise ConfigurationError("cannot merge two a.c. parts; combine densities first")
        return DiskMeasure(
            disk_atoms=DiskAtoms(
                np.concatenate([self.disk_atoms.points, other.disk_atoms.points]),
                np.concatenate([self.disk_atoms.weights, other.disk_atoms.weights]),
            ),
            ac=self.ac if self.ac is not None else other.ac,
            singular_atoms=SingularAtoms(
                np.concatenate([self.singular_atoms.angles, other.singular_atoms.angles]),
                np.concatenate([self.singular_atoms.weights, other.singular_atoms.weights]),
            ),
            radial=self.radial + other.radial,
            label=self.label or other.label,
        )

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        doc = {
            "disk_atoms": self.disk_atoms.to_json(),
            "ac_density": self.ac.to_json() if self.ac is not None else None,
            "singular_atoms": self.singular_atoms.to_json(),
            "radial": [r.to_json() for r in self.radial],
        }
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc):
        atoms = doc.get("disk_atoms") or []
        disk = DiskAtoms([complex(a[0], a[1]) for a in atoms], [a[2] for a in atoms])
        ac_doc = doc.get("ac_density")
        ac = None
        if ac_doc:
            if "grid" in ac_doc:
                ac = GridArcWeight(np.asarray(ac_doc["grid"], dtype=float))
            elif "power" in ac_doc:
                p = ac_doc["power"]
                beta = float(p["beta"])
                if beta >= 1.0:
                    raise DomainError("boundary power beta >= 1 gives an infinite measure")
                ac = PowerArcWeight(-beta, float(p.get("scale", 1.0)),
                                    float(p.get("singularity_angle", 0.0)))
            else:
                raise ConfigurationError(f"unknown ac_density form: {sorted(ac_doc)}")
        sing = doc.get("singular_atoms") or []
        singular = SingularAtoms([s[0] for s in sing], [s[1] for s in sing])
        radial = [
            RadialPower(float(r.get("angle", 0.0)), float(r["power_beta"]),
                        float(r.get("scale", 1.0)), float(r.get("r0", 0.0)))
            for r in (doc.get("radial") or [])
        ]
        return cls(disk_atoms=disk, ac=ac, singular_atoms=singular, radial=radial,
                   label=doc.get("label"))


class PairWeight:
    """Bundle of boundary/point callables used by DiskMeasure.weighted."""

    def __init__(self, boundary, point):
        self.boundary = boundary
        self.point = point

    @classmethod
    def constant(cls, c):
        return cls(lambda t: np.full(np.shape(t), float(c)),
                   lambda z: np.full(np.shape(z), float(c)))


def window_mass(measure, window):
    """Mass of the Carleson window over the arc."""
    return measure.window_mass(window)


def weight_measure(measure, weight):
    """d(nu) = w d(mu) with w a PairWeight (boundary and interior callables)."""
    return measure.weighted(weight)


def l2mu_norm(fn, measure):
    """L2(mu) norm of an adapted function; +inf is a legal value."""
    return measure.l2_norm(fn)
