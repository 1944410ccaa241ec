"""Refinement bookkeeping shared by every analyzer.

All verdicts in this package are three-valued (pass / fail / undetermined)
and must carry numeric evidence at two resolutions.  The helpers here
implement the two global rules:

* stabilization: successive refinements agree to a relative tolerance;
* divergence: the magnitude grows by a factor >= DIVERGENCE_FACTOR for
  DIVERGENCE_RUNS consecutive refinements (distinguishes log/power-type
  divergence from quadrature noise).
"""

from dataclasses import dataclass, field

import numpy as np

DIVERGENCE_FACTOR = 1.25
DIVERGENCE_RUNS = 3

#: default uniform-grid exponent (N = 2**14 boundary samples)
DEFAULT_GRID_EXPONENT = 14
#: default dyadic scan depth
DEFAULT_DEPTH = 14
#: Toeplitz truncation ladder
DEFAULT_TRUNCATION = 2048
TRUNCATION_CAP = 2 ** 16


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class RefinementTrace:
    """Sequence of values produced by successive grid doublings."""

    sizes: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def add(self, size, value):
        self.sizes.append(int(size))
        self.values.append(float(value))

    @property
    def last_pair(self):
        if len(self.values) >= 2:
            return (self.values[-2], self.values[-1])
        return tuple(self.values)

    def stabilized(self, rtol=1e-6, atol=1e-12):
        if len(self.values) < 2:
            return False
        a, b = self.values[-2], self.values[-1]
        if not (np.isfinite(a) and np.isfinite(b)):
            return False
        return abs(b - a) <= max(atol, rtol * abs(b))

    def divergent(self, factor=DIVERGENCE_FACTOR, runs=DIVERGENCE_RUNS):
        """True once |value| has grown by >= factor over `runs` consecutive refinements."""
        v = np.abs(np.asarray(self.values, dtype=float))
        if np.any(~np.isfinite(v)):
            return True
        consec = 0
        for prev, cur in zip(v[:-1], v[1:]):
            if prev > 0 and cur / prev >= factor:
                consec += 1
                if consec >= runs:
                    return True
            else:
                consec = 0
        return False


def refine_until(evaluate, start_exponent, cap_exponent, rtol=1e-6, atol=1e-12):
    """Run `evaluate(n)` on n = 2**k for k = start..cap, recording a trace.

    Stops early on stabilization or once the divergence rule fires.
    Returns (trace, status) with status in {"stabilized", "divergent", "capped"}.
    """
    trace = RefinementTrace()
    for k in range(start_exponent, cap_exponent + 1):
        n = 2 ** k
        trace.add(n, evaluate(n))
        if trace.divergent():
            return trace, "divergent"
        if trace.stabilized(rtol=rtol, atol=atol):
            return trace, "stabilized"
    return trace, "capped"


def growth_exponent(lengths, values):
    """Least-squares slope of log(value) against log(length).

    A value behaving like length**e yields e; entries that are zero,
    negative or non-finite are dropped.  Returns nan when fewer than two
    usable points remain.
    """
    x = np.asarray(lengths, dtype=float)
    y = np.asarray(values, dtype=float)
    mask = np.isfinite(y) & (y > 0) & np.isfinite(x) & (x > 0)
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0]
    return float(slope)


def dyadic_arcs(level):
    """Normalized start positions of the dyadic and half-shifted arcs at `level`.

    Arcs have normalized length 2**-level; the returned pair is
    (starts of the aligned family, starts of the half-shifted family).
    """
    count = 2 ** level
    starts = np.arange(count, dtype=float) / count
    return starts, (starts + 0.5 / count) % 1.0
