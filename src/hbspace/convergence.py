"""Refinement ladders and the one table of rules that reads them.

All verdicts in this package are three-valued (pass / fail / undetermined)
and carry numeric evidence at two resolutions.  A verdict reads a ladder:
the values of one quantity at successive refinements (grid doublings, scan
levels, truncations).  Each ladder names one rule of RULES, which says

* stabilization: the last two rungs agree to max(atol, rtol * |last|);
* divergence: the value rises by a factor >= DIVERGENCE_FACTOR over `runs`
  consecutive rungs (telling log/power-type divergence from quadrature
  noise), a value is NaN or +inf, or the values grow at least like
  size^(-trend) over the last `trend_rungs` rungs.

A ladder in 'inf' mode tracks a quantity that must stay positive: it
diverges ("decays") when its reciprocals do, a rung at or below the rule's
floor counting as an infinite reciprocal.
"""

from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"

DIVERGENCE_FACTOR = 1.25
_TINY = 1e-300  # least scale of the relative tolerance

#: default uniform-grid exponent (N = 2**14 boundary samples)
DEFAULT_GRID_EXPONENT = 14
#: default dyadic scan depth
DEFAULT_DEPTH = 14
#: Toeplitz truncation ladder
DEFAULT_TRUNCATION = 2048
TRUNCATION_CAP = 2 ** 16


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Rule:
    """How a ladder is read; None switches a divergence test off."""

    name: str
    rtol: float  # stabilization window, relative to the last rung
    atol: float = 0.0
    floor: float = 0.0  # inf mode: a rung at or below it has decayed
    runs: int | None = 3  # consecutive rises by DIVERGENCE_FACTOR that diverge
    trend: float | None = None  # diverge once the exponent against 1/size is at most this
    trend_rungs: int = 8


RULES = {rule.name: rule for rule in (
    Rule("scan", rtol=0.05),
    Rule("corona", rtol=0.05, floor=1e-12),
    Rule("kernel", rtol=0.25, trend=-0.1),
    Rule("grid-integral", rtol=1e-3, atol=1e-6),
    Rule("hb-norm", rtol=1e-8, runs=None),
)}


def _rises(values, runs):
    """True once `values` rise by DIVERGENCE_FACTOR `runs` times in a row, or hold NaN or +inf."""
    v = np.asarray(values, dtype=float)
    if np.any(np.isnan(v) | (v == np.inf)):
        return True
    consec = 0
    for prev, cur in zip(v[:-1], v[1:]):
        if prev > 0 and cur / prev >= DIVERGENCE_FACTOR:
            consec += 1
            if consec >= runs:
                return True
        else:
            consec = 0
    return False


@dataclass(kw_only=True)
class Ladder:
    """Values of one quantity at successive refinements, read by one rule of RULES."""

    rule: Rule
    mode: str = "sup"  # 'sup': must stay bounded; 'inf': must stay positive
    sizes: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def add(self, size, value):
        self.sizes.append(int(size))
        self.values.append(float(value))

    @property
    def value(self):
        return self.values[-1]

    def resolutions(self):
        """The last two rungs, the evidence every verdict carries."""
        return tuple(self.values[-2:])

    def stabilized(self):
        rtol, atol = self.rule.rtol, self.rule.atol
        if len(self.values) < 2:
            return False
        prev, last = self.values[-2:]
        return bool(np.isfinite(last)
                    and abs(last - prev) <= max(atol, rtol * max(abs(last), _TINY)))

    def _series(self):
        """The values the divergence tests read: in inf mode the reciprocals above the floor."""
        if self.mode == "inf":
            return [1.0 / v if v > self.rule.floor else np.inf for v in self.values]
        return self.values

    def divergent(self):
        """Divergence in sup mode; in inf mode, decay: the reciprocals above the floor diverge."""
        if self.rule.runs is not None and _rises(self._series(), self.rule.runs):
            return True
        if self.rule.trend is None:
            return False
        exponent = self.trend_exponent()
        return bool(np.isfinite(exponent) and exponent <= self.rule.trend)

    def trend_exponent(self):
        """Slope of log(value) against log(1/size) over the rule's last trend_rungs rungs.

        In inf mode the values are the reciprocals, so that decay reads as growth.
        """
        tail = self.rule.trend_rungs
        return growth_exponent([1.0 / s for s in self.sizes[-tail:]], self._series()[-tail:])

    def verdict(self):
        if self.divergent():
            return FAIL
        if self.stabilized():
            return PASS
        return UNDETERMINED


def refine(evaluate, sizes, rule):
    """Evaluate a sup ladder rung by rung over `sizes` until it diverges or stabilizes."""
    ladder = Ladder(rule=rule)
    for n in sizes:
        ladder.add(n, evaluate(n))
        if ladder.divergent() or ladder.stabilized():
            break
    return ladder


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

