"""Named constructors for the worked examples, bundled with expected outcomes.

Each scenario builds deterministic objects from its parameters and carries a
list of expectations (analyzer keyword, expected token, one-line basis) used
for regression runs.  run_all executes everything and reports mismatches with
the full analysis attached.
"""

from dataclasses import dataclass, field

import numpy as np

from .analyzers import (
    a2_check,
    carleson_sup_scan,
    corona_check,
    direct_carleson_verdict,
    reverse_carleson_verdict,
    symbol_reverse_feasibility,
)
from .errors import DomainError
from .functions import PowerOuter, outer_from_log_modulus
from .measures import (
    ArcWindow,
    DiskMeasure,
    PiecewiseBoundaryWeight,
)
from .space import (
    PythagoreanPair,
    SymbolB,
    classify_extremeness,
    l1_gap_test,
    pythagorean_mate,
    pair_from_outer_a,
)

TWO_PI = 2.0 * np.pi


@dataclass
class Expectation:
    analyzer: str
    expected: str
    basis: str


@dataclass
class Scenario:
    name: str
    params: dict
    symbol: SymbolB | None = None
    pair: PythagoreanPair | None = None
    measure: DiskMeasure | None = None
    weight: object | None = None
    expected: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_half_sum(params):
    b = SymbolB.rational([0.5, 0.5])
    pair = pythagorean_mate(b)
    return Scenario(
        name="half-sum",
        params=params,
        symbol=b,
        pair=pair,
        expected=[
            Expectation("extremeness", "non-extreme",
                        "1 - |b| vanishes only quadratically at one point"),
            Expectation("mate-closed-form", "match",
                        "the mate of (1+z)/2 is (1-z)/2"),
            Expectation("reverse-feasibility", "no",
                        "(1 - |b|)^-1 behaves like theta^-2, not integrable"),
            Expectation("corona", "pass",
                        "|a| + |b| >= |a + b| = 1 everywhere on the disk"),
        ],
    )


def _build_alpha_power(params):
    alpha = float(params.get("alpha", 0.25))
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2); got {alpha}")
    pair = pair_from_outer_a(PowerOuter(alpha))
    return Scenario(
        name="alpha-power",
        params={"alpha": alpha},
        symbol=pair.b,
        pair=pair,
        weight=pair.gap2_weight,
        expected=[
            Expectation("extremeness", "non-extreme",
                        "1 - |b|^2 = |a|^2 has an integrable logarithm"),
            Expectation("a2", "pass",
                        "|1 - z|^(2 alpha) with 2 alpha < 1 is a Muckenhoupt weight"),
            Expectation("corona", "pass",
                        "|b| stays bounded below near the only zero of a"),
            Expectation("in-h2", "yes",
                        "(1 - |b|)^-1 ~ |theta|^(-2 alpha) is integrable"),
        ],
    )


def _build_blaschke_corona(params):
    alpha = float(params.get("alpha", 0.4))
    n_zeros = int(params.get("n_zeros", 12))
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2); got {alpha}")
    if not 1 <= n_zeros <= 40:
        raise DomainError("n_zeros out of range [1, 40]")
    a = PowerOuter(alpha)
    zeros = [1.0 - 2.0 ** (-n) for n in range(1, n_zeros + 1)]
    b = SymbolB.inner_times_outer(
        zeros,
        lambda t: np.sqrt(np.clip(1.0 - a.boundary_modulus(t) ** 2, 0.0, None)),
        admissible_for="all",
    )
    # the pair keeps the declared power a: no constructor builds b = B u from a mate
    pair = PythagoreanPair(b, a, classify_extremeness(b))
    return Scenario(
        name="blaschke-corona",
        params={"alpha": alpha, "n_zeros": n_zeros},
        symbol=b,
        pair=pair,
        extras={"zeros": zeros},
        expected=[
            Expectation("corona", "fail",
                        "|a| + |b| -> 0 along the Blaschke zeros 1 - 2^-n"),
        ],
    )


def oscillating_modulus(rate=1.2, n_max=8, n_min=3):
    """The two-plateau weight: 1/2 on the J intervals, beta_n = 2^(-rate n) on the I
    intervals, cubic smoothstep joins over the 2^-3n gaps, symmetric in t -> -t.

    The interval formulas only separate once the gap scale 2^-3n drops below
    the interval scale 2^-2n, so the ladder starts at n_min = 3.
    """
    if n_max < n_min:
        raise DomainError(f"need n_max >= {n_min}")
    betas = {n: 2.0 ** (-rate * n) for n in range(n_min, n_max + 2)}
    # summability of both plateau series must hold before the weight is usable
    log_terms = [2.0 ** (-2 * n) * np.log(1.0 / betas[n]) for n in range(n_min, n_max + 2)]
    inv_terms = [2.0 ** (-2 * n) / betas[n] for n in range(n_min, n_max + 2)]
    if not (
        all(b <= a for a, b in zip(log_terms, log_terms[1:]))
        and all(b <= a for a, b in zip(inv_terms, inv_terms[1:]))
    ):
        raise DomainError(
            "plateau series terms are not decreasing; the weight would not be usable"
        )
    half = []  # pieces on [0, pi], as (lo, hi, v0, v1)
    i_left = lambda n: 2.0 ** (-2 * n - 1) + 2.0 ** (-3 * n)
    i_right = lambda n: 2.0 ** (-2 * n) - 2.0 ** (-3 * n)
    j_left = lambda n: 2.0 ** (-2 * n) + 2.0 ** (-3 * n)
    j_right = lambda n: 2.0 ** (-2 * n + 1) - 2.0 ** (-3 * n)
    inner_edge = 2.0 ** (-2 * n_max - 1) - 2.0 ** (-3 * (n_max + 1))
    half.append((0.0, inner_edge, 0.5, 0.5))
    half.append((inner_edge, i_left(n_max), 0.5, betas[n_max]))
    for n in range(n_max, n_min - 1, -1):
        half.append((i_left(n), i_right(n), betas[n], betas[n]))
        half.append((i_right(n), j_left(n), betas[n], 0.5))
        half.append((j_left(n), j_right(n), 0.5, 0.5))
        if n > n_min:
            half.append((j_right(n), i_left(n - 1), 0.5, betas[n - 1]))
    half.append((j_right(n_min), np.pi, 0.5, 0.5))
    pieces = list(half)
    for lo, hi, v0, v1 in half:  # mirror to (pi, 2*pi)
        pieces.append((TWO_PI - hi, TWO_PI - lo, v1, v0))
    k_arcs = {
        n: ArcWindow.from_span(i_left(n) / TWO_PI, (j_right(n) - i_left(n)) / TWO_PI)
        for n in range(n_min, n_max + 1)
    }
    return PiecewiseBoundaryWeight(pieces), betas, k_arcs


def _build_oscillating_a2(params):
    rate = float(params.get("rate", 1.2))
    n_max = int(params.get("n_max", 8))
    if not 0.0 < rate < 2.0:
        raise DomainError("rate must lie in (0, 2) for both plateau series to converge")
    u, betas, k_arcs = oscillating_modulus(rate, n_max)
    pair = pair_from_outer_a(outer_from_log_modulus(u.values))
    return Scenario(
        name="oscillating-a2",
        params={"rate": rate, "n_max": n_max},
        symbol=pair.b,
        pair=pair,
        weight=u,
        extras={"betas": betas, "k_arcs": k_arcs},
        expected=[
            Expectation("corona", "pass",
                        "|b| is bounded below by about sqrt(1/2) near the plateau region"),
            Expectation("a2", "fail",
                        "products on the K_n arcs grow like 1/beta_n"),
        ],
    )


def _build_gauss_extreme(params):
    def modulus(t):
        t = np.asarray(t, dtype=float)
        theta = np.angle(np.exp(1j * t))
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 - np.exp(-1.0 / np.where(theta == 0, np.inf, theta**2))

    def gap_log(t):
        t = np.asarray(t, dtype=float)
        theta = np.angle(np.exp(1j * t))
        with np.errstate(divide="ignore"):
            return -1.0 / np.where(theta == 0, 0.0, theta**2)

    b = SymbolB.modulus_only(modulus, gap_log_fn=gap_log)
    return Scenario(
        name="gauss-extreme",
        params=params,
        symbol=b,
        expected=[
            Expectation("extremeness", "extreme",
                        "the log of the gap behaves like -1/theta^2, not integrable"),
            Expectation("reverse-feasibility", "no",
                        "|b| < 1 off a single point while b is extreme"),
        ],
    )


def _build_mu_beta(params):
    beta = float(params.get("beta", 0.5))
    if not 0.0 < beta < 1.0:
        raise DomainError(
            f"beta must lie in (0, 1); beta = {beta} would give an infinite measure"
        )
    pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
    measure = DiskMeasure.radial_power(beta, label="mu-beta")
    return Scenario(
        name="mu-beta",
        params={"beta": beta},
        symbol=pair.b,
        pair=pair,
        measure=measure,
        expected=[
            Expectation("carleson-mu", "fail",
                        "window ratios at the ray grow like length^-beta"),
            Expectation("direct", "carleson-for-hb",
                        "|a|^2 tames the radial singularity at the point where a vanishes"),
        ],
    )


def _base(base, builder, params):
    """The scenario a dependent builds on: `base` when it was built with `params`, else a new one."""
    return base if base is not None and base.params == params else builder(params)


def _build_boundary_beta(params, base=None):
    alpha = float(params.get("alpha", 0.4))
    beta = float(params.get("beta", 0.6))
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1) for a finite boundary measure")
    if not 0.0 < beta <= 2.0 * alpha:
        raise DomainError("need beta <= 2*alpha so the weighted density stays bounded")
    base = _base(base, _build_blaschke_corona,
                 {"alpha": alpha, "n_zeros": int(params.get("n_zeros", 12))})
    measure = DiskMeasure.boundary_power(beta, label="boundary-beta")
    return Scenario(
        name="boundary-beta",
        params={"alpha": alpha, "beta": beta},
        symbol=base.symbol,
        pair=base.pair,
        measure=measure,
        extras=base.extras,
        expected=[
            Expectation("kernel-growth", "grows",
                        "normalized Cauchy-kernel masses along 1 - 2^-n grow like 2^(n beta)"),
            Expectation("corona", "fail",
                        "|a| + |b| -> 0 along the Blaschke zeros"),
        ],
    )


def _build_reverse_canonical(params, base=None):
    alpha = float(params.get("alpha", 0.25))
    sc = _base(base, _build_alpha_power, {"alpha": alpha})
    pair = sc.pair
    # (1 - |b|)^-1 dm, the pair's exact reciprocal gap weight times 1 + |b|
    measure = DiskMeasure(ac=pair.inverse_gap_weight, label="reverse-canonical")
    return Scenario(
        name="reverse-canonical",
        params={"alpha": alpha},
        symbol=pair.b,
        pair=pair,
        measure=measure,
        expected=[
            Expectation("reverse", "reverse-carleson",
                        "(1 - |b|^2)(1 - |b|)^-1 = 1 + |b| is bounded below by one"),
        ],
    )


BUILDERS = {
    "half-sum": _build_half_sum,
    "alpha-power": _build_alpha_power,
    "blaschke-corona": _build_blaschke_corona,
    "oscillating-a2": _build_oscillating_a2,
    "gauss-extreme": _build_gauss_extreme,
    "mu-beta": _build_mu_beta,
    "boundary-beta": _build_boundary_beta,
    "reverse-canonical": _build_reverse_canonical,
}
#: the catalog scenario each dependent builds its symbol and pair from
BASES = {"boundary-beta": "blaschke-corona", "reverse-canonical": "alpha-power"}


def catalog():
    return sorted(BUILDERS)


def build(name, params=None, base=None):
    """Construct a catalog scenario; unknown names and out-of-range parameters raise.

    A dependent (see BASES) handed its `base` scenario takes the base's symbol
    and pair when the base was built with the parameters it needs.
    """
    if name not in BUILDERS:
        raise DomainError(f"unknown scenario {name!r}; catalog: {', '.join(catalog())}")
    params = dict(params or {})
    return BUILDERS[name](params) if base is None else BUILDERS[name](params, base=base)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    analyzer: str
    expected: str
    actual: str
    ok: bool
    basis: str
    detail: dict = field(default_factory=dict)


def run_scenario(scenario, depth=12, seed=0):
    """Execute the scenario's analyzers and compare against expectations."""
    checks = []
    for exp in scenario.expected:
        actual, detail = _dispatch(scenario, exp.analyzer, depth, seed)
        checks.append(
            CheckResult(
                analyzer=exp.analyzer,
                expected=exp.expected,
                actual=actual,
                ok=(actual == exp.expected),
                basis=exp.basis,
                detail=detail,
            )
        )
    return {
        "name": scenario.name,
        "params": scenario.params,
        "ok": all(c.ok for c in checks),
        "checks": [c.__dict__ for c in checks],
    }


def _dispatch(scenario, analyzer, depth, seed):
    if analyzer in ("extremeness", "reverse-feasibility"):
        ext = (scenario.pair.extremeness if scenario.pair is not None
               else classify_extremeness(scenario.symbol))
        if analyzer == "extremeness":
            return ext.verdict, ext.to_json()
        out = symbol_reverse_feasibility(scenario.symbol, ext)
        return out["feasible"], out
    if analyzer == "mate-closed-form":
        a = scenario.pair.a
        target = np.array([0.5, -0.5])
        err = float(np.max(np.abs(a.num - target))) + float(np.max(np.abs(a.den - [1.0])))
        return ("match" if err < 1e-9 else "mismatch"), {"coefficient_error": err}
    if analyzer == "corona":
        scan = corona_check(scenario.pair, depth=depth)
        return scan.verdict(), scan.to_json()
    if analyzer == "a2":
        scan = a2_check(scenario.weight, depth=depth)
        return scan.verdict(), scan.to_json()
    if analyzer == "in-h2":
        out = l1_gap_test(scenario.pair)
        return out["feasible"], out
    if analyzer == "carleson-mu":
        scan = carleson_sup_scan(scenario.measure, depth=depth)
        return scan.verdict(), scan.to_json()
    if analyzer == "direct":
        rep = direct_carleson_verdict(scenario.pair, scenario.measure, depth=depth, seed=seed)
        return rep.overall, rep.to_json()
    if analyzer == "reverse":
        rep = reverse_carleson_verdict(scenario.pair, scenario.measure, depth=depth,
                                       kernel_depth=min(depth, 12))
        return rep.overall, rep.to_json()
    if analyzer == "kernel-growth":
        slope = kappa_mass_growth(scenario.pair, scenario.measure)
        beta = scenario.params["beta"]
        ok = abs(slope - beta * np.log(2.0)) <= 0.1 * beta * np.log(2.0)
        return ("grows" if ok else "off-rate"), {"slope": slope,
                                                 "target": beta * np.log(2.0)}
    raise DomainError(f"unknown analyzer key {analyzer!r}")


def kappa_mass_growth(pair, measure, n_range=range(4, 13)):
    """Fitted log-slope of the L2(mu) masses of normalized Cauchy kernels at 1 - 2^-n.

    The kernels share their focus angle, so a power density takes each norm
    at the same node angles, and e^(it) there is taken once for all of them.
    """
    from .measures import FunctionOnDisk, l2mu_norm

    last = [None, None]  # the angles last asked for, and e^(it) at them

    def circle(t):
        if last[0] is not t:
            last[:] = t, np.exp(1j * np.asarray(t))
        return last[1]

    vals = []
    for n in n_range:
        lam = 1.0 - 2.0 ** (-n)
        scale = np.sqrt(1.0 - lam**2)
        k = FunctionOnDisk(
            interior=lambda z, lam=lam, s=scale: s / (1.0 - lam * np.asarray(z)),
            boundary_angles=lambda t, lam=lam, s=scale: s / (1.0 - lam * circle(t)),
            focus_angles=(0.0,),
        )
        vals.append(l2mu_norm(k, measure) ** 2)
    return float(np.polyfit(np.asarray(list(n_range), dtype=float), np.log(vals), 1)[0])


def run_all(depth=12, seed=0, names=None):
    """Run every catalog scenario; mismatches carry the full analysis detail.

    Each scenario is built once: a dependent runs right after its base, on
    the base's objects, and the base is dropped after both, so that no more
    than one pair of scenarios is held at a time.  The results keep the
    order of `names`, the catalog's by default.
    """
    names = catalog() if names is None else list(names)
    dependent = {base: name for name, base in BASES.items() if name in names}
    results = {}
    for name in names:
        if name in results:
            continue
        scenario = build(name)
        results[name] = run_scenario(scenario, depth=depth, seed=seed)
        follower = dependent.get(name)
        if follower is not None and follower not in results:
            results[follower] = run_scenario(build(follower, base=scenario), depth=depth,
                                             seed=seed)
        del scenario
    results = [results[name] for name in names]
    return {
        "depth": depth,
        "seed": seed,
        "all_ok": all(r["ok"] for r in results),
        "scenarios": results,
    }
