"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here; nothing is deferred to later calibration.
"""

import json
import time

import numpy as np
import pytest

from hbspace.analyzers import (
    a2_check,
    a2_product,
    carleson_sup_scan,
    corona_check,
    ess_inf_weighted,
    isometry_refutation,
    kernel_ratio_scan,
    reverse_carleson_verdict,
    reverse_inf_scan,
)
from hbspace.circle import grid_angles
from hbspace.cli import main as cli_main
from hbspace.functions import (
    PowerOuter,
    fejer_riesz,
    modulus_squared_coeffs,
    trig_poly_values,
)
from hbspace.measures import (
    ArcWindow,
    DiskMeasure,
    FunctionOnDisk,
    PairWeight,
    PowerArcWeight,
    l2mu_norm,
)
from hbspace.scenarios import build, oscillating_modulus
from hbspace.space import (
    SymbolB,
    cauchy_kernel_taylor,
    classify_extremeness,
    hb_norm_squared,
    kernel_norm_closed_form,
    monomial_norm,
    pair_from_outer_a,
    pythagorean_mate,
)
from oracles import quadrature_depth_mass


def report(criterion, ok, detail):
    line = f"ACCEPT-{criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def half_sum():
    return pythagorean_mate(SymbolB.rational([0.5, 0.5]))


@pytest.fixture(scope="module")
def alpha_pair():
    return pair_from_outer_a(PowerOuter(0.25))


def test_criterion_01_kernel_norm_agreement(half_sum, alpha_pair):
    """Generic solver matches the closed-form Cauchy-kernel norm at 1e-6."""
    start = time.monotonic()
    worst = 0.0
    for pair in (half_sum, alpha_pair):
        for j in range(1, 9):
            r = 1.0 - 2.0 ** (-j)
            for angle in np.arange(5) * (2.0 * np.pi / 5.0):
                lam = r * np.exp(1j * angle)
                closed = kernel_norm_closed_form(lam, pair).norm_squared
                generic = hb_norm_squared(
                    cauchy_kernel_taylor(lam), pair, cross_check=False
                )
                rel = abs(np.sqrt(generic) - np.sqrt(closed)) / np.sqrt(closed)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-6 and elapsed <= 60.0,
           f"max rel err {worst:.2e} over 80 points, {elapsed:.1f}s")


def test_criterion_02_monomial_norm_agreement(alpha_pair):
    """||z^n||_b matches 1 + partial coefficient sums at 1e-6, nondecreasing."""
    coefficients = alpha_pair.b_over_a_taylor(65)
    worst = 0.0
    values = []
    for n in range(65):
        formula = np.sqrt(1.0 + np.sum(np.abs(coefficients[: n + 1]) ** 2))
        e_n = np.zeros(n + 1, dtype=complex)
        e_n[n] = 1.0
        solver = np.sqrt(hb_norm_squared(e_n, alpha_pair, cross_check=False))
        worst = max(worst, abs(solver - formula) / formula)
        values.append(formula)
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    report(2, worst <= 1e-6 and monotone,
           f"max rel err {worst:.2e} for n <= 64, nondecreasing={monotone}")


def test_criterion_03_window_mass_closed_form():
    """Radial power measure: analytic window masses exact, quadrature at 1e-9."""
    beta = 0.5
    mu = DiskMeasure.radial_power(beta)
    comp = mu.radial[0]
    rng = np.random.default_rng(0)
    worst_exact = 0.0
    worst_quad = 0.0
    for theta in rng.uniform(0.01, np.pi / 2, 20):
        win = ArcWindow(0.0, theta / np.pi)
        expect = (theta / (2 * np.pi)) ** (1 - beta) / (1 - beta)
        got = mu.window_mass(win)
        worst_exact = max(worst_exact, abs(got - expect) / expect)
        quad_val = quadrature_depth_mass(comp, win.depth)
        worst_quad = max(worst_quad, abs(quad_val - expect))
    report(3, worst_exact <= 1e-14 and worst_quad <= 1e-9,
           f"analytic rel err {worst_exact:.1e}, quadrature abs err {worst_quad:.1e}")


def test_criterion_04_carleson_dichotomy(half_sum):
    """mu_beta is not Carleson for H^2 (exponent -0.5) but |a|^2 mu is Carleson."""
    start = time.monotonic()
    mu = DiskMeasure.radial_power(0.5)
    scan_mu = carleson_sup_scan(mu, depth=14)
    weight = PairWeight(
        boundary=lambda t: half_sum.a.boundary_modulus(t) ** 2,
        point=lambda z: np.abs(half_sum.a(z)) ** 2,
    )
    scan_nu = carleson_sup_scan(mu.weighted(weight), depth=14)
    elapsed = time.monotonic() - start
    last2 = scan_nu.values[-2:]
    stable = abs(last2[1] - last2[0]) <= 0.05 * last2[1]
    ok = (
        abs(scan_mu.exponent + 0.5) <= 0.05
        and scan_mu.verdict() == "fail"
        and stable
        and scan_nu.verdict() == "pass"
        and elapsed <= 30.0
    )
    report(4, ok,
           f"mu exponent {scan_mu.exponent:.3f}, nu last-two change "
           f"{abs(last2[1] - last2[0]) / last2[1]:.2e}, {elapsed:.1f}s")


def test_criterion_05_a2_dichotomy():
    """|1-e|^0.5 satisfies the weight condition; |1-e|^1.5 fails at rate -0.5."""
    good = a2_check(PowerArcWeight(0.5), depth=14)
    bad = a2_check(PowerArcWeight(1.5), depth=14)
    ok = (
        good.verdict() == "pass"
        and bad.verdict() == "fail"
        and abs(bad.exponent + 0.5) <= 0.05
    )
    report(5, ok,
           f"pass sup {good.value:.4f}, fail exponent {bad.exponent:.3f}")


def test_criterion_06_reverse_equivalence(alpha_pair):
    """All three reverse conditions pass for (1-|b|^2)^-1 dm; a killed quarter
    arc zeroes the essential infimum and produces a kernel witness above 10."""
    c = 2.0 ** -0.25
    mu = DiskMeasure(ac=PowerArcWeight(-0.5, c**-2, 0.0), label="inv-gap")
    rep = reverse_carleson_verdict(alpha_pair, mu, depth=12, kernel_depth=10)
    ess = rep.conditions["MainThm.4"].value
    inf = rep.constants["reverse_window_inf"]
    pass_ok = (
        rep.overall == "reverse-carleson"
        and all(rep.conditions[k].verdict == "pass"
                for k in ("MainThm.2", "MainThm.3", "MainThm.4"))
        and abs(ess - 1.0) <= 1e-9
        and inf >= 0.99
    )

    n = 2 ** 13
    t = grid_angles(n)
    gap2 = alpha_pair.gap2_grid(n)
    h = np.where((t > 3 * np.pi / 4) & (t < 5 * np.pi / 4), 0.0,
                 1.0 / np.maximum(gap2, 1e-300))
    h[gap2 == 0] = 0.0
    dead = DiskMeasure.from_density_grid(h, label="killed-quarter")
    rep2 = reverse_carleson_verdict(alpha_pair, dead, depth=12, kernel_depth=12)
    witness = rep2.constants["kernel_ratio_max"]
    fail_ok = rep2.conditions["MainThm.4"].value == 0.0 and witness > 10.0
    report(6, pass_ok and fail_ok,
           f"ess inf {ess:.12f}, window inf {inf:.6f}, witness ratio {witness:.1f}")


def test_criterion_07_blaschke_example():
    """Kernel masses grow like 2^(n beta) while the space norms stay at one,
    and the corona minima decay below 0.05 along the zeros."""
    sc = build("boundary-beta", {"alpha": 0.4, "beta": 0.6})
    pair, mu = sc.pair, sc.measure
    ns = np.arange(4, 13)
    masses = []
    norm_err = 0.0
    for n in ns:
        lam = 1.0 - 2.0 ** (-int(n))
        s = np.sqrt(1.0 - lam**2)
        k = FunctionOnDisk(
            interior=lambda z, lam=lam, s=s: s / (1.0 - lam * np.asarray(z)),
            boundary_angles=lambda t, lam=lam, s=s: s / (1.0 - lam * np.exp(1j * np.asarray(t))),
            focus_angles=(0.0,),
        )
        masses.append(l2mu_norm(k, mu) ** 2)
        kp = kernel_norm_closed_form(lam, pair)
        norm_err = max(norm_err, abs(np.sqrt(kp.norm_squared * (1.0 - lam**2)) - 1.0))
    slope = float(np.polyfit(ns.astype(float), np.log(masses), 1)[0])
    target = 0.6 * np.log(2.0)
    cor = corona_check(pair, depth=12)
    monotone = all(b <= a for a, b in zip(cor.per_level, cor.per_level[1:]))
    ok = (
        abs(slope - target) <= 0.1 * target
        and norm_err <= 1e-6
        and monotone
        and cor.per_level[11] < 0.05
    )
    report(7, ok,
           f"mass slope {slope:.4f} vs {target:.4f}, kernel norm err {norm_err:.1e}, "
           f"corona min(12) {cor.per_level[11]:.4f}")


def test_criterion_08_oscillating_weight():
    """Corona passes while the weight-condition products on the K_n arcs grow
    at the predicted reciprocal-plateau rate, within 25%."""
    sc = build("oscillating-a2", {"rate": 1.2, "n_max": 8})
    cor = corona_check(sc.pair, depth=12)
    u = sc.weight
    betas = sc.extras["betas"]
    k_arcs = sc.extras["k_arcs"]
    products = {n: a2_product(u, k_arcs[n]) for n in range(3, 9)}
    worst = 0.0
    for n in range(3, 8):
        growth = products[n + 1] / products[n]
        predicted = betas[n] / betas[n + 1]
        worst = max(worst, abs(growth / predicted - 1.0))
    ok = cor.verdict() == "pass" and worst <= 0.25
    report(8, ok, f"corona {cor.verdict()}, K_n growth deviation {worst:.1%}")


def test_criterion_09_extremeness_classification(half_sum):
    """Divergence fires for the boundary-flat modulus, the rational symbol
    stabilizes, and the shift is extreme."""
    gauss = build("gauss-extreme")
    v1 = classify_extremeness(gauss.symbol, cap_exponent=16)
    fired_by_cap = v1.verdict == "extreme" and max(v1.trace_sizes) <= 2 ** 16
    v2 = half_sum.extremeness
    v3 = classify_extremeness(SymbolB.rational([0.0, 1.0]))
    ok = (
        fired_by_cap
        and v2.verdict == "non-extreme"
        and np.isfinite(v2.log_integral)
        and v3.verdict == "extreme"
    )
    report(9, ok,
           f"gauss extreme by {max(v1.trace_sizes)}, half-sum integral "
           f"{v2.log_integral:.6f}, shift {v3.verdict}")


def test_criterion_10_isometry_refutation(alpha_pair):
    """Certificate coefficient below degree 16 for the power pair; Lebesgue
    branch for the constant symbol."""
    cert = isometry_refutation(alpha_pair)
    const = isometry_refutation(pythagorean_mate(SymbolB.constant(0.5)))
    ok = (
        cert["kind"] == "certificate"
        and cert["index"] <= 16
        and cert["coefficient_magnitude_squared"] > 1e-10
        and const["kind"] == "constant-symbol"
        and const["isometric_measure"] == "lebesgue"
    )
    report(10, ok,
           f"certificate index {cert['index']} with |c|^2 = "
           f"{cert['coefficient_magnitude_squared']:.3e}; constant branch ok")


def test_criterion_11_fejer_riesz_correctness():
    """25 random factorizations: boundary error 1e-8, roots outside, q(0) > 0."""
    rng = np.random.default_rng(42)
    theta = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    worst = 0.0
    for _ in range(25):
        deg = int(rng.integers(1, 13))
        roots = rng.uniform(1.05, 3.0, deg) * np.exp(2j * np.pi * rng.uniform(0, 1, deg))
        q = np.array([1.0 + 0j])
        for r in roots:
            q = np.polynomial.polynomial.polymul(q, [-r, 1.0])
        scale = np.sqrt(np.max(np.abs(np.polynomial.polynomial.polyval(
            np.exp(1j * theta[::16]), q)) ** 2))
        q /= scale
        tau = modulus_squared_coeffs(q)
        fact = fejer_riesz(tau)
        recon = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), fact.q)) ** 2
        err = np.max(np.abs(recon - trig_poly_values(tau, theta)))
        worst = max(worst, err)
        mods = np.abs(np.polynomial.polynomial.polyroots(fact.q))
        assert np.min(mods) >= 1.0 - 1e-9
        assert fact.q[0].real > 0 and abs(fact.q[0].imag) < 1e-9 * abs(fact.q[0])
    report(11, worst <= 1e-8, f"max boundary error {worst:.2e} over 25 draws")


def test_criterion_12_determinism(tmp_path):
    """Repeated scenario runs with a fixed seed emit byte-identical reports."""
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = cli_main(["scenario", "run", "mu-beta", "--param", "beta=0.5",
                         "--depth", "10", "--seed", "11", "--out", str(out)])
        assert code == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(12, identical, f"{out1.stat().st_size} bytes, identical={identical}")
