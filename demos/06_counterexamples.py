"""The two counterexample constructions, plus isometry and sampling refutations.

First: a Blaschke factor with zeros 1 - 2^-n destroys the corona property
while the weighted measure stays tame, so the embedding fails along the
zeros.  Second: a two-plateau oscillating modulus keeps the corona property
but breaks the Muckenhoupt condition on a shrinking family of arcs.
"""

import numpy as np

from hbspace import (
    DiskMeasure,
    a2_check,
    a2_product,
    corona_check,
    isometry_refutation,
    norm_equivalence_verdict,
    sampling_refutation,
)
from hbspace.scenarios import build, kappa_mass_growth

print("== corona failure along Blaschke zeros ==")
sc = build("boundary-beta", {"alpha": 0.4, "beta": 0.6})
cor = corona_check(sc.pair, depth=12)
print("verdict:", cor.verdict())
print("level minima of |a| + |b| (these are c 2^(-0.4 n) at the zeros):")
print("  ", [f"{v:.4f}" for v in cor.per_level])
slope = kappa_mass_growth(sc.pair, sc.measure)
print(f"kernel masses against |1-z|^-0.6 dm grow at rate {slope:.4f} per index "
      f"(predicted {0.6 * np.log(2):.4f}) while the space norms stay at one")

print("\n== oscillating weight: corona holds, the weight condition fails ==")
osc = build("oscillating-a2", {"rate": 1.2, "n_max": 8})
print("corona:", corona_check(osc.pair, depth=12).verdict())
scan = a2_check(osc.weight, depth=14)
print("weight-condition scan:", scan.verdict(), f"(sup {scan.value:.2f})")
print("products on the pinch arcs K_n against the plateau reciprocals:")
for n in range(3, 9):
    p = a2_product(osc.weight, osc.extras["k_arcs"][n])
    print(f"  K_{n}: product {p:9.4f}   1/beta_n {1 / osc.extras['betas'][n]:9.2f}")

print("\n== no equivalent norm without both properties ==")
rep = norm_equivalence_verdict(sc.pair, DiskMeasure.lebesgue(), depth=10)
print("Blaschke pair with Lebesgue measure:", rep.overall,
      "(corona:", rep.conditions["EquivNorm.corona"].verdict + ")")

print("\n== no isometric measures for non-constant symbols ==")
alpha = build("alpha-power")
cert = isometry_refutation(alpha.pair)
print(f"||z^{cert['index']}||_b^2 = {cert['norm_squared_monomial']:.6f} exceeds "
      f"||1||_b^2 = {cert['norm_squared_one']:.6f}")
print("note:", cert["note"])

print("\n== no sampling sequences for non-inner symbols ==")
rep = sampling_refutation(alpha.pair, [1 - 2.0 ** (-n) for n in range(1, 10)], depth=8)
print("induced atomic measure verdict:", rep.overall)
print("reason:", rep.diagnostics["certificate"])
