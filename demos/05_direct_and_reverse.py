"""Direct and reverse embedding verdicts.

The radial measure (1-t)^-0.5 is the classic separator: it embeds the space
of (1+z)/2 continuously (the mate's square modulus tames the singularity at
the point where the window ratios blow up) while failing the unweighted
window condition.  On the reverse side, the density (1 - |b|^2)^-1 is the
canonical measure whose weighted window ratios are exactly one.
"""

import numpy as np

from hbspace import (
    DiskMeasure,
    PowerOuter,
    SymbolB,
    direct_carleson_verdict,
    pair_from_outer_a,
    pythagorean_mate,
    reverse_carleson_verdict,
)
from hbspace.circle import grid_angles
from hbspace.measures import PowerArcWeight

print("== direct dichotomy ==")
half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
mu = DiskMeasure.radial_power(0.5)
rep = direct_carleson_verdict(half_sum, mu, depth=14)
print("overall:", rep.overall)
print("unweighted window condition:", rep.conditions["H2Window.mu"].verdict,
      f"(growth exponent {rep.conditions['H2Window.mu'].evidence['exponent']:.3f})")
print("weighted |a|^2 mu condition:", rep.conditions["CorRationnel.nu"].verdict,
      f"(sup {rep.conditions['CorRationnel.nu'].value:.6f})")
print("decomposition certificate:", rep.diagnostics["falpha_certificate"])

print("\n== reverse: canonical pass case ==")
alpha_pair = pair_from_outer_a(PowerOuter(0.25))
c = 2.0 ** -0.25
inv_gap = DiskMeasure(ac=PowerArcWeight(-0.5, c**-2, 0.0), label="inv-gap")
rep = reverse_carleson_verdict(alpha_pair, inv_gap, depth=12, kernel_depth=10)
print("overall:", rep.overall)
for key in ("MainThm.2", "MainThm.3", "MainThm.4"):
    cond = rep.conditions[key]
    print(f"  {key}: {cond.verdict}  value {cond.value}")

print("\n== reverse: a dead quarter arc ==")
n = 2 ** 13
t = grid_angles(n)
gap2 = alpha_pair.gap2_grid(n)
h = np.where((t > 3 * np.pi / 4) & (t < 5 * np.pi / 4), 0.0,
             1.0 / np.maximum(gap2, 1e-300))
h[gap2 == 0] = 0.0
dead = DiskMeasure.from_density_grid(h)
rep = reverse_carleson_verdict(alpha_pair, dead, depth=12, kernel_depth=12)
print("overall:", rep.overall)
print("essential infimum:", rep.conditions["MainThm.4"].value)
print("kernel witness:", rep.witnesses["kernel_lambda"])

print("\n== reverse: symbol-level obstruction ==")
rep = reverse_carleson_verdict(half_sum, DiskMeasure.lebesgue(), depth=10,
                               kernel_depth=8)
print("overall:", rep.overall)
print("certificate:", rep.diagnostics["symbol_certificate"])
