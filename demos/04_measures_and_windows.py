"""Measures on the closed disk and their Carleson windows.

The window over an arc I is the box of depth m(I)/2; masses are exact for
closed-form components (the radial family (1-t)^-beta, boundary power
densities) and piecewise-exact for grid densities.
"""

import numpy as np

from hbspace import (
    ArcWindow,
    DiskMeasure,
    FunctionOnDisk,
    PairWeight,
    SymbolB,
    l2mu_norm,
    pythagorean_mate,
    weight_measure,
    window_mass,
)

print("== window masses ==")
leb = DiskMeasure.lebesgue()
print("Lebesgue, arc of length 1/4:", window_mass(leb, ArcWindow(0.0, 0.25)))

beta = 0.5
mu = DiskMeasure.radial_power(beta)
theta = 0.3
win = ArcWindow(0.0, theta / np.pi)
print(f"radial (1-t)^-{beta}, arc (e^-i{theta}, e^i{theta}):",
      window_mass(mu, win), " closed form:",
      (theta / (2 * np.pi)) ** (1 - beta) / (1 - beta))

atom = DiskMeasure.point_mass(0.5, 2.0)
print("atom at 0.5, shallow window:", window_mass(atom, ArcWindow(0.0, 0.2)),
      " full-depth window:", window_mass(atom, ArcWindow(0.0, 1.0)))

print("\n== weighting by |a|^2 ==")
pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
# on the circle, the pair's gap weight: |a|^2 = |1 - e^(it)|^2 / 4 with its zero exact
w = PairWeight(boundary=pair.gap2_weight, point=lambda z: np.abs(pair.a(z)) ** 2)
nu = weight_measure(mu, w)
print("the ray density becomes (1-t)^(2-beta)/4; window ratios now shrink:")
for length in (0.5, 0.1, 0.01):
    r_mu = window_mass(mu, ArcWindow(0.0, length)) / length
    r_nu = window_mass(nu, ArcWindow(0.0, length)) / length
    print(f"  length {length:5}: mu ratio {r_mu:9.4f}   |a|^2 mu ratio {r_nu:.6f}")

print("\n== L2(mu) norms ==")
ones = FunctionOnDisk(interior=lambda z: np.ones_like(np.asarray(z)),
                      boundary_angles=lambda t: np.ones_like(np.asarray(t)))
print("||1|| = sqrt(total mass):", l2mu_norm(ones, mu), np.sqrt(mu.total_mass()))

bb = DiskMeasure.boundary_power(0.6)
print("normalized Cauchy kernels against |1-z|^-0.6 dm grow like 2^(0.3 n):")
for n in (4, 8, 12):
    lam = 1 - 2.0 ** (-n)
    s = np.sqrt(1 - lam**2)
    k = FunctionOnDisk(
        interior=lambda z, lam=lam, s=s: s / (1 - lam * np.asarray(z)),
        boundary_angles=lambda t, lam=lam, s=s: s / (1 - lam * np.exp(1j * np.asarray(t))),
        focus_angles=(0.0,),
    )
    print(f"  n={n:2d}: ||kappa||_mu = {l2mu_norm(k, bb):.4f}")

print("\n== serialization ==")
doc = mu.to_json()
print("radial measure JSON:", doc)
print("round trip mass:", DiskMeasure.from_json(doc).total_mass(), mu.total_mass())
