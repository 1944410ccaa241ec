"""Norms in the space of b: the operator algorithm against closed forms.

The norm algorithm solves the triangular Toeplitz equation tying f to its
companion g and returns sqrt(||f||_2^2 + ||g||_2^2), doubling the truncation
until stabilization.  Cauchy kernels and monomials have closed forms that the
generic solver must reproduce.
"""

import numpy as np

from hbspace import (
    PowerOuter,
    SymbolB,
    cauchy_kernel_taylor,
    clark_density,
    hb_inner,
    hb_kernel_taylor,
    hb_norm,
    hb_norm_squared,
    kernel_eval,
    kernel_norm_closed_form,
    monomial_norm,
    pair_from_outer_a,
    pythagorean_mate,
    taylor_b_over_a,
)
from hbspace.functions import polyval_ascending

half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
alpha = pair_from_outer_a(PowerOuter(0.25))

print("== Cauchy-kernel norms ==")
for lam in (0.5, 0.9, 0.99 * 1j):
    closed = kernel_norm_closed_form(lam, half_sum).norm_squared
    generic = hb_norm_squared(cauchy_kernel_taylor(lam), half_sum)
    print(f"  lam={lam}: closed {closed:.8f}  solver {generic:.8f}")

print("\n== Taylor data of b/a ==")
data = taylor_b_over_a(half_sum, 8)
print("b/a = (1+z)/(1-z):", np.round(np.real(data.coefficients), 9))
print("square-summable:", data.in_h2, "(the gap (1-|b|)^-1 is not integrable)")
data2 = taylor_b_over_a(alpha, 32)
print("power pair:", data2.in_h2, " first coefficients:",
      np.round(np.abs(data2.coefficients[:4]), 6))

print("\n== monomial norms ==")
print("power pair ||z^n||:", [round(monomial_norm(n, alpha), 6) for n in (0, 4, 16, 64)])
print("half-sum oracle ||z^n||^2 = 2 + 4n:",
      [round(hb_norm_squared(np.eye(n + 1, dtype=complex)[n], half_sum,
                             cross_check=False), 9) for n in (0, 3, 10)])

print("\n== reproducing identity via polarization ==")
f = np.array([1.0, -0.3j, 0.2])
lam = 0.4 - 0.2j
k = hb_kernel_taylor(lam, half_sum, n=64)
print("f(lam):", polyval_ascending(f, lam))
print("<f, k_lam^b>_b:", hb_inner(f, k, half_sum))

print("\n== kernel values and Clark densities ==")
print("k^b_0.5(0) =", kernel_eval(0.5, 0.0, half_sum))
d = clark_density(half_sum, -1.0, size=512)
print("Clark density at angle pi (where b vanishes):", d.values[256])
print("Poisson-extension consistency:", f"{d.poisson_check:.2e}")
