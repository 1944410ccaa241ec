"""Reference computations that the tests compare the package against."""

import numpy as np
from scipy.integrate import quad


def quadrature_depth_mass(ray, depth):
    """Mass of the slice 1 - depth <= t < 1 of a `RadialPower`, by adaptive quadrature.

    QUADPACK integrates the correction against the algebraic weight
    (1 - t)^-beta, a route independent of the ray's own substitution.
    """
    e = min(float(depth), 1.0 - ray.r0)
    if e <= 0:
        return 0.0
    corr = ray.correction or (lambda t: np.ones_like(np.asarray(t, dtype=float)))
    val, _ = quad(
        lambda t: float(np.asarray(corr(t), dtype=float)),
        1.0 - e,
        1.0,
        weight="alg",
        wvar=(0.0, -ray.beta),
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return ray.scale * val
