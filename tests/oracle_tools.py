"""Independent oracles for the test suite.

Everything here is assembled from scratch with cmath/scipy/mpmath
primitives, deliberately avoiding the package's own evaluation code
paths, so a shared bug cannot cancel out of a comparison.
"""

import cmath
import math

import mpmath
import numpy as np
from scipy.special import eval_hermite


def hermite_series(order: int, x: float) -> float:
    """Physicists' Hermite polynomial from the explicit coefficient series.

    H_n(x) = n! * sum_k (-1)^k / (k! (n-2k)!) * (2x)^(n-2k), k <= n/2.
    """
    total = 0.0
    for k in range(order // 2 + 1):
        total += (
            (-1.0) ** k
            / (math.factorial(k) * math.factorial(order - 2 * k))
            * (2.0 * x) ** (order - 2 * k)
        )
    return math.factorial(order) * total


def envelope_term_by_term(k, w0, m, n, x1, x2, s) -> complex:
    """Scalar Hermite-Gaussian envelope assembled factor by factor with cmath."""
    lr = 0.5 * k * w0 * w0
    w = w0 * math.sqrt(1.0 + (s / lr) ** 2)
    c = math.sqrt(2.0 / (math.pi * 2.0 ** (m + n) * math.factorial(m) * math.factorial(n))) / w0
    prefactor = c * w0 / w
    h = eval_hermite(m, math.sqrt(2.0) * x1 / w) * eval_hermite(n, math.sqrt(2.0) * x2 / w)
    rho2 = x1 * x1 + x2 * x2
    curvature = cmath.exp(1j * k * rho2 / (2.0 * complex(s, -lr)))
    gouy = cmath.exp(-1j * (1 + m + n) * math.atan2(s, lr))
    return prefactor * h * curvature * gouy


def psi_mpmath(k, w0, v, m, n, x1, x2, x3, t, envelope_arg="exact", dps=40) -> complex:
    """Hermite-Gaussian field at ``dps`` significant digits, rounded to a double.

    The double inputs are taken exactly and every factor is evaluated in
    mpmath: C_mn (w0/w) H_m(sqrt(2) x1/w) H_n(sqrt(2) x2/w)
    * exp[i k rho^2 / (2 (s - i L_R))] * exp[-i (1+m+n) arctan(s/L_R)]
    * exp[i (k x3 - omega t)], with s = (x3 + v t)/2 for the exact family
    and s = x3 for the paraxial one.
    """
    with mpmath.workdps(dps):
        k, w0, v, x1, x2, x3, t = (mpmath.mpf(float(a)) for a in (k, w0, v, x1, x2, x3, t))
        lr = k * w0**2 / 2
        s = (x3 + v * t) / 2 if envelope_arg == "exact" else x3
        w = w0 * mpmath.sqrt(1 + (s / lr) ** 2)
        c = mpmath.sqrt(2 / (mpmath.pi * 2 ** (m + n) * mpmath.factorial(m) * mpmath.factorial(n))) / w0
        value = (
            c
            * (w0 / w)
            * mpmath.hermite(m, mpmath.sqrt(2) * x1 / w)
            * mpmath.hermite(n, mpmath.sqrt(2) * x2 / w)
            * mpmath.exp(1j * k * (x1**2 + x2**2) / (2 * (s - 1j * lr)))
            * mpmath.exp(-1j * (1 + m + n) * mpmath.atan(s / lr))
            * mpmath.exp(1j * (k * x3 - k * v * t))
        )
        return complex(value)


def alternate_term_by_term(k, w0, v, x1, x2, x3, t, scaled_amplitude=1.0) -> complex:
    """Complex-source spherical wave in the rescaled parameterization, via cmath."""
    lr = 0.5 * k * w0 * w0
    radius = cmath.sqrt(x1 * x1 + x2 * x2 + complex(x3, -lr) ** 2)
    return (
        scaled_amplitude
        * (lr / radius)
        * cmath.exp(1j * k * (radius + 1j * lr) - 1j * (k * v) * t)
    )


def mollified_time_integral(params, integrand, kind, x1, x2, x3, sigma_t,
                            node_count: int = 96) -> float:
    """Nascent-delta quadrature replacing the Dirac delta in the time integral.

    The delta of the constraint value f(t) is replaced by a normalized
    Gaussian of width sigma_f = |df/dt| * sigma_t, and the t integral is
    done by Gauss-Legendre over [t* - 8 sigma_t, t* + 8 sigma_t]. As
    sigma_t -> 0 this converges to integrand(t*) / |df/dt| with an
    O(sigma^2) error, so a Richardson step in sigma^2 sharpens it.
    """
    from exactbeam.beam import SpaceTimePoint
    from exactbeam.constraint import constraint_time, eval_constraint, time_jacobian

    t_star = float(constraint_time(kind, params, x1, x2, x3))
    fprime = time_jacobian(kind, params)
    sigma_f = fprime * sigma_t
    nodes, weights = np.polynomial.legendre.leggauss(node_count)
    t = t_star + 8.0 * sigma_t * nodes
    wts = 8.0 * sigma_t * weights
    f_vals = np.asarray(eval_constraint(kind, params, SpaceTimePoint(x1, x2, x3, t)))
    nascent = np.exp(-0.5 * (f_vals / sigma_f) ** 2) / (sigma_f * math.sqrt(2.0 * math.pi))
    g_vals = np.asarray(integrand(SpaceTimePoint(x1, x2, x3, t)))
    return float(np.sum(wts * g_vals * nascent))


def mollified_extrapolated(params, integrand, kind, x1, x2, x3, sigmas) -> float:
    """Richardson extrapolation in sigma^2 from the two narrowest mollifiers."""
    values = [
        mollified_time_integral(params, integrand, kind, x1, x2, x3, s) for s in sigmas
    ]
    s1, s2 = sigmas[-2], sigmas[-1]
    v1, v2 = values[-2], values[-1]
    ratio2 = (s1 / s2) ** 2
    return (ratio2 * v2 - v1) / (ratio2 - 1.0)
