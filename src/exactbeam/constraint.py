"""Space-time constraint surfaces and delta-reduced densities.

Two constraint functions are supported, both linear in t at fixed
position:

* ``paraxial_fP``: f = x3 - v*t, the co-moving plane of the paraxial
  picture;
* ``exact_fE``: f = r - (x3 + v*t)/2, the surface on which the exact
  envelope argument s equals the spherical radius r.

Integrating a quantity against delta[f(t)] dt collapses to evaluation
at the unique root t* divided by |df/dt|, which is v for f_P and v/2
for f_E. The reduced mode density D and its large-r angular limit F
follow from that reduction applied to the squared envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import (BeamParams, ModeIndex, _blockwise, _hermite_pair, _reduce_angle,
                   normalization_constant)

VARIANTS = ("paraxial_fP", "exact_fE")


@dataclass(frozen=True)
class ConstraintKind:
    """Constraint-surface selector."""

    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown constraint variant {self.variant!r}; choose from {VARIANTS}")


PARAXIAL_FP = ConstraintKind("paraxial_fP")
EXACT_FE = ConstraintKind("exact_fE")


def eval_constraint(kind: ConstraintKind, params: BeamParams, p) -> float:
    """Signed constraint value (length); zero means on-surface."""
    if kind.variant == "paraxial_fP":
        return np.asarray(p.x3) - params.v * np.asarray(p.t)
    return p.r - 0.5 * (np.asarray(p.x3) + params.v * np.asarray(p.t))


def time_jacobian(kind: ConstraintKind, params: BeamParams) -> float:
    """|df/dt| along the time axis: v for paraxial_fP, v/2 for exact_fE."""
    if kind.variant == "paraxial_fP":
        return params.v
    return 0.5 * params.v


def constraint_time(kind: ConstraintKind, params: BeamParams, x1, x2, x3):
    """The unique t placing (x1, x2, x3, t) on the constraint surface.

    f_P gives t = x3/v; f_E gives t = (2r - x3)/v. Both always exist
    since each f is strictly monotone in t.
    """
    x3 = np.asarray(x3, dtype=float)
    if kind.variant == "paraxial_fP":
        return x3 / params.v
    r = np.sqrt(np.asarray(x1) ** 2 + np.asarray(x2) ** 2 + x3**2)
    return (2.0 * r - x3) / params.v


def delta_reduced_time_integral(params: BeamParams, integrand, kind: ConstraintKind,
                                x1, x2, x3):
    """Closed-form time integral of ``integrand * delta[f(t)]``.

    Applies the composition rule delta[f(t)] = delta(t - t*)/|f'(t*)|,
    so the result is ``integrand(p*) / |df/dt|`` at the on-surface point
    p* = (x1, x2, x3, t*). ``integrand`` is a function of a
    SpaceTimePoint.
    """
    from .beam import SpaceTimePoint

    t_star = constraint_time(kind, params, x1, x2, x3)
    value = integrand(SpaceTimePoint(x1, x2, x3, t_star))
    return value / time_jacobian(kind, params)


def density_D(params: BeamParams, mode: ModeIndex, x1, x2, x3,
              include_jacobian: bool = True):
    """Constrained mode density D_mn at a spatial point.

    The time integral of the squared exact envelope against
    delta[f_E(t)] collapses onto t* where s = r, leaving

        D = (2/v) * C_mn^2 * (w0/w(r))^2
            * H_m(sqrt(2) x1 / w(r))^2 * H_n(sqrt(2) x2 / w(r))^2
            * exp(-2 rho^2 / w(r)^2).

    ``include_jacobian=False`` drops the 2/v factor, leaving the bare
    squared-envelope form (the raw angular-form convention selectable
    from the CLI). The kernel forms h = 2/w^2, so that (w0/w)^2 = w0^2 h/2
    and xi = sqrt(h) x.
    """
    m, n = mode.m, mode.n
    scale = normalization_constant(params, mode) ** 2 * 0.5 * params.w0**2
    if include_jacobian:
        scale *= 2.0 / params.v
    lr = params.rayleigh_range

    def kernel(out, x1, x2, x3):
        value = np.multiply(x1, x1, out=np.empty(out.shape))
        value += np.multiply(x2, x2)
        # w(r)^2 and the exponent -2 rho^2 / w^2, formed step by step as the closed form reads
        w2 = np.multiply(x3, x3, out=np.empty(out.shape))
        w2 += value
        np.sqrt(w2, out=w2)
        w2 /= lr
        w2 *= w2
        w2 += 1.0
        np.sqrt(w2, out=w2)
        w2 *= params.w0
        w2 *= w2
        value *= -2.0
        value /= w2
        np.exp(value, out=value)
        h = np.divide(2.0, w2, out=w2)
        value *= h
        _times_hermite_squares(out, value, m, n, x1, x2, np.sqrt(h, out=h), scale)

    return _blockwise(kernel, x1, x2, x3, dtype=float)


def _times_hermite_squares(out, value, m, n, x1, x2, root, scale):
    """out <- scale * value * (H_m(x1 root) H_n(x2 root))^2, overwriting ``value``."""
    product = _hermite_pair(m, n, x1, x2, root)
    if product is not None:
        product *= product
        value *= product
    np.multiply(value, scale, out=out)


def asymptotic_F(params: BeamParams, mode: ModeIndex, theta, phi):
    """Large-r angular limit F_mn(theta, phi) of r^2 * density (Jacobian excluded).

    F = C_mn^2 * L_R^2 * H_m(sqrt(2) sin(theta) cos(phi) L_R/w0)^2
        * H_n(sqrt(2) sin(theta) sin(phi) L_R/w0)^2
        * exp(-2 sin(theta)^2 L_R^2 / w0^2),

    so that r^2 * density_D -> F * (2/v) as r -> infinity at fixed
    angles inside the beam cone. Each sine comes from the tangent of its
    half angle, sin(a) = 2 tan(a/2)/(1 + tan(a/2)^2): numpy's tan is
    accurate to an ulp for any argument, and a/2 is exact, so the sine
    keeps its relative accuracy next to its zeros. F needs only the
    squares of cos(phi) and sin(phi), and cos(phi) is taken as the sine
    of phi less the nearest odd multiple of pi/2, so it too stays
    accurate next to its zeros, where the Hermite factor of odd order
    has a node.
    """
    m, n = mode.m, mode.n
    ratio = params.rayleigh_range / params.w0
    scale = (normalization_constant(params, mode) * params.rayleigh_range) ** 2
    xi_scale = 4.0 * math.sqrt(2.0) * ratio

    def kernel(out, theta, phi):
        # xi1^2 + xi2^2 = 8 (L_R/w0)^2 (sin(theta)/2)^2, and xi is 4 sqrt(2) (L_R/w0)
        # (sin(theta)/2) times cos(phi)/2 or sin(phi)/2
        root = _half_sine(np.multiply(theta, 0.5, out=np.empty(out.shape)))
        value = np.multiply(root, root)
        value *= -8.0 * ratio**2
        np.exp(value, out=value)
        cos = sin = None
        if m or n:
            half = np.multiply(phi, 0.5, out=np.empty(out.shape))
            if m:
                cos = _half_sine(_reduce_angle(half.copy() if n else half, 0.5 * np.pi, 0.5))
            if n:
                sin = _half_sine(half)
            root *= xi_scale
        _times_hermite_squares(out, value, m, n, cos, sin, root, scale)

    return _blockwise(kernel, theta, phi, dtype=float)


def _half_sine(half):
    """sin(2 half)/2 = t/(1 + t^2) with t = tan(half), overwriting the block buffer ``half``."""
    t = np.tan(half, out=half)
    den = np.multiply(t, t)
    den += 1.0
    t /= den
    return t
