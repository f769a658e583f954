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

from dataclasses import dataclass

import numpy as np

from .beam import (BeamParams, ModeIndex, _blockwise, _phasor, normalization_constant,
                   spot_radius)
from .numerics import hermite

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
    from the CLI).
    """
    c = normalization_constant(params, mode)

    def kernel(x1, x2, x3):
        r = np.sqrt(x1**2 + x2**2 + x3**2)
        w = spot_radius(params, r)
        value = (
            c**2
            * (params.w0 / w) ** 2
            * hermite(mode.m, np.sqrt(2.0) * x1 / w) ** 2
            * hermite(mode.n, np.sqrt(2.0) * x2 / w) ** 2
            * np.exp(-2.0 * (x1**2 + x2**2) / w**2)
        )
        if include_jacobian:
            value = value * (2.0 / params.v)
        return value

    return _blockwise(kernel, x1, x2, x3, dtype=float)


def asymptotic_F(params: BeamParams, mode: ModeIndex, theta, phi):
    """Large-r angular limit F_mn(theta, phi) of r^2 * density (Jacobian excluded).

    F = C_mn^2 * L_R^2 * H_m(sqrt(2) sin(theta) cos(phi) L_R/w0)^2
        * H_n(sqrt(2) sin(theta) sin(phi) L_R/w0)^2
        * exp(-2 sin(theta)^2 L_R^2 / w0^2),

    so that r^2 * density_D -> F * (2/v) as r -> infinity at fixed
    angles inside the beam cone. sin(theta), cos(phi) and sin(phi) come
    from the phasors e^{i theta} and e^{i phi} of :func:`beam._phasor`.
    """
    lr = params.rayleigh_range
    c = normalization_constant(params, mode)
    ratio = lr / params.w0

    def kernel(theta, phi):
        st = _phasor(1.0, theta).imag
        e_phi = _phasor(1.0, phi)
        arg1 = np.sqrt(2.0) * st * e_phi.real * ratio
        arg2 = np.sqrt(2.0) * st * e_phi.imag * ratio
        return (
            c**2
            * lr**2
            * hermite(mode.m, arg1) ** 2
            * hermite(mode.n, arg2) ** 2
            * np.exp(-2.0 * st**2 * ratio**2)
        )

    return _blockwise(kernel, theta, phi, dtype=float)
