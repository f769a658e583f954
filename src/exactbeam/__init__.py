"""Exact Hermite-Gaussian beam solutions of the full wave equation.

Closed-form evaluators for the exact beam family, the standard paraxial
family and the complex-source Gaussian family, constrained densities
with their far-field angular limits, a finite-difference/quadrature
verification engine, and a CLI for grid exports and verification runs.
"""

__version__ = "0.1.0"

from .beam import (
    FAMILIES,
    BeamParams,
    ModeIndex,
    SpaceTimePoint,
    alternate_exact_psi,
    bateman_gaussian_psi,
    envelope_phi,
    exact_psi,
    normalization_constant,
    paraxial_psi,
    spot_radius,
)
from .constraint import (
    EXACT_FE,
    PARAXIAL_FP,
    ConstraintKind,
    asymptotic_F,
    constraint_time,
    delta_reduced_time_integral,
    density_D,
    eval_constraint,
    time_jacobian,
)
from .errors import (
    BranchCutWarning,
    ConfigError,
    GouyPathError,
    NumericOverflowError,
    QuadratureConvergenceError,
    UnsupportedOrderError,
)
from .gridio import AxisSpec, FieldGrid
from .numerics import (
    first_derivative,
    hermite,
    second_derivative,
)
from .verify import (
    AlternateComparisonReport,
    GouyFitReport,
    OrthoReport,
    ResidualReport,
    alternate_correspondence_sweep,
    check_symmetry,
    compare_alternate,
    compute_normalization,
    default_wave_steps,
    fit_gouy,
    gouy_phase_samples,
    hermite_ridge_offset,
    residual_full_wave,
    residual_reduced,
    sample_paraxial_points,
    sample_points,
    transverse_gram,
)

__all__ = [
    "AlternateComparisonReport",
    "AxisSpec",
    "BeamParams",
    "BranchCutWarning",
    "ConfigError",
    "ConstraintKind",
    "EXACT_FE",
    "FAMILIES",
    "FieldGrid",
    "GouyFitReport",
    "GouyPathError",
    "ModeIndex",
    "NumericOverflowError",
    "OrthoReport",
    "PARAXIAL_FP",
    "QuadratureConvergenceError",
    "ResidualReport",
    "SpaceTimePoint",
    "UnsupportedOrderError",
    "alternate_correspondence_sweep",
    "alternate_exact_psi",
    "asymptotic_F",
    "bateman_gaussian_psi",
    "check_symmetry",
    "compare_alternate",
    "compute_normalization",
    "constraint_time",
    "default_wave_steps",
    "delta_reduced_time_integral",
    "density_D",
    "envelope_phi",
    "eval_constraint",
    "exact_psi",
    "first_derivative",
    "fit_gouy",
    "gouy_phase_samples",
    "hermite",
    "hermite_ridge_offset",
    "normalization_constant",
    "paraxial_psi",
    "residual_full_wave",
    "residual_reduced",
    "sample_paraxial_points",
    "sample_points",
    "second_derivative",
    "spot_radius",
    "time_jacobian",
    "transverse_gram",
]
