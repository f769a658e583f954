"""End-to-end acceptance battery.

Each test is one acceptance criterion, named and numbered; a summary
hook in conftest prints one PASS/FAIL line per criterion after the run.
All beams are in natural units (w0 = v = 1) with k*w0 = 50 unless a
criterion says otherwise, and every random sample is seeded, so the
whole battery is deterministic.
"""

import math
import time

import numpy as np
import pytest

from exactbeam import (
    EXACT_FE,
    FAMILIES,
    PARAXIAL_FP,
    BeamParams,
    ModeIndex,
    SpaceTimePoint,
    alternate_correspondence_sweep,
    asymptotic_F,
    bateman_gaussian_psi,
    check_symmetry,
    compute_normalization,
    delta_reduced_time_integral,
    density_D,
    envelope_phi,
    eval_constraint,
    exact_psi,
    fit_gouy,
    gouy_phase_samples,
    normalization_constant,
    paraxial_psi,
    residual_full_wave,
    sample_points,
    spot_radius,
    transverse_gram,
)
from oracle_tools import mollified_extrapolated, residual_convergence_sweep

BEAM = BeamParams(k=50.0, w0=1.0, v=1.0)
TIGHT = BeamParams(k=100.0, w0=1.0, v=1.0)


def report(number: int, name: str, ok: bool) -> bool:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_exact_family_satisfies_full_wave_equation():
    rng = np.random.default_rng(1)
    points = sample_points(BEAM, 200, rng)
    start = time.perf_counter()
    worst = 0.0
    for m in range(7):
        for n in range(7 - m):
            rep = residual_full_wave(
                BEAM, FAMILIES["exact"].psi(BEAM, ModeIndex(m, n)), points
            )
            worst = max(worst, rep.max_relative_residual)
    _, orders = residual_convergence_sweep(
        BEAM, FAMILIES["exact"].psi(BEAM, ModeIndex(0, 0)), sample_points(BEAM, 20, rng)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and all(o >= 3.4 for o in orders) and elapsed <= 30.0
    assert report(1, "exact family satisfies the full wave equation", ok), (
        f"worst residual {worst:.3e}, stencil orders {orders}, {elapsed:.1f}s"
    )


def test_criterion_02_complex_source_solution_satisfies_full_wave_equation():
    rng = np.random.default_rng(2)
    points = sample_points(BEAM, 200, rng, x3_range=(0.2, 3.0), spread_with="x3")
    rep = residual_full_wave(BEAM, FAMILIES["alternate"].psi(BEAM, None), points)
    ok = rep.max_relative_residual <= 1e-6
    assert report(2, "complex-source solution satisfies the full wave equation", ok), (
        f"residual {rep.max_relative_residual:.3e}"
    )


def test_criterion_03_paraxial_family_fails_by_a_large_margin():
    rng = np.random.default_rng(3)
    points = sample_points(BEAM, 200, rng)
    modes = (ModeIndex(0, 0), ModeIndex(2, 1))
    exact = max(
        residual_full_wave(BEAM, FAMILIES["exact"].psi(BEAM, m), points).max_relative_residual
        for m in modes
    )
    par = max(
        residual_full_wave(
            BEAM, FAMILIES["paraxial"].psi(BEAM, m), points, equation="paraxial_eq3"
        ).max_relative_residual
        for m in modes
    )
    ratio = par / exact
    ok = ratio >= 1e3
    assert report(3, "paraxial family misses the full equation by 1000x", ok), (
        f"paraxial {par:.3e} / exact {exact:.3e} = {ratio:.1f}"
    )


def test_criterion_04_envelope_longitudinal_time_symmetry():
    rng = np.random.default_rng(4)
    points = sample_points(BEAM, 100, rng)
    worst = 0.0
    for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
        first, second = check_symmetry(BEAM, mode, points)
        worst = max(worst, first.max_relative_residual, second.max_relative_residual)
    mutant = lambda x1, x2, x3, t: envelope_phi(BEAM, ModeIndex(0, 0), x1, x2, x3)
    broken, _ = check_symmetry(BEAM, ModeIndex(0, 0), points, envelope=mutant)
    ok = worst <= 1e-7 and broken.max_relative_residual >= 0.1
    assert report(4, "envelope depends on x3 and t only through their sum", ok), (
        f"honest mismatch {worst:.3e}, t-independent mutant {broken.max_relative_residual:.3e}"
    )


def test_criterion_05_transverse_orthonormality_with_numeric_constants():
    modes = [ModeIndex(m, n) for m in range(3) for n in range(3)]
    constants = {(m.m, m.n): compute_normalization(BEAM, m) for m in modes}
    worst_off = worst_diag = 0.0
    for plane in (0.0, 5.0 * BEAM.rayleigh_range):
        rep = transverse_gram(BEAM, modes, s=plane, constants=constants)
        worst_off = max(worst_off, rep.max_off_diagonal)
        worst_diag = max(worst_diag, rep.max_diagonal_deviation)
    c_rel = abs(constants[(0, 0)] - normalization_constant(BEAM, ModeIndex(0, 0))) / constants[
        (0, 0)
    ]
    ok = worst_off < 1e-9 and worst_diag < 1e-9 and c_rel <= 1e-10
    assert report(5, "normalized envelopes are orthonormal on every plane", ok), (
        f"off-diagonal {worst_off:.3e}, diagonal {worst_diag:.3e}, constant rel {c_rel:.3e}"
    )


def test_criterion_06_constrained_density_reaches_angular_limit():
    theta, phi = 0.5 * BEAM.w0 / BEAM.rayleigh_range, 0.7
    radii = np.linspace(50.0, 500.0, 7) * BEAM.rayleigh_range
    ok = True
    detail = []
    for mode in (ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(2, 1)):
        limit = asymptotic_F(BEAM, mode, theta, phi) * 2.0 / BEAM.v
        scaled = []
        for r in radii:
            p = SpaceTimePoint.from_spherical(r, theta, phi)
            scaled.append(r**2 * density_D(BEAM, mode, p.x1, p.x2, p.x3))
        spread = (max(scaled) - min(scaled)) / limit
        gap = abs(scaled[-1] - limit) / limit
        detail.append(f"({mode.m},{mode.n}): spread {spread:.2%}, limit gap {gap:.2%}")
        ok = ok and spread < 0.01 and gap < 0.01
    assert report(6, "r^2-scaled density converges to the angular form", ok), "; ".join(detail)


def test_criterion_07_constraint_surfaces_agree_in_paraxial_cone():
    rng = np.random.default_rng(7)
    x3 = rng.uniform(0.5, 3.0, 1000) * BEAM.rayleigh_range
    rho = rng.uniform(0.0, 1e-4, 1000) * x3
    az = rng.uniform(-math.pi, math.pi, 1000)
    p = SpaceTimePoint(rho * np.cos(az), rho * np.sin(az), x3, x3 / BEAM.v)
    gap = np.abs(eval_constraint(EXACT_FE, BEAM, p) - eval_constraint(PARAXIAL_FP, BEAM, p))
    bound = rho**2 / (2.0 * x3) + 1e-12
    ok = bool(np.all(gap <= bound))
    assert report(7, "the two constraint surfaces merge in the paraxial cone", ok), (
        f"largest excess {np.max(gap - bound):.3e}"
    )


def test_criterion_08_axial_phase_law_matches_mode_order():
    lr = BEAM.rayleigh_range
    s = np.linspace(-10.0 * lr, 10.0 * lr, 401)
    ok = True
    detail = []
    for mode in (ModeIndex(0, 0), ModeIndex(2, 0), ModeIndex(2, 2)):
        rep = fit_gouy(BEAM, mode, s)
        _, phase, _ = gouy_phase_samples(BEAM, mode, s)
        target_amp = -(1 + mode.total_order)
        amp_err = abs(rep.fitted_amplitude - target_amp)
        scale_err = abs(rep.fitted_scale - lr)
        span_err = abs(float(phase[-1] - phase[0]) - target_amp * 2.0 * math.atan(10.0))
        detail.append(
            f"({mode.m},{mode.n}): amp err {amp_err:.1e}, scale err {scale_err:.1e}, "
            f"span err {span_err:.1e}"
        )
        ok = ok and amp_err <= 1e-6 and scale_err <= 1e-6 * lr and span_err <= 1e-6
    assert report(8, "axial phase is -(1+m+n) arctan(s/L_R)", ok), "; ".join(detail)


def test_criterion_09_exact_equals_paraxial_on_comoving_plane():
    rng = np.random.default_rng(9)
    x3 = rng.uniform(-3.0, 3.0, 100) * BEAM.rayleigh_range
    w = spot_radius(BEAM, x3)
    x1 = rng.uniform(-2.0, 2.0, 100) * w
    x2 = rng.uniform(-2.0, 2.0, 100) * w
    p = SpaceTimePoint(x1, x2, x3, x3 / BEAM.v)
    mode = ModeIndex(2, 1)
    e = np.asarray(exact_psi(BEAM, mode, p))
    x = np.asarray(paraxial_psi(BEAM, mode, p))
    rel = np.max(np.abs(e - x) / np.abs(e))
    ok = rel <= 1e-12
    assert report(9, "exact and paraxial fields coincide on the co-moving plane", ok), (
        f"max relative gap {rel:.3e}"
    )


def test_criterion_10_solution_families_converge_quadratically():
    reports, orders = alternate_correspondence_sweep(TIGHT)
    ok = all(o >= 1.8 for o in orders)
    devs = ", ".join(f"{r.max_relative_deviation:.2e}" for r in reports)
    assert report(10, "family agreement improves at least quadratically", ok), (
        f"deviations {devs}; orders {orders}"
    )


def test_criterion_11_rational_gaussian_equals_lowest_mode():
    rng = np.random.default_rng(11)
    points = sample_points(BEAM, 100, rng)
    a = np.asarray(bateman_gaussian_psi(BEAM, points))
    b = np.asarray(exact_psi(BEAM, ModeIndex(0, 0), points))
    rel = np.max(np.abs(a - b) / np.abs(b))
    ok = rel <= 1e-12
    assert report(11, "rational Gaussian form reproduces the lowest mode", ok), (
        f"max relative gap {rel:.3e}"
    )


def test_criterion_12_delta_reduction_matches_mollified_quadrature():
    rng = np.random.default_rng(12)
    lr = BEAM.rayleigh_range
    mode = ModeIndex(0, 0)
    integrand = lambda p: np.abs(exact_psi(BEAM, mode, p)) ** 2
    sigmas = tuple(f * lr / BEAM.v for f in (1e-2, 1e-3, 1e-4))
    worst = 0.0
    for _ in range(20):
        x1, x2 = rng.uniform(-1.0, 1.0, 2) * BEAM.w0
        x3 = rng.uniform(-2.0, 2.0) * lr
        for kind in (EXACT_FE, PARAXIAL_FP):
            closed = float(delta_reduced_time_integral(BEAM, integrand, kind, x1, x2, x3))
            oracle = mollified_extrapolated(BEAM, integrand, kind, x1, x2, x3, sigmas)
            worst = max(worst, abs(oracle - closed) / abs(closed))
    ok = worst <= 1e-6
    assert report(12, "closed-form delta reduction matches mollified integrals", ok), (
        f"worst relative gap {worst:.3e}"
    )
