"""Numerical verification engine.

Every check here is independent of the closed-form derivative algebra
of the evaluators: wave-equation residuals and symmetry relations use
finite differences, orthonormality uses quadrature, the axial phase law
is recovered by nonlinear fitting, and the two exact Gaussian families
are compared through a scale-free fitted constant. Reports are plain
frozen dataclasses with ``to_dict`` for JSON export.

The battery that ``beam verify`` runs is the ``SUITES`` registry at the
end of this module: each suite is declared there once, with its runner,
its tolerances and the mutants it must reject; ``run_battery`` runs it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .beam import (
    BeamParams,
    ModeIndex,
    SpaceTimePoint,
    alternate_exact_psi,
    envelope_phi,
    exact_psi,
    field_function,
    normalization_constant,
    spot_radius,
)
from .errors import ConfigError, GouyPathError, QuadratureConvergenceError
from .numerics import (
    QuadratureSpec,
    StencilSpec,
    first_derivative,
    hermite,
    quadrature_nodes,
    second_derivative,
)

EQUATION_LABELS = (
    "full_wave_eq1",
    "paraxial_eq3",
    "reduced_eq12",
    "symmetry_eq10",
    "symmetry_eq11",
)

#: Points whose field modulus falls below this fraction of the sample
#: peak are skipped in residual scans (relative residual undefined at nodes).
NODE_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Residual maxima of one equation over a point sample.

    ``max_relative_residual`` divides by the field at each point (the
    local scale named by ``normalization``); it is a diagnostic that
    grows without bound near field nodes. ``max_peak_residual`` divides
    the largest residual by the field's peak scale over the sample, so
    it does not; the verify suites gate on it.
    """

    equation: str
    point_count: int
    max_relative_residual: float
    normalization: str
    skipped_points: int = 0
    note: str = ""
    max_peak_residual: float | None = None

    def __post_init__(self):
        if self.equation not in EQUATION_LABELS:
            raise ValueError(f"unknown equation label {self.equation!r}")
        if self.max_relative_residual < 0:
            raise ValueError("max_relative_residual must be non-negative")
        if self.max_peak_residual is not None and self.max_peak_residual < 0:
            raise ValueError("max_peak_residual must be non-negative")

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "point_count": self.point_count,
            "max_relative_residual": self.max_relative_residual,
            "max_peak_residual": self.max_peak_residual,
            "normalization": self.normalization,
            "skipped_points": self.skipped_points,
            "note": self.note,
        }


@dataclass(frozen=True)
class OrthoReport:
    mode_pairs: tuple
    gram_entries: np.ndarray
    max_off_diagonal: float
    max_diagonal_deviation: float
    s: float
    node_count: int

    def to_dict(self) -> dict:
        g = np.asarray(self.gram_entries)
        return {
            "mode_pairs": [[list(a), list(b)] for a, b in self.mode_pairs],
            "gram_re": g.real.tolist(),
            "gram_im": g.imag.tolist(),
            "max_off_diagonal": self.max_off_diagonal,
            "max_diagonal_deviation": self.max_diagonal_deviation,
            "s": self.s,
            "node_count": self.node_count,
        }


@dataclass(frozen=True)
class GouyFitReport:
    mode: ModeIndex
    fitted_amplitude: float
    fitted_scale: float
    rms_fit_error: float
    path: str
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "mode": [self.mode.m, self.mode.n],
            "fitted_amplitude": self.fitted_amplitude,
            "fitted_scale": self.fitted_scale,
            "rms_fit_error": self.rms_fit_error,
            "path": self.path,
            "sample_count": self.sample_count,
        }


@dataclass(frozen=True)
class AlternateComparisonReport:
    paraxiality: float
    point_count: int
    fitted_constant: complex
    max_relative_deviation: float

    def to_dict(self) -> dict:
        return {
            "paraxiality": self.paraxiality,
            "point_count": self.point_count,
            "fitted_constant_re": self.fitted_constant.real,
            "fitted_constant_im": self.fitted_constant.imag,
            "max_relative_deviation": self.max_relative_deviation,
        }


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------


def sample_points(params: BeamParams, count: int, rng, *, x3_range=(-3.0, 3.0),
                  vt_range=(-3.0, 3.0), transverse_factor: float = 2.0,
                  spread_with: str = "s") -> SpaceTimePoint:
    """Random space-time sample for residual scans.

    Longitudinal coordinates x3 and v*t are uniform over the given
    ranges (in Rayleigh-range units). Transverse coordinates are drawn
    within ``transverse_factor`` local spot radii so the field is not
    vanishingly small at the sample; the spot radius is taken at the
    envelope argument s (exact family) or at x3 (``spread_with="x3"``,
    appropriate for the complex-source family whose spreading follows
    x3 alone).
    """
    lr = params.rayleigh_range
    x3 = rng.uniform(x3_range[0], x3_range[1], count) * lr
    vt = rng.uniform(vt_range[0], vt_range[1], count) * lr
    t = vt / params.v
    long_arg = 0.5 * (x3 + vt) if spread_with == "s" else x3
    w = spot_radius(params, long_arg)
    x1 = rng.uniform(-1.0, 1.0, count) * transverse_factor * w
    x2 = rng.uniform(-1.0, 1.0, count) * transverse_factor * w
    return SpaceTimePoint(x1, x2, x3, t)


def sample_paraxial_points(params: BeamParams, count: int, rng,
                           paraxiality: float) -> SpaceTimePoint:
    """Points on the t = x3/v surface inside a narrow forward cone.

    x3 is uniform over [L_R/p, 2 L_R/p] and rho <= p*x3, so the
    transverse offset stays small against both x3 and the local spot
    radius growth; p is the paraxiality parameter.
    """
    lr = params.rayleigh_range
    x3 = rng.uniform(1.0, 2.0, count) * lr / paraxiality
    rho = rng.uniform(0.0, 1.0, count) * paraxiality * x3
    az = rng.uniform(-np.pi, np.pi, count)
    return SpaceTimePoint(rho * np.cos(az), rho * np.sin(az), x3, x3 / params.v)


def _point_arrays(points):
    if isinstance(points, SpaceTimePoint):
        arrs = np.broadcast_arrays(
            np.asarray(points.x1, dtype=float),
            np.asarray(points.x2, dtype=float),
            np.asarray(points.x3, dtype=float),
            np.asarray(points.t, dtype=float),
        )
        return tuple(np.atleast_1d(a) for a in arrs)
    pts = list(points)
    return (
        np.array([p.x1 for p in pts], dtype=float),
        np.array([p.x2 for p in pts], dtype=float),
        np.array([p.x3 for p in pts], dtype=float),
        np.array([p.t for p in pts], dtype=float),
    )


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------


def default_wave_steps(params: BeamParams) -> dict:
    """Default per-axis stencil steps for the full-wave residual.

    Longitudinal and time steps resolve the carrier oscillation at one
    hundredth of a radian of phase per step; the transverse step is a
    thousandth of the waist. Larger longitudinal steps lose accuracy to
    truncation; much smaller ones lose it to rounding of the carrier
    phase argument, which grows like eps*|k*x3|/(k*h)^2 at three
    Rayleigh ranges.
    """
    return {
        "x3_step": 1e-2 / params.k,
        "t_step": 1e-2 / params.omega,
        "transverse_step": 1e-3 * params.w0,
    }


def residual_full_wave(params: BeamParams, field, points, *, x3_step=None,
                       t_step=None, transverse_step=None, accuracy_order: int = 4,
                       equation: str = "full_wave_eq1") -> ResidualReport:
    """Max relative residual of the full wave equation over sample points.

    Applies central differences per axis to ``field(p)`` and, with
    L psi = d2/dx1^2 + d2/dx2^2 + d2/dx3^2 - v^-2 d2/dt^2, reports

        max |L psi| / (k^2 |psi|)          (max_relative_residual)
        max |L psi| / (k^2 max |psi|)      (max_peak_residual)

    over the points. Every term of the operator is O(k^2 |psi|) for
    these carrier-bearing fields, so neither normalization can produce
    a false pass where the field is small. The local ratio skips points
    below the node floor; next to a node it still measures stencil
    noise against a vanishing field, which the peak ratio does not.
    """
    defaults = default_wave_steps(params)
    x3_step = defaults["x3_step"] if x3_step is None else x3_step
    t_step = defaults["t_step"] if t_step is None else t_step
    transverse_step = defaults["transverse_step"] if transverse_step is None else transverse_step

    x1, x2, x3, t = _point_arrays(points)
    psi = np.asarray(field(SpaceTimePoint(x1, x2, x3, t)))
    mag = np.abs(psi)
    keep = mag >= NODE_FLOOR * mag.max()

    tr = StencilSpec(transverse_step, accuracy_order)
    d11 = second_derivative(lambda u: field(SpaceTimePoint(u, x2, x3, t)), x1, tr, psi)
    d22 = second_derivative(lambda u: field(SpaceTimePoint(x1, u, x3, t)), x2, tr, psi)
    d33 = second_derivative(
        lambda u: field(SpaceTimePoint(x1, x2, u, t)), x3, StencilSpec(x3_step, accuracy_order),
        psi,
    )
    dtt = second_derivative(
        lambda u: field(SpaceTimePoint(x1, x2, x3, u)), t, StencilSpec(t_step, accuracy_order),
        psi,
    )
    operator = np.abs(d11 + d22 + d33 - dtt / params.v**2)
    residual = operator / (params.k**2 * mag)

    skipped = int((~keep).sum())
    note = "" if skipped == 0 else f"{skipped} near-node point(s) skipped"
    return ResidualReport(
        equation=equation,
        point_count=int(keep.sum()),
        max_relative_residual=float(residual[keep].max()),
        normalization="k^2 |psi|",
        skipped_points=skipped,
        note=note,
        max_peak_residual=float(operator.max() / (params.k**2 * mag.max())),
    )


def residual_convergence_sweep(params: BeamParams, field, points, *, base: float = 0.32,
                               levels: int = 3, accuracy_order: int = 4):
    """Step-halving residual sequence establishing the stencil order.

    The base step puts ``k*h = base`` in the truncation-dominated
    regime; each level halves all steps. Returns (residuals, orders)
    where orders[i] = log2(residual[i] / residual[i+1]); a clean
    4th-order stencil gives orders near 4.
    """
    residuals = []
    for level in range(levels):
        f = 0.5**level
        rep = residual_full_wave(
            params,
            field,
            points,
            x3_step=base * f / params.k,
            t_step=base * f / params.omega,
            transverse_step=1e-2 * f * params.w0,
            accuracy_order=accuracy_order,
        )
        residuals.append(rep.max_relative_residual)
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(levels - 1)]
    return residuals, orders


def residual_reduced(params: BeamParams, envelope, points, *, transverse_step=None,
                     s_step=None, accuracy_order: int = 4,
                     equation: str = "reduced_eq12") -> ResidualReport:
    """Residual of the parabolic envelope equation d11 + d22 + 2ik d/ds = 0.

    ``envelope`` is either a ModeIndex (checks the exact-family
    envelope) or a callable (x1, x2, s) -> complex. ``points`` is an
    (x1, x2, s) triple of arrays. With ``equation="paraxial_eq3"`` the
    same operator is read as the paraxial equation in x3. Steps default
    to envelope scales (waist transversely, Rayleigh range
    longitudinally): the envelope carries no carrier oscillation, so
    wavelength-scale steps would only amplify rounding noise in its
    slow second derivatives.

    With L phi = d11 + d22 + 2ik d/ds, ``max_peak_residual`` is
    max |L phi| * w0^2 / max |phi|. Every term of L phi is
    O(|phi| / w0^2) once lengths are measured in w0 and L_R, so this
    ratio does not depend on k*w0: a wrong envelope scores the same at
    every k*w0. The local diagnostic max |L phi| / (k^2 |phi|) instead
    falls like (k*w0)^-2 and grows without bound near nodes.
    """
    if isinstance(envelope, ModeIndex):
        mode = envelope
        envelope = lambda x1, x2, s: envelope_phi(params, mode, x1, x2, s)
    transverse_step = 1e-3 * params.w0 if transverse_step is None else transverse_step
    s_step = 5e-4 * params.rayleigh_range if s_step is None else s_step

    x1, x2, s = (np.atleast_1d(np.asarray(a, dtype=float)) for a in points)
    phi = np.asarray(envelope(x1, x2, s))
    mag = np.abs(phi)
    keep = mag >= NODE_FLOOR * mag.max()

    tr = StencilSpec(transverse_step, accuracy_order)
    d11 = second_derivative(lambda u: envelope(u, x2, s), x1, tr, phi)
    d22 = second_derivative(lambda u: envelope(x1, u, s), x2, tr, phi)
    ds = first_derivative(lambda u: envelope(x1, x2, u), s, StencilSpec(s_step, accuracy_order))
    operator = np.abs(d11 + d22 + 2j * params.k * ds)
    residual = operator / (params.k**2 * mag)

    skipped = int((~keep).sum())
    return ResidualReport(
        equation=equation,
        point_count=int(keep.sum()),
        max_relative_residual=float(residual[keep].max()),
        normalization="k^2 |phi|",
        skipped_points=skipped,
        note="" if skipped == 0 else f"{skipped} near-node point(s) skipped",
        max_peak_residual=float(operator.max() * params.w0**2 / mag.max()),
    )


# ---------------------------------------------------------------------------
# envelope symmetry in (x3, t)
# ---------------------------------------------------------------------------


def check_symmetry(params: BeamParams, mode: ModeIndex, points, *, x3_step=None,
                   t_step=None, accuracy_order: int = 4, envelope=None):
    """Check first- and second-derivative interchange of x3 and v*t.

    The exact envelope depends on (x3, t) only through s = (x3+v*t)/2,
    which forces d/dx3 = v^-1 d/dt and d2/dx3^2 = v^-2 d2/dt^2 on it.
    Both mismatches are reported relative to the larger of the two
    sides, pointwise (``max_relative_residual``) and against that
    scale's maximum over the sample (``max_peak_residual``, which stays
    meaningful where both sides pass through zero), so a t-independent
    envelope fails the first-order relation at order unity.
    ``envelope`` overrides the checked function (callable
    (x1, x2, x3, t) -> complex), which is how mutants are injected. The
    two step defaults are deliberately incommensurate so the x3 and t
    stencils never sample identical s values.
    """
    if envelope is None:
        envelope = lambda x1, x2, x3, t: envelope_phi(
            params, mode, x1, x2, 0.5 * (x3 + params.v * t)
        )
    lr = params.rayleigh_range
    x3_step = 1e-3 * lr if x3_step is None else x3_step
    t_step = 1.5e-3 * lr / params.v if t_step is None else t_step

    x1, x2, x3, t = _point_arrays(points)
    sx = StencilSpec(x3_step, accuracy_order)
    st = StencilSpec(t_step, accuracy_order)

    def mismatch(equation, normalization, a, b):
        gap = np.abs(a - b)
        denom = np.maximum(np.abs(a), np.abs(b))
        keep = denom >= 1e-12 * denom.max()
        return ResidualReport(
            equation=equation,
            point_count=int(keep.sum()),
            max_relative_residual=float((gap[keep] / denom[keep]).max()),
            normalization=normalization,
            skipped_points=int((~keep).sum()),
            max_peak_residual=float(gap.max() / denom.max()),
        )

    centre = envelope(x1, x2, x3, t)
    d3 = first_derivative(lambda u: envelope(x1, x2, u, t), x3, sx)
    dt = first_derivative(lambda u: envelope(x1, x2, x3, u), t, st)
    first = mismatch("symmetry_eq10", "max(|d/dx3|, |v^-1 d/dt|)", d3, dt / params.v)

    d33 = second_derivative(lambda u: envelope(x1, x2, u, t), x3, sx, centre)
    dtt = second_derivative(lambda u: envelope(x1, x2, x3, u), t, st, centre)
    second = mismatch("symmetry_eq11", "max(|d2/dx3^2|, |v^-2 d2/dt^2|)", d33, dtt / params.v**2)
    return first, second


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------


def _default_gram_quad(params: BeamParams, s: float, node_count: int = 96) -> QuadratureSpec:
    half = 8.0 * spot_radius(params, s) / math.sqrt(2.0)
    return QuadratureSpec(node_count, ((-half, half),))


def _gram_matrix(params, modes, s, quad, constants):
    x, w = quadrature_nodes(quad, 0)
    fields = [
        envelope_phi(params, mode, x[:, None], x[None, :], s, c_mn=constants[i])
        for i, mode in enumerate(modes)
    ]
    gram = np.empty((len(modes), len(modes)), dtype=complex)
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            if j < i:
                gram[i, j] = np.conj(gram[j, i])
            else:
                gram[i, j] = np.einsum("i,j,ij->", w, w, np.conj(fi) * fj)
    return gram


def transverse_gram(params: BeamParams, modes, s: float = 0.0, quad: QuadratureSpec = None,
                    *, constants=None, convergence_tol: float = 1e-9) -> OrthoReport:
    """Gram matrix of normalized envelopes over one transverse plane.

    G[i, j] = integral of conj(Phi_i) * Phi_j dx1 dx2 at fixed s. With
    correct normalization constants this is the identity at every s:
    the w0/w prefactor squares against the Gaussian width growth and
    the curvature phases cancel between the conjugate pair. The result
    is recomputed at a higher node count and must agree entry-wise to
    ``convergence_tol``, otherwise QuadratureConvergenceError.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in modes]
    if len({(m.m, m.n) for m in modes}) != len(modes):
        raise ValueError("mode list contains duplicates")
    if quad is None:
        quad = _default_gram_quad(params, s)
    if constants is None:
        cvals = [normalization_constant(params, m) for m in modes]
    elif np.isscalar(constants):
        cvals = [float(constants)] * len(modes)
    else:
        cvals = [constants[(m.m, m.n)] for m in modes]

    gram = _gram_matrix(params, modes, s, quad, cvals)
    finer = quad.with_nodes(quad.node_count + 33)
    gram_fine = _gram_matrix(params, modes, s, finer, cvals)
    drift = float(np.max(np.abs(gram - gram_fine)))
    if drift > convergence_tol:
        raise QuadratureConvergenceError(
            f"Gram entries moved by {drift:.3e} between {quad.node_count} and "
            f"{finer.node_count} nodes per axis (tolerance {convergence_tol:.1e})"
        )

    off = gram - np.diag(np.diag(gram))
    pairs = tuple(
        ((mi.m, mi.n), (mj.m, mj.n)) for i, mi in enumerate(modes) for mj in modes[i:]
    )
    return OrthoReport(
        mode_pairs=pairs,
        gram_entries=gram_fine,
        max_off_diagonal=float(np.max(np.abs(off))),
        max_diagonal_deviation=float(np.max(np.abs(np.diag(gram) - 1.0))),
        s=float(s),
        node_count=quad.node_count,
    )


def compute_normalization(params: BeamParams, mode: ModeIndex,
                          quad: QuadratureSpec = None) -> float:
    """Numerically determined constant giving the envelope unit transverse norm.

    Integrates the squared unnormalized envelope modulus at the waist
    plane and returns the reciprocal square root. Independent of the
    closed-form constant, which it is used to cross-check.
    """
    if quad is None:
        quad = _default_gram_quad(params, 0.0)
    norm2 = _gram_matrix(params, [mode], 0.0, quad, [1.0])[0, 0].real
    return 1.0 / math.sqrt(norm2)


# ---------------------------------------------------------------------------
# axial phase law
# ---------------------------------------------------------------------------


def hermite_ridge_offset(order: int) -> float:
    """Location xi* >= 0 of the outer maximum of |H_order(xi)| * exp(-xi^2/2).

    Every transverse profile H(xi) exp(-xi^2/2) attains its largest
    modulus on this ridge; following it keeps the sampled field away
    from polynomial nodes for odd orders, where the axis value is zero.
    A grid search brackets the maximum, and bisection then locates the
    root of the profile's derivative, whose sign is that of
    2n H_{n-1}(xi) - xi H_n(xi), to the resolution of double precision.
    """
    if order == 0:
        return 0.0
    grid = np.linspace(0.0, math.sqrt(2.0 * order + 1.0) + 2.0, 4097)
    profile = np.abs(hermite(order, grid)) * np.exp(-0.5 * grid**2)
    i = int(np.argmax(profile))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])

    def slope(x):
        return 2.0 * order * hermite(order - 1, x) - x * hermite(order, x)

    lo_sign = slope(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (slope(mid) > 0.0) == lo_sign:
            lo = mid
        else:
            hi = mid


#: Phase-extraction paths of :func:`gouy_phase_samples`.
GOUY_PATHS = ("auto", "axis", "ridge")


def gouy_phase_samples(params: BeamParams, mode: ModeIndex, s_samples, path: str = "auto"):
    """Unwrapped axial-law phase along the axis or the transverse ridge.

    Returns (sorted s, phase, path used). For modes with both indices
    even the envelope phase is read on the axis, where it is exactly
    the sign-reversed axial retardation plus a constant. Odd indices
    zero the axis field; the ridge path follows the transverse profile
    maximum at fixed scaled offset xi*, where the extracted phase
    carries an extra exactly-linear term (xi1*^2 + xi2*^2) * s/(2 L_R)
    from the wavefront curvature, subtracted here analytically.
    """
    s = np.sort(np.asarray(s_samples, dtype=float))
    if s.size < 10:
        raise ValueError(f"need at least 10 s samples for a stable phase curve, got {s.size}")
    axis_available = mode.m % 2 == 0 and mode.n % 2 == 0
    if path == "auto":
        path = "axis" if axis_available else "ridge"
    if path == "axis" and not axis_available:
        raise GouyPathError(
            f"mode ({mode.m},{mode.n}) has zero on-axis field (odd index); "
            "use path='ridge'"
        )

    lr = params.rayleigh_range
    if path == "axis":
        values = envelope_phi(params, mode, 0.0, 0.0, s)
        phase = np.unwrap(np.angle(values))
    elif path == "ridge":
        xi1 = hermite_ridge_offset(mode.m)
        xi2 = hermite_ridge_offset(mode.n)
        w = spot_radius(params, s)
        values = envelope_phi(params, mode, xi1 * w / np.sqrt(2.0), xi2 * w / np.sqrt(2.0), s)
        phase = np.unwrap(np.angle(values)) - (xi1**2 + xi2**2) * s / (2.0 * lr)
    else:
        raise ValueError(f"unknown path {path!r}; choose from {GOUY_PATHS}")
    return s, phase, path


def _fit_arctan(s, phase, p0):
    """Least-squares fit of A*arctan(s/B) + c to ``phase`` by damped Gauss-Newton.

    Starts from ``p0 = (A, B, c)`` and uses the analytic Jacobian
    [arctan(s/B), -A s/(B^2 + s^2), 1]. A step that does not lower the
    sum of squares is halved until it does; the iteration stops when the
    next step is below 1e-12 of every parameter or no step improves the
    fit. Returns (A, B, c) as floats.
    """
    coef = np.array(p0, dtype=float)

    def residual(c):
        return c[0] * np.arctan(s / c[1]) + c[2] - phase

    r = residual(coef)
    cost = float(r @ r)
    for _ in range(100):
        amp, scale, _ = coef
        jac = np.column_stack([np.arctan(s / scale), -amp * s / (scale**2 + s**2), np.ones_like(s)])
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        if np.all(np.abs(step) <= 1e-12 * np.abs(coef)):
            break
        for _ in range(30):
            r_trial = residual(coef + step)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            step = 0.5 * step
        else:
            break
        coef, r, cost = coef + step, r_trial, cost_trial
    return tuple(float(c) for c in coef)


def fit_gouy(params: BeamParams, mode: ModeIndex, s_samples, path: str = "auto", *,
             curve=None) -> GouyFitReport:
    """Recover the axial phase law by fitting A*arctan(s/B) + c0.

    The phase curve is ``curve``, a result of :func:`gouy_phase_samples`
    for these arguments, or is sampled here; the expected fit for these
    envelopes is A = -(1+m+n), B = L_R, with the constant absorbing the
    transverse profile's sign at the sampling path.
    """
    s, phase, path = curve if curve is not None else gouy_phase_samples(params, mode, s_samples, path)
    lr = params.rayleigh_range
    amp0 = (phase[-1] - phase[0]) / (math.atan2(s[-1], lr) - math.atan2(s[0], lr))
    mid = s.size // 2
    p0 = (amp0, lr, phase[mid] - amp0 * math.atan2(s[mid], lr))
    amp, scale, offset = _fit_arctan(s, phase, p0)
    rms = float(np.sqrt(np.mean((amp * np.arctan(s / scale) + offset - phase) ** 2)))
    return GouyFitReport(
        mode=mode,
        fitted_amplitude=amp,
        fitted_scale=scale,
        rms_fit_error=rms,
        path=path,
        sample_count=int(s.size),
    )


# ---------------------------------------------------------------------------
# cross-comparison of the two exact Gaussian families
# ---------------------------------------------------------------------------


def compare_alternate(params: BeamParams, paraxiality: float, *, points=None,
                      point_count: int = 100, rng=None) -> AlternateComparisonReport:
    """Scale-free agreement of the two exact Gaussian solutions in the paraxial cone.

    Evaluates the ratio of the (0,0) exact field to the complex-source
    field over a forward-cone point set on t = x3/v, fits the single
    complex constant c as the mean ratio, and reports
    max |ratio - c| / |c|. The constant absorbs the relative
    normalization (whose closed form involves exp(k*L_R) and cannot be
    formed in floating point); the deviation measures the genuinely
    shape-dependent disagreement, which shrinks quadratically with the
    cone opening.
    """
    if not 0.0 < paraxiality <= 0.05:
        raise ValueError(f"paraxiality must be in (0, 0.05], got {paraxiality}")
    if points is None:
        rng = np.random.default_rng(7) if rng is None else rng
        points = sample_paraxial_points(params, point_count, rng, paraxiality)
    mode = ModeIndex(0, 0)
    ratio = np.asarray(exact_psi(params, mode, points)) / np.asarray(
        alternate_exact_psi(params, points)
    )
    c = complex(ratio.mean())
    dev = float(np.max(np.abs(ratio - c)) / abs(c))
    return AlternateComparisonReport(
        paraxiality=paraxiality,
        point_count=int(ratio.size),
        fitted_constant=c,
        max_relative_deviation=dev,
    )


def alternate_correspondence_sweep(params: BeamParams,
                                   paraxialities=(0.02, 0.01, 0.005, 0.0025),
                                   *, point_count: int = 100, rng=None):
    """Halving sweep of compare_alternate; returns (reports, measured orders).

    orders[i] is the log-ratio slope between consecutive paraxiality
    levels; second-order correspondence gives values near 2.
    """
    rng = np.random.default_rng(7) if rng is None else rng
    reports = [
        compare_alternate(params, p, point_count=point_count, rng=rng)
        for p in paraxialities
    ]
    orders = [
        math.log(reports[i].max_relative_deviation / reports[i + 1].max_relative_deviation)
        / math.log(paraxialities[i] / paraxialities[i + 1])
        for i in range(len(reports) - 1)
    ]
    return reports, orders


def gouy_law_errors(params: BeamParams, report: GouyFitReport) -> tuple[float, float]:
    """Errors of a Gouy fit against the law A = -(1+m+n), B = L_R.

    Returns the amplitude error |A + 1 + m + n| and the relative scale
    error |B - L_R| / L_R; each caller applies its own tolerances.
    """
    lr = params.rayleigh_range
    target = -(1 + report.mode.total_order)
    return abs(report.fitted_amplitude - target), abs(report.fitted_scale - lr) / lr


def correspondence_check(params: BeamParams, options: dict) -> tuple[dict, bool]:
    """Paraxiality sweep of the two exact Gaussian families, and its verdict.

    ``options`` is a validated ``compare`` config section: ``paraxialities``,
    ``points``, ``seed`` and ``min_order``. Returns the report entry (the
    sweep's reports, measured orders and the required order) and whether
    every measured order reaches ``min_order``.
    """
    reports, orders = alternate_correspondence_sweep(
        params,
        tuple(options["paraxialities"]),
        point_count=options["points"],
        rng=np.random.default_rng(options["seed"]),
    )
    entry = {
        "reports": [r.to_dict() for r in reports],
        "orders": orders,
        "min_order_required": options["min_order"],
    }
    return entry, min(orders) >= options["min_order"]


# ---------------------------------------------------------------------------
# the verification battery
# ---------------------------------------------------------------------------

#: Fixed mode sets of the suites that do not read the configured modes.
GRAM_MODES = tuple(ModeIndex(m, n) for m in range(3) for n in range(3))
NORMALIZATION_MODES = (ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(2, 1))
GOUY_MODES = (ModeIndex(0, 0), ModeIndex(2, 0), ModeIndex(2, 2))


def _static_envelope(params: BeamParams, mode: ModeIndex):
    """Mutant: an envelope of x3 alone, blind to t."""
    return lambda x1, x2, x3, t: envelope_phi(params, mode, x1, x2, x3)


def _waist_envelope(params: BeamParams, mode: ModeIndex):
    """Mutant: the envelope with the axial phase law of a waist 1% too wide."""
    lr_bad = 0.5 * params.k * (1.01 * params.w0) ** 2

    def corrupted(x1, x2, s):
        shift = (1 + mode.total_order) * (
            np.arctan(np.asarray(s) / params.rayleigh_range) - np.arctan(np.asarray(s) / lr_bad)
        )
        return envelope_phi(params, mode, x1, x2, s) * np.exp(1j * shift)

    return corrupted


def _residual_suite(config, rng, tol, mutant):
    params = config.beam
    count = config.verify_options["points"]
    points = sample_points(params, count, rng)
    exact_reports = [
        residual_full_wave(params, field_function("exact", params, mode), points)
        for mode in config.modes
    ]
    worst_exact = max(r.max_relative_residual for r in exact_reports)
    worst_peak = max(r.max_peak_residual for r in exact_reports)

    forward = sample_points(params, count, rng, x3_range=(0.2, 3.0), spread_with="x3")
    alt_report = residual_full_wave(params, field_function("alternate", params), forward)

    par_reports = [
        residual_full_wave(params, field_function("paraxial", params, mode), points)
        for mode in config.modes
    ]
    worst_par = max(r.max_relative_residual for r in par_reports)
    ratio = worst_par / worst_exact

    passed = (
        worst_peak <= tol["residual_exact"]
        and alt_report.max_peak_residual <= tol["residual_alternate"]
        and ratio >= tol["paraxial_ratio_min"]
    )
    return {
        "exact": [r.to_dict() for r in exact_reports],
        "alternate": alt_report.to_dict(),
        "paraxial": [r.to_dict() for r in par_reports],
        "max_exact_residual": worst_exact,
        "max_peak_residual": worst_peak,
        "paraxial_to_exact_ratio": ratio,
        "tolerance": tol["residual_exact"],
    }, passed


def _reduced_suite(config, rng, tol, mutant):
    params = config.beam
    count = config.verify_options["points"]
    s = rng.uniform(-3.0, 3.0, count) * params.rayleigh_range
    w = spot_radius(params, s)
    x1 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
    x2 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
    reports = [
        residual_reduced(params, mode if mutant is None else mutant(params, mode), (x1, x2, s))
        for mode in config.modes
    ]
    worst_peak = max(r.max_peak_residual for r in reports)
    return {
        "reports": [r.to_dict() for r in reports],
        "max_residual": max(r.max_relative_residual for r in reports),
        "max_peak_residual": worst_peak,
        "tolerance": tol["reduced"],
    }, worst_peak <= tol["reduced"]


def _symmetry_suite(config, rng, tol, mutant):
    params = config.beam
    points = sample_points(params, min(config.verify_options["points"], 100), rng)
    reports = []
    for mode in config.modes:
        envelope = None if mutant is None else mutant(params, mode)
        reports.extend(check_symmetry(params, mode, points, envelope=envelope))
    worst_peak = max(r.max_peak_residual for r in reports)
    return {
        "reports": [r.to_dict() for r in reports],
        "max_mismatch": max(r.max_relative_residual for r in reports),
        "max_peak_residual": worst_peak,
        "tolerance": tol["symmetry"],
    }, worst_peak <= tol["symmetry"]


def _gram_suite(config, rng, tol, mutant):
    params = config.beam
    constants = {(m.m, m.n): compute_normalization(params, m) for m in GRAM_MODES}
    reports = [
        transverse_gram(params, GRAM_MODES, s=plane, constants=constants)
        for plane in (0.0, 5.0 * params.rayleigh_range)
    ]
    worst_off = max(r.max_off_diagonal for r in reports)
    worst_diag = max(r.max_diagonal_deviation for r in reports)
    return {
        "reports": [r.to_dict() for r in reports],
        "max_off_diagonal": worst_off,
        "max_diagonal_deviation": worst_diag,
        "tolerance": tol["gram_off_diagonal"],
    }, worst_off < tol["gram_off_diagonal"] and worst_diag < tol["gram_diagonal"]


def _normalization_suite(config, rng, tol, mutant):
    params = config.beam
    checks = []
    for mode in NORMALIZATION_MODES:
        numeric = compute_normalization(params, mode)
        closed = normalization_constant(params, mode)
        checks.append({"mode": [mode.m, mode.n], "numeric": numeric, "closed_form": closed,
                       "rel_error": abs(numeric - closed) / closed})
    worst = max(c["rel_error"] for c in checks)
    return {
        "checks": checks,
        "max_rel_error": worst,
        "tolerance": tol["normalization_rel"],
    }, worst <= tol["normalization_rel"]


def _gouy_suite(config, rng, tol, mutant):
    params = config.beam
    lr = params.rayleigh_range
    s = np.linspace(-10.0 * lr, 10.0 * lr, 401)
    entries = []
    passed = True
    for mode in GOUY_MODES:
        _, phase, _ = curve = gouy_phase_samples(params, mode, s)
        report = fit_gouy(params, mode, s, curve=curve)
        amp_err, scale_err = gouy_law_errors(params, report)
        span = float(phase[-1] - phase[0])
        target_span = -(1 + mode.total_order) * 2.0 * math.atan(10.0)
        span_err = abs(span - target_span)
        ok = (
            amp_err <= tol["gouy_amplitude"]
            and scale_err <= tol["gouy_scale_rel"]
            and span_err <= tol["gouy_span"]
        )
        passed = passed and ok
        entries.append({**report.to_dict(), "amplitude_error": amp_err,
                        "scale_rel_error": scale_err, "span": span, "span_error": span_err,
                        "passed": ok})
    return {"fits": entries, "tolerance": tol["gouy_amplitude"]}, passed


def _compare_suite(config, rng, tol, mutant):
    return correspondence_check(config.beam, config.compare_options)


@dataclass(frozen=True)
class Suite:
    """One battery entry.

    ``run(config, rng, tolerances, mutant)`` returns the suite's bundle
    entry and verdict. ``mutants`` maps each mutant name the suite must
    FAIL to its builder ``(params, mode) -> envelope``; the selected one
    reaches ``run`` as ``mutant``, otherwise ``mutant`` is None.
    """

    run: Callable
    tolerances: dict
    mutants: dict = field(default_factory=dict)


#: The battery, in run order: each suite with its tolerances and its mutants.
SUITES = {
    "residual": Suite(_residual_suite, {"residual_exact": 1e-6, "residual_alternate": 1e-6,
                                        "paraxial_ratio_min": 1e3}),
    "reduced": Suite(_reduced_suite, {"reduced": 1e-6}, {"gouy_w0_1pct": _waist_envelope}),
    "symmetry": Suite(_symmetry_suite, {"symmetry": 1e-7},
                      {"t_independent_envelope": _static_envelope}),
    "gram": Suite(_gram_suite, {"gram_off_diagonal": 1e-9, "gram_diagonal": 1e-9}),
    "normalization": Suite(_normalization_suite, {"normalization_rel": 1e-10}),
    "gouy": Suite(_gouy_suite, {"gouy_amplitude": 1e-6, "gouy_scale_rel": 1e-6,
                                "gouy_span": 1e-6}),
    "compare": Suite(_compare_suite, {}),  # its threshold is compare.min_order
}

#: Every suite's pass/fail thresholds in one mapping.
SUITE_TOLERANCES = {key: tol for suite in SUITES.values() for key, tol in suite.tolerances.items()}

#: Valid ``verify.mutate`` values: "none" and every mutant a suite declares.
MUTATIONS = ("none", *(name for suite in SUITES.values() for name in suite.mutants))


def run_battery(config) -> dict:
    """Run the configured suites in order and return the verify bundle.

    ``config`` is a parsed run configuration: its beam, modes,
    ``verify_options`` (validated ``suites``, ``points``, ``seed``,
    ``mutate``) and ``compare_options``. One generator seeded with
    ``verify.seed`` feeds the suites in turn, so a suite's sample depends
    on the suites run before it. The entries of suites that declare
    mutants record the ``mutation`` in force.
    """
    if not config.modes:
        raise ConfigError("verify: the mode list must not be empty")
    options = config.verify_options
    rng = np.random.default_rng(options["seed"])
    results = {}
    failed = []
    for name in options["suites"]:
        suite = SUITES[name]
        entry, passed = suite.run(config, rng, suite.tolerances,
                                  suite.mutants.get(options["mutate"]))
        if suite.mutants:
            entry["mutation"] = options["mutate"]
        entry["passed"] = passed
        results[name] = entry
        if not passed:
            failed.append(name)
    return {
        "version": __version__,
        "natural_units": config.natural_units,
        "suites": results,
        "failed_suites": failed,
        "passed": not failed,
    }
