"""Numerical verification engine.

Every check here is independent of the closed-form derivative algebra
of the evaluators: wave-equation residuals and symmetry relations use
finite differences, orthonormality uses quadrature, the axial phase law
is recovered by nonlinear fitting, and the two exact Gaussian families
are compared through a scale-free fitted constant. Reports are plain
frozen dataclasses with ``to_dict`` for JSON export.

The three finite-difference checks (the full-wave and reduced residuals
and the symmetry check) take their samples through one private sampler,
``_stencil``, which shifts one coordinate by each of ``numerics.OFFSETS``
steps and reuses the field already evaluated at the centre; the
4th-order weights in ``numerics`` turn the samples into derivatives.

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
    FAMILIES,
    BeamParams,
    ModeIndex,
    SpaceTimePoint,
    alternate_exact_psi,
    envelope_phi,
    exact_psi,
    normalization_constant,
    spot_radius,
)
from .errors import ConfigError, GouyPathError, NumericOverflowError, QuadratureConvergenceError
from .numerics import OFFSETS, first_derivative, hermite, second_derivative

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
                  spread_with: str = "s") -> SpaceTimePoint:
    """Random space-time sample for residual scans.

    x3 is uniform over ``x3_range`` and v*t over (-3, 3), in Rayleigh-range
    units. Transverse coordinates are drawn within two local spot radii
    so the field is not vanishingly small at the sample; the spot radius
    is taken at the envelope argument s (exact family) or at x3
    (``spread_with="x3"``, appropriate for the complex-source family
    whose spreading follows x3 alone).
    """
    lr = params.rayleigh_range
    x3 = rng.uniform(x3_range[0], x3_range[1], count) * lr
    vt = rng.uniform(-3.0, 3.0, count) * lr
    t = vt / params.v
    long_arg = 0.5 * (x3 + vt) if spread_with == "s" else x3
    w = spot_radius(params, long_arg)
    x1 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
    x2 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
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


def _point_arrays(points: SpaceTimePoint):
    arrs = np.broadcast_arrays(
        np.asarray(points.x1, dtype=float),
        np.asarray(points.x2, dtype=float),
        np.asarray(points.x3, dtype=float),
        np.asarray(points.t, dtype=float),
    )
    return tuple(np.atleast_1d(a) for a in arrs)


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------


def _stencil(field, coords, axis, step, centre):
    """``field(*coords)`` with ``coords[axis]`` moved by each of ``OFFSETS`` steps.

    Yields the samples in offset order for ``numerics.second_derivative``
    and ``first_derivative``, lazily, so a derivative holds one sample at
    a time, as many as a running sum needs. The zero offset is
    ``centre``, the field already evaluated at ``coords``, so each axis
    costs four field calls.
    """
    for k in OFFSETS:
        if k == 0:
            yield centre
            continue
        shifted = list(coords)
        shifted[axis] = coords[axis] + k * step
        yield field(*shifted)


def default_wave_steps(params: BeamParams) -> dict:
    """Default per-axis stencil steps for the full-wave residual.

    Each step resolves the field's shortest scale along its axis. The
    longitudinal step is min(1e-2/k, 5e-4 L_R): a hundredth of a radian
    of carrier phase, or, below k*w0 = sqrt(40), where L_R shrinks
    faster than the wavelength and the Gouy phase (1+m+n) arctan(s/L_R)
    varies faster than the carrier, 5e-4 of the Rayleigh range. The
    time step is the same in v*t. The transverse step is a thousandth
    of min(w0, L_R), which is w0 from k*w0 = 2 up. Larger steps lose
    accuracy to truncation; much smaller ones lose it to rounding of
    the carrier phase argument, which grows like eps*|k*x3|/(k*h)^2 at
    three Rayleigh ranges.
    """
    lr = params.rayleigh_range
    return {
        "x3_step": min(1e-2 / params.k, 5e-4 * lr),
        "t_step": min(1e-2 / params.omega, 5e-4 * lr / params.v),
        "transverse_step": 1e-3 * min(params.w0, lr),
    }


def residual_full_wave(params: BeamParams, field, points, *, x3_step=None,
                       t_step=None, transverse_step=None,
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

    coords = _point_arrays(points)
    psi = np.asarray(field(SpaceTimePoint(*coords)))
    mag = np.abs(psi)
    keep = mag >= NODE_FLOOR * mag.max()

    psi_at = lambda *c: field(SpaceTimePoint(*c))
    d11, d22, d33, dtt = (
        second_derivative(_stencil(psi_at, coords, axis, step, psi), step)
        for axis, step in enumerate((transverse_step, transverse_step, x3_step, t_step))
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


def residual_reduced(params: BeamParams, envelope, points) -> ResidualReport:
    """Residual of the parabolic envelope equation d11 + d22 + 2ik d/ds = 0.

    ``envelope`` is either a ModeIndex (checks the exact-family
    envelope) or a callable (x1, x2, s) -> complex. ``points`` is an
    (x1, x2, s) triple of arrays. The steps are envelope scales, a
    thousandth of the waist transversely and 5e-4 of the Rayleigh range
    in s: the envelope carries no carrier oscillation, so
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
    transverse_step = 1e-3 * params.w0
    s_step = 5e-4 * params.rayleigh_range

    coords = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in points)
    phi = np.asarray(envelope(*coords))
    mag = np.abs(phi)
    keep = mag >= NODE_FLOOR * mag.max()

    d11 = second_derivative(_stencil(envelope, coords, 0, transverse_step, phi), transverse_step)
    d22 = second_derivative(_stencil(envelope, coords, 1, transverse_step, phi), transverse_step)
    ds = first_derivative(_stencil(envelope, coords, 2, s_step, phi), s_step)
    operator = np.abs(d11 + d22 + 2j * params.k * ds)
    residual = operator / (params.k**2 * mag)

    skipped = int((~keep).sum())
    return ResidualReport(
        equation="reduced_eq12",
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


def check_symmetry(params: BeamParams, mode: ModeIndex, points, *, envelope=None):
    """Check first- and second-derivative interchange of x3 and v*t.

    The exact envelope depends on (x3, t) only through s = (x3+v*t)/2,
    which forces d/dx3 = v^-1 d/dt and d2/dx3^2 = v^-2 d2/dt^2 on it.
    Both mismatches are reported relative to the larger of the two
    sides, pointwise (``max_relative_residual``) and against that
    scale's maximum over the sample (``max_peak_residual``, which stays
    meaningful where both sides pass through zero), so a t-independent
    envelope fails the first-order relation at order unity.
    ``envelope`` overrides the checked function (callable
    (x1, x2, x3, t) -> complex), which is how mutants are injected. Both
    derivatives along an axis come from one set of samples. The x3 step
    is 1e-3 L_R and the v*t step 1.5e-3 L_R, deliberately incommensurate
    so the x3 and t stencils never sample identical s values.
    """
    if envelope is None:
        envelope = FAMILIES["exact"].envelope(params, mode)
    lr = params.rayleigh_range
    x3_step = 1e-3 * lr
    t_step = 1.5e-3 * lr / params.v
    coords = _point_arrays(points)

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

    centre = envelope(*coords)
    along_x3 = tuple(_stencil(envelope, coords, 2, x3_step, centre))
    along_t = tuple(_stencil(envelope, coords, 3, t_step, centre))
    d3 = first_derivative(along_x3, x3_step)
    dt = first_derivative(along_t, t_step)
    first = mismatch("symmetry_eq10", "max(|d/dx3|, |v^-1 d/dt|)", d3, dt / params.v)

    d33 = second_derivative(along_x3, x3_step)
    dtt = second_derivative(along_t, t_step)
    second = mismatch("symmetry_eq11", "max(|d2/dx3^2|, |v^-2 d2/dt^2|)", d33, dtt / params.v**2)
    return first, second


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------


#: Gauss-Hermite nodes per axis beyond the largest mode index of a call, and
#: the further nodes per axis of the convergence re-check. Correct envelopes
#: need no margin: largest index + 1 nodes are exact. The margin is for an
#: envelope that is wrong, say 1% wider than w(s); it is then not exact, and
#: only from 8 extra nodes does its Gram matrix settle within the re-check
#: tolerance up to index 20, so the suite FAILs with the measured error
#: instead of stopping on QuadratureConvergenceError.
_NODE_MARGIN = 8
_RECHECK_NODES = 8
_RECHECK_TOL = 1e-9


def _hermite_rule(node_count: int, width: float):
    """Gauss-Hermite nodes x and weights W on the real line, scaled to spot radius ``width``.

    The rule is ``hermgauss(node_count)`` in xi = sqrt(2) x / width with
    its weight function divided back out, so sum(W * f(x)) is the
    integral of f dx, exact when f is exp(-xi^2) times a polynomial in
    xi of degree below 2 * node_count.
    """
    xi, omega = np.polynomial.hermite.hermgauss(node_count)
    scale = width / math.sqrt(2.0)
    return scale * xi, scale * omega * np.exp(xi * xi)


def _node_count(modes) -> int:
    return max(max(mode.m, mode.n) for mode in modes) + 1 + _NODE_MARGIN


def _gram_matrix(params, modes, s, constants, node_count):
    """conj(F) diag(W) F^T over the tensor grid of ``_hermite_rule`` at width w(s).

    Row i of F is mode i's envelope at the node_count**2 grid points.
    conj(Phi_i) * Phi_j is exp(-xi1^2 - xi2^2) times a polynomial of
    degree m_i + m_j in xi1 and n_i + n_j in xi2, since the curvature
    phases cancel within the pair, so the rule is exact once node_count
    exceeds every index.
    """
    x, w = _hermite_rule(node_count, float(spot_radius(params, s)))
    fields = np.array([
        envelope_phi(params, mode, x[:, None], x[None, :], s, c_mn=c).ravel()
        for mode, c in zip(modes, constants)
    ])
    gram = (np.conj(fields) * np.outer(w, w).ravel()) @ fields.T
    # the integral is Hermitian; mirror the upper triangle so the result is too
    return np.triu(gram) + np.conj(np.triu(gram, 1)).T


def transverse_gram(params: BeamParams, modes, s: float = 0.0, *,
                    constants=None) -> OrthoReport:
    """Gram matrix of normalized envelopes over one transverse plane.

    G[i, j] = integral of conj(Phi_i) * Phi_j dx1 dx2 at fixed s. With
    correct normalization constants this is the identity at every s:
    the w0/w prefactor squares against the Gaussian width growth and
    the curvature phases cancel between the conjugate pair. The
    integral is a Gauss-Hermite rule scaled to w(s), with
    ``_NODE_MARGIN`` more nodes per axis than the largest mode index.
    It is recomputed with ``_RECHECK_NODES`` more nodes and must agree
    entry-wise to ``_RECHECK_TOL``, otherwise
    QuadratureConvergenceError.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in modes]
    if len({(m.m, m.n) for m in modes}) != len(modes):
        raise ValueError("mode list contains duplicates")
    if constants is None:
        cvals = [normalization_constant(params, m) for m in modes]
    elif np.isscalar(constants):
        cvals = [float(constants)] * len(modes)
    else:
        cvals = [constants[(m.m, m.n)] for m in modes]

    nodes = _node_count(modes)
    gram = _gram_matrix(params, modes, s, cvals, nodes)
    gram_fine = _gram_matrix(params, modes, s, cvals, nodes + _RECHECK_NODES)
    drift = float(np.max(np.abs(gram - gram_fine)))
    if drift > _RECHECK_TOL:
        raise QuadratureConvergenceError(
            f"Gram entries moved by {drift:.3e} between {nodes} and "
            f"{nodes + _RECHECK_NODES} nodes per axis (tolerance {_RECHECK_TOL:.1e})"
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
        node_count=nodes,
    )


def compute_normalization(params: BeamParams, mode: ModeIndex) -> float:
    """Numerically determined constant giving the envelope unit transverse norm.

    Integrates the squared unnormalized envelope modulus at the waist
    plane with the Gauss-Hermite rule of :func:`transverse_gram` and
    returns the reciprocal square root. Independent of the closed-form
    constant, which it is used to cross-check.
    """
    norm2 = _gram_matrix(params, [mode], 0.0, [1.0], _node_count([mode]))[0, 0].real
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
    exact = np.asarray(exact_psi(params, ModeIndex(0, 0), points))
    alternate = np.asarray(alternate_exact_psi(params, points))
    with np.errstate(all="ignore"):
        ratio = exact / alternate
    if not np.isfinite(ratio).all():
        raise NumericOverflowError(
            f"compare: the exact to complex-source field ratio is not finite at "
            f"k*w0 = {params.k * params.w0:.6g}, paraxiality {paraxiality}"
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
                                   *, point_count: int = 100, seed: int = 7):
    """Halving sweep of compare_alternate; returns (reports, measured orders).

    orders[i] is the log-ratio slope between consecutive paraxiality
    levels; second-order correspondence gives values near 2. Every level
    draws its points from a generator seeded with ``seed``, so each sees
    the same sample in units of its cone (x3 in L_R/p, rho in p*x3) and
    an order compares one point set at two openings, not the sampling
    noise of two maxima.
    """
    reports = [
        compare_alternate(params, p, point_count=point_count, rng=np.random.default_rng(seed))
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
        seed=options["seed"],
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

#: Modes the gram suite checks besides the configured ones.
GRAM_MODES = tuple(ModeIndex(m, n) for m in range(3) for n in range(3))


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
        residual_full_wave(params, FAMILIES["exact"].psi(params, mode), points)
        for mode in config.modes
    ]
    worst_exact = max(r.max_relative_residual for r in exact_reports)
    worst_peak = max(r.max_peak_residual for r in exact_reports)

    forward = sample_points(params, count, rng, x3_range=(0.2, 3.0), spread_with="x3")
    alt_report = residual_full_wave(params, FAMILIES["alternate"].psi(params, None), forward)

    par_reports = [
        residual_full_wave(params, FAMILIES["paraxial"].psi(params, mode), points)
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
    modes = tuple(dict.fromkeys(GRAM_MODES + tuple(config.modes)))
    reports = [
        transverse_gram(params, modes, s=plane) for plane in (0.0, 5.0 * params.rayleigh_range)
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
    for mode in config.modes:
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
    for mode in config.modes:
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
                      {"t_independent_envelope": FAMILIES["paraxial"].envelope}),
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

    A suite whose numerics raise ``ArithmeticError`` (an overflow guard)
    is not valid at these inputs: its entry is ``{"numeric_guard":
    message}``, it is listed in ``guarded_suites`` instead of
    ``failed_suites``, and the remaining suites still run.
    """
    if not config.modes:
        raise ConfigError("verify: the mode list must not be empty")
    options = config.verify_options
    rng = np.random.default_rng(options["seed"])
    results = {}
    failed = []
    guarded = []
    for name in options["suites"]:
        suite = SUITES[name]
        try:
            entry, passed = suite.run(config, rng, suite.tolerances,
                                      suite.mutants.get(options["mutate"]))
        except ArithmeticError as exc:
            entry, passed = {"numeric_guard": str(exc)}, False
            guarded.append(name)
        else:
            if not passed:
                failed.append(name)
        if suite.mutants:
            entry["mutation"] = options["mutate"]
        entry["passed"] = passed
        results[name] = entry
    return {
        "version": __version__,
        "natural_units": config.natural_units,
        "suites": results,
        "failed_suites": failed,
        "guarded_suites": guarded,
        "passed": not failed and not guarded,
    }
