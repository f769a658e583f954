"""Closed-form beam fields.

All evaluators accept scalar or ndarray coordinates and return numpy
complex values of the matching shape. The carrier wave is always
exp[i(k*x3 - omega*t)]; the envelope families differ in how the
longitudinal coordinate enters:

* exact family: envelope argument s = (x3 + v*t)/2, an exact solution
  of the full wave equation;
* paraxial family: envelope argument x3, the standard beam-optics
  solution of the parabolic equation;
* alternate exact family: spherical wave from a source displaced by
  i*L_R along the axis, a second exact solution with a Gaussian
  paraxial limit;
* rational Gaussian form: the (0,0) exact field written with rational
  complex prefactors instead of spot radius and Gouy factors.

Every evaluator, here and in :mod:`exactbeam.constraint`, is an
elementwise kernel run over blocks of at most ``BLOCK_POINTS`` points
(rows of the broadcast shape) into one preallocated output, so a call
holds its output plus a few cache-sized block temporaries: exact_psi on
1e6 points peaks at about 17.6 MB, of which the output is 16 MB. The
Hermite-Gaussian kernel shared by ``envelope_phi``, ``exact_psi`` and
``paraxial_psi`` forms the exponent in real arithmetic and folds the
carrier phase into the envelope phase, so each point costs one phasor
amplitude * e^{i*phase}. ``_phasor`` builds it from the tangent of the
half angle: numpy (2.4 on x86-64) runs float64 tan in SIMD loops but
complex exp and float64 sin/cos point by point through libm, and even
a scalar tan costs no more than the sin/cos pair inside a complex
exponential. The rational Gaussian form and the angular limit F take
their phasors from it too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutWarning, ConstraintViolationError
from .numerics import hermite

#: Library guard on the total transverse order m + n.
MAX_MODE_SUM = 20

#: Points closer than this (in units of L_R) to the branch cut of the
#: displaced-source complex radius get a BranchCutWarning.
BRANCH_CUT_TOL = 1e-6

#: Points per block of the elementwise field kernels: each float64
#: temporary of a block is 128 KiB, so a block's working set stays in
#: the L2 cache and a call holds a few blocks of temporaries beside its
#: output. That is exactly glibc's default mmap threshold, so each would be a
#: fresh mmap; hence the CLI's allocator policy (``cli._keep_freed_memory``).
BLOCK_POINTS = 16_384

#: 2*pi in three parts for the phase reduction of ``_phasor``: the first
#: two have at most 24 significant bits, so n times either is exact for
#: |n| < 2**29 (|phase| up to about 3.4e9), and the third is the rest.
_TWO_PI_PARTS = (6.2831854820251465, -1.7484555314695172e-07, -6.8604979977715316e-15)


@dataclass(frozen=True)
class BeamParams:
    """Physical beam description.

    Parameters
    ----------
    k : float
        Longitudinal wavenumber (rad/length), > 0.
    w0 : float
        Waist radius (length), > 0.
    v : float
        Propagation speed (length/time), > 0.

    The angular frequency ``omega = k*v``, the Rayleigh range
    ``rayleigh_range = k*w0**2/2`` and the axial displacement constant
    ``a`` (equal to the Rayleigh range for this mode family) are derived.
    """

    k: float
    w0: float
    v: float = 1.0

    def __post_init__(self):
        for name in ("k", "w0", "v"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val!r}")

    @property
    def omega(self) -> float:
        return self.k * self.v

    @property
    def rayleigh_range(self) -> float:
        return 0.5 * self.k * self.w0**2

    @property
    def a(self) -> float:
        return self.rayleigh_range


@dataclass(frozen=True)
class ModeIndex:
    """Transverse Hermite-Gaussian mode pair (m, n), both >= 0, m + n <= 20."""

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            val = getattr(self, name)
            if val != int(val) or val < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {val!r}")
        if self.m + self.n > MAX_MODE_SUM:
            raise ValueError(
                f"mode order m + n = {self.m + self.n} exceeds the library guard {MAX_MODE_SUM}"
            )

    @property
    def total_order(self) -> int:
        return self.m + self.n


@dataclass(frozen=True, eq=False)
class SpaceTimePoint:
    """Cartesian space-time evaluation coordinate.

    Fields may be scalars or broadcasting ndarrays. The spherical view
    (``r``, ``theta``, ``phi``) and the co-moving longitudinal
    coordinate ``s`` are derived.
    """

    x1: float
    x2: float
    x3: float
    t: float = 0.0

    @property
    def rho(self):
        return np.hypot(self.x1, self.x2)

    @property
    def r(self):
        return np.sqrt(np.asarray(self.x1) ** 2 + np.asarray(self.x2) ** 2 + np.asarray(self.x3) ** 2)

    @property
    def theta(self):
        return np.arctan2(self.rho, self.x3)

    @property
    def phi(self):
        return np.arctan2(self.x2, self.x1)

    def s(self, params: BeamParams):
        """Mean of the forward and backward light-cone coordinates, (x3 + v*t)/2."""
        return 0.5 * (np.asarray(self.x3) + params.v * np.asarray(self.t))

    @classmethod
    def from_spherical(cls, r, theta, phi, t=0.0) -> "SpaceTimePoint":
        r = np.asarray(r, dtype=float)
        st = np.sin(theta)
        return cls(
            x1=r * st * np.cos(phi),
            x2=r * st * np.sin(phi),
            x3=r * np.cos(theta),
            t=t,
        )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalization_constant(params: BeamParams, mode: ModeIndex) -> float:
    """Transverse-norm constant C_mn = sqrt(2 / (pi 2**(m+n) m! n!)) / w0.

    Fixes the envelope to unit L2 norm over any transverse plane.
    """
    m, n = mode.m, mode.n
    return math.sqrt(2.0 / (math.pi * 2.0 ** (m + n) * math.factorial(m) * math.factorial(n))) / params.w0


# ---------------------------------------------------------------------------
# geometry factors
# ---------------------------------------------------------------------------


def spot_radius(params: BeamParams, s):
    """Beam spot radius w(s) = w0 * sqrt(1 + (s/L_R)**2)."""
    return params.w0 * np.sqrt(1.0 + (np.asarray(s) / params.rayleigh_range) ** 2)


def gouy_phase(params: BeamParams, mode: ModeIndex, s):
    """Axial phase retardation g_mn(s) = (1 + m + n) * arctan(s/L_R)."""
    return (1 + mode.total_order) * np.arctan(np.asarray(s) / params.rayleigh_range)


# ---------------------------------------------------------------------------
# blocked elementwise evaluation
# ---------------------------------------------------------------------------


def _leading(c, ndim, index):
    """The part of input ``c`` that rows ``index`` (int or slice) of an ndim-axis broadcast see."""
    if c.ndim < ndim:
        return c
    if c.shape[0] == 1:
        return c if isinstance(index, slice) else c[0]
    return c[index]


def _fill(out, kernel, coords):
    row = out.size // out.shape[0]
    if row > BLOCK_POINTS:
        for i in range(out.shape[0]):
            _fill(out[i], kernel, [_leading(c, out.ndim, i) for c in coords])
        return
    rows = BLOCK_POINTS // row
    for start in range(0, out.shape[0], rows):
        block = slice(start, start + rows)
        out[block] = kernel(*(_leading(c, out.ndim, block) for c in coords))


def _blockwise(kernel, *coords, dtype):
    """Evaluate the elementwise ``kernel(*coords)`` in blocks of at most BLOCK_POINTS points.

    The output of the broadcast shape is preallocated and filled in
    blocks of rows along its first axis (in blocks of each row's rows
    when one row holds more than a block). Inputs that span that axis
    are sliced, broadcast ones are passed through as they are, so
    scalars and (n, 1) x (1, n) grids keep working. Inputs of at most
    one block go straight to ``kernel``, which returns a numpy scalar
    for 0-d input.
    """
    coords = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    if math.prod(shape) <= BLOCK_POINTS:
        return kernel(*coords)
    out = np.empty(shape, dtype=dtype)
    _fill(out, kernel, coords)
    return out


def _phasor(amplitude, phase):
    """amplitude * e^{i*phase} for real amplitude and phase, from one tangent per point.

    The phase is reduced to r in [-pi, pi] as phase - n*2pi with
    n = rint(phase/2pi), subtracting n*2pi in the three parts of
    ``_TWO_PI_PARTS`` (Cody-Waite), and t = tan(r/2) then gives
    cos r = (1 - t^2)/(1 + t^2) and sin r = 2t/(1 + t^2). r/2 stays off
    the poles of tan, so |t| < 2e16 and t^2 cannot overflow. Up to
    |phase| = 1e12 the absolute error on unit amplitude is at most
    16 eps + 2 eps |phase|. A NaN or infinite phase gives NaN, as
    np.exp(1j*phase) does. Works in three reused real buffers and
    returns a numpy scalar for 0-d input.
    """
    shape = np.broadcast_shapes(np.shape(amplitude), np.shape(phase))
    n, r, w = np.empty(shape), np.empty(shape), np.empty(shape)
    np.rint(np.multiply(phase, 1.0 / (2.0 * np.pi), out=n), out=n)
    np.subtract(phase, np.multiply(n, _TWO_PI_PARTS[0], out=w), out=r)
    r -= np.multiply(n, _TWO_PI_PARTS[1], out=w)
    r -= np.multiply(n, _TWO_PI_PARTS[2], out=w)
    t = np.tan(np.multiply(r, 0.5, out=r), out=r)
    t2 = np.multiply(t, t, out=n)
    d = np.divide(amplitude, np.add(t2, 1.0, out=w), out=w)
    out = np.empty(shape, dtype=complex)
    np.multiply(d, np.subtract(1.0, t2, out=t2), out=out.real)
    np.multiply(np.add(t, t, out=t), d, out=out.imag)
    return out if out.ndim else out[()]


def _hermite_gauss(params: BeamParams, mode: ModeIndex, c_mn, x1, x2, s, carrier=None):
    """One block of the Hermite-Gaussian envelope, times exp(i*carrier) if given.

    With u = s/L_R, g = 1 + u^2 and a = k rho^2 / (2 L_R g), the
    complex-Lorentzian exponent i k rho^2 / (2 (s - i L_R)) is -a + i a u,
    so the value is the real amplitude C (w0/w) H_m H_n e^{-a} times
    exp(i [a u - (1+m+n) arctan(u) + carrier]): one phasor.
    """
    lr = params.rayleigh_range
    u = s / lr
    g = 1.0 + u * u
    w = params.w0 * np.sqrt(g)
    a = params.k * (x1 * x1 + x2 * x2) / (2.0 * lr * g)
    amplitude = (
        c_mn
        * (params.w0 / w)
        * hermite(mode.m, np.sqrt(2.0) * x1 / w)
        * hermite(mode.n, np.sqrt(2.0) * x2 / w)
        * np.exp(-a)
    )
    phase = a * u - (1 + mode.total_order) * np.arctan(u)
    if carrier is not None:
        phase = phase + carrier
    return _phasor(amplitude, phase)


# ---------------------------------------------------------------------------
# envelope and field evaluators
# ---------------------------------------------------------------------------


def envelope_phi(params: BeamParams, mode: ModeIndex, x1, x2, s, c_mn=None):
    """Hermite-Gaussian envelope of the exact field family.

    Phi_mn(x1, x2, s) = C_mn * (w0/w(s)) * H_m(sqrt(2) x1 / w(s))
    * H_n(sqrt(2) x2 / w(s)) * exp[i k rho^2 / (2 (s - i L_R))]
    * exp[-i g_mn(s)]

    The complex-Lorentzian exponent carries both the Gaussian transverse
    decay and the wavefront curvature; the denominator never vanishes
    for real s since L_R > 0.

    Parameters
    ----------
    x1, x2, s : float or ndarray
        Transverse coordinates and longitudinal envelope argument.
    c_mn : float, optional
        Normalization override; defaults to the closed-form constant.
    """
    if c_mn is None:
        c_mn = normalization_constant(params, mode)
    return _blockwise(
        lambda x1, x2, s: _hermite_gauss(params, mode, c_mn, x1, x2, s),
        x1, x2, s, dtype=complex,
    )


def exact_psi(params: BeamParams, mode: ModeIndex, p: SpaceTimePoint, c_mn=None):
    """Exact Hermite-Gaussian solution of the full wave equation.

    Psi_mn = Phi_mn(x1, x2, (x3 + v t)/2) * exp[i(k x3 - omega t)].
    The half-sum argument makes the envelope constant along backward
    light rays, which is what promotes the paraxial profile to an exact
    solution.
    """
    if c_mn is None:
        c_mn = normalization_constant(params, mode)

    def kernel(x1, x2, x3, t):
        s = 0.5 * (x3 + params.v * t)
        return _hermite_gauss(params, mode, c_mn, x1, x2, s, params.k * x3 - params.omega * t)

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


def paraxial_psi(params: BeamParams, mode: ModeIndex, p: SpaceTimePoint, c_mn=None):
    """Standard paraxial Hermite-Gaussian beam: envelope argument x3 instead of s.

    Coincides with :func:`exact_psi` exactly on the co-moving surface
    t = x3/v and differs elsewhere.
    """
    if c_mn is None:
        c_mn = normalization_constant(params, mode)

    def kernel(x1, x2, x3, t):
        return _hermite_gauss(params, mode, c_mn, x1, x2, x3, params.k * x3 - params.omega * t)

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


def paraxial_schrodinger_psi(params: BeamParams, mode: ModeIndex, p: SpaceTimePoint,
                             tolerance: float = 1e-9, c_mn=None):
    """Schroedinger-form evaluation of the paraxial beam on t = x3/v.

    The paraxial envelope equation is a free Schroedinger equation in the
    transverse plane with x3 playing the role of time; its solution is
    only identified with the beam field on the co-moving surface
    t = x3/v. Points farther than ``tolerance * L_R`` (measured as
    |x3 - v t|) from that surface are rejected.
    """
    gap = np.abs(np.asarray(p.x3) - params.v * np.asarray(p.t))
    if np.any(gap > tolerance * params.rayleigh_range):
        worst = float(np.max(gap))
        raise ConstraintViolationError(
            f"point lies off the t = x3/v surface by |x3 - v t| = {worst:.3e} "
            f"(allowed {tolerance:.1e} * L_R = {tolerance * params.rayleigh_range:.3e})"
        )
    return paraxial_psi(params, mode, p, c_mn=c_mn)


def _warn_near_branch_cut(lr, x1, x2, x3):
    """Warn, attributed to the caller of the public evaluator, near the cut {x3 = 0, rho <= L_R}."""
    x3 = np.asarray(x3, dtype=float)
    on_plane = (x3 >= -BRANCH_CUT_TOL * lr) & (x3 <= BRANCH_CUT_TOL * lr)
    if not np.any(on_plane):
        return
    rho2 = np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    if np.any(on_plane & (rho2 <= (lr * (1.0 + BRANCH_CUT_TOL)) ** 2)):
        warnings.warn(
            "evaluation point within 1e-6 * L_R of the complex-radius branch cut "
            "{x3 = 0, rho <= L_R}; field value is branch-sensitive there",
            BranchCutWarning,
            stacklevel=3,
        )


def complex_source_radius(params: BeamParams, x1, x2, x3, warn: bool = True):
    """Complex distance R = sqrt(x1^2 + x2^2 + (x3 - i L_R)^2) from the displaced source.

    Principal square root; for rho -> 0 with x3 > 0 this reduces to
    x3 - i*L_R exactly. The branch cut of the principal root lies on
    {x3 = 0, rho <= L_R}; points within ``BRANCH_CUT_TOL * L_R`` of it
    trigger a :class:`BranchCutWarning` (the field jumps across the cut
    and 1/R diverges at its edge rho = L_R).
    """
    lr = params.rayleigh_range
    if warn:
        _warn_near_branch_cut(lr, x1, x2, x3)
    rho2 = np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    x3 = np.asarray(x3, dtype=float)
    return np.sqrt(rho2 + (x3 - 1j * lr) ** 2)


def alternate_exact_psi(params: BeamParams, p: SpaceTimePoint, scaled_amplitude=1.0):
    """Second exact Gaussian solution: spherical wave from a complex source point.

    Evaluates (L_R/R) * exp[i k R - i omega t] for the complex radius
    R of :func:`complex_source_radius`, in the overflow-safe rescaled
    form

        scaled_amplitude * (L_R/R) * exp[i k (R + i L_R)] * exp(-i omega t).

    The raw source-strength constant of the unscaled form is smaller by
    exp(k*L_R), a factor that overflows double precision for realistic
    beams (k*L_R is ~1e3 for optical parameters), so the product
    ``scaled_amplitude = raw_constant * exp(k*L_R)`` is the user-facing
    amplitude. For x3 > 0 the exponent ik(R + i L_R) has non-positive
    real part, so the evaluation never overflows there. One
    :class:`BranchCutWarning` covers the whole call.
    """
    lr = params.rayleigh_range
    _warn_near_branch_cut(lr, p.x1, p.x2, p.x3)

    def kernel(x1, x2, x3, t):
        R = complex_source_radius(params, x1, x2, x3, warn=False)
        phase = 1j * params.k * (R + 1j * lr) - 1j * params.omega * t
        return scaled_amplitude * (lr / R) * np.exp(phase)

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


def bateman_gaussian_psi(params: BeamParams, p: SpaceTimePoint, c00=None):
    """Exact (0,0) Gaussian field in rational form.

    C_00 * L_R / (L_R + i u/2) * exp[i k rho^2 / (u - 2 i L_R)]
    * exp[i(k x3 - omega t)], with u = x3 + v*t. With
    q = k rho^2 / (u^2 + 4 L_R^2) the first exponent is -2 L_R q + i q u,
    so the two exponentials are one phasor of amplitude e^{-2 L_R q} and
    phase q u + k x3 - omega t. Algebraically identical to
    :func:`exact_psi` at mode (0,0): the rational prefactor folds the
    w0/w(s) amplitude decay and the Gouy factor into one complex
    Lorentzian.
    """
    if c00 is None:
        c00 = normalization_constant(params, ModeIndex(0, 0))
    lr = params.rayleigh_range

    def kernel(x1, x2, x3, t):
        u = x3 + params.v * t
        q = params.k * (x1**2 + x2**2) / (u**2 + 4.0 * lr**2)
        phase = q * u + (params.k * x3 - params.omega * t)
        return c00 * lr / (lr + 0.5j * u) * _phasor(np.exp(-2.0 * lr * q), phase)

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


# ---------------------------------------------------------------------------
# field family dispatch (verifier and CLI plumbing)
# ---------------------------------------------------------------------------

FIELD_FAMILIES = ("exact", "paraxial", "alternate", "gaussian")


def field_function(family: str, params: BeamParams, mode: ModeIndex = None):
    """Return ``psi(p: SpaceTimePoint) -> complex`` for a named solution family.

    ``mode`` is required for the "exact" and "paraxial" families and
    ignored by the single-mode "alternate" and "gaussian" ones.
    """
    if family == "exact":
        if mode is None:
            raise ValueError("the exact family needs a mode index")
        return lambda p: exact_psi(params, mode, p)
    if family == "paraxial":
        if mode is None:
            raise ValueError("the paraxial family needs a mode index")
        return lambda p: paraxial_psi(params, mode, p)
    if family == "alternate":
        return lambda p: alternate_exact_psi(params, p)
    if family == "gaussian":
        return lambda p: bateman_gaussian_psi(params, p)
    raise ValueError(f"unknown field family {family!r}; choose from {FIELD_FAMILIES}")
