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

``FAMILIES`` declares each of them once, under the name a run
configuration gives it ("exact", "paraxial", "alternate", "gaussian"):
whether it takes a mode, its field and, where a caller needs it, its
envelope.

Every evaluator, here and in :mod:`exactbeam.constraint`, is an
elementwise kernel that writes blocks of at most ``BLOCK_POINTS`` points
(rows of the broadcast shape) of one preallocated output in place, so a
call holds its output plus a few block temporaries per thread. An output
of at least two blocks per usable CPU is filled on min(usable CPUs,
blocks // 2, 3) threads (``_threads.run_blocks``), each taking the next
block when it finishes one; smaller outputs, such as every call of
``beam verify``, are filled in the calling thread. The bits do not depend
on the thread count. exact_psi on 1e6 points peaks at about 18.5 MB on
one thread, 20.3 MB on two and 22 MB on three, the most it ever uses, of
which the output is 16 MB. The kernels
work in real arithmetic on reused buffers, with their scalar factors
folded into one multiply:

* the Hermite-Gaussian kernel shared by ``envelope_phi``, ``exact_psi``
  and ``paraxial_psi`` forms xi and the Gaussian exponent from one
  h = 1/(2 w^2), and calls :func:`exactbeam.numerics.hermite` only from
  order 2;
* the carrier phase k*x3 - omega*t is rounded once, halved exactly and
  reduced by the nearest multiple of pi before the envelope phase is
  added, so their sum rounds at the scale of pi;
* each complex value is one rotation amplitude * e^{2i*half} from
  t = tan(half) (``_rotate``): numpy (2.4 on x86-64) runs float64 tan in
  SIMD loops, accurate to an ulp for any argument, but complex exp,
  complex sqrt and float64 sin/cos point by point through libm;
* the complex-source field takes its principal root R from libm's hypot
  and two real square roots, and folds L_R/R, as (Re R - i Im R)/|R|^2,
  into the rotation; the rational Gaussian form folds its Lorentzian
  prefactor in the same way;
* the density D and the angular limit F square their Hermite products.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._threads import run_blocks
from .errors import BranchCutWarning
from .numerics import hermite

#: Library guard on the total transverse order m + n.
MAX_MODE_SUM = 20

#: Points closer than this (in units of L_R) to the branch cut of the
#: displaced-source complex radius get a BranchCutWarning.
BRANCH_CUT_TOL = 1e-6

#: Points per block of the elementwise field kernels. A kernel holds about
#: ten float64 temporaries of 192 KiB per block, so a call holds its
#: output plus that per thread (``_threads.MAX_THREADS`` at most). On 2 vCPUs, two threads filling 1e6 points
#: summed 173-242 ns/point over the nine benchmarked evaluators with this
#: block, 166-233 with 32,768 points and 216-262 with 16,384: with blocks
#: that small each ufunc of a few microseconds hands the interpreter lock
#: over, which eats the second thread's gain, while larger blocks cost
#: more in one thread and add memory per thread. A 20,001-point call, the
#: largest of ``beam verify``, is one block. The temporaries are above
#: glibc's default mmap threshold, so each would be a fresh mmap; hence the
#: CLI's allocator policy (``cli._keep_freed_memory``).
BLOCK_POINTS = 24_576

#: pi in two parts for the reductions of ``_reduce_angle``: the first has 24
#: significant bits, so n times it is exact for |n| < 2**29, and the second is the
#: rest of pi rounded to double.
_PI_PARTS = (3.1415927410125732, -8.742278000372485e-08)


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


def _blocks(out, coords):
    """(output block, its inputs) for every block of at most BLOCK_POINTS points, in order."""
    row = out.size // out.shape[0]
    if row > BLOCK_POINTS:
        for i in range(out.shape[0]):
            yield from _blocks(out[i], [_leading(c, out.ndim, i) for c in coords])
        return
    rows = BLOCK_POINTS // row
    for start in range(0, out.shape[0], rows):
        block = slice(start, start + rows)
        yield (out[block], *(_leading(c, out.ndim, block) for c in coords))


def _blockwise(kernel, *coords, dtype):
    """Evaluate the elementwise ``kernel(out, *coords)`` in blocks of at most BLOCK_POINTS points.

    The output of the broadcast shape is preallocated and the kernel
    writes each block of it in place: blocks of rows along its first
    axis, or of each row's rows when one row holds more than a block.
    Inputs that span that axis are sliced, broadcast ones are passed
    through as they are, so scalars and (n, 1) x (1, n) grids keep
    working. An output of at most one block is filled in one call;
    0-d input is evaluated as one point and gives a numpy scalar. The
    blocks go to ``_threads.run_blocks``, which fills an output of two
    or more blocks per usable CPU on several threads; each block is
    computed alone, so the bits do not depend on the thread count.
    """
    coords = [np.asarray(c, dtype=float) for c in coords]
    out = np.empty(np.broadcast_shapes(*(c.shape for c in coords)), dtype=dtype)
    if out.ndim == 0:
        kernel(out.reshape(1), *(c.reshape(1) for c in coords))
        return out[()]
    if out.size <= BLOCK_POINTS:
        kernel(out, *coords)
        return out
    run_blocks(kernel, list(_blocks(out, coords)))
    return out


def _rotate(out, amplitude, half, factor=None):
    """out <- amplitude * e^{2i*half} * (a - i b) on block buffers, overwriting amplitude and half.

    ``factor`` is (a, b), with a = None for 1, or None for no factor.
    t = tan(half) gives cos(2 half) = (1 - t^2)/(1 + t^2) and
    sin(2 half) = 2t/(1 + t^2). numpy's float64 tan is accurate to an
    ulp for any finite argument, so the phase needs no reduction, and no
    double comes closer than about 2**-61 to a pole of tan (the worst
    case of argument reduction), so |t| < 2**62 and t^2 cannot overflow.
    A NaN or infinite ``half`` gives NaN. The complex factor is applied
    in real arithmetic: numpy's complex multiply may round differently on
    a short tail than in its vector loop.
    """
    t = np.tan(half, out=half)
    den = np.multiply(t, t)
    cos = np.subtract(1.0, den)
    den += 1.0
    amplitude /= den
    sin = np.add(t, t, out=t)
    if factor is not None:
        # (cos + i sin)(a - i b) = (a cos + b sin) + i (a sin - b cos)
        a, b = factor
        sin_b = np.multiply(sin, b, out=den)
        cos_b = np.multiply(cos, b)
        if a is not None:
            cos *= a
            sin *= a
        cos += sin_b
        sin -= cos_b
    np.multiply(cos, amplitude, out=out.real)
    np.multiply(sin, amplitude, out=out.imag)


def _reduce_angle(angle, period=np.pi, offset=0.0):
    """angle - (n + offset)*period with n = rint(angle/period - offset), in place.

    ``angle`` is a block buffer, ``period`` is pi or pi/2 and ``offset``
    is 0 or 1/2. (n + offset) times the first part of ``_PI_PARTS``
    scaled to the period is exact for |n| < 2**28 and its subtraction is
    exact (Sterbenz), so the result, in [-period/2, period/2], keeps its
    relative accuracy near 0 and is off by at most about an ulp of
    period/2 plus |n| * 1e-23.
    """
    scale = period / np.pi
    turns = np.multiply(angle, 1.0 / period, out=np.empty(angle.shape))
    if offset:
        turns -= offset
        np.rint(turns, out=turns)
        turns += offset
    else:
        np.rint(turns, out=turns)
    angle -= np.multiply(turns, scale * _PI_PARTS[0])
    angle -= np.multiply(turns, scale * _PI_PARTS[1], out=turns)
    return angle


def _hermite_pair(m, n, x1, x2, root):
    """H_m(x1 root) H_n(x2 root) on a block, or None for m = n = 0.

    Orders 0 and 1 need no product over zeros (H_0 = 1, H_1 = 2 xi); higher
    orders call :func:`exactbeam.numerics.hermite`.
    """
    product = None
    for order, x in ((m, x1), (n, x2)):
        if order:
            xi = np.multiply(x, root)
            factor = np.multiply(xi, 2.0, out=xi) if order == 1 else hermite(order, xi)
            if product is None:
                product = factor
            else:
                product *= factor
    return product


def _hermite_gauss(out, params: BeamParams, mode: ModeIndex, c_mn, x1, x2, u, half_carrier=None):
    """One block of the Hermite-Gaussian envelope at u = s/L_R, times exp(2i*half_carrier) if given.

    ``u`` is a block buffer that the kernel overwrites, and
    ``half_carrier`` one that it reads. With g = 1 + u^2 and
    h = 1/(2 w0^2 g), the spot radius is w = w0 sqrt(g), xi = sqrt(2) x/w
    = 2 sqrt(h) x, and the complex-Lorentzian exponent
    i k rho^2 / (2 (s - i L_R)) is -a + i a u with a = 2 h rho^2. The value
    is the real amplitude C (w0/w) H_m(xi1) H_n(xi2) e^{-a}, with
    w0/w = w0 sqrt(2h), times exp(i [a u - (1+m+n) arctan(u) + carrier]):
    one rotation by the half angle h rho^2 u - (1+m+n) arctan(u)/2 + carrier/2.
    """
    m, n = mode.m, mode.n
    g = np.multiply(u, u)
    g += 1.0
    h = np.divide(0.5 / params.w0**2, g, out=g)
    half_a = np.multiply(x1, x1, out=np.empty(out.shape))
    half_a += np.multiply(x2, x2)
    half_a *= h
    amplitude = np.multiply(half_a, -2.0)
    np.exp(amplitude, out=amplitude)
    root = np.sqrt(h, out=h)
    amplitude *= root
    if m or n:
        root *= 2.0
        amplitude *= _hermite_pair(m, n, x1, x2, root)
    amplitude *= c_mn * params.w0 * math.sqrt(2.0)
    half = np.multiply(half_a, u, out=half_a)
    half -= np.multiply(np.arctan(u, out=u), 0.5 * (1 + m + n), out=u)
    if half_carrier is not None:
        half += half_carrier
    _rotate(out, amplitude, half)


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
    inv_lr = 1.0 / params.rayleigh_range

    def kernel(out, x1, x2, s):
        u = np.multiply(s, inv_lr, out=np.empty(out.shape))
        _hermite_gauss(out, params, mode, c_mn, x1, x2, u)

    return _blockwise(kernel, x1, x2, s, dtype=complex)


def _half_carrier(params: BeamParams, x3, t, shape):
    """(k x3 - omega t)/2 reduced to [-pi/2, pi/2], before the envelope phase is added.

    The carrier phase is rounded once, as k x3 - omega t (its half is
    exact), and reduced nearly exactly, so the sum with the small
    envelope phase rounds at the scale of pi instead of |k x3 - omega t|.
    """
    half = np.multiply(x3, 0.5 * params.k, out=np.empty(shape))
    half -= np.multiply(t, 0.5 * params.omega)
    return _reduce_angle(half)


def exact_psi(params: BeamParams, mode: ModeIndex, p: SpaceTimePoint):
    """Exact Hermite-Gaussian solution of the full wave equation.

    Psi_mn = Phi_mn(x1, x2, (x3 + v t)/2) * exp[i(k x3 - omega t)].
    The half-sum argument makes the envelope constant along backward
    light rays, which is what promotes the paraxial profile to an exact
    solution.
    """
    c_mn = normalization_constant(params, mode)
    half_inv_lr = 0.5 / params.rayleigh_range

    def kernel(out, x1, x2, x3, t):
        u = np.multiply(t, params.v, out=np.empty(out.shape))
        u += x3
        u *= half_inv_lr
        _hermite_gauss(out, params, mode, c_mn, x1, x2, u, _half_carrier(params, x3, t, out.shape))

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


def paraxial_psi(params: BeamParams, mode: ModeIndex, p: SpaceTimePoint):
    """Standard paraxial Hermite-Gaussian beam: envelope argument x3 instead of s.

    Coincides with :func:`exact_psi` exactly on the co-moving surface
    t = x3/v and differs elsewhere.
    """
    c_mn = normalization_constant(params, mode)
    inv_lr = 1.0 / params.rayleigh_range

    def kernel(out, x1, x2, x3, t):
        u = np.multiply(x3, inv_lr, out=np.empty(out.shape))
        _hermite_gauss(out, params, mode, c_mn, x1, x2, u, _half_carrier(params, x3, t, out.shape))

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


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


def alternate_exact_psi(params: BeamParams, p: SpaceTimePoint):
    """Second exact Gaussian solution: spherical wave from a complex source point.

    Evaluates (L_R/R) * exp[i k R - i omega t] for the complex distance
    R = sqrt(x1^2 + x2^2 + (x3 - i L_R)^2) from the displaced source, in
    the overflow-safe rescaled form

        (L_R/R) * exp[i k (R + i L_R)] * exp(-i omega t).

    It is the unscaled form times exp(k*L_R), a factor that overflows
    double precision for realistic beams (k*L_R is ~1e3 for optical
    parameters), so the field is evaluated and returned in the rescaled
    form. For x3 > 0 the exponent ik(R + i L_R) has non-positive real
    part, so the evaluation never overflows there.

    R is the principal root, taken in real arithmetic: with
    R^2 = A + iB, A = rho^2 + x3^2 - L_R^2, B = -2 L_R x3 and M = |R^2|,
    big = sqrt((M + |A|)/2) and small = |B|/(2 big) are Re R and |Im R|
    for A >= 0 and the other way round for A < 0, and Im R has the sign
    of B, with B = +0 at x3 = +-0 as the complex form had it. Then
    (L_R/R) e^{ik(R + i L_R)} = L_R e^{-k (Im R + L_R)}/M
    * (Re R - i Im R) * e^{i k Re R}: one phasor times the conjugate
    radius. The branch cut of the principal root lies on
    {x3 = 0, rho <= L_R}; points within ``BRANCH_CUT_TOL * L_R`` of it
    trigger one :class:`BranchCutWarning` for the whole call (the field
    jumps across the cut and 1/R diverges at its edge rho = L_R).
    """
    lr = params.rayleigh_range
    _warn_near_branch_cut(lr, p.x1, p.x2, p.x3)

    def kernel(out, x1, x2, x3, t):
        # A/2 and B/2, rounded as in the complex form; B/2 = 0 - L_R x3 is +0 at x3 = +-0
        half_a = np.multiply(x1, x1, out=np.empty(out.shape))
        half_a += np.multiply(x2, x2)
        half_b = np.multiply(x3, x3, out=np.empty(out.shape))
        half_b -= lr * lr
        half_a += half_b
        half_a *= 0.5
        np.multiply(x3, lr, out=half_b)
        np.subtract(0.0, half_b, out=half_b)
        # libm's hypot, as in the complex sqrt: no overflow, and Re R to the last bit
        modulus = np.hypot(half_a, half_b)
        big = np.abs(half_a)
        big += modulus
        np.sqrt(big, out=big)
        small = np.abs(half_b)
        small /= big
        # Re R = max(+-big, small) and |Im R| = max(-+big, small), + for A >= 0
        np.copysign(big, half_a, out=big)
        re = np.maximum(big, small)
        im = np.maximum(np.negative(big, out=big), small, out=small)
        np.copysign(im, half_b, out=im)
        amplitude = np.add(im, lr, out=big)
        amplitude *= -params.k
        np.exp(amplitude, out=amplitude)
        amplitude *= np.divide(0.5 * lr, modulus, out=modulus)
        half = np.multiply(re, 0.5 * params.k, out=half_a)
        half -= np.multiply(t, 0.5 * params.omega, out=half_b)
        _rotate(out, amplitude, half, (re, im))

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


def bateman_gaussian_psi(params: BeamParams, p: SpaceTimePoint):
    """Exact (0,0) Gaussian field in rational form.

    C_00 * L_R / (L_R + i u/2) * exp[i k rho^2 / (u - 2 i L_R)]
    * exp[i(k x3 - omega t)], with u = x3 + v*t. With b = u/(2 L_R) and
    q = k rho^2 / (u^2 + 4 L_R^2) the prefactor is (1 - i b)/(1 + b^2)
    and the first exponent is -2 L_R q + i q u, so the value is one
    phasor of amplitude C_00 e^{-2 L_R q}/(1 + b^2) and phase
    q u + k x3 - omega t, times 1 - i b. Algebraically identical to
    :func:`exact_psi` at mode (0,0): the rational prefactor folds the
    w0/w(s) amplitude decay and the Gouy factor into one complex
    Lorentzian.
    """
    c00 = normalization_constant(params, ModeIndex(0, 0))
    lr = params.rayleigh_range
    k = params.k

    def kernel(out, x1, x2, x3, t):
        b = np.multiply(t, params.v, out=np.empty(out.shape))
        b += x3
        b *= 0.5 / lr
        inv = np.multiply(b, b)
        inv += 1.0
        np.divide(1.0, inv, out=inv)
        # q = k/(4 L_R^2) * rho^2/(1 + b^2), so 2 L_R q and q u/2 = L_R q b are scalings of it
        q = np.multiply(x1, x1, out=np.empty(out.shape))
        q += np.multiply(x2, x2)
        q *= inv
        amplitude = np.multiply(q, -0.5 * k / lr)
        np.exp(amplitude, out=amplitude)
        amplitude *= inv
        amplitude *= c00
        half = np.multiply(q, b, out=q)
        half *= 0.25 * k / lr
        half += _half_carrier(params, x3, t, out.shape)
        _rotate(out, amplitude, half, (None, b))

    return _blockwise(kernel, p.x1, p.x2, p.x3, p.t, dtype=complex)


# ---------------------------------------------------------------------------
# the field families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One solution family, as the verifier and the CLI see it.

    ``psi(params, mode)`` returns ``field(p: SpaceTimePoint) -> complex``;
    ``takes_mode`` says whether ``mode`` selects the transverse mode, and
    single-mode families ignore it. ``envelope(params, mode)``, where
    declared, returns u(x1, x2, x3, t) with psi = u * exp[i(k x3 - omega t)].
    Both call the evaluators through this module's globals, so a patched
    binding of an evaluator is what they reach.
    """

    takes_mode: bool
    psi: Callable
    envelope: Callable | None = None


#: Every solution family by its configuration name, each declared once.
FAMILIES = {
    "exact": Family(
        True,
        lambda params, mode: lambda p: exact_psi(params, mode, p),
        lambda params, mode: lambda x1, x2, x3, t: envelope_phi(
            params, mode, x1, x2, 0.5 * (x3 + params.v * t)
        ),
    ),
    "paraxial": Family(
        True,
        lambda params, mode: lambda p: paraxial_psi(params, mode, p),
        lambda params, mode: lambda x1, x2, x3, t: envelope_phi(params, mode, x1, x2, x3),
    ),
    "alternate": Family(False, lambda params, mode: lambda p: alternate_exact_psi(params, p)),
    "gaussian": Family(False, lambda params, mode: lambda p: bateman_gaussian_psi(params, p)),
}
