"""Foundational numerics: Hermite polynomials, quadrature, finite-difference stencils.

Everything here is a pure function of its inputs. The only shared state
is a per-node-count cache of the Gauss-Legendre rule on [-1, 1], whose
arrays are read-only, so all routines stay safe to call from parallel
sweeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError

#: Highest Hermite order the three-term recurrence is allowed to reach.
#: Beyond this the coefficients grow enough that double precision degrades.
MAX_HERMITE_ORDER = 60


def hermite(order: int, x):
    """Physicists' Hermite polynomial H_order(x).

    Evaluated with the three-term recurrence
    ``H_{k+1}(x) = 2 x H_k(x) - 2 k H_{k-1}(x)`` seeded by H_0 = 1 and
    H_1(x) = 2x, updating two buffers in place.

    Parameters
    ----------
    order : int
        Polynomial order, ``0 <= order <= MAX_HERMITE_ORDER``.
    x : float or ndarray
        Evaluation abscissa(e).

    Returns
    -------
    float or ndarray
        H_order(x), same shape as ``x``.
    """
    if order != int(order) or order < 0:
        raise UnsupportedOrderError(f"Hermite order must be a non-negative integer, got {order!r}")
    order = int(order)
    if order > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"Hermite order {order} exceeds the supported maximum {MAX_HERMITE_ORDER}"
        )
    x = np.asarray(x, dtype=float)
    h = np.ones_like(x)
    if order > 0:
        two_x = 2.0 * x
        h_prev, h = h, two_x.copy()
        for k in range(1, order):
            # h_prev <- 2x h - 2k h_prev, in place: the same two roundings
            # as the out-of-place form, since a - b is a + (-b) in IEEE 754
            h_prev *= -2.0 * k
            h_prev += two_x * h
            h_prev, h = h, h_prev
    if x.ndim == 0:
        return float(h)
    return h


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule on a rectangle.

    ``domain`` is either a single ``(lo, hi)`` interval applied to every
    axis or a tuple of per-axis intervals.
    """

    node_count: int = 96
    domain: tuple = ((-8.0, 8.0),)

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        dom = self.domain
        if np.isscalar(dom[0]):
            dom = (tuple(dom),)
        dom = tuple((float(lo), float(hi)) for lo, hi in dom)
        for lo, hi in dom:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"interval bounds must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"interval bounds must be ordered, got ({lo}, {hi})")
        object.__setattr__(self, "domain", dom)

    def interval(self, axis: int) -> tuple[float, float]:
        if len(self.domain) == 1:
            return self.domain[0]
        return self.domain[axis]

    def with_nodes(self, node_count: int) -> "QuadratureSpec":
        return QuadratureSpec(node_count, self.domain)


@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per node count."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quadrature_nodes(spec: QuadratureSpec, axis: int = 0):
    """Nodes and weights of ``spec``'s rule on the given axis interval."""
    lo, hi = spec.interval(axis)
    half = 0.5 * (hi - lo)
    x, w = _legendre_rule(spec.node_count)
    return 0.5 * (hi + lo) + half * x, half * w


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

# central stencils, indexed by accuracy order
_D2_WEIGHTS = {
    2: (np.array([1.0, -2.0, 1.0]), 1),
    4: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
}
_D1_WEIGHTS = {
    2: (np.array([-0.5, 0.0, 0.5]), 1),
    4: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, 2),
}


@dataclass(frozen=True)
class StencilSpec:
    """Central finite-difference stencil: step size and accuracy order (2 or 4)."""

    step: float
    accuracy_order: int = 4

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.accuracy_order not in _D2_WEIGHTS:
            raise ValueError(f"accuracy_order must be one of {sorted(_D2_WEIGHTS)}")


def _apply_stencil(f, at, step, weights, reach, centre=None):
    at = np.asarray(at, dtype=float)
    total = None
    for k, w in zip(range(-reach, reach + 1), weights):
        if w == 0.0:
            continue
        value = centre if k == 0 and centre is not None else f(at + k * step)
        term = w * np.asarray(value)
        total = term if total is None else total + term
    return total


def second_derivative(f, at, spec: StencilSpec, centre=None):
    """Central finite-difference estimate of f'' at ``at``.

    ``f`` may return real or complex values and must accept ndarray input
    of the same shape as ``at``. Error is O(step**accuracy_order).
    ``centre``, if given, is the already evaluated ``f(at)``; it replaces
    the centre-node call, which gives the same bits since
    ``at + 0*step == at``.
    """
    weights, reach = _D2_WEIGHTS[spec.accuracy_order]
    return _apply_stencil(f, at, spec.step, weights / spec.step**2, reach, centre)


def first_derivative(f, at, spec: StencilSpec):
    """Central finite-difference estimate of f' at ``at`` (same conventions)."""
    weights, reach = _D1_WEIGHTS[spec.accuracy_order]
    return _apply_stencil(f, at, spec.step, weights / spec.step, reach)
