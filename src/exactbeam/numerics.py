"""Foundational numerics: Hermite polynomials and finite-difference stencils.

Everything here is a pure function of its inputs, so all routines stay
safe to call from parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOrderError

#: Highest supported Hermite order; the accuracy of ``hermite`` is tested up to it.
MAX_HERMITE_ORDER = 60


@lru_cache(maxsize=None)
def _doubled_zeros(order: int) -> tuple:
    """2 z_j for the positive zeros z_j of H_order, from the Gauss-Hermite rule."""
    zeros = np.polynomial.hermite.hermgauss(order)[0] if order else ()
    return tuple(2.0 * z for z in zeros[(order + 1) // 2:])


def hermite(order: int, x):
    """Physicists' Hermite polynomial H_order(x).

    Evaluated as a product over the zeros,
    ``H_n(x) = (2x)^(n mod 2) * prod_j (2x - 2z_j)(2x + 2z_j)`` over the
    positive zeros z_j of H_n (cached per order), a running product
    updated in place. Each factor keeps its relative accuracy next to
    its zero, the product is within a few ulps of the sum of the terms'
    moduli of the exact value, and +-inf gives +-inf.

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
    two_x = 2.0 * x
    zeros = _doubled_zeros(order)
    factor = np.empty_like(two_x)
    if order % 2:
        h = two_x.copy()
    elif zeros:
        h = np.subtract(two_x, zeros[0])
        h *= np.add(two_x, zeros[0], out=factor)
        zeros = zeros[1:]
    else:
        h = np.ones_like(x)
    for z in zeros:
        h *= np.subtract(two_x, z, out=factor)
        h *= np.add(two_x, z, out=factor)
    if x.ndim == 0:
        return float(h)
    return h


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
