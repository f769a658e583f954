"""Foundational numerics: Hermite polynomials and finite-difference stencils.

Everything here is a pure function of its inputs, so all routines stay
safe to call from parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError

#: Highest Hermite order the three-term recurrence is allowed to reach.
#: Beyond this the coefficients grow enough that double precision degrades.
MAX_HERMITE_ORDER = 60


def hermite(order: int, x):
    """Physicists' Hermite polynomial H_order(x).

    Evaluated with the three-term recurrence
    ``H_{k+1}(x) = 2 x H_k(x) - 2 k H_{k-1}(x)`` seeded by H_1(x) = 2x and
    H_2(x) = (2x)^2 - 2, updating two buffers in place.

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
    if order == 0:
        h = np.ones_like(x)
    else:
        h = two_x = 2.0 * x
    if order > 1:
        h_prev, h = two_x.copy(), np.multiply(two_x, two_x)
        h -= 2.0
        term = np.empty_like(h)
        for k in range(2, order):
            # h_prev <- 2x h - 2k h_prev, in place: the same two roundings
            # as the out-of-place form, since a - b is a + (-b) in IEEE 754
            h_prev *= -2.0 * k
            h_prev += np.multiply(two_x, h, out=term)
            h_prev, h = h, h_prev
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
