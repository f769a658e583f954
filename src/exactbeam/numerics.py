"""Foundational numerics: Hermite polynomials and 4th-order central differences.

The differences combine field samples the caller has already taken at the
five ``OFFSETS``; ``verify`` takes them.

Everything here is a pure function of its inputs, so all routines stay
safe to call from parallel sweeps.
"""

from __future__ import annotations

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

#: Offsets, in steps, of the samples the derivatives below take, in this order.
OFFSETS = (-2, -1, 0, 1, 2)

_D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D1_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def _weighted_sum(samples, weights):
    """sum(w * sample) in offset order, skipping zero weights (whose sample may be None)."""
    total = None
    for w, value in zip(weights, samples):
        if w == 0.0:
            continue
        term = w * np.asarray(value)
        total = term if total is None else total + term
    return total


def second_derivative(samples, step):
    """4th-order central estimate of f'' from ``samples``, f at x + k*step for k in OFFSETS.

    ``samples`` is any iterable of real or complex scalars or arrays of
    one shape, consumed once, in offset order; the sum keeps one sample
    at a time. The error is O(step**4).
    """
    return _weighted_sum(samples, _D2_WEIGHTS / step**2)


def first_derivative(samples, step):
    """4th-order central estimate of f' from the same samples; the centre one is not used."""
    return _weighted_sum(samples, _D1_WEIGHTS / step)
