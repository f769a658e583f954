import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from exactbeam import (
    UnsupportedOrderError,
    first_derivative,
    hermite,
    second_derivative,
)
from exactbeam.numerics import OFFSETS, _doubled_zeros
from exactbeam.verify import _hermite_rule
from oracle_tools import hermite_series, hermite_terms


def _tensor_sum(f, node_count, width=math.sqrt(2.0)):
    """Tensor-product Gauss-Hermite quadrature of ``f(x1, x2)`` over the plane.

    The default width makes the rule's weight exp(-x1^2 - x2^2).
    """
    x, w = _hermite_rule(node_count, width)
    return complex(np.einsum("i,j,ij->", w, w, f(x[:, None], x[None, :])))


def _hermite_out_of_place(order, x):
    """The running product over the cached zeros with a new array per factor."""
    x = np.asarray(x, dtype=float)
    h = 2.0 * x if order % 2 else np.ones_like(x)
    for z in _doubled_zeros(order):
        h = h * (2.0 * x - z) * (2.0 * x + z)
    return float(h) if x.ndim == 0 else h


def _hermite_recurrence(order, x):
    """H_{k+1} = 2x H_k - 2k H_{k-1}: the evaluator the product over the zeros replaced."""
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    for k in range(order):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def _hermite_points(rng):
    return np.concatenate([[0.0, -0.0, 1e-300, -7.5, 30.0, np.inf, -np.inf, np.nan],
                           rng.uniform(-12.0, 12.0, 201)])


class TestHermite:
    def test_order_zero_is_one(self):
        assert hermite(0, 1.7) == 1.0

    def test_order_one_is_2x(self):
        assert hermite(1, 0.5) == 1.0
        assert hermite(1, -2.0) == -4.0

    def test_order_four_against_series_oracle(self):
        got = hermite(4, 0.3)
        want = hermite_series(4, 0.3)
        assert want == pytest.approx(16 * 0.3**4 - 48 * 0.3**2 + 12, rel=1e-15)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", range(13))
    def test_against_scipy(self, order, rng):
        x = rng.uniform(-4.0, 4.0, 40)
        np.testing.assert_allclose(hermite(order, x), eval_hermite(order, x), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(2, 20), x=st.floats(-5.0, 5.0))
    def test_recurrence_consistency(self, order, x):
        lhs = hermite(order, x) - 2.0 * x * hermite(order - 1, x)
        rhs = -2.0 * (order - 1) * hermite(order - 2, x)
        scale = max(abs(hermite(order, x)), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 20), x=st.floats(-6.0, 6.0))
    def test_parity(self, order, x):
        left = hermite(order, -x)
        right = (-1.0) ** order * hermite(order, x)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_vector_input(self):
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(hermite(2, x), 4 * x**2 - 2, rtol=1e-14)

    @pytest.mark.parametrize("order", range(61))
    def test_in_place_recurrence_is_bit_identical(self, order, rng):
        """The running product over the zeros, h <- h (2x - 2z_j)(2x + 2z_j), updated in
        two reused buffers has the bits of the same product with a new array per factor:
        no buffer overwrites one that is still read."""
        for x in (-0.7, np.array(2.25), _hermite_points(rng)):
            got, want = hermite(order, x), _hermite_out_of_place(order, x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("order", range(61))
    def test_as_accurate_as_the_recurrence(self, order, rng):
        """Against 50-digit mpmath, point by point: no further off than the three-term
        recurrence plus one ulp of the sum of the terms' moduli per factor (at least 4);
        +-inf gives +-inf."""
        x = np.concatenate([[-0.7, 2.25], _hermite_points(rng)])
        finite = np.isfinite(x)
        with mpmath.workdps(50):
            want = np.array([float(mpmath.hermite(order, mpmath.mpf(float(v))))
                             for v in x[finite]])
        got = hermite(order, x)
        recurrence = _hermite_recurrence(order, x[finite])
        scale = hermite_terms(order, x[finite])[1]
        excess = np.abs(got[finite] - want) - np.abs(recurrence - want)
        assert np.all(excess <= max(order, 4) * np.finfo(float).eps * scale)
        at_inf = [np.inf, (-1.0) ** order * np.inf, np.nan] if order else [1.0, 1.0, 1.0]
        np.testing.assert_array_equal(got[~finite], at_inf)

    def test_order_guard(self):
        assert np.isfinite(hermite(60, 8.0))
        with pytest.raises(UnsupportedOrderError):
            hermite(61, 0.0)
        with pytest.raises(UnsupportedOrderError):
            hermite(-1, 0.0)
        with pytest.raises(UnsupportedOrderError):
            hermite(1.5, 0.0)


class TestQuadrature:
    def test_gaussian_integral_is_pi(self):
        val = _tensor_sum(lambda x1, x2: np.exp(-x1**2 - x2**2), 4)
        assert val.real == pytest.approx(math.pi, rel=1e-14)
        assert val.imag == 0.0

    def test_odd_integrand_vanishes(self):
        val = _tensor_sum(lambda x1, x2: x1 * np.exp(-x1**2 - x2**2), 8)
        assert abs(val) < 1e-15

    def test_hermite_weighted_integral_oracle(self):
        # 1-D reduction: int 4 x^2 e^{-2x^2} dx * int e^{-y^2} dy = pi/sqrt(2);
        # the x1 factor is the rule's exact case at width 1
        x, w = _hermite_rule(4, 1.0)
        y, v = _hermite_rule(4, math.sqrt(2.0))
        val = (w @ (hermite(1, x) ** 2 * np.exp(-2.0 * x**2))) * (v @ np.exp(-y**2))
        assert val == pytest.approx(2.221441469079183, rel=1e-14)
        assert val == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-14)

    def test_node_doubling_stability(self):
        # exp(-x^2) at width 2 is not the rule's weight: the rule converges
        f = lambda x1, x2: np.exp(-x1**2 - x2**2)
        a = _tensor_sum(f, 40, width=2.0)
        b = _tensor_sum(f, 80, width=2.0)
        assert abs(a - b) < 1e-12
        assert b.real == pytest.approx(math.pi, rel=1e-12)

    def test_complex_integrand(self):
        val = _tensor_sum(lambda x1, x2: (1 + 2j) * np.exp(-x1**2 - x2**2), 4)
        assert val == pytest.approx((1 + 2j) * math.pi, rel=1e-14)

    @pytest.mark.parametrize("degree", range(0, 20, 2))
    def test_exact_below_twice_the_node_count(self, degree):
        # int xi^(2j) e^{-xi^2} d xi = Gamma(j + 1/2); x = xi at width sqrt(2)
        x, w = _hermite_rule(degree // 2 + 1, math.sqrt(2.0))
        got = w @ (x**degree * np.exp(-x * x))
        assert got == pytest.approx(math.gamma(degree / 2 + 0.5), rel=1e-13)


def _samples(f, at, step):
    """f at ``at + k*step`` for k in OFFSETS, as the verify checks sample it."""
    return [f(at + k * step) for k in OFFSETS]


class TestStencils:
    def test_quadratic_exact(self):
        got = second_derivative(_samples(lambda x: x**2, 3.0, 0.1), 0.1)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_sin_at_zero(self):
        assert second_derivative(_samples(np.sin, 0.0, 1e-2), 1e-2) == pytest.approx(0.0, abs=1e-12)

    def test_oscillatory_oracle(self):
        # f = exp(5 i x): f'' at 1.0 is -25 exp(5 i)
        f = lambda x: np.exp(5j * x)
        got = second_derivative(_samples(f, 1.0, 1e-3), 1e-3)
        want = -25.0 * np.exp(5j)
        assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("order,expected_gain", [(4, 2**4 / 1.5)])
    def test_halving_gain(self, order, expected_gain):
        f = lambda x: np.exp(5j * x)
        want = -25.0 * np.exp(5j)
        coarse = abs(second_derivative(_samples(f, 1.0, 0.08), 0.08) - want)
        fine = abs(second_derivative(_samples(f, 1.0, 0.04), 0.04) - want)
        assert coarse / fine >= expected_gain

    def test_first_derivative(self):
        got = first_derivative(_samples(np.cos, 0.7, 1e-3), 1e-3)
        assert got == pytest.approx(-math.sin(0.7), abs=1e-12)
        gotc = first_derivative(_samples(lambda x: np.exp(5j * x), 1.0, 1e-3), 1e-3)
        assert abs(gotc - 5j * np.exp(5j)) < 1e-9

    def test_first_derivative_skips_the_centre(self):
        samples = _samples(np.cos, 0.7, 1e-3)
        assert first_derivative(samples[:2] + [None] + samples[3:], 1e-3) == first_derivative(
            samples, 1e-3)

    def test_array_evaluation_points(self):
        at = np.array([0.0, 0.5, 1.0])
        got = second_derivative(_samples(np.sin, at, 1e-3), 1e-3)
        np.testing.assert_allclose(got, -np.sin(at), atol=1e-11)

    @pytest.mark.parametrize("step", [1e-3, 0.1, 0.37])
    def test_five_point_formulas(self, step):
        """(-f-2 + 16 f-1 - 30 f0 + 16 f1 - f2) / (12 h^2) and (f-2 - 8 f-1 + 8 f1 - f2) / (12 h).

        Bit for bit in the form the verify bundles were written with: each
        weight divided by 12 and by the step (squared), the products summed
        in offset order. The quotient as written above rounds differently
        and agrees to a few ulps of the largest term.
        """
        rng = np.random.default_rng(3)
        f = list(rng.standard_normal((5, 200)) + 1j * rng.standard_normal((5, 200)))
        d2 = zip((-1.0, 16.0, -30.0, 16.0, -1.0), f)
        d1 = zip((1.0, -8.0, 8.0, -1.0), f[:2] + f[3:])
        np.testing.assert_array_equal(second_derivative(f, step),
                                      sum(c / 12.0 / step**2 * v for c, v in d2))
        np.testing.assert_array_equal(first_derivative(f, step),
                                      sum(c / 12.0 / step * v for c, v in d1))
        quotient = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
        largest = 30.0 * np.max(np.abs(f), axis=0) / (12.0 * step**2)
        assert np.all(np.abs(second_derivative(f, step) - quotient) <= 8 * np.finfo(float).eps * largest)
