import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from exactbeam import (
    StencilSpec,
    UnsupportedOrderError,
    first_derivative,
    hermite,
    second_derivative,
)
from exactbeam.verify import _hermite_rule
from oracle_tools import hermite_series


def _tensor_sum(f, node_count, width=math.sqrt(2.0)):
    """Tensor-product Gauss-Hermite quadrature of ``f(x1, x2)`` over the plane.

    The default width makes the rule's weight exp(-x1^2 - x2^2).
    """
    x, w = _hermite_rule(node_count, width)
    return complex(np.einsum("i,j,ij->", w, w, f(x[:, None], x[None, :])))


def _hermite_out_of_place(order, x):
    """The recurrence as it read before the in-place rewrite: the bit-level reference."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for k in range(order):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    if x.ndim == 0:
        return float(h)
    return h


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
        array = np.concatenate([[0.0, -0.0, 1e-300, -7.5, 30.0, np.inf, -np.inf, np.nan],
                                rng.uniform(-12.0, 12.0, 201)])
        with np.errstate(all="ignore"):
            for x in (-0.7, np.array(2.25), array):
                got, want = hermite(order, x), _hermite_out_of_place(order, x)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

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


class TestStencils:
    def test_quadratic_exact(self):
        got = second_derivative(lambda x: x**2, 3.0, StencilSpec(0.1, 4))
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_sin_at_zero(self):
        assert second_derivative(np.sin, 0.0, StencilSpec(1e-2, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_oscillatory_oracle(self):
        # f = exp(5 i x): f'' at 1.0 is -25 exp(5 i)
        f = lambda x: np.exp(5j * x)
        got = second_derivative(f, 1.0, StencilSpec(1e-3, 4))
        want = -25.0 * np.exp(5j)
        assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("order,expected_gain", [(2, 4.0 / 1.5), (4, 16.0 / 1.5)])
    def test_halving_gain(self, order, expected_gain):
        f = lambda x: np.exp(5j * x)
        want = -25.0 * np.exp(5j)
        coarse = abs(second_derivative(f, 1.0, StencilSpec(0.08, order)) - want)
        fine = abs(second_derivative(f, 1.0, StencilSpec(0.04, order)) - want)
        assert coarse / fine >= expected_gain

    def test_first_derivative(self):
        got = first_derivative(np.cos, 0.7, StencilSpec(1e-3, 4))
        assert got == pytest.approx(-math.sin(0.7), abs=1e-12)
        gotc = first_derivative(lambda x: np.exp(5j * x), 1.0, StencilSpec(1e-3, 4))
        assert abs(gotc - 5j * np.exp(5j)) < 1e-9

    def test_precomputed_centre_is_bit_identical(self):
        f = lambda x: np.exp(5j * x) * np.cos(x)
        at = np.array([0.1, 0.5, 1.3])
        spec = StencilSpec(1e-3, 4)
        calls = []
        counted = lambda x: calls.append(1) or f(x)
        got = second_derivative(counted, at, spec, f(at))
        np.testing.assert_array_equal(got, second_derivative(f, at, spec))
        assert len(calls) == 4

    def test_array_evaluation_points(self):
        at = np.array([0.0, 0.5, 1.0])
        got = second_derivative(lambda x: np.sin(x), at, StencilSpec(1e-3, 4))
        np.testing.assert_allclose(got, -np.sin(at), atol=1e-11)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StencilSpec(0.0, 4)
        with pytest.raises(ValueError):
            StencilSpec(1e-3, 3)
