import math

import numpy as np
import pytest

from exactbeam import (
    EXACT_FE,
    PARAXIAL_FP,
    BeamParams,
    ConstraintKind,
    ModeIndex,
    SpaceTimePoint,
    asymptotic_F,
    constraint_time,
    delta_reduced_time_integral,
    density_D,
    envelope_phi,
    eval_constraint,
    exact_psi,
    normalization_constant,
    time_jacobian,
)
from oracle_tools import angular_reference, mollified_extrapolated


class TestConstraintKind:
    def test_singletons(self):
        assert PARAXIAL_FP.variant == "paraxial_fP"
        assert EXACT_FE.variant == "exact_fE"

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstraintKind("comoving")


class TestEvalConstraint:
    def test_paraxial_plane(self, beam50):
        assert eval_constraint(PARAXIAL_FP, beam50, SpaceTimePoint(5.0, -2.0, 2.0, 2.0)) == 0.0
        assert eval_constraint(PARAXIAL_FP, beam50, SpaceTimePoint(0.0, 0.0, 2.0, 0.0)) == 2.0
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        assert eval_constraint(PARAXIAL_FP, fast, SpaceTimePoint(0.0, 0.0, 8.0, 1.5)) == 2.0

    def test_exact_surface_345(self, beam50):
        # r = 5 for the 3-4-5 triangle, so f_E = 5 - (4 + 0)/2 = 3
        assert eval_constraint(EXACT_FE, beam50, SpaceTimePoint(3.0, 0.0, 4.0, 0.0)) == 3.0

    def test_exact_surface_on_axis_forward(self, beam50):
        x3 = 17.0
        p = SpaceTimePoint(0.0, 0.0, x3, x3 / beam50.v)
        assert eval_constraint(EXACT_FE, beam50, p) == 0.0

    def test_vectorized(self, beam50):
        x3 = np.array([1.0, 2.0, 3.0])
        got = eval_constraint(PARAXIAL_FP, beam50, SpaceTimePoint(0.0, 0.0, x3, 1.0))
        np.testing.assert_array_equal(got, x3 - 1.0)


class TestConstraintTime:
    def test_paraxial(self):
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        assert constraint_time(PARAXIAL_FP, fast, 0.3, 0.1, 10.0) == 2.5

    def test_exact_345(self, beam50):
        assert constraint_time(EXACT_FE, beam50, 3.0, 0.0, 4.0) == 6.0
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        assert constraint_time(EXACT_FE, fast, 3.0, 0.0, 4.0) == 1.5

    def test_root_property(self, beam50, rng):
        for kind in (PARAXIAL_FP, EXACT_FE):
            x1, x2 = rng.uniform(-3, 3, 2)
            x3 = rng.uniform(-40, 40)
            t_star = constraint_time(kind, beam50, x1, x2, x3)
            residual = eval_constraint(kind, beam50, SpaceTimePoint(x1, x2, x3, t_star))
            assert abs(residual) < 1e-12 * max(1.0, abs(x3))

    def test_backward_hemisphere(self, beam50):
        # x3 = -4, transverse 3: r = 5, t* = (10 + 4)/v
        assert constraint_time(EXACT_FE, beam50, 3.0, 0.0, -4.0) == 14.0

    def test_jacobians(self):
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        assert time_jacobian(PARAXIAL_FP, fast) == 4.0
        assert time_jacobian(EXACT_FE, fast) == 2.0


class TestDeltaReduction:
    def test_unit_integrand(self):
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        one = lambda p: 1.0
        assert delta_reduced_time_integral(fast, one, PARAXIAL_FP, 0.1, 0.2, 3.0) == 0.25
        assert delta_reduced_time_integral(fast, one, EXACT_FE, 0.1, 0.2, 3.0) == 0.5

    @pytest.mark.parametrize("kind", [PARAXIAL_FP, EXACT_FE], ids=["fP", "fE"])
    def test_against_mollified_quadrature(self, beam50, kind):
        mode = ModeIndex(0, 0)
        integrand = lambda p: np.abs(exact_psi(beam50, mode, p)) ** 2
        lr = beam50.rayleigh_range
        sigmas = tuple(s * lr / beam50.v for s in (1e-2, 1e-3, 1e-4))
        for x1, x2, x3 in [(0.3, -0.2, 1.7 * lr), (0.0, 0.0, 0.5 * lr), (1.0, 0.5, -15.0)]:
            closed = delta_reduced_time_integral(beam50, integrand, kind, x1, x2, x3)
            oracle = mollified_extrapolated(beam50, integrand, kind, x1, x2, x3, sigmas)
            assert closed == pytest.approx(oracle, rel=1e-10)


class TestDensity:
    def test_origin(self, beam50):
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        got = density_D(beam50, ModeIndex(0, 0), 0.0, 0.0, 0.0)
        assert got == pytest.approx(2.0 / beam50.v * c00**2, rel=1e-14)

    def test_matches_squared_envelope_at_r(self, beam50):
        for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
            x1, x2, x3 = 0.4, -0.3, 40.0
            r = math.sqrt(x1**2 + x2**2 + x3**2)
            want = 2.0 / beam50.v * abs(envelope_phi(beam50, mode, x1, x2, r)) ** 2
            assert density_D(beam50, mode, x1, x2, x3) == pytest.approx(want, rel=1e-13)

    def test_odd_mode_nodal_plane(self, beam50):
        assert density_D(beam50, ModeIndex(1, 0), 0.0, 0.7, 30.0) == 0.0

    def test_jacobian_switch(self, beam50):
        fast = BeamParams(k=50.0, w0=1.0, v=4.0)
        for params in (beam50, fast):
            with_j = density_D(params, ModeIndex(0, 0), 0.2, 0.1, 20.0)
            bare = density_D(params, ModeIndex(0, 0), 0.2, 0.1, 20.0, include_jacobian=False)
            assert with_j == pytest.approx(2.0 / params.v * bare, rel=1e-15)

    def test_far_field_limit(self, beam50):
        theta, phi = 0.5 * beam50.w0 / beam50.rayleigh_range, 0.7
        mode = ModeIndex(1, 0)
        want = asymptotic_F(beam50, mode, theta, phi) * 2.0 / beam50.v
        values = []
        for r in (50.0, 200.0, 500.0):
            r *= beam50.rayleigh_range
            p = SpaceTimePoint.from_spherical(r, theta, phi)
            values.append(r**2 * density_D(beam50, mode, p.x1, p.x2, p.x3))
        assert max(values) - min(values) < 0.01 * want
        assert values[-1] == pytest.approx(want, rel=0.01)


class TestAsymptoticF:
    def test_forward_direction(self, beam50):
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        lr = beam50.rayleigh_range
        assert asymptotic_F(beam50, ModeIndex(0, 0), 0.0, 0.0) == pytest.approx(
            c00**2 * lr**2, rel=1e-14
        )
        assert asymptotic_F(beam50, ModeIndex(1, 0), 0.0, 0.3) == 0.0
        assert asymptotic_F(beam50, ModeIndex(1, 1), 0.0, 0.0) == 0.0

    def test_frozen_value_and_small_angle_form(self, beam50):
        got = asymptotic_F(beam50, ModeIndex(0, 0), beam50.w0 / beam50.rayleigh_range, 0.0)
        assert got == pytest.approx(53.905654712165564, rel=1e-13)
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        small_angle = c00**2 * beam50.rayleigh_range**2 * math.exp(-2.0)
        assert small_angle == pytest.approx(53.848198254621586, rel=1e-13)
        assert got == pytest.approx(small_angle, rel=2e-3)

    def test_angular_node(self, beam50):
        # H_2 vanishes where its argument is 1/sqrt(2)
        theta = math.asin(beam50.w0 / (2.0 * beam50.rayleigh_range))
        peak = asymptotic_F(beam50, ModeIndex(2, 0), 0.0, 0.0)
        assert asymptotic_F(beam50, ModeIndex(2, 0), theta, 0.0) < 1e-12 * peak

    def test_half_turn_symmetry(self, beam50, rng):
        theta = rng.uniform(0.0, 0.1)
        phi = rng.uniform(-math.pi, math.pi)
        a = asymptotic_F(beam50, ModeIndex(3, 2), theta, phi)
        b = asymptotic_F(beam50, ModeIndex(3, 2), theta, phi + math.pi)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("mode", [(3, 2), (2, 3), (1, 1)])
    def test_accurate_next_to_the_nodes_at_quarter_turns(self, beam50, mode):
        # at phi = +-pi/2 (+-pi, 0) the odd Hermite factor of cos(phi) (sin(phi)) sits at its
        # node; the relative accuracy of cos(phi) there is what keeps F within the allowance
        offsets = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3])
        centres = np.array([-np.pi, -0.5 * np.pi, 0.0, 0.5 * np.pi, np.pi])
        phi = (centres[:, None] + np.concatenate([-offsets, offsets])).ravel()
        phi = np.concatenate([phi, phi + 2.0 * np.pi, phi - 6.0 * np.pi])
        theta = np.linspace(0.005, 0.2, 40)[:, None]
        got = asymptotic_F(beam50, ModeIndex(*mode), theta, phi)
        want, allowed = angular_reference(beam50.k, beam50.w0, *mode, theta, phi)
        assert np.all(np.abs(got - want) <= allowed)


class TestSurfaceCorrespondence:
    def test_small_angle_gap(self, beam50, rng):
        # on the co-moving plane, f_E reduces to r - x3 <= rho^2 / (2 x3)
        x3 = rng.uniform(0.5, 3.0, 200) * beam50.rayleigh_range
        rho = rng.uniform(0.0, 1e-2, 200) * x3
        phi = rng.uniform(-math.pi, math.pi, 200)
        p = SpaceTimePoint(rho * np.cos(phi), rho * np.sin(phi), x3, x3 / beam50.v)
        gap = np.abs(
            eval_constraint(EXACT_FE, beam50, p) - eval_constraint(PARAXIAL_FP, beam50, p)
        )
        assert np.all(gap <= rho**2 / (2.0 * x3) + 1e-12)
