import math
import tracemalloc
import warnings

import numpy as np
import pytest

from exactbeam import beam
from exactbeam import (
    BeamParams,
    BranchCutWarning,
    ConstraintViolationError,
    ModeIndex,
    SpaceTimePoint,
    alternate_exact_psi,
    bateman_gaussian_psi,
    envelope_phi,
    exact_psi,
    field_function,
    gouy_phase,
    normalization_constant,
    paraxial_psi,
    paraxial_schrodinger_psi,
    spot_radius,
)
from exactbeam.constraint import asymptotic_F, density_D
from oracle_tools import alternate_term_by_term, envelope_term_by_term, psi_mpmath


class TestBeamParams:
    def test_derived_quantities(self):
        p = BeamParams(k=50.0, w0=1.0, v=1.0)
        assert p.omega == 50.0
        assert p.rayleigh_range == 25.0
        assert p.a == p.rayleigh_range
        q = BeamParams(k=2.0, w0=3.0, v=5.0)
        assert q.omega == 10.0
        assert q.rayleigh_range == 9.0

    @pytest.mark.parametrize("bad", [dict(k=-1.0), dict(w0=0.0), dict(v=-2.0), dict(k=np.nan)])
    def test_rejects_nonpositive(self, bad):
        kwargs = dict(k=50.0, w0=1.0, v=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            BeamParams(**kwargs)


class TestModeIndex:
    def test_total_order(self):
        assert ModeIndex(2, 3).total_order == 5

    def test_guards(self):
        ModeIndex(10, 10)
        with pytest.raises(ValueError):
            ModeIndex(10, 11)
        with pytest.raises(ValueError):
            ModeIndex(-1, 0)
        with pytest.raises(ValueError):
            ModeIndex(0.5, 0)


class TestSpaceTimePoint:
    def test_spherical_view(self):
        p = SpaceTimePoint(3.0, 0.0, 4.0, 0.0)
        assert p.rho == 3.0
        assert p.r == 5.0
        assert p.theta == pytest.approx(math.atan2(3.0, 4.0))
        assert p.phi == 0.0

    def test_spherical_identities(self, rng):
        x1, x2, x3 = rng.uniform(-2, 2, 3)
        p = SpaceTimePoint(x1, x2, x3)
        assert p.rho == pytest.approx(p.r * math.sin(p.theta), rel=1e-12)
        assert x3 == pytest.approx(p.r * math.cos(p.theta), rel=1e-12, abs=1e-12)
        assert x1 == pytest.approx(p.r * math.sin(p.theta) * math.cos(p.phi), rel=1e-12, abs=1e-12)
        assert x2 == pytest.approx(p.r * math.sin(p.theta) * math.sin(p.phi), rel=1e-12, abs=1e-12)
        assert 0 <= p.theta <= math.pi
        assert -math.pi < p.phi <= math.pi

    def test_from_spherical_round_trip(self):
        p = SpaceTimePoint.from_spherical(2.0, 0.7, -1.3, t=4.0)
        assert p.r == pytest.approx(2.0, rel=1e-14)
        assert p.theta == pytest.approx(0.7, rel=1e-14)
        assert p.phi == pytest.approx(-1.3, rel=1e-14)
        assert p.t == 4.0

    def test_s_is_half_sum(self, beam50):
        p = SpaceTimePoint(0.0, 0.0, 10.0, 4.0)
        assert p.s(beam50) == 7.0
        q = BeamParams(k=50.0, w0=1.0, v=3.0)
        assert p.s(q) == 11.0


class TestNormalization:
    def test_closed_form_constants(self, beam50):
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        assert c00 == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
        c10 = normalization_constant(beam50, ModeIndex(1, 0))
        assert c10 == pytest.approx(c00 / math.sqrt(2.0), rel=1e-15)

    def test_waist_scaling(self):
        narrow = BeamParams(k=50.0, w0=1.0)
        wide = BeamParams(k=25.0, w0=2.0)
        for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
            assert normalization_constant(wide, mode) == pytest.approx(
                normalization_constant(narrow, mode) / 2.0, rel=1e-15
            )

    def test_index_symmetry(self, beam50):
        assert normalization_constant(beam50, ModeIndex(3, 1)) == normalization_constant(
            beam50, ModeIndex(1, 3)
        )


class TestGeometryFactors:
    def test_spot_radius(self, beam50):
        lr = beam50.rayleigh_range
        assert spot_radius(beam50, 0.0) == 1.0
        assert spot_radius(beam50, lr) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert spot_radius(beam50, 10 * lr) == pytest.approx(math.sqrt(101.0), rel=1e-15)

    def test_gouy_phase(self, beam50):
        lr = beam50.rayleigh_range
        assert gouy_phase(beam50, ModeIndex(4, 4), 0.0) == 0.0
        assert gouy_phase(beam50, ModeIndex(2, 1), lr) == pytest.approx(math.pi, rel=1e-15)
        assert gouy_phase(beam50, ModeIndex(0, 0), 1e9 * lr) == pytest.approx(
            math.pi / 2.0, rel=1e-8
        )


class TestEnvelope:
    def test_origin_value(self, beam50):
        got = envelope_phi(beam50, ModeIndex(0, 0), 0.0, 0.0, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(normalization_constant(beam50, ModeIndex(0, 0)), rel=1e-15)
        assert got.real > 0

    def test_odd_mode_axis_zero(self, beam50):
        for x2, s in [(0.0, 0.0), (0.7, 12.0), (-1.2, -40.0)]:
            assert envelope_phi(beam50, ModeIndex(1, 0), 0.0, x2, s) == 0.0

    def test_frozen_value_mode00(self, beam50):
        got = envelope_phi(beam50, ModeIndex(0, 0), 1.0 / math.sqrt(2.0), 0.0, 25.0)
        assert got == pytest.approx(0.37790531589599047 - 0.22417019756796275j, rel=1e-13)

    def test_frozen_value_mode21(self, beam50):
        got = envelope_phi(beam50, ModeIndex(2, 1), 0.37, -0.81, 1.7 * 25.0)
        assert got == pytest.approx(-0.12924726976889178 + 0.10200620720806176j, rel=1e-12)

    def test_term_by_term_oracle(self, beam50, rng):
        for _ in range(25):
            m, n = rng.integers(0, 4, 2)
            x1, x2 = rng.uniform(-2.0, 2.0, 2)
            s = rng.uniform(-3.0, 3.0) * beam50.rayleigh_range
            got = envelope_phi(beam50, ModeIndex(int(m), int(n)), x1, x2, s)
            want = envelope_term_by_term(beam50.k, beam50.w0, int(m), int(n), x1, x2, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_waist_phase_planarity(self, beam50):
        x1, x2 = np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7))
        vals = envelope_phi(beam50, ModeIndex(0, 0), x1, x2, 0.0)
        assert np.max(np.abs(np.angle(vals))) < 1e-12


class TestExactPsi:
    def test_origin_at_t0(self, beam50):
        got = exact_psi(beam50, ModeIndex(0, 0), SpaceTimePoint(0.0, 0.0, 0.0, 0.0))
        assert got == pytest.approx(normalization_constant(beam50, ModeIndex(0, 0)), rel=1e-15)

    def test_constraint_collapses_to_paraxial_modulus(self, beam50, rng):
        x3 = rng.uniform(-2, 2, 20) * beam50.rayleigh_range
        p = SpaceTimePoint(0.3, -0.1, x3, x3 / beam50.v)
        np.testing.assert_allclose(
            np.abs(exact_psi(beam50, ModeIndex(2, 0), p)),
            np.abs(paraxial_psi(beam50, ModeIndex(2, 0), p)),
            rtol=1e-14,
        )

    def test_modulus_ray_shift_invariance(self, beam50, rng):
        lr = beam50.rayleigh_range
        x1, x2 = rng.uniform(-1.5, 1.5, (2, 100))
        x3 = rng.uniform(-3, 3, 100) * lr
        t = rng.uniform(-3, 3, 100) * lr / beam50.v
        delta = rng.uniform(-2, 2, 100) * lr
        mode = ModeIndex(1, 2)
        a = np.abs(exact_psi(beam50, mode, SpaceTimePoint(x1, x2, x3, t)))
        b = np.abs(exact_psi(beam50, mode, SpaceTimePoint(x1, x2, x3 + delta, t - delta / beam50.v)))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_hermite_node_zeros(self, beam50, rng):
        # transverse zeros sit at w(s)*root/sqrt(2) for each root of H_m
        roots = {1: [0.0], 2: [math.sqrt(0.5)], 3: [0.0, math.sqrt(1.5)]}
        s = 0.8 * beam50.rayleigh_range
        t = 0.3 * beam50.rayleigh_range / beam50.v
        x3 = 2 * s - beam50.v * t
        w = spot_radius(beam50, s)
        for m, rts in roots.items():
            mode = ModeIndex(m, 0)
            peak = abs(
                exact_psi(beam50, mode, SpaceTimePoint(w / math.sqrt(2.0) * 1.3, 0.11, x3, t))
            )
            for root in rts:
                val = abs(
                    exact_psi(beam50, mode, SpaceTimePoint(root * w / math.sqrt(2.0), 0.11, x3, t))
                )
                assert val < 1e-10 * peak


class TestParaxialPsi:
    def test_equal_on_constraint(self, beam50, rng):
        x1, x2 = rng.uniform(-1.5, 1.5, (2, 50))
        x3 = rng.uniform(-3, 3, 50) * beam50.rayleigh_range
        p = SpaceTimePoint(x1, x2, x3, x3 / beam50.v)
        mode = ModeIndex(2, 1)
        np.testing.assert_allclose(
            paraxial_psi(beam50, mode, p), exact_psi(beam50, mode, p), rtol=1e-14
        )

    def test_off_constraint_regression_point(self, beam50):
        lr = beam50.rayleigh_range
        p = SpaceTimePoint(0.3, -0.2, 1.2 * lr, 0.4 * lr / beam50.v)
        e = exact_psi(beam50, ModeIndex(0, 0), p)
        x = paraxial_psi(beam50, ModeIndex(0, 0), p)
        assert abs(e) == pytest.approx(0.5755623211467686, rel=1e-12)
        assert abs(x) == pytest.approx(0.48429112225751875, rel=1e-12)
        assert abs(e - x) / abs(e) == pytest.approx(0.242814244131587, rel=1e-9)

    def test_gouy_term_on_axis(self, beam50):
        lr = beam50.rayleigh_range
        p = SpaceTimePoint(0.0, 0.0, lr, lr / beam50.v)
        # carrier phase cancels on t = x3/v, leaving the envelope's -pi/4
        assert np.angle(paraxial_psi(beam50, ModeIndex(0, 0), p)) == pytest.approx(
            -math.pi / 4.0, abs=1e-12
        )


class TestSchrodingerForm:
    def test_on_constraint_matches_paraxial(self, beam50):
        p = SpaceTimePoint(0.4, 0.2, 30.0, 30.0 / beam50.v)
        assert paraxial_schrodinger_psi(beam50, ModeIndex(1, 1), p) == paraxial_psi(
            beam50, ModeIndex(1, 1), p
        )

    def test_off_constraint_rejected(self, beam50):
        p = SpaceTimePoint(0.4, 0.2, 30.0, 0.0)
        with pytest.raises(ConstraintViolationError):
            paraxial_schrodinger_psi(beam50, ModeIndex(1, 1), p)

    def test_tolerance_scales_with_rayleigh_range(self, beam50):
        gap = 1e-3 * beam50.rayleigh_range
        p = SpaceTimePoint(0.0, 0.0, 30.0, (30.0 - gap) / beam50.v)
        paraxial_schrodinger_psi(beam50, ModeIndex(0, 0), p, tolerance=1e-2)
        with pytest.raises(ConstraintViolationError):
            paraxial_schrodinger_psi(beam50, ModeIndex(0, 0), p, tolerance=1e-4)


class TestAlternateExact:
    def test_on_axis_collapse(self, beam50):
        lr = beam50.rayleigh_range
        x3, t = 2.3 * lr, 0.4 * lr / beam50.v
        got = alternate_exact_psi(beam50, SpaceTimePoint(0.0, 0.0, x3, t))
        want = (
            lr
            / (x3 - 1j * lr)
            * np.exp(1j * beam50.k * x3 - 1j * beam50.omega * t)
        )
        assert got == pytest.approx(want, rel=1e-15)

    def test_frozen_generic_value(self, beam50):
        lr = beam50.rayleigh_range
        got = alternate_exact_psi(beam50, SpaceTimePoint(0.4, -0.3, 2 * lr, 0.7 * lr / beam50.v))
        assert got == pytest.approx(-0.08892002760349327 - 0.41599618039358216j, rel=1e-12)

    def test_term_by_term_oracle(self, beam50, rng):
        lr = beam50.rayleigh_range
        for _ in range(25):
            x1, x2 = rng.uniform(-2.0, 2.0, 2)
            x3 = rng.uniform(0.05, 3.0) * lr
            t = rng.uniform(-2.0, 2.0) * lr / beam50.v
            got = alternate_exact_psi(beam50, SpaceTimePoint(x1, x2, x3, t))
            want = alternate_term_by_term(beam50.k, beam50.w0, beam50.v, x1, x2, x3, t)
            assert got == pytest.approx(want, rel=1e-12)

    def test_no_overflow_at_large_k(self):
        tight = BeamParams(k=5000.0, w0=1.0)
        val = alternate_exact_psi(tight, SpaceTimePoint(0.5, 0.0, tight.rayleigh_range, 0.0))
        assert np.isfinite(val)

    def test_branch_cut_warning(self, beam50):
        lr = beam50.rayleigh_range
        with pytest.warns(BranchCutWarning):
            alternate_exact_psi(beam50, SpaceTimePoint(0.5 * lr, 0.0, 0.0, 0.0))
        with pytest.warns(BranchCutWarning):
            alternate_exact_psi(beam50, SpaceTimePoint(lr, 0.0, 1e-8 * lr, 0.0))

    def test_one_branch_cut_warning_per_blocked_call(self, beam50, monkeypatch):
        monkeypatch.setattr(beam, "BLOCK_POINTS", 10)
        lr = beam50.rayleigh_range
        x1 = np.linspace(-2.0, 2.0, 30)
        x3 = np.full(30, 0.5 * lr)
        x3[17] = 0.0  # one point on the cut, in the second of three blocks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alternate_exact_psi(beam50, SpaceTimePoint(x1, 0.0, x3, 0.0))
        cut = [w for w in caught if issubclass(w.category, BranchCutWarning)]
        assert len(cut) == 1
        assert cut[0].filename == __file__

    def test_no_warning_off_cut(self, beam50):
        lr = beam50.rayleigh_range
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", BranchCutWarning)
            alternate_exact_psi(beam50, SpaceTimePoint(0.5 * lr, 0.0, 0.1 * lr, 0.0))
            alternate_exact_psi(beam50, SpaceTimePoint(2.0 * lr, 0.0, 0.0, 0.0))

    def test_continuity_in_forward_half_space(self, beam50):
        lr = beam50.rayleigh_range
        x1 = np.linspace(-2 * lr, 2 * lr, 2001)
        vals = alternate_exact_psi(beam50, SpaceTimePoint(x1, 0.0, 0.05 * lr, 0.0))
        jumps = np.abs(np.diff(vals))
        scale = np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
        assert np.all(jumps < 0.05 * scale.max())


class TestRationalGaussianForm:
    def test_matches_exact_mode00(self, beam50, rng):
        lr = beam50.rayleigh_range
        x1, x2 = rng.uniform(-1.5, 1.5, (2, 100))
        x3 = rng.uniform(-3, 3, 100) * lr
        t = rng.uniform(-3, 3, 100) * lr / beam50.v
        p = SpaceTimePoint(x1, x2, x3, t)
        a = bateman_gaussian_psi(beam50, p)
        b = exact_psi(beam50, ModeIndex(0, 0), p)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_origin(self, beam50):
        got = bateman_gaussian_psi(beam50, SpaceTimePoint(0.0, 0.0, 0.0, 0.0))
        assert got == pytest.approx(normalization_constant(beam50, ModeIndex(0, 0)), rel=1e-15)

    def test_on_axis_modulus(self, beam50):
        lr = beam50.rayleigh_range
        x3, t = 1.3 * lr, 0.9 * lr / beam50.v
        s = 0.5 * (x3 + beam50.v * t)
        got = abs(bateman_gaussian_psi(beam50, SpaceTimePoint(0.0, 0.0, x3, t)))
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        assert got == pytest.approx(c00 * lr / abs(lr + 1j * s), rel=1e-14)


class TestFieldDispatch:
    def test_families(self, beam50):
        p = SpaceTimePoint(0.1, 0.2, 10.0, 5.0)
        assert field_function("exact", beam50, ModeIndex(0, 0))(p) == exact_psi(
            beam50, ModeIndex(0, 0), p
        )
        assert field_function("alternate", beam50)(p) == alternate_exact_psi(beam50, p)

    def test_errors(self, beam50):
        with pytest.raises(ValueError):
            field_function("exact", beam50)
        with pytest.raises(ValueError):
            field_function("bessel", beam50, ModeIndex(0, 0))


def _forward(x3, lr):
    """Map coordinates onto the complex source's forward half space x3 in [0.2, 3.2] L_R."""
    return 0.2 * lr + np.abs(x3) % (3.0 * lr)


#: Every blocked evaluator as f(params, x1, x2, x3, t); density_D ignores t,
#: and asymptotic_F reads (x1, x2) as small (theta, phi) angles.
BLOCKED_EVALUATORS = {
    "envelope_phi": lambda b, x1, x2, x3, t: envelope_phi(b, ModeIndex(2, 1), x1, x2, x3 + t),
    "exact_psi": lambda b, x1, x2, x3, t: exact_psi(b, ModeIndex(3, 2), SpaceTimePoint(x1, x2, x3, t)),
    "paraxial_psi": lambda b, x1, x2, x3, t: paraxial_psi(
        b, ModeIndex(1, 4), SpaceTimePoint(x1, x2, x3, t)
    ),
    "alternate_exact_psi": lambda b, x1, x2, x3, t: alternate_exact_psi(
        b, SpaceTimePoint(x1, x2, _forward(x3, b.rayleigh_range), t)
    ),
    "bateman_gaussian_psi": lambda b, x1, x2, x3, t: bateman_gaussian_psi(
        b, SpaceTimePoint(x1, x2, x3, t)
    ),
    "density_D": lambda b, x1, x2, x3, t: density_D(b, ModeIndex(3, 2), x1, x2, x3),
    "asymptotic_F": lambda b, x1, x2, x3, t: asymptotic_F(b, ModeIndex(2, 2), 0.01 * x1, x2),
}


def _coordinate_cases(lr):
    """(x1, x2, x3, t) inputs: odd sizes, broadcast grids, rows wider than a block, scalars."""
    rng = np.random.default_rng(99)

    def u(*shape, scale=1.0):
        return rng.uniform(-2.0, 2.0, shape) * scale

    return {
        "1d_odd": (u(1001), u(1001), u(1001, scale=lr), u(1001, scale=lr)),
        "gram_grid": (u(37, 1), u(1, 23), 0.3 * lr, -0.2 * lr),
        "3d_broadcast": (u(5, 7, 11), u(7, 1), u(5, 1, 1, scale=lr), u(11, scale=lr)),
        "single_row": (u(1, 301), u(301), u(1, 1, scale=lr), 0.1 * lr),
        "scalars": (0.4, -0.3, 1.1 * lr, 0.6 * lr),
        "zero_d": (np.array(0.4), np.array(-0.3), np.array(1.1 * lr), np.array(0.6 * lr)),
    }


class TestBlocking:
    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("case", ["1d_odd", "gram_grid", "3d_broadcast", "single_row",
                                      "scalars", "zero_d"])
    @pytest.mark.parametrize("name", sorted(BLOCKED_EVALUATORS))
    def test_bit_identical_to_one_block(self, beam50, monkeypatch, name, case, block):
        evaluate = BLOCKED_EVALUATORS[name]
        coords = _coordinate_cases(beam50.rayleigh_range)[case]
        monkeypatch.setattr(beam, "BLOCK_POINTS", 10**9)
        whole = evaluate(beam50, *coords)
        monkeypatch.setattr(beam, "BLOCK_POINTS", block)
        blocked = evaluate(beam50, *coords)
        assert type(blocked) is type(whole)
        assert np.shape(blocked) == np.shape(whole) == np.broadcast(*coords).shape
        assert np.asarray(blocked).tobytes() == np.asarray(whole).tobytes()

    @pytest.mark.parametrize("shape", [(1001,), (37, 23), (1, 301), (5, 7, 11), (3, 1, 50)])
    def test_kernel_sees_at_most_one_block(self, monkeypatch, shape):
        monkeypatch.setattr(beam, "BLOCK_POINTS", 16)
        sizes = []

        def kernel(x, y):
            sizes.append(np.broadcast(x, y).size)
            return x + y

        x = np.arange(math.prod(shape), dtype=float).reshape(shape)
        y = np.linspace(0.0, 1.0, shape[-1])
        np.testing.assert_array_equal(beam._blockwise(kernel, x, y, dtype=float), x + y)
        assert max(sizes) <= 16
        assert sum(sizes) == x.size

    def test_exact_psi_memory_bound(self, beam50):
        count = 1_000_000
        rng = np.random.default_rng(5)
        lr = beam50.rayleigh_range
        x1, x2 = rng.uniform(-2.0, 2.0, (2, count))
        x3, t = rng.uniform(-3.0, 3.0, (2, count)) * lr
        p = SpaceTimePoint(x1, x2, x3, t)
        tracemalloc.start()
        try:
            values = exact_psi(beam50, ModeIndex(2, 1), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.nbytes == 16_000_000
        assert peak <= 24_000_000


class TestMpmathReference:
    @pytest.mark.parametrize("k_w0", [1.0, 50.0, 1000.0])
    def test_fields_against_40_digit_reference(self, k_w0):
        params = BeamParams(k=k_w0, w0=1.0, v=1.0)
        lr = params.rayleigh_range
        rng = np.random.default_rng(int(k_w0))
        eps = np.finfo(float).eps
        for _ in range(12):
            x3, t = rng.uniform(-3.0, 3.0, 2) * lr
            for family, mode, s in (("exact", (2, 1), 0.5 * (x3 + t)),
                                    ("paraxial", (3, 0), x3),
                                    ("gaussian", (0, 0), 0.5 * (x3 + t))):
                w = spot_radius(params, s)
                x1, x2 = rng.uniform(-2.0, 2.0, 2) * w
                p = SpaceTimePoint(x1, x2, x3, t)
                if family == "exact":
                    got = exact_psi(params, ModeIndex(*mode), p)
                elif family == "paraxial":
                    got = paraxial_psi(params, ModeIndex(*mode), p)
                else:
                    got = bateman_gaussian_psi(params, p)
                want = psi_mpmath(params.k, params.w0, params.v, *mode, x1, x2, x3, t,
                                  envelope_arg="paraxial" if family == "paraxial" else "exact")
                allowed = 1e-12 + 4.0 * eps * (abs(params.k * x3) + abs(params.omega * t))
                assert abs(got - want) <= allowed * abs(want), (family, x1, x2, x3, t)
