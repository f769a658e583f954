import json
import math
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from exactbeam import _threads, beam
from exactbeam import (
    FAMILIES,
    BeamParams,
    BranchCutWarning,
    ConfigError,
    ModeIndex,
    SpaceTimePoint,
    alternate_exact_psi,
    bateman_gaussian_psi,
    envelope_phi,
    exact_psi,
    normalization_constant,
    paraxial_psi,
    spot_radius,
)
from exactbeam.cli import main
from exactbeam.config import parse_config
from exactbeam.constraint import asymptotic_F, density_D
from exactbeam.numerics import hermite
from oracle_tools import (alternate_reference, alternate_term_by_term, angular_reference,
                          bateman_reference, density_reference, envelope_term_by_term,
                          hermite_gauss_reference, hermite_terms, psi_mpmath)


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

    @staticmethod
    def _complex_form(params, x1, x2, x3, t):
        """The field from numpy's complex sqrt and exp, as the kernel once had it."""
        lr = params.rayleigh_range
        with np.errstate(all="ignore"):
            radius = np.sqrt(np.asarray(x1) ** 2 + np.asarray(x2) ** 2
                             + (np.asarray(x3, dtype=float) - 1j * lr) ** 2)
            exponent = 1j * params.k * (radius + 1j * lr) - 1j * params.omega * t
            return (lr / radius) * np.exp(exponent)

    def test_both_sides_of_the_branch_cut(self):
        # the real-arithmetic principal root, x3 = +-0 included, agrees with the complex
        # form to rounding: 1e-13 plus 4 eps per radian of k |R| and omega t. At
        # k L_R = 8 no value underflows, so the branch taken shows in every value
        beam = BeamParams(k=4.0, w0=1.0)
        lr = beam.rayleigh_range
        rho = np.array([0.0, 0.3, 0.999, 1.001, 3.0]) * lr
        x3 = np.array([-1e-3 * lr, -1e-9 * lr, -1e-300, -0.0, 0.0, 1e-300, 1e-9 * lr, 1e-3 * lr])
        t = np.array([0.0, 0.7 * lr])
        x1, x3, t = (a.ravel() for a in np.meshgrid(rho, x3, t, indexing="ij"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            got = alternate_exact_psi(beam, SpaceTimePoint(x1, 0.0, x3, t))
        want = self._complex_form(beam, x1, 0.0, x3, t)
        radius = np.abs(np.sqrt(x1**2 + (x3 - 1j * lr) ** 2))
        allowed = 1e-13 + 4.0 * EPS * (beam.k * radius + beam.omega * np.abs(t))
        assert np.all(np.abs(want) > 1e-12)
        assert np.all(np.abs(got - want) <= allowed * np.abs(want))

    def test_finite_where_the_complex_form_is(self, beam50):
        # coordinates up to 1e150: |A| reaches 1e300, whose square would overflow; the
        # modulus comes from hypot, and no RuntimeWarning escapes
        mags = np.array([0.0, 1e-3, 1.0, 25.0 * 1.01, 1e3, 1e10, 1e50, 1e100, 1e150])
        values = np.concatenate([-mags[1:], mags])
        x1, x3, t = (a.ravel() for a in np.meshgrid(values, values, values, indexing="ij"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            warnings.simplefilter("error", RuntimeWarning)
            got = alternate_exact_psi(beam50, SpaceTimePoint(x1, 0.0, x3, t))
        want = self._complex_form(beam50, x1, 0.0, x3, t)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


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


#: Each family's evaluator, called directly.
DIRECT_EVALUATORS = {
    "exact": lambda params, mode, p: exact_psi(params, mode, p),
    "paraxial": lambda params, mode, p: paraxial_psi(params, mode, p),
    "alternate": lambda params, mode, p: alternate_exact_psi(params, p),
    "gaussian": lambda params, mode, p: bateman_gaussian_psi(params, p),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_declaration(beam50, tmp_path, name):
    family = FAMILIES[name]
    mode = ModeIndex(2, 1) if family.takes_mode else None
    rng = np.random.default_rng(24)
    lr = beam50.rayleigh_range
    x1, x2 = rng.uniform(-2.0, 2.0, (2, 200))
    x3 = rng.uniform(0.2, 3.0, 200) * lr  # ahead of the complex source's branch cut
    t = rng.uniform(-3.0, 3.0, 200) * lr
    p = SpaceTimePoint(x1, x2, x3, t)
    psi = family.psi(beam50, mode)(p)
    assert psi.tobytes() == DIRECT_EVALUATORS[name](beam50, mode, p).tobytes()

    if family.envelope is not None:
        u = family.envelope(beam50, mode)(x1, x2, x3, t)
        carrier = np.exp(1j * (beam50.k * x3 - beam50.omega * t))
        eps = np.finfo(float).eps
        allowed = 1e-12 + 4.0 * eps * (np.abs(beam50.k * x3) + np.abs(beam50.omega * t))
        assert np.all(np.abs(psi - u * carrier) <= allowed * np.abs(psi).max())

    assert parse_config({"beam": {"k": 50}, "family": name}).family == name
    with pytest.raises(ConfigError) as err:
        parse_config({"beam": {"k": 50}, "family": name.upper()})
    assert str(err.value) == (f"family: unknown family {name.upper()!r}, choose from "
                              "('exact', 'paraxial', 'alternate', 'gaussian')")

    doc = {"beam": {"k": 50}, "modes": [], "family": name,
           "grid": {"axes": [{"name": "x1", "min": -1.0, "max": 1.0, "count": 3}],
                    "fixed": {"x3": 10.0, "t": 10.0}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main(["field", "--config", str(path), "--out", str(tmp_path / "f.csv"),
               "--natural-units"])
    assert rc == (2 if family.takes_mode else 0)


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
        """The same bits in one block as in small blocks filled on 1, 2 and 3 threads."""
        evaluate = BLOCKED_EVALUATORS[name]
        coords = _coordinate_cases(beam50.rayleigh_range)[case]
        monkeypatch.setattr(beam, "BLOCK_POINTS", 10**9)
        whole = evaluate(beam50, *coords)
        monkeypatch.setattr(beam, "BLOCK_POINTS", block)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
            blocked = evaluate(beam50, *coords)
            assert type(blocked) is type(whole)
            assert np.shape(blocked) == np.shape(whole) == np.broadcast(*coords).shape
            assert np.asarray(blocked).tobytes() == np.asarray(whole).tobytes(), cpus

    @pytest.mark.parametrize("shape", [(1001,), (37, 23), (1, 301), (5, 7, 11), (3, 1, 50)])
    def test_kernel_sees_at_most_one_block(self, monkeypatch, shape):
        monkeypatch.setattr(beam, "BLOCK_POINTS", 16)
        sizes = []

        def kernel(out, x, y):
            assert np.broadcast_shapes(out.shape, x.shape, y.shape) == out.shape
            sizes.append(out.size)
            np.add(x, y, out=out)

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

    @pytest.mark.parametrize("cpus", [4, 8, 64])
    def test_memory_bound_whatever_the_cpu_count(self, beam50, monkeypatch, cpus):
        """More usable CPUs than ``_threads.MAX_THREADS`` keep the peak of a 1e6-point call."""
        monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
        self.test_exact_psi_memory_bound(beam50)


def _meet_every_thread(workers):
    """A kernel wrapper that holds each thread's first block until ``workers`` threads
    hold one, so that every thread of the fill takes a block."""
    barrier, seen = threading.Barrier(workers), set()

    def meet():
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait(timeout=30)

    return meet


class TestThreadedFill:
    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        """Two usable CPUs and 10-point blocks: a 100-point call is 10 blocks on 2 threads."""
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
        monkeypatch.setattr(beam, "BLOCK_POINTS", 10)
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_fewer_than_two_blocks_per_cpu_stay_in_the_caller(self):
        threads = set()

        def kernel(out, x):
            threads.add(threading.get_ident())
            np.copyto(out, x)

        beam._blockwise(kernel, np.arange(30.0), dtype=float)  # three blocks
        assert threads == {threading.get_ident()}

    def test_workers_see_the_callers_errstate(self):
        meet = _meet_every_thread(2)

        def kernel(out, x):
            meet()
            np.exp(x, out=out)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="ignore"):
                values = beam._blockwise(kernel, np.full(100, 1e3), dtype=float)
        assert np.all(values == np.inf)

    def test_worker_exception_reaches_the_caller(self):
        meet, caller = _meet_every_thread(2), threading.get_ident()

        def kernel(out, x):
            meet()
            if threading.get_ident() != caller:
                raise ValueError("kernel failed in a worker")
            np.copyto(out, x)

        with pytest.raises(ValueError, match="kernel failed in a worker"):
            beam._blockwise(kernel, np.arange(100.0), dtype=float)

    def test_every_block_filled_once_under_fast_switching(self, monkeypatch):
        """Three threads on a shared queue, switching every microsecond: no block is
        lost or taken twice."""
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 3)
        filled = []

        def kernel(out, x):
            filled.append(out.size)
            np.copyto(out, x)

        x = np.arange(1000.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                filled.clear()
                np.testing.assert_array_equal(beam._blockwise(kernel, x, dtype=float), x)
                assert sorted(filled) == [10] * 100
        finally:
            sys.setswitchinterval(interval)

    def test_nested_threaded_calls(self):
        def kernel(out, x):
            np.copyto(out, beam._blockwise(np.copyto, np.repeat(x, 5), dtype=float)[::5])

        x = np.arange(100.0)
        np.testing.assert_array_equal(beam._blockwise(kernel, x, dtype=float), x)


class TestMpmathReference:
    @pytest.mark.parametrize("k_w0", [1.0, 50.0, 1000.0, 10000.0])
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

    def test_mode_10_10_next_to_the_nodes(self, beam50):
        # xi1 and xi2 both 1e-3 above or 1e-4 below zeros of H_10 (the same side, so that
        # an error in the scale of xi cannot cancel between them), where the value is
        # 1e3-1e4 times below its term sum: the error stays within 1e-11 of the value
        lr = beam50.rayleigh_range
        zeros = np.polynomial.hermite.hermgauss(10)[0]
        rng = np.random.default_rng(10)
        for i, zero in enumerate(zeros):
            for delta in (1e-3, -1e-4):
                x3, t = rng.uniform(-3.0, 3.0, 2) * lr
                half_w = spot_radius(beam50, 0.5 * (x3 + t)) / np.sqrt(2.0)
                x1 = zero * (1.0 + delta) * half_w
                x2 = zeros[(i + 3) % 10] * (1.0 + delta) * half_w
                got = exact_psi(beam50, ModeIndex(10, 10), SpaceTimePoint(x1, x2, x3, t))
                want = psi_mpmath(beam50.k, beam50.w0, beam50.v, 10, 10, x1, x2, x3, t)
                assert abs(got - want) <= 1e-11 * abs(want), (zero, delta, abs(got / want - 1))


def _beam_points(rng, lr, count, forward=False):
    """Space-time points within two spot radii with |x3|, |v t| <= 3 L_R, as in the eval_api
    workload; with ``forward``, x3 in [0.2, 3] L_R ahead of the complex source's branch cut."""
    x3 = rng.uniform(0.2 if forward else -3.0, 3.0, count) * lr
    t = rng.uniform(-3.0, 3.0, count) * lr
    s = x3 if forward else 0.5 * (x3 + t)
    w = np.sqrt(1.0 + (s / lr) ** 2)
    x1, x2 = rng.uniform(-2.0, 2.0, (2, count)) * w
    return x1, x2, x3, t


class TestTermScaledReference:
    """Every evaluator against vectorised references with the benchmark oracle's allowances:
    1e-12 of the value with each Hermite polynomial replaced by its term moduli, plus 4 eps
    per unit of exponent modulus (see ``oracle_tools``)."""

    @pytest.mark.parametrize("k_w0", [1.0, 50.0, 1000.0, 10000.0])
    def test_every_evaluator(self, k_w0):
        params = BeamParams(k=k_w0, w0=1.0, v=1.0)
        k, lr = params.k, params.rayleigh_range
        rng = np.random.default_rng(int(k_w0) + 23)
        x1, x2, x3, t = _beam_points(rng, lr, 2000)
        p = SpaceTimePoint(x1, x2, x3, t)
        f1, f2, f3, ft = _beam_points(rng, lr, 2000, forward=True)
        d3 = rng.uniform(0.1, 5.0, 2000) * lr
        d1, d2 = rng.uniform(-2.0, 2.0, (2, 2000)) * np.sqrt(1.0 + (d3 / lr) ** 2)
        theta = rng.uniform(0.0, min(0.5 * np.pi, 5.0 / lr), 2000)
        phi = rng.uniform(-np.pi, np.pi, 2000)
        cases = [
            ("exact (2,1)", exact_psi(params, ModeIndex(2, 1), p),
             hermite_gauss_reference(k, 1.0, 1.0, 2, 1, x1, x2, x3, t)),
            ("exact (10,10)", exact_psi(params, ModeIndex(10, 10), p),
             hermite_gauss_reference(k, 1.0, 1.0, 10, 10, x1, x2, x3, t)),
            ("paraxial (3,0)", paraxial_psi(params, ModeIndex(3, 0), p),
             hermite_gauss_reference(k, 1.0, 1.0, 3, 0, x1, x2, x3, t, envelope_arg="paraxial")),
            ("gaussian", bateman_gaussian_psi(params, p),
             bateman_reference(k, 1.0, 1.0, x1, x2, x3, t)),
            ("alternate", alternate_exact_psi(params, SpaceTimePoint(f1, f2, f3, ft)),
             alternate_reference(k, 1.0, 1.0, f1, f2, f3, ft)),
            ("density (3,2)", density_D(params, ModeIndex(3, 2), d1, d2, d3),
             density_reference(k, 1.0, 1.0, 3, 2, d1, d2, d3)),
            ("F (3,2)", asymptotic_F(params, ModeIndex(3, 2), theta, phi),
             angular_reference(k, 1.0, 3, 2, theta, phi)),
        ]
        for name, got, (want, allowed) in cases:
            ratio = np.abs(got - want) / allowed
            worst = int(np.argmax(ratio))
            assert ratio[worst] <= 1.0, (name, worst, ratio[worst])


EPS = np.finfo(float).eps


def _phase_cases():
    """Phases for the phasor accuracy test: signed zeros, multiples of pi/2, |phase| near pi and
    its large multiples, and magnitudes spread log-uniformly from 1e-3 to 1e12."""
    rng = np.random.default_rng(2718)
    near_pi = [np.nextafter(np.pi, 0.0), np.pi, np.nextafter(np.pi, 4.0)]
    large_pi = [k * np.pi for k in (1e3 + 1, 1e6 + 1, 1e9 + 1, 3e11 + 1)]
    magnitudes = 10.0 ** rng.uniform(-3.0, 12.0, 400)
    cases = np.concatenate([[0.0], 0.5 * np.pi * np.arange(1, 41), near_pi, large_pi, magnitudes])
    return np.concatenate([cases, -cases])


def _hermite_gauss_libm(params, mode, x1, x2, s, carrier):
    """The Hermite-Gaussian field from the recurrence and libm exponentials, and its term scale.

    The envelope phase and the once-rounded carrier phase each get their
    own exponential, so the carrier's rounding is shared with the kernel
    and the sum of the two phases is not rounded at all. The scale is the
    modulus with each Hermite polynomial replaced by the sum of its term
    moduli: next to a node two evaluations of H differ on that scale.
    """
    lr = params.rayleigh_range
    u = s / lr
    g = 1.0 + u * u
    w = params.w0 * np.sqrt(g)
    a = params.k * (x1 * x1 + x2 * x2) / (2.0 * lr * g)
    envelope = normalization_constant(params, mode) * (params.w0 / w) * np.exp(-a)
    xi1, xi2 = np.sqrt(2.0) * x1 / w, np.sqrt(2.0) * x2 / w
    value = (envelope * hermite(mode.m, xi1) * hermite(mode.n, xi2)
             * np.exp(1j * (a * u - (1 + mode.total_order) * np.arctan(u))) * np.exp(1j * carrier))
    return value, envelope * hermite_terms(mode.m, xi1)[1] * hermite_terms(mode.n, xi2)[1]


def _bateman_libm(params, x1, x2, x3, t):
    """The rational Gaussian form with libm complex exponentials, the carrier under its own."""
    lr = params.rayleigh_range
    u = x3 + params.v * t
    return (normalization_constant(params, ModeIndex(0, 0)) * lr / (lr + 0.5j * u)
            * np.exp(1j * params.k * (x1**2 + x2**2) / (u - 2j * lr))
            * np.exp(1j * (params.k * x3 - params.omega * t)))


def _asymptotic_F_libm(params, mode, theta, phi):
    """The angular limit F with libm sin and cos, as it was."""
    lr = params.rayleigh_range
    ratio = lr / params.w0
    st = np.sin(theta)
    arg1 = np.sqrt(2.0) * st * np.cos(phi) * ratio
    arg2 = np.sqrt(2.0) * st * np.sin(phi) * ratio
    return (normalization_constant(params, mode) ** 2 * lr**2 * hermite(mode.m, arg1) ** 2
            * hermite(mode.n, arg2) ** 2 * np.exp(-2.0 * st**2 * ratio**2))


def _rotated(amplitude, phase):
    """amplitude * e^{i*phase} from ``beam._rotate`` on fresh buffers."""
    phase = np.asarray(phase, dtype=float)
    out = np.empty(phase.shape, dtype=complex)
    beam._rotate(out, np.full(phase.shape, amplitude, dtype=float), 0.5 * phase)
    return out


class TestPhasor:
    def test_against_mpmath_expj(self):
        # tan of the exact half phase: a few eps at any phase, with no reduction error
        phase = _phase_cases()
        got = _rotated(1.0, phase)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.expj(mpmath.mpf(float(p)))) for p in phase])
        error = np.abs(got - want)
        worst = int(np.argmax(error))
        assert np.all(error <= 16.0 * EPS), (phase[worst], error[worst] / EPS)

    def test_extreme_amplitudes_stay_finite(self):
        phase = np.concatenate([_phase_cases()[::7], [np.pi, -np.pi]])
        for amplitude in (0.0, 5e-324, 1e-310, 1e300):
            got = _rotated(amplitude, phase)
            assert np.all(np.isfinite(got.real)) and np.all(np.isfinite(got.imag)), amplitude
        np.testing.assert_array_equal(_rotated(0.0, phase), 0.0)
        big = _rotated(1e300, phase)
        np.testing.assert_allclose(big / 1e300, _rotated(1.0, phase), rtol=4 * EPS, atol=0)

    def test_non_finite_phase_gives_nan(self):
        phase = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            got = _rotated(2.0, phase)
            libm = 2.0 * np.exp(1j * phase)
        assert np.all(np.isnan(got.real)) and np.all(np.isnan(got.imag))
        assert np.all(np.isnan(libm.real)) and np.all(np.isnan(libm.imag))

    @pytest.fixture
    def general_points(self, beam50):
        """Points within two spot radii and |x3|, |v t| <= 3 L_R, as in the eval_api workload."""
        lr = beam50.rayleigh_range
        rng = np.random.default_rng(50)
        x3, t = rng.uniform(-3.0, 3.0, (2, 20_000)) * lr
        w = spot_radius(beam50, 0.5 * (x3 + t))
        x1, x2 = rng.uniform(-2.0, 2.0, (2, 20_000)) * w
        return x1, x2, x3, t

    @pytest.mark.parametrize("mode", [(0, 0), (2, 1), (10, 10), (20, 0)])
    def test_hermite_gauss_fields_match_libm_form(self, beam50, general_points, mode):
        mode = ModeIndex(*mode)
        x1, x2, x3, t = general_points
        carrier = beam50.k * x3 - beam50.omega * t
        p = SpaceTimePoint(x1, x2, x3, t)
        s = 0.5 * (x3 + beam50.v * t)
        for got, (want, scale) in (
            (exact_psi(beam50, mode, p), _hermite_gauss_libm(beam50, mode, x1, x2, s, carrier)),
            (paraxial_psi(beam50, mode, p), _hermite_gauss_libm(beam50, mode, x1, x2, x3, carrier)),
            (envelope_phi(beam50, mode, x1, x2, s), _hermite_gauss_libm(beam50, mode, x1, x2, s, 0.0)),
        ):
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_bateman_matches_libm_form(self, beam50, general_points):
        # the carrier phase is reduced before the envelope phase is added, so the sum
        # rounds at the scale of pi and not of |k x3 - omega t|
        x1, x2, x3, t = general_points
        got = bateman_gaussian_psi(beam50, SpaceTimePoint(x1, x2, x3, t))
        np.testing.assert_allclose(got, _bateman_libm(beam50, x1, x2, x3, t), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mode", [(0, 0), (3, 2), (10, 10)])
    def test_asymptotic_F_matches_libm_form(self, beam50, mode):
        # relative to the peak: next to a Hermite node an ulp of the argument is a large
        # relative change of F
        mode = ModeIndex(*mode)
        rng = np.random.default_rng(51)
        theta = rng.uniform(0.0, 0.2, 20_000)
        phi = rng.uniform(-np.pi, np.pi, 20_000)
        got = asymptotic_F(beam50, mode, theta, phi)
        want = _asymptotic_F_libm(beam50, mode, theta, phi)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
