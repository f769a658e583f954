import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exactbeam
from exactbeam import (
    AlternateComparisonReport,
    BeamParams,
    GouyPathError,
    ModeIndex,
    OrthoReport,
    QuadratureConvergenceError,
    ResidualReport,
    SpaceTimePoint,
    alternate_correspondence_sweep,
    alternate_exact_psi,
    bateman_gaussian_psi,
    check_symmetry,
    compare_alternate,
    compute_normalization,
    default_wave_steps,
    envelope_phi,
    exact_psi,
    field_function,
    fit_gouy,
    gouy_phase_samples,
    hermite,
    hermite_ridge_offset,
    normalization_constant,
    paraxial_psi,
    residual_convergence_sweep,
    residual_full_wave,
    residual_reduced,
    sample_paraxial_points,
    sample_points,
    spot_radius,
    transverse_gram,
)
from exactbeam import beam as beam_module
from exactbeam import verify as verify_module
from exactbeam.config import parse_config
from exactbeam.verify import GRAM_MODES, SUITE_TOLERANCES, SUITES, run_battery


class TestReports:
    def test_residual_report_guards(self):
        with pytest.raises(ValueError):
            ResidualReport("helmholtz", 10, 1e-9, "k^2 |psi|")
        with pytest.raises(ValueError):
            ResidualReport("full_wave_eq1", 10, -1e-9, "k^2 |psi|")

    def test_residual_report_round_trip(self):
        rep = ResidualReport("full_wave_eq1", 10, 1e-9, "k^2 |psi|", skipped_points=2)
        d = rep.to_dict()
        assert d["equation"] == "full_wave_eq1"
        assert d["max_relative_residual"] == 1e-9
        assert d["skipped_points"] == 2
        assert d["max_peak_residual"] is None

    def test_peak_residual_in_dict(self):
        rep = ResidualReport("reduced_eq12", 10, 1e-5, "k^2 |phi|", max_peak_residual=2e-9)
        assert rep.to_dict()["max_peak_residual"] == 2e-9
        with pytest.raises(ValueError):
            ResidualReport("reduced_eq12", 10, 1e-5, "k^2 |phi|", max_peak_residual=-1.0)

    def test_alternate_report_dict(self):
        rep = AlternateComparisonReport(0.02, 100, -0.8j, 1e-3)
        d = rep.to_dict()
        assert d["fitted_constant_im"] == -0.8
        assert d["max_relative_deviation"] == 1e-3


class TestSampling:
    def test_sample_points_envelope_scaled(self, beam50, rng):
        pts = sample_points(beam50, 50, rng)
        lr = beam50.rayleigh_range
        assert pts.x1.shape == (50,)
        assert np.all(np.abs(pts.x3) <= 3 * lr)
        assert np.all(np.abs(beam50.v * pts.t) <= 3 * lr)
        w = spot_radius(beam50, 0.5 * (pts.x3 + beam50.v * pts.t))
        assert np.all(np.abs(pts.x1) <= 2.0 * w)
        assert np.all(np.abs(pts.x2) <= 2.0 * w)

    def test_sample_points_x3_spread(self, beam50, rng):
        pts = sample_points(beam50, 50, rng, x3_range=(0.2, 3.0), spread_with="x3")
        assert np.all(pts.x3 >= 0.2 * beam50.rayleigh_range)
        w = spot_radius(beam50, pts.x3)
        assert np.all(np.abs(pts.x1) <= 2.0 * w)

    def test_sample_paraxial_points(self, beam100, rng):
        p = 0.01
        pts = sample_paraxial_points(beam100, 80, rng, p)
        lr = beam100.rayleigh_range
        np.testing.assert_array_equal(pts.t, pts.x3 / beam100.v)
        assert np.all((pts.x3 >= lr / p) & (pts.x3 <= 2 * lr / p))
        assert np.all(np.hypot(pts.x1, pts.x2) <= p * pts.x3 + 1e-12)


class TestFullWaveResidual:
    def test_exact_family(self, beam50, rng):
        for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
            rep = residual_full_wave(
                beam50, field_function("exact", beam50, mode), sample_points(beam50, 60, rng)
            )
            assert rep.equation == "full_wave_eq1"
            assert rep.max_relative_residual <= 1e-6
            assert rep.point_count + rep.skipped_points == 60

    def test_alternate_family(self, beam50, rng):
        pts = sample_points(beam50, 60, rng, x3_range=(0.2, 3.0), spread_with="x3")
        rep = residual_full_wave(beam50, field_function("alternate", beam50), pts)
        assert rep.max_relative_residual <= 1e-6

    def test_rational_gaussian_family(self, beam50, rng):
        rep = residual_full_wave(
            beam50, field_function("gaussian", beam50), sample_points(beam50, 60, rng)
        )
        assert rep.max_relative_residual <= 1e-6

    def test_paraxial_family_fails_full_equation(self, beam50, rng):
        pts = sample_points(beam50, 200, rng)
        rep = residual_full_wave(
            beam50,
            field_function("paraxial", beam50, ModeIndex(2, 1)),
            pts,
            equation="paraxial_eq3",
        )
        exact = residual_full_wave(beam50, field_function("exact", beam50, ModeIndex(2, 1)), pts)
        assert rep.equation == "paraxial_eq3"
        assert rep.max_relative_residual >= 1e-5
        assert rep.max_relative_residual >= 1e3 * exact.max_relative_residual

    def test_node_points_skipped(self, beam50):
        lr = beam50.rayleigh_range
        x1 = np.array([0.0, 0.5, 0.0, 0.8])
        pts = SpaceTimePoint(x1, 0.2, 0.7 * lr, 0.3 * lr / beam50.v)
        with np.errstate(invalid="ignore", divide="ignore"):
            rep = residual_full_wave(beam50, field_function("exact", beam50, ModeIndex(1, 0)), pts)
        assert rep.skipped_points == 2
        assert rep.point_count == 2
        assert rep.max_relative_residual <= 1e-6
        assert "skipped" in rep.note

    def test_default_steps_scale_with_beam(self):
        slow = BeamParams(k=50.0, w0=1.0, v=1.0)
        fast = BeamParams(k=200.0, w0=0.5, v=4.0)
        d = default_wave_steps(fast)
        assert d["x3_step"] == pytest.approx(default_wave_steps(slow)["x3_step"] / 4.0)
        assert d["t_step"] == pytest.approx(1e-2 / (200.0 * 4.0))
        assert d["transverse_step"] == pytest.approx(1e-3 * 0.5)


class TestConvergenceSweep:
    def test_fourth_order_stencil(self, beam50, rng):
        residuals, orders = residual_convergence_sweep(
            beam50, field_function("exact", beam50, ModeIndex(0, 0)),
            sample_points(beam50, 20, rng),
        )
        assert residuals[0] > residuals[1] > residuals[2]
        assert all(o >= 3.4 for o in orders)


def _waist_mutant(params, mode):
    """Envelope whose axial phase uses a Rayleigh range from a waist 1% too wide."""
    lr_bad = 0.5 * params.k * (1.01 * params.w0) ** 2

    def corrupted(x1, x2, s):
        shift = (1 + mode.total_order) * (
            np.arctan(s / params.rayleigh_range) - np.arctan(s / lr_bad)
        )
        return envelope_phi(params, mode, x1, x2, s) * np.exp(1j * shift)

    return corrupted


class TestReducedResidual:
    def test_mode_index_envelope(self, beam50, rng):
        pts = (rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40),
               rng.uniform(-2, 2, 40) * beam50.rayleigh_range)
        rep = residual_reduced(beam50, ModeIndex(3, 2), pts)
        assert rep.equation == "reduced_eq12"
        assert rep.max_relative_residual <= 1e-6

    def test_callable_envelope(self, beam50, rng):
        env = lambda x1, x2, s: envelope_phi(beam50, ModeIndex(0, 0), x1, x2, s)
        pts = (rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20),
               rng.uniform(-2, 2, 20) * beam50.rayleigh_range)
        rep = residual_reduced(beam50, env, pts)
        assert rep.max_relative_residual <= 1e-6

    def test_corrupted_axial_phase_detected(self, beam5, rng):
        mode = ModeIndex(0, 0)
        pts = (rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40),
               rng.uniform(-2, 2, 40) * beam5.rayleigh_range)
        honest = residual_reduced(beam5, mode, pts)
        bad = residual_reduced(beam5, _waist_mutant(beam5, mode), pts)
        assert honest.max_relative_residual <= 1e-6
        assert bad.max_relative_residual > 1e-3


@pytest.mark.parametrize("mode", [(0, 0), (6, 4), (10, 10), (20, 0)])
@pytest.mark.parametrize("kw0", [1.0, 20.0, 300.0, 1e4])
class TestPeakNormalizedVerdicts:
    """The gated peak ratios separate exact fields from a mutant at every k*w0."""

    @staticmethod
    def reduced_points(params, rng, count=300):
        s = rng.uniform(-3.0, 3.0, count) * params.rayleigh_range
        w = spot_radius(params, s)
        return (rng.uniform(-2.0, 2.0, count) * w, rng.uniform(-2.0, 2.0, count) * w, s)

    def test_exact_envelope_passes(self, kw0, mode, rng):
        beam = BeamParams(k=kw0, w0=1.0)
        mode = ModeIndex(*mode)
        reduced = residual_reduced(beam, mode, self.reduced_points(beam, rng))
        assert reduced.max_peak_residual <= SUITE_TOLERANCES["reduced"]
        for rep in check_symmetry(beam, mode, sample_points(beam, 100, rng)):
            assert rep.max_peak_residual <= SUITE_TOLERANCES["symmetry"]

    def test_waist_mutant_fails_reduced(self, kw0, mode, rng):
        beam = BeamParams(k=kw0, w0=1.0)
        mode = ModeIndex(*mode)
        rep = residual_reduced(beam, _waist_mutant(beam, mode), self.reduced_points(beam, rng))
        assert rep.max_peak_residual >= 1e-2


@pytest.mark.parametrize("kw0", [20.0, 300.0, 1e4])
def test_reduced_default_step_margin(kw0):
    """Exact (10,10) and (20,0) envelopes clear the 1e-6 reduced gate 10x; the mutant does not."""
    beam = BeamParams(k=kw0, w0=1.0)
    points = TestPeakNormalizedVerdicts.reduced_points(beam, np.random.default_rng(5), 2000)
    for mode in (ModeIndex(10, 10), ModeIndex(20, 0)):
        rep = residual_reduced(beam, mode, points)
        assert rep.max_peak_residual <= 0.1 * SUITE_TOLERANCES["reduced"]
    mutant = residual_reduced(beam, _waist_mutant(beam, ModeIndex(0, 0)), points)
    assert mutant.max_peak_residual >= 1e-2


#: The suites that declare mutants, run together so a mutant that trips a
#: neighbouring suite shows up too.
MUTANT_SUITES = [name for name, suite in SUITES.items() if suite.mutants]


def _battery(kw0, mutate):
    config = parse_config({"beam": {"k": kw0}, "modes": [[0, 0], [3, 2]],
                           "verify": {"suites": MUTANT_SUITES, "points": 200, "mutate": mutate}},
                          natural_units=True)
    return run_battery(config)


@pytest.mark.parametrize("kw0", [5.0, 50.0, 1e3, 1e4])
@pytest.mark.parametrize("suite,mutant",
                         [(name, m) for name in MUTANT_SUITES for m in SUITES[name].mutants])
def test_declared_mutant_fails_exactly_its_suite(suite, mutant, kw0):
    bundle = _battery(kw0, mutant)
    assert bundle["failed_suites"] == [suite]
    assert bundle["suites"][suite]["mutation"] == mutant


@pytest.mark.parametrize("kw0", [5.0, 50.0, 1e3, 1e4])
def test_unmutated_field_passes_mutant_suites(kw0):
    bundle = _battery(kw0, "none")
    assert bundle["passed"] and list(bundle["suites"]) == MUTANT_SUITES


class TestSymmetry:
    def test_honest_envelope(self, beam50, rng):
        first, second = check_symmetry(
            beam50, ModeIndex(2, 1), sample_points(beam50, 40, rng)
        )
        assert first.equation == "symmetry_eq10"
        assert second.equation == "symmetry_eq11"
        assert first.max_relative_residual <= 1e-7
        assert second.max_relative_residual <= 1e-7

    def test_time_independent_mutant_detected(self, beam50, rng):
        mutant = lambda x1, x2, x3, t: envelope_phi(beam50, ModeIndex(0, 0), x1, x2, x3)
        first, _ = check_symmetry(
            beam50, ModeIndex(0, 0), sample_points(beam50, 40, rng), envelope=mutant
        )
        assert first.max_relative_residual >= 0.5


class TestOrthonormality:
    MODES = [(0, 0), (1, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("s_factor", [0.0, 5.0])
    def test_identity_gram(self, beam50, s_factor):
        rep = transverse_gram(beam50, self.MODES, s=s_factor * beam50.rayleigh_range)
        assert isinstance(rep, OrthoReport)
        assert rep.max_off_diagonal <= 1e-12
        assert rep.max_diagonal_deviation <= 1e-12
        assert rep.node_count == 1 + 1 + 8  # largest index, plus one, plus the margin
        g = rep.gram_entries
        assert g[0, 1] == np.conj(g[1, 0])

    def test_duplicate_modes_rejected(self, beam50):
        with pytest.raises(ValueError):
            transverse_gram(beam50, [(0, 0), ModeIndex(0, 0)])

    def test_underresolved_quadrature_rejected(self, beam50, monkeypatch):
        # two nodes per axis are exact only up to index 1; GRAM_MODES reach 2
        monkeypatch.setattr(verify_module, "_node_count", lambda modes: 2)
        with pytest.raises(QuadratureConvergenceError, match="between 2 and 10 nodes"):
            transverse_gram(beam50, GRAM_MODES)

    def test_scalar_and_mapping_constants(self, beam50):
        c00 = normalization_constant(beam50, ModeIndex(0, 0))
        rep = transverse_gram(beam50, [(0, 0)], constants=c00)
        assert rep.max_diagonal_deviation <= 1e-12
        c11 = normalization_constant(beam50, ModeIndex(1, 1))
        rep = transverse_gram(beam50, [(0, 0), (1, 1)], constants={(0, 0): c00, (1, 1): c11})
        assert rep.max_diagonal_deviation <= 1e-12

    def test_wrong_constant_breaks_diagonal(self, beam50):
        rep = transverse_gram(beam50, [(0, 0)], constants=1.0)
        assert rep.max_diagonal_deviation > 0.1


class TestNumericNormalization:
    def test_matches_closed_form(self, beam50):
        for mode in (ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(2, 1)):
            got = compute_normalization(beam50, mode)
            assert got == pytest.approx(normalization_constant(beam50, mode), rel=1e-12)

    def test_waist_scaling(self):
        narrow = BeamParams(k=50.0, w0=1.0)
        wide = BeamParams(k=25.0, w0=2.0)
        assert compute_normalization(wide, ModeIndex(0, 0)) == pytest.approx(
            compute_normalization(narrow, ModeIndex(0, 0)) / 2.0, rel=1e-12
        )


#: Modes up to the library's guard m + n = 20, with high and low indices on each axis.
HIGH_ORDER_MODES = [(0, 0), (20, 0), (10, 10), (0, 20), (19, 1), (6, 4)]


def _run_suites(kw0, modes, suites):
    config = parse_config({"beam": {"k": kw0}, "modes": [list(m) for m in modes],
                           "verify": {"suites": suites}}, natural_units=True)
    return run_battery(config)


@pytest.mark.parametrize("kw0", [1.0, 50.0, 1e4])
def test_high_order_gram_and_constants_to_rounding(kw0):
    beam = BeamParams(k=kw0, w0=1.0)
    for plane in (0.0, 5.0 * beam.rayleigh_range):
        rep = transverse_gram(beam, HIGH_ORDER_MODES, s=plane)
        assert np.abs(rep.gram_entries - np.eye(len(HIGH_ORDER_MODES))).max() <= 1e-13
    for mode in (ModeIndex(*m) for m in HIGH_ORDER_MODES):
        closed = normalization_constant(beam, mode)
        assert abs(compute_normalization(beam, mode) - closed) <= 1e-13 * closed


@pytest.mark.parametrize("kw0", [1.0, 50.0, 1e4])
def test_suites_check_the_configured_modes(kw0):
    bundle = _run_suites(kw0, HIGH_ORDER_MODES, ["gram", "normalization", "gouy"])
    assert bundle["passed"]
    suites = bundle["suites"]
    configured = [list(m) for m in HIGH_ORDER_MODES]
    assert [c["mode"] for c in suites["normalization"]["checks"]] == configured
    assert [f["mode"] for f in suites["gouy"]["fits"]] == configured
    for rep in suites["gram"]["reports"]:
        diagonal = [a for a, b in rep["mode_pairs"] if a == b]
        assert diagonal == [[m.m, m.n] for m in GRAM_MODES] + configured[1:]


def _stretch_width(monkeypatch):
    """Mutant: every envelope the suites integrate is 1% wider than w(s)."""
    monkeypatch.setattr(verify_module, "envelope_phi",
                        lambda params, mode, x1, x2, s, c_mn=None:
                        envelope_phi(params, mode, x1 / 1.01, x2 / 1.01, s, c_mn=c_mn))


def _scale_constant(monkeypatch):
    """Mutant: the closed-form C_mn is 1% too large."""
    closed = beam_module.normalization_constant
    wrong = lambda params, mode: 1.01 * closed(params, mode)
    monkeypatch.setattr(beam_module, "normalization_constant", wrong)
    monkeypatch.setattr(verify_module, "normalization_constant", wrong)


@pytest.mark.parametrize("kw0", [1.0, 50.0, 1e4])
@pytest.mark.parametrize("mutant", [_stretch_width, _scale_constant])
def test_gram_and_normalization_reject_mutants(mutant, kw0, monkeypatch):
    mutant(monkeypatch)
    # (20, 0): a wrong width still settles at the largest sizing, so gram FAILs, not stops
    bundle = _run_suites(kw0, [(0, 0), (3, 2), (20, 0)], ["gram", "normalization"])
    assert bundle["failed_suites"] == ["gram", "normalization"]
    assert bundle["suites"]["gram"]["max_diagonal_deviation"] == pytest.approx(0.0201, rel=1e-6)
    assert bundle["suites"]["normalization"]["max_rel_error"] == pytest.approx(0.01 / 1.01,
                                                                              rel=1e-6)


class TestAxialPhaseLaw:
    def test_ridge_offsets(self):
        assert hermite_ridge_offset(0) == 0.0
        assert hermite_ridge_offset(1) == pytest.approx(1.0, abs=1e-6)
        assert hermite_ridge_offset(2) == pytest.approx(math.sqrt(2.5), abs=1e-6)

    @pytest.mark.parametrize("order", range(1, 21))
    def test_ridge_offset_zeroes_profile_slope(self, order):
        x = hermite_ridge_offset(order)
        slope = 2 * order * hermite(order - 1, x) - x * hermite(order, x)
        scale = 2 * order * abs(hermite(order - 1, x)) + abs(x * hermite(order, x))
        assert abs(slope) <= 1e-10 * scale

    def test_axis_samples_follow_arctan(self, beam50):
        lr = beam50.rayleigh_range
        s = np.linspace(-10 * lr, 10 * lr, 101)
        s_out, phase, path = gouy_phase_samples(beam50, ModeIndex(0, 0), s)
        assert path == "axis"
        want = -np.arctan(s_out / lr)
        np.testing.assert_allclose(phase - phase[0], want - want[0], atol=1e-12)

    def test_odd_mode_axis_rejected(self, beam50):
        s = np.linspace(-10, 10, 51) * beam50.rayleigh_range
        with pytest.raises(GouyPathError):
            gouy_phase_samples(beam50, ModeIndex(1, 0), s, path="axis")
        with pytest.raises(ValueError):
            gouy_phase_samples(beam50, ModeIndex(0, 0), s, path="spiral")
        with pytest.raises(ValueError):
            gouy_phase_samples(beam50, ModeIndex(0, 0), s[:5])

    @pytest.mark.parametrize(
        "mode,expected_path",
        [((0, 0), "axis"), ((2, 0), "axis"), ((1, 0), "ridge"), ((2, 1), "ridge")],
    )
    def test_fit_recovers_order_law(self, beam50, mode, expected_path):
        lr = beam50.rayleigh_range
        s = np.linspace(-10 * lr, 10 * lr, 401)
        rep = fit_gouy(beam50, ModeIndex(*mode), s)
        assert rep.path == expected_path
        assert rep.fitted_amplitude == pytest.approx(-(1 + sum(mode)), abs=1e-9)
        assert rep.fitted_scale == pytest.approx(lr, rel=1e-9)
        assert rep.rms_fit_error < 1e-9
        assert rep.sample_count == 401


class TestAlternateComparison:
    def test_cone_agreement(self, beam100):
        rep = compare_alternate(beam100, 0.02)
        assert rep.max_relative_deviation <= 0.01
        c00 = normalization_constant(beam100, ModeIndex(0, 0))
        assert rep.fitted_constant == pytest.approx(-1j * c00, rel=0.02)

    def test_paraxiality_domain(self, beam100):
        for bad in (0.06, 0.0, -0.01):
            with pytest.raises(ValueError):
                compare_alternate(beam100, bad)

    def test_on_axis_ratio_is_constant(self, beam100):
        lr = beam100.rayleigh_range
        x3 = np.linspace(50 * lr, 100 * lr, 60)
        pts = SpaceTimePoint(0.0, 0.0, x3, x3 / beam100.v)
        rep = compare_alternate(beam100, 0.02, points=pts)
        assert rep.max_relative_deviation <= 1e-9

    def test_quadratic_shrinkage(self, beam100):
        reports, orders = alternate_correspondence_sweep(beam100)
        devs = [r.max_relative_deviation for r in reports]
        assert devs == sorted(devs, reverse=True)
        assert all(o >= 1.8 for o in orders)


def _modules_loaded_by_cli_import() -> set:
    """The names in sys.modules after a fresh interpreter imports exactbeam.cli."""
    src = str(Path(exactbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, exactbeam.cli; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_import_leaves_out_scipy():
    assert "scipy" not in _modules_loaded_by_cli_import()


def test_cli_import_leaves_out_process_pools():
    """gridio imports the thread pool and the float encoder only when it writes."""
    loaded = _modules_loaded_by_cli_import()
    assert not {"multiprocessing", "concurrent", "exactbeam._floattext"} & loaded
