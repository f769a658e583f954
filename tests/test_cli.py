import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import exactbeam
from exactbeam import _threads, beam, cli
from exactbeam import (
    BeamParams,
    ModeIndex,
    asymptotic_F,
    envelope_phi,
    normalization_constant,
    spot_radius,
)
from exactbeam.cli import _keep_freed_memory, main
from exactbeam.config import load_config
from exactbeam.gridio import load, load_csv
from exactbeam.verify import SUITES


def config_path(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BEAM50 = BeamParams(k=50.0, w0=1.0, v=1.0)


class TestField:
    def test_on_axis_modulus_follows_spot_growth(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0]],
            "family": "exact",
            "quantity": "psi",
            "grid": {
                "axes": [
                    {"name": "x1", "min": -2.0, "max": 2.0, "count": 5},
                    {"name": "s", "min": 0.0, "max": 50.0, "count": 11},
                ]
            },
        }
        out = tmp_path / "field.csv"
        rc = main(
            ["field", "--config", config_path(tmp_path, doc), "--out", str(out),
             "--natural-units"]
        )
        assert rc == 0
        grid = load_csv(out)
        assert grid.metadata["natural_units"] is True
        assert grid.metadata["config"] == doc
        s = grid.axes[1].values
        c00 = normalization_constant(BEAM50, ModeIndex(0, 0))
        on_axis = np.abs(grid.values[2, :])  # x1 = 0 row
        np.testing.assert_allclose(on_axis, c00 / spot_radius(BEAM50, s), rtol=1e-12)

    def test_odd_mode_axis_column_vanishes(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[1, 0]],
            "grid": {
                "axes": [
                    {"name": "x1", "min": -1.0, "max": 1.0, "count": 3},
                    {"name": "s", "min": -30.0, "max": 30.0, "count": 7},
                ]
            },
        }
        out = tmp_path / "field.csv"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 0
        grid = load_csv(out)
        assert np.all(np.abs(grid.values[1, :]) == 0.0)
        assert np.all(np.abs(grid.values[0, :]) > 0.0)

    def test_time_constraint_section(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[2, 1]],
            "grid": {
                "axes": [{"name": "x3", "min": -50.0, "max": 50.0, "count": 9}],
                "fixed": {"x1": 0.3, "x2": -0.2},
                "time": {"mode": "constraint", "kind": "paraxial_fP"},
            },
        }
        out = tmp_path / "field.json"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--format", "json", "--natural-units"]) == 0
        grid = load(out)
        x3 = grid.axes[0].values
        want = envelope_phi(BEAM50, ModeIndex(2, 1), 0.3, -0.2, x3)
        np.testing.assert_allclose(grid.values, want, rtol=1e-12)

    def test_density_matches_angular_limit_at_large_radius(self, tmp_path):
        lr = BEAM50.rayleigh_range
        r = 200.0 * lr
        axes = [{"name": "theta", "min": 1e-3, "max": 0.04, "count": 9}]
        density_doc = {
            "beam": {"k": 50},
            "modes": [[1, 0]],
            "quantity": "density",
            "grid": {"axes": axes, "fixed": {"r": r, "phi": 0.7}},
        }
        out = tmp_path / "density.csv"
        assert main(["field", "--config", config_path(tmp_path, density_doc), "--out",
                     str(out), "--natural-units"]) == 0
        grid = load_csv(out)
        theta = grid.axes[0].values
        d = grid.values.real
        f_limit = asymptotic_F(BEAM50, ModeIndex(1, 0), theta, 0.7)
        np.testing.assert_allclose(r**2 * d * BEAM50.v / 2.0, f_limit, rtol=0.01)

    def test_raw_output_drops_time_jacobian(self, tmp_path):
        doc = {
            "beam": {"k": 50, "w0": 1, "v": 4},
            "modes": [[0, 0]],
            "quantity": "density",
            "grid": {
                "axes": [{"name": "r", "min": 1.0, "max": 100.0, "count": 4}],
                "fixed": {"theta": 0.01, "phi": 0.0},
            },
        }
        path = config_path(tmp_path, doc)
        with_j, raw = tmp_path / "with.csv", tmp_path / "raw.csv"
        assert main(["field", "--config", path, "--out", str(with_j)]) == 0
        assert main(["field", "--config", path, "--out", str(raw), "--raw-eq19"]) == 0
        dj = load_csv(with_j).values.real
        dr = load_csv(raw).values.real
        np.testing.assert_allclose(dj, 0.5 * dr, rtol=1e-14)
        assert load_csv(raw).metadata["include_jacobian"] is False

    def test_deterministic_output_bytes(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[2, 2]],
            "grid": {
                "axes": [
                    {"name": "x1", "min": -1.0, "max": 1.0, "count": 4},
                    {"name": "x3", "min": -40.0, "max": 40.0, "count": 4},
                ],
                "time": {"mode": "fixed", "t": 3.0},
            },
        }
        path = config_path(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["field", "--config", path, "--out", str(a), "--natural-units"]) == 0
        assert main(["field", "--config", path, "--out", str(b), "--natural-units"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mode_count_enforced(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0], [1, 0]],
            "grid": {"axes": [{"name": "x1", "min": -1.0, "max": 1.0, "count": 3}],
                     "fixed": {"x3": 10.0}},
        }
        out = tmp_path / "f.csv"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 2

    def test_modeless_families_allowed(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "family": "gaussian",
            "grid": {"axes": [{"name": "x1", "min": -1.0, "max": 1.0, "count": 3}],
                     "fixed": {"x3": 10.0, "t": 10.0}},
        }
        out = tmp_path / "f.csv"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 0

    def test_overflow_grid_guard(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0]],
            "grid": {"axes": [{"name": "x1", "min": 0.0, "max": 1e200, "count": 3}],
                     "fixed": {"x3": 10.0}},
        }
        out = tmp_path / "f.csv"
        rc = main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--natural-units"])
        assert rc == 3
        assert not out.exists()


def _full_grid_coordinates(config):
    """The field's coordinates with every axis spread over the whole grid shape."""
    mesh = np.meshgrid(*(ax.values for ax in config.axes), indexing="ij")
    return {**{ax.name: grid for ax, grid in zip(config.axes, mesh)}, **config.fixed}


def _axis(name, lo, hi, count):
    return {"name": name, "min": lo, "max": hi, "count": count}


#: One grid per quantity and per psi time mode, over three axes (two for the
#: angular limit, which has no more).
SPARSE_GRID_CASES = {
    "psi-explicit-t": {"modes": [[2, 1]], "grid": {
        "axes": [_axis("x1", -2.0, 2.0, 7), _axis("x3", -20.0, 30.0, 6), _axis("t", 0.0, 9.0, 5)],
        "fixed": {"x2": 0.4}}},
    "psi-fixed-time": {"modes": [[1, 2]], "grid": {
        "axes": [_axis("x1", -2.0, 2.0, 7), _axis("x2", -1.5, 1.5, 6), _axis("x3", -9.0, 40.0, 5)],
        "time": {"mode": "fixed", "t": 3.5}}},
    "psi-constraint": {"modes": [[0, 3]], "grid": {
        "axes": [_axis("x1", -2.0, 2.0, 7), _axis("x2", -1.5, 1.5, 6), _axis("x3", -9.0, 40.0, 5)],
        "time": {"mode": "constraint", "kind": "exact_fE"}}},
    "psi-s-locked": {"modes": [[3, 0]], "family": "paraxial", "grid": {
        "axes": [_axis("x1", -2.0, 2.0, 7), _axis("x2", -1.5, 1.5, 6), _axis("s", -30.0, 30.0, 5)]}},
    "density": {"modes": [[3, 2]], "quantity": "density", "grid": {
        "axes": [_axis("r", 0.5, 200.0, 5), _axis("theta", 0.0, 0.3, 7), _axis("phi", -np.pi, np.pi, 6)]}},
    "angular_limit": {"modes": [[2, 2]], "quantity": "angular_limit", "grid": {
        "axes": [_axis("theta", 0.0, 0.3, 9), _axis("phi", -np.pi, np.pi, 8)]}},
}


class TestSparseGrid:
    @pytest.mark.parametrize("case", list(SPARSE_GRID_CASES))
    def test_same_bytes_as_full_grid(self, case, tmp_path, monkeypatch):
        """Each axis is one array broadcast against the others, and every output
        equals the one evaluated on full coordinate arrays, over evaluator blocks of
        part of a row and of several rows on two threads."""
        doc = {"beam": {"k": 50}, **SPARSE_GRID_CASES[case]}
        path = config_path(tmp_path, doc)
        config = load_config(path, natural_units=True)
        coords = cli._grid_coordinates(config)
        assert [coords[ax.name].size for ax in config.axes] == [ax.count for ax in config.axes]
        monkeypatch.setattr(beam, "BLOCK_POINTS", 5)
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
        written = {}
        for grid in ("sparse", "full"):
            if grid == "full":
                monkeypatch.setattr(cli, "_grid_coordinates", _full_grid_coordinates)
            for fmt in ("csv", "json"):
                out = tmp_path / f"{grid}.{fmt}"
                assert main(["field", "--config", path, "--out", str(out), "--format", fmt,
                             "--natural-units"]) == 0
                written[grid, fmt] = out.read_bytes()
        for fmt in ("csv", "json"):
            assert written["sparse", fmt] == written["full", fmt], fmt

    def test_density_grid_memory_bound(self, tmp_path, monkeypatch):
        """The benchmark's 50 x 100 x 100 density grid stays under 40 MB of
        Python-tracked memory on three threads: no full coordinate grid outlives
        the evaluation, so the writers' chunks come on top of the 8 MB of values
        alone."""
        doc = {"beam": {"k": 50}, "modes": [[3, 2]], "quantity": "density", "grid": {
            "axes": [_axis("r", 1.0, 200.0, 50), _axis("theta", 0.0, 0.2, 100),
                     _axis("phi", -np.pi, np.pi, 100)]}}
        config = load_config(config_path(tmp_path, doc), natural_units=True)
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 3)
        tracemalloc.start()
        try:
            assert cli.cmd_field(config, str(tmp_path / "density.json"), "json") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak


class TestVerify:
    def test_default_battery_passes(self, tmp_path, capsys):
        doc = {"beam": {"k": 50}, "modes": [[0, 0], [2, 1]]}
        out = tmp_path / "report.json"
        rc = main(["verify", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--natural-units"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        for name in ("residual", "reduced", "symmetry", "gram", "normalization",
                     "gouy", "compare"):
            assert f"suite {name}: PASS" in lines
        bundle = json.loads(out.read_text())
        assert bundle["passed"] is True
        assert bundle["failed_suites"] == []
        assert bundle["suites"]["residual"]["max_exact_residual"] <= 1e-6
        assert bundle["suites"]["residual"]["paraxial_to_exact_ratio"] >= 1e3

    def test_empty_mode_list_rejected(self, tmp_path):
        doc = {"beam": {"k": 50}}
        assert main(["verify", "--config", config_path(tmp_path, doc),
                     "--natural-units"]) == 2

    def test_unknown_suite_rejected(self, tmp_path):
        doc = {"beam": {"k": 50}, "modes": [[0, 0]],
               "verify": {"suites": ["residual", "spectral"]}}
        assert main(["verify", "--config", config_path(tmp_path, doc),
                     "--natural-units"]) == 2

    def test_time_independent_mutant_fails(self, tmp_path, capsys):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0]],
            "verify": {"suites": ["symmetry"], "points": 50,
                       "mutate": "t_independent_envelope"},
        }
        rc = main(["verify", "--config", config_path(tmp_path, doc), "--natural-units"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "suite symmetry: FAIL" in captured.out
        assert "symmetry" in captured.err

    def test_corrupted_waist_mutant_fails(self, tmp_path, capsys):
        doc = {
            "beam": {"k": 5},
            "modes": [[0, 0]],
            "verify": {"suites": ["reduced"], "points": 50, "mutate": "gouy_w0_1pct"},
        }
        rc = main(["verify", "--config", config_path(tmp_path, doc), "--natural-units"])
        assert rc == 1
        assert "suite reduced: FAIL" in capsys.readouterr().out

    #: At k*w0 = 1e4 the field ratio of the compare suite overflows; compare
    #: is not valid there yet, but the CLI must report it as a numeric guard.
    OVERFLOWING_COMPARE = {"beam": {"k": 10000}, "modes": [[0, 0]],
                           "verify": {"points": 500, "suites": ["compare"]}}

    def test_stray_arithmetic_error_is_numeric_guard(self, tmp_path, capsys):
        rc = main(["verify", "--config", config_path(tmp_path, self.OVERFLOWING_COMPARE),
                   "--natural-units"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric guard: compare:" in err and "k*w0 = 10000" in err
        assert "RuntimeWarning" not in err

    def test_overflow_guard_under_warnings_as_errors(self, tmp_path):
        src = str(Path(exactbeam.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "exactbeam.cli", "verify",
             "--config", config_path(tmp_path, self.OVERFLOWING_COMPARE), "--natural-units"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert result.returncode == 3, result.stderr
        assert "numeric guard:" in result.stderr and "Traceback" not in result.stderr

    #: SI units at k*w0 = 5900, where compare overflows and the other suites still run.
    SI_OPTICAL = {"beam": {"k": 5.9e6, "w0": 1e-3, "v": 299792458.0},
                  "modes": [[0, 0], [2, 1]], "verify": {"points": 500}}

    def test_numeric_guard_keeps_the_other_suites(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        rc = main(["verify", "--config", config_path(tmp_path, self.SI_OPTICAL),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "suite compare: NUMERIC GUARD" in captured.out.splitlines()
        assert "numeric guard: compare:" in captured.err and "k*w0 = 5900" in captured.err
        bundle = json.loads(out.read_text())
        assert sorted(bundle["suites"]) == sorted(SUITES)
        assert bundle["guarded_suites"] == ["compare"]
        assert "compare" not in bundle["failed_suites"] and bundle["passed"] is False
        assert set(bundle["suites"]["compare"]) == {"numeric_guard", "passed"}

        others = [name for name in SUITES if name != "compare"]
        doc = {**self.SI_OPTICAL, "verify": {"points": 500, "suites": others}}
        without = tmp_path / "without.json"
        rc_without = main(["verify", "--config", config_path(tmp_path, doc, "without.cfg.json"),
                           "--out", str(without)])
        reference = json.loads(without.read_text())
        assert rc_without == (1 if reference["failed_suites"] else 0)
        assert reference["guarded_suites"] == []
        assert bundle["failed_suites"] == reference["failed_suites"]
        for name in others:
            assert bundle["suites"][name]["passed"] == reference["suites"][name]["passed"]


class TestGouy:
    def test_csv_curve_and_fit_sidecar(self, tmp_path, capsys):
        doc = {"beam": {"k": 50}, "modes": [[1, 1]]}
        out = tmp_path / "gouy.csv"
        rc = main(["gouy", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--natural-units"])
        assert rc == 0
        assert "path ridge" in capsys.readouterr().out
        fit = json.loads((tmp_path / "gouy.csv.fit.json").read_text())
        assert fit["mode"] == [1, 1]
        assert abs(fit["fitted_amplitude"] + 3.0) < 1e-6
        assert abs(fit["fitted_scale"] - 25.0) < 1e-6 * 25.0
        lines = out.read_text().splitlines()
        assert lines[1] == "s,phase"
        assert len(lines) == 2 + 401

    def test_json_single_document(self, tmp_path):
        doc = {"beam": {"k": 50}, "modes": [[0, 0]],
               "gouy": {"samples": 101, "s_min": -100.0, "s_max": 100.0}}
        out = tmp_path / "gouy.json"
        assert main(["gouy", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--format", "json", "--natural-units"]) == 0
        fit = json.loads(out.read_text())
        assert len(fit["s"]) == 101 and len(fit["phase"]) == 101
        assert abs(fit["fitted_amplitude"] + 1.0) < 1e-6

    def test_mode_override_and_check(self, tmp_path):
        doc = {"beam": {"k": 50}, "modes": [[0, 0]],
               "gouy": {"mode": [2, 0], "check": True}}
        out = tmp_path / "gouy.csv"
        assert main(["gouy", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 0
        fit = json.loads((tmp_path / "gouy.csv.fit.json").read_text())
        assert fit["mode"] == [2, 0]

    def test_check_failure_exit_code(self, tmp_path, capsys):
        doc = {"beam": {"k": 50}, "modes": [[1, 1]],
               "gouy": {"check": True, "amplitude_tol": 1e-18}}
        out = tmp_path / "gouy.csv"
        rc = main(["gouy", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--natural-units"])
        assert rc == 1
        assert "outside tolerance" in capsys.readouterr().err

    def test_failed_fit_is_numeric_guard(self, tmp_path, capsys):
        # s near the float limit overflows the fit's Jacobian, and the least-squares step fails
        doc = {"beam": {"k": 50}, "modes": [[0, 0]],
               "gouy": {"s_min": 1e300, "s_max": 1.7e308}}
        with np.errstate(all="ignore"):
            rc = main(["gouy", "--config", config_path(tmp_path, doc), "--out",
                       str(tmp_path / "gouy.csv"), "--natural-units"])
        assert rc == 3
        assert "numeric guard:" in capsys.readouterr().err

    def test_no_mode_anywhere_rejected(self, tmp_path):
        doc = {"beam": {"k": 50}}
        out = tmp_path / "gouy.csv"
        assert main(["gouy", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 2


class TestCompare:
    def test_sweep_report(self, tmp_path, capsys):
        doc = {"beam": {"k": 100}, "compare": {"points": 60}}
        out = tmp_path / "compare.csv"
        rc = main(["compare", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--natural-units"])
        assert rc == 0
        assert "measured orders:" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[1] == "paraxiality,deviation"
        assert len(lines) == 2 + 4
        devs = [float(line.split(",")[1]) for line in lines[2:]]
        assert devs == sorted(devs, reverse=True)

    def test_json_report_and_failure_threshold(self, tmp_path, capsys):
        doc = {"beam": {"k": 100}, "compare": {"points": 60, "min_order": 5.0}}
        out = tmp_path / "compare.json"
        rc = main(["compare", "--config", config_path(tmp_path, doc), "--out", str(out),
                   "--format", "json", "--natural-units"])
        assert rc == 1
        assert "below" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert len(report["reports"]) == 4


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json"),
                     "--natural-units"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"beam": {')
        assert main(["verify", "--config", str(path), "--natural-units"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path):
        doc = {"beam": {"k": 50}, "modes": [[0, 0]], "lattice": {}}
        assert main(["verify", "--config", config_path(tmp_path, doc),
                     "--natural-units"]) == 2

    def test_natural_units_forbids_physical_waist(self, tmp_path):
        doc = {"beam": {"k": 50, "w0": 2}, "modes": [[0, 0]]}
        assert main(["verify", "--config", config_path(tmp_path, doc),
                     "--natural-units"]) == 2
        assert main(["verify", "--config", config_path(tmp_path, doc)]) != 2

    def test_density_grid_rejects_cartesian_axis(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0]],
            "quantity": "density",
            "grid": {"axes": [{"name": "x1", "min": 0.0, "max": 1.0, "count": 3}]},
        }
        out = tmp_path / "f.csv"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 2

    def test_s_coordinate_excludes_time(self, tmp_path):
        doc = {
            "beam": {"k": 50},
            "modes": [[0, 0]],
            "grid": {
                "axes": [{"name": "s", "min": 0.0, "max": 10.0, "count": 3}],
                "fixed": {"t": 1.0},
            },
        }
        out = tmp_path / "f.csv"
        assert main(["field", "--config", config_path(tmp_path, doc), "--out", str(out),
                     "--natural-units"]) == 2


BAD_SECTION_VALUES = [
    ("verify", "points", "abc"), ("verify", "points", 0), ("verify", "seed", -1),
    ("verify", "suites", []), ("verify", "suites", ["gram", "gram"]),
    ("verify", "max_total_order", 2),
    ("compare", "paraxialities", ["a", 0.01]), ("compare", "paraxialities", [0.01, 0.01]),
    ("compare", "points", "x"), ("compare", "points", 0), ("compare", "points", 1),
    ("compare", "seed", -3), ("compare", "min_order", "x"), ("compare", "min_order", None),
    ("gouy", "samples", "abc"), ("gouy", "s_min", "x"), ("gouy", "amplitude_tol", "x"),
    ("constraint", "tolerance", 0.1),
    *(("grid", "time", {"mode": "fixed", "t": t}) for t in ("x", None, float("inf"), True)),
]
#: The rest of a section that is valid on its own, so only the bad value can fail.
SECTION_BASE = {"grid": {"axes": [{"name": "x3", "min": -1.0, "max": 1.0, "count": 3}]}}


@pytest.mark.parametrize("section,key,value", BAD_SECTION_VALUES,
                         ids=[f"{s}.{k}={v!r}" for s, k, v in BAD_SECTION_VALUES])
def test_bad_section_value_is_config_error(tmp_path, capsys, section, key, value):
    doc = {"beam": {"k": 50}, "modes": [[0, 0]],
           section: {**SECTION_BASE.get(section, {}), key: value}}
    command = {"constraint": "verify", "grid": "field"}.get(section, section)
    rc = main([command, "--config", config_path(tmp_path, doc), "--out",
               str(tmp_path / "out.json"), "--natural-units"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--format", "json"], ["verify", "--raw-eq19"],
                                  ["gouy", "--raw-eq19"], ["compare", "--raw-eq19"]])
def test_flag_a_subcommand_does_not_read_is_rejected(tmp_path, argv):
    path = config_path(tmp_path, {"beam": {"k": 50}, "modes": [[0, 0]]})
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", path, "--out", str(tmp_path / "out")])
    assert err.value.code == 2


def _no_libc(*args, **kwargs):
    raise OSError("no C library")


class _LibcWithoutMallopt:
    def __init__(self, *args, **kwargs):
        pass


class _MalloptOfWrongSignature:
    def __call__(self, *args):
        raise TypeError("wrong argument types")


class _LibcWithBadMallopt(_LibcWithoutMallopt):
    mallopt = _MalloptOfWrongSignature()


class TestAllocatorPolicy:
    SMALL_VERIFY = {"beam": {"k": 50}, "modes": [[0, 0]],
                    "verify": {"suites": ["reduced"], "points": 50}}

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_both_settings_take_on_glibc(self):
        assert _keep_freed_memory() is True

    @pytest.mark.parametrize("cdll", [_no_libc, _LibcWithoutMallopt, _LibcWithBadMallopt])
    def test_unavailable_mallopt_is_a_no_op(self, tmp_path, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert _keep_freed_memory() is False
        assert main(["verify", "--config", config_path(tmp_path, self.SMALL_VERIFY),
                     "--natural-units", "--out", str(tmp_path / "bundle.json")]) == 0

    def test_import_does_not_apply_it(self):
        # a CDLL(None) call during import would be the step; any other CDLL use passes through
        script = (
            "import ctypes\n"
            "real = ctypes.CDLL\n"
            "def spy(name, *args, **kwargs):\n"
            "    if name is None:\n"
            "        raise SystemExit('allocator policy applied at import')\n"
            "    return real(name, *args, **kwargs)\n"
            "ctypes.CDLL = spy\n"
            "import exactbeam, exactbeam.cli\n"
        )
        src = str(Path(exactbeam.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr


class TestEntryPoint:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_installed_console_script(self):
        exe = shutil.which("beam")
        assert exe is not None, "console script not installed"
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        for sub in ("field", "verify", "gouy", "compare"):
            assert sub in result.stdout
