import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exactbeam
from exactbeam import (
    BeamParams,
    ModeIndex,
    asymptotic_F,
    envelope_phi,
    normalization_constant,
    spot_radius,
)
from exactbeam.cli import _keep_freed_memory, main
from exactbeam.gridio import load, load_csv


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

    def test_stray_arithmetic_error_is_numeric_guard(self, tmp_path, capsys):
        # at k*w0 = 1e4 the compare suite overflows inside abs(); compare is not
        # valid there yet, but the CLI must report it as a numeric guard
        doc = {"beam": {"k": 10000}, "modes": [[0, 0]],
               "verify": {"points": 500, "suites": ["compare"]}}
        with np.errstate(all="ignore"):
            rc = main(["verify", "--config", config_path(tmp_path, doc), "--natural-units"])
        assert rc == 3
        assert "numeric guard:" in capsys.readouterr().err


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
