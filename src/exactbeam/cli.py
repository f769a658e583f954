"""Command-line front end: field maps, verification runs, phase fits, comparisons.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric guard (non-finite values or quadrature non-convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .beam import (
    ModeIndex,
    SpaceTimePoint,
    envelope_phi,
    field_function,
    normalization_constant,
    spot_radius,
)
from .config import RunConfig, load_config
from .constraint import asymptotic_F, constraint_time, density_D
from .errors import (
    ConfigError,
    ConstraintViolationError,
    GouyPathError,
    NonFiniteSampleError,
    NumericOverflowError,
    QuadratureConvergenceError,
    UnsupportedOrderError,
)
from .gridio import FieldGrid, save, save_rows
from .verify import (
    alternate_correspondence_sweep,
    check_symmetry,
    compute_normalization,
    fit_gouy,
    gouy_phase_samples,
    residual_full_wave,
    residual_reduced,
    sample_points,
    transverse_gram,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: Pass/fail thresholds applied by the verify subcommand.
SUITE_TOLERANCES = {
    "residual_exact": 1e-6,
    "residual_alternate": 1e-6,
    "paraxial_ratio_min": 1e3,
    "reduced": 1e-6,
    "symmetry": 1e-7,
    "gram_off_diagonal": 1e-9,
    "gram_diagonal": 1e-9,
    "normalization_rel": 1e-10,
    "gouy_amplitude": 1e-6,
    "gouy_scale_rel": 1e-6,
    "gouy_span": 1e-6,
}

GRAM_MODES = tuple(ModeIndex(m, n) for m in range(3) for n in range(3))
GOUY_MODES = (ModeIndex(0, 0), ModeIndex(2, 0), ModeIndex(2, 2))


def _guard_finite(values, what: str):
    bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise NumericOverflowError(f"{bad} non-finite value(s) in {what}")


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------


def _grid_coordinates(config: RunConfig) -> dict:
    if not config.axes:
        raise ConfigError("field: grid.axes must define at least one axis")
    mesh = np.meshgrid(*(ax.values for ax in config.axes), indexing="ij")
    coords = {ax.name: grid for ax, grid in zip(config.axes, mesh)}
    coords.update(config.fixed)
    return coords


def _psi_point(config: RunConfig, coords: dict) -> SpaceTimePoint:
    params = config.beam
    x1 = coords.get("x1", 0.0)
    x2 = coords.get("x2", 0.0)
    if config.time_mode == "s_locked":
        s = coords["s"]
        x3 = np.asarray(s, dtype=float)
        t = x3 / params.v
    else:
        if "x3" not in coords:
            raise ConfigError("field: provide x3 (axis or fixed) or an s coordinate")
        x3 = coords["x3"]
        if config.time_mode == "explicit":
            t = coords["t"]
        elif config.time_mode == "constraint":
            t = constraint_time(config.time_constraint, params, x1, x2, x3)
        else:
            t = config.fixed_t
    return SpaceTimePoint(x1, x2, x3, t)


def cmd_field(config: RunConfig, out: str, fmt: str) -> int:
    params = config.beam
    mode = None
    needs_mode = (config.quantity == "psi" and config.family in ("exact", "paraxial")) or (
        config.quantity in ("density", "angular_limit")
    )
    if needs_mode:
        if len(config.modes) != 1:
            raise ConfigError(
                f"field: this quantity/family needs exactly one mode, got {len(config.modes)}"
            )
        mode = config.modes[0]

    coords = _grid_coordinates(config)
    # the finite-value guard below is the designed error path, so numpy's
    # intermediate overflow warnings would only duplicate it as noise
    with np.errstate(all="ignore"):
        if config.quantity == "psi":
            values = field_function(config.family, params, mode)(_psi_point(config, coords))
        elif config.quantity == "density":
            missing = {"r", "theta", "phi"} - set(coords)
            if missing:
                raise ConfigError(f"field: density grid is spherical; missing {sorted(missing)}")
            p = SpaceTimePoint.from_spherical(coords["r"], coords["theta"], coords["phi"])
            values = density_D(params, mode, p.x1, p.x2, p.x3,
                               include_jacobian=config.include_jacobian)
        else:  # angular_limit
            missing = {"theta", "phi"} - set(coords)
            if missing:
                raise ConfigError(f"field: angular grid is missing {sorted(missing)}")
            values = asymptotic_F(params, mode, coords["theta"], coords["phi"])

    shape = tuple(ax.count for ax in config.axes)
    values = np.asarray(values, dtype=complex)
    if values.shape != shape:
        values = np.broadcast_to(values, shape).copy()
    _guard_finite(values, "evaluated field grid")
    grid = FieldGrid(
        axes=config.axes,
        values=values,
        metadata={
            "version": __version__,
            "config": config.echo,
            "natural_units": config.natural_units,
            "family": config.family,
            "quantity": config.quantity,
            "mode": None if mode is None else [mode.m, mode.n],
            "include_jacobian": config.include_jacobian,
        },
    )
    save(grid, out, fmt)
    print(f"wrote {values.size} grid points to {out} ({fmt})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _mutant_symmetry_envelope(config: RunConfig, mode: ModeIndex):
    params = config.beam
    if config.verify_options["mutate"] == "t_independent_envelope":
        return lambda x1, x2, x3, t: envelope_phi(params, mode, x1, x2, x3)
    return None


def _mutant_reduced_envelope(config: RunConfig, mode: ModeIndex):
    params = config.beam
    if config.verify_options["mutate"] != "gouy_w0_1pct":
        return mode
    lr_bad = 0.5 * params.k * (1.01 * params.w0) ** 2

    def corrupted(x1, x2, s):
        shift = (1 + mode.total_order) * (
            np.arctan(np.asarray(s) / params.rayleigh_range) - np.arctan(np.asarray(s) / lr_bad)
        )
        return envelope_phi(params, mode, x1, x2, s) * np.exp(1j * shift)

    return corrupted


def _suite_residual(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    count = int(config.verify_options["points"])
    tol = SUITE_TOLERANCES["residual_exact"]
    points = sample_points(params, count, rng)
    exact_reports = [
        residual_full_wave(params, field_function("exact", params, mode), points)
        for mode in config.modes
    ]
    worst_exact = max(r.max_relative_residual for r in exact_reports)
    worst_peak = max(r.max_peak_residual for r in exact_reports)

    forward = sample_points(params, count, rng, x3_range=(0.2, 3.0), spread_with="x3")
    alt_report = residual_full_wave(params, field_function("alternate", params), forward)

    par_reports = [
        residual_full_wave(params, field_function("paraxial", params, mode), points)
        for mode in config.modes
    ]
    worst_par = max(r.max_relative_residual for r in par_reports)
    ratio = worst_par / worst_exact

    passed = (
        worst_peak <= tol
        and alt_report.max_peak_residual <= SUITE_TOLERANCES["residual_alternate"]
        and ratio >= SUITE_TOLERANCES["paraxial_ratio_min"]
    )
    entry = {
        "exact": [r.to_dict() for r in exact_reports],
        "alternate": alt_report.to_dict(),
        "paraxial": [r.to_dict() for r in par_reports],
        "max_exact_residual": worst_exact,
        "max_peak_residual": worst_peak,
        "paraxial_to_exact_ratio": ratio,
        "tolerance": tol,
    }
    return entry, passed


def _suite_reduced(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    count = int(config.verify_options["points"])
    lr = params.rayleigh_range
    s = rng.uniform(-3.0, 3.0, count) * lr
    w = spot_radius(params, s)
    x1 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
    x2 = rng.uniform(-1.0, 1.0, count) * 2.0 * w
    reports = [
        residual_reduced(params, _mutant_reduced_envelope(config, mode), (x1, x2, s))
        for mode in config.modes
    ]
    worst = max(r.max_relative_residual for r in reports)
    worst_peak = max(r.max_peak_residual for r in reports)
    passed = worst_peak <= SUITE_TOLERANCES["reduced"]
    return {
        "reports": [r.to_dict() for r in reports],
        "max_residual": worst,
        "max_peak_residual": worst_peak,
        "tolerance": SUITE_TOLERANCES["reduced"],
        "mutation": config.verify_options["mutate"],
    }, passed


def _suite_symmetry(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    count = min(int(config.verify_options["points"]), 100)
    points = sample_points(params, count, rng)
    reports = []
    for mode in config.modes:
        reports.extend(check_symmetry(
            params, mode, points, envelope=_mutant_symmetry_envelope(config, mode)
        ))
    worst = max(r.max_relative_residual for r in reports)
    worst_peak = max(r.max_peak_residual for r in reports)
    passed = worst_peak <= SUITE_TOLERANCES["symmetry"]
    return {
        "reports": [r.to_dict() for r in reports],
        "max_mismatch": worst,
        "max_peak_residual": worst_peak,
        "tolerance": SUITE_TOLERANCES["symmetry"],
        "mutation": config.verify_options["mutate"],
    }, passed


def _suite_gram(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    constants = {
        (m.m, m.n): compute_normalization(params, m) for m in GRAM_MODES
    }
    reports = [
        transverse_gram(params, GRAM_MODES, s=plane, constants=constants)
        for plane in (0.0, 5.0 * params.rayleigh_range)
    ]
    worst_off = max(r.max_off_diagonal for r in reports)
    worst_diag = max(r.max_diagonal_deviation for r in reports)
    passed = (
        worst_off < SUITE_TOLERANCES["gram_off_diagonal"]
        and worst_diag < SUITE_TOLERANCES["gram_diagonal"]
    )
    return {
        "reports": [r.to_dict() for r in reports],
        "max_off_diagonal": worst_off,
        "max_diagonal_deviation": worst_diag,
        "tolerance": SUITE_TOLERANCES["gram_off_diagonal"],
    }, passed


def _suite_normalization(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    checks = []
    worst = 0.0
    for mode in (ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(2, 1)):
        numeric = compute_normalization(params, mode)
        closed = normalization_constant(params, mode)
        rel = abs(numeric - closed) / closed
        worst = max(worst, rel)
        checks.append(
            {"mode": [mode.m, mode.n], "numeric": numeric, "closed_form": closed, "rel_error": rel}
        )
    passed = worst <= SUITE_TOLERANCES["normalization_rel"]
    return {
        "checks": checks,
        "max_rel_error": worst,
        "tolerance": SUITE_TOLERANCES["normalization_rel"],
    }, passed


def _suite_gouy(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    lr = params.rayleigh_range
    s = np.linspace(-10.0 * lr, 10.0 * lr, 401)
    entries = []
    passed = True
    for mode in GOUY_MODES:
        report = fit_gouy(params, mode, s)
        _, phase, _ = gouy_phase_samples(params, mode, s)
        span = float(phase[-1] - phase[0])
        target_amp = -(1 + mode.total_order)
        target_span = target_amp * 2.0 * math.atan(10.0)
        amp_err = abs(report.fitted_amplitude - target_amp)
        scale_err = abs(report.fitted_scale - lr) / lr
        span_err = abs(span - target_span)
        ok = (
            amp_err <= SUITE_TOLERANCES["gouy_amplitude"]
            and scale_err <= SUITE_TOLERANCES["gouy_scale_rel"]
            and span_err <= SUITE_TOLERANCES["gouy_span"]
        )
        passed = passed and ok
        entry = report.to_dict()
        entry.update(
            {
                "amplitude_error": amp_err,
                "scale_rel_error": scale_err,
                "span": span,
                "span_error": span_err,
                "passed": ok,
            }
        )
        entries.append(entry)
    return {"fits": entries, "tolerance": SUITE_TOLERANCES["gouy_amplitude"]}, passed


def _suite_compare(config: RunConfig, rng) -> tuple[dict, bool]:
    params = config.beam
    opts = config.compare_options
    reports, orders = alternate_correspondence_sweep(
        params,
        tuple(opts["paraxialities"]),
        point_count=int(opts["points"]),
        rng=np.random.default_rng(int(opts["seed"])),
    )
    passed = min(orders) >= float(opts["min_order"])
    return {
        "reports": [r.to_dict() for r in reports],
        "orders": orders,
        "min_order_required": float(opts["min_order"]),
    }, passed


_SUITES = {
    "residual": _suite_residual,
    "reduced": _suite_reduced,
    "symmetry": _suite_symmetry,
    "gram": _suite_gram,
    "normalization": _suite_normalization,
    "gouy": _suite_gouy,
    "compare": _suite_compare,
}


def cmd_verify(config: RunConfig, out: str, fmt: str) -> int:
    if not config.modes:
        raise ConfigError("verify: the mode list must not be empty")
    suites = config.verify_options["suites"]
    unknown = set(suites) - set(_SUITES)
    if unknown:
        raise ConfigError(f"verify.suites: unknown suite(s) {sorted(unknown)}")

    rng = np.random.default_rng(int(config.verify_options["seed"]))
    results = {}
    failed = []
    for name in suites:
        entry, passed = _SUITES[name](config, rng)
        entry["passed"] = passed
        results[name] = entry
        if not passed:
            failed.append(name)
        print(f"suite {name}: {'PASS' if passed else 'FAIL'}")

    bundle = {
        "version": __version__,
        "natural_units": config.natural_units,
        "suites": results,
        "failed_suites": failed,
        "passed": not failed,
    }
    text = json.dumps(bundle, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if failed:
        print(f"verification FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# gouy
# ---------------------------------------------------------------------------


def cmd_gouy(config: RunConfig, out: str, fmt: str) -> int:
    params = config.beam
    opts = config.gouy_options
    mode = opts["mode"]
    if mode is None:
        if not config.modes:
            raise ConfigError("gouy: set gouy.mode or a non-empty top-level mode list")
        mode = config.modes[0]
    lr = params.rayleigh_range
    s_min = -10.0 * lr if opts["s_min"] is None else float(opts["s_min"])
    s_max = 10.0 * lr if opts["s_max"] is None else float(opts["s_max"])
    samples = int(opts["samples"])
    if not s_min < s_max:
        raise ConfigError(f"gouy: need s_min < s_max, got ({s_min}, {s_max})")

    s = np.linspace(s_min, s_max, samples)
    try:
        s_sorted, phase, path = gouy_phase_samples(params, mode, s, opts["path"])
        report = fit_gouy(params, mode, s, opts["path"])
    except ValueError as exc:
        raise ConfigError(f"gouy: {exc}") from None
    _guard_finite(phase, "extracted phase curve")

    fit_doc = report.to_dict()
    fit_doc["version"] = __version__
    if fmt == "csv":
        header = "# " + json.dumps(fit_doc, sort_keys=True) + "\ns,phase"
        save_rows(out, header, [s_sorted, phase])
        fit_path = out + ".fit.json"
        with open(fit_path, "w", encoding="utf-8") as fh:
            json.dump(fit_doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote phase curve to {out} and fit report to {fit_path}")
    else:
        doc = dict(fit_doc)
        doc["s"] = s_sorted.tolist()
        doc["phase"] = phase.tolist()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote phase curve and fit report to {out}")

    print(
        f"mode ({mode.m},{mode.n}) path {report.path}: amplitude {report.fitted_amplitude:.9f}, "
        f"scale {report.fitted_scale:.9g}, rms {report.rms_fit_error:.3e}"
    )
    if opts["check"]:
        target = -(1 + mode.total_order)
        amp_ok = abs(report.fitted_amplitude - target) <= float(opts["amplitude_tol"])
        scale_ok = abs(report.fitted_scale - lr) / lr <= float(opts["scale_tol"])
        if not (amp_ok and scale_ok):
            print("gouy fit outside tolerance", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(config: RunConfig, out: str, fmt: str) -> int:
    opts = config.compare_options
    reports, orders = alternate_correspondence_sweep(
        config.beam,
        tuple(opts["paraxialities"]),
        point_count=int(opts["points"]),
        rng=np.random.default_rng(int(opts["seed"])),
    )
    passed = min(orders) >= float(opts["min_order"])
    for rep in reports:
        print(
            f"paraxiality {rep.paraxiality:g}: deviation {rep.max_relative_deviation:.6e} "
            f"over {rep.point_count} points"
        )
    print(f"measured orders: {', '.join(f'{o:.3f}' for o in orders)}")

    if out:
        if fmt == "csv":
            header = (
                "# "
                + json.dumps(
                    {"version": __version__, "orders": orders, "passed": passed}, sort_keys=True
                )
                + "\nparaxiality,deviation"
            )
            save_rows(out, header, [[r.paraxiality for r in reports],
                                    [r.max_relative_deviation for r in reports]])
        else:
            doc = {
                "version": __version__,
                "reports": [r.to_dict() for r in reports],
                "orders": orders,
                "min_order_required": float(opts["min_order"]),
                "passed": passed,
            }
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
        print(f"wrote comparison report to {out}")
    if not passed:
        print(
            f"correspondence order below {opts['min_order']}: {min(orders):.3f}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beam",
        description="Evaluate exact and paraxial Hermite-Gaussian beam fields and "
        "run the numerical verification battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "field": "evaluate a field or density on a grid and write CSV/JSON",
        "verify": "run verification suites and write a JSON report bundle",
        "gouy": "extract and fit the axial phase law",
        "compare": "sweep the paraxiality parameter comparing the two exact Gaussian solutions",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument(
            "--out",
            required=name in ("field", "gouy"),
            default=None,
            help="output file path" + ("" if name in ("field", "gouy") else " (default: stdout)"),
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument(
            "--natural-units",
            action="store_true",
            help="interpret beam.k as k*w0 and measure lengths in w0, times in w0/v",
        )
        p.add_argument(
            "--raw-eq19",
            action="store_true",
            help="emit constrained densities without the 2/v time-collapse Jacobian "
            "(bare squared-envelope convention)",
        )
    return parser


_COMMANDS = {
    "field": cmd_field,
    "verify": cmd_verify,
    "gouy": cmd_gouy,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            natural_units=args.natural_units,
            include_jacobian=not args.raw_eq19,
        )
        return _COMMANDS[args.command](config, args.out, args.format)
    except (ConfigError, ConstraintViolationError, GouyPathError, UnsupportedOrderError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # ArithmeticError covers NumericOverflowError and any stray OverflowError,
    # FloatingPointError or ZeroDivisionError from the numerics
    except (ArithmeticError, NonFiniteSampleError, QuadratureConvergenceError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
