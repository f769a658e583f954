"""Command-line front end: field maps, verification runs, phase fits, comparisons.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric guard (non-finite values or quadrature non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .beam import FAMILIES, SpaceTimePoint
from .config import RunConfig, load_config
from .constraint import asymptotic_F, constraint_time, density_D
from .errors import (
    ConfigError,
    GouyPathError,
    NumericOverflowError,
    QuadratureConvergenceError,
    UnsupportedOrderError,
)
from .gridio import FieldGrid, save, save_rows
from .verify import correspondence_check, fit_gouy, gouy_law_errors, gouy_phase_samples, run_battery

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


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
    # one axis per array, broadcast against the others: the evaluators fill the full grid
    mesh = np.meshgrid(*(ax.values for ax in config.axes), indexing="ij", sparse=True)
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


def _field_values(config: RunConfig, mode, coords: dict):
    """The configured quantity on the grid; its coordinate arrays are freed on return."""
    params = config.beam
    if config.quantity == "psi":
        return FAMILIES[config.family].psi(params, mode)(_psi_point(config, coords))
    if config.quantity == "density":
        missing = {"r", "theta", "phi"} - set(coords)
        if missing:
            raise ConfigError(f"field: density grid is spherical; missing {sorted(missing)}")
        p = SpaceTimePoint.from_spherical(coords["r"], coords["theta"], coords["phi"])
        return density_D(params, mode, p.x1, p.x2, p.x3, include_jacobian=config.include_jacobian)
    missing = {"theta", "phi"} - set(coords)  # angular_limit
    if missing:
        raise ConfigError(f"field: angular grid is missing {sorted(missing)}")
    return asymptotic_F(params, mode, coords["theta"], coords["phi"])


def cmd_field(config: RunConfig, out: str, fmt: str) -> int:
    mode = None
    if config.quantity != "psi" or FAMILIES[config.family].takes_mode:
        if len(config.modes) != 1:
            raise ConfigError(
                f"field: this quantity/family needs exactly one mode, got {len(config.modes)}"
            )
        mode = config.modes[0]

    # the finite-value guard below is the designed error path, so numpy's
    # intermediate overflow warnings would only duplicate it as noise
    with np.errstate(all="ignore"):
        values = _field_values(config, mode, _grid_coordinates(config))

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
# verify
# ---------------------------------------------------------------------------


def cmd_verify(config: RunConfig, out: str) -> int:
    bundle = run_battery(config)
    for name, entry in bundle["suites"].items():
        verdict = "NUMERIC GUARD" if "numeric_guard" in entry else (
            "PASS" if entry["passed"] else "FAIL")
        print(f"suite {name}: {verdict}")
    text = json.dumps(bundle, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if bundle["failed_suites"]:
        print(f"verification FAILED: {', '.join(bundle['failed_suites'])}", file=sys.stderr)
    for name in bundle["guarded_suites"]:
        print(f"numeric guard: {bundle['suites'][name]['numeric_guard']}", file=sys.stderr)
    if bundle["guarded_suites"]:
        return EXIT_NUMERIC
    return EXIT_VERIFY if bundle["failed_suites"] else EXIT_OK


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
    s = np.linspace(opts["s_min"], opts["s_max"], opts["samples"])
    s_sorted, phase, _ = curve = gouy_phase_samples(params, mode, s, opts["path"])
    _guard_finite(phase, "extracted phase curve")
    report = fit_gouy(params, mode, s, curve=curve)

    fit_doc = {**report.to_dict(), "version": __version__}
    if fmt == "csv":
        header = "# " + json.dumps(fit_doc, sort_keys=True) + "\ns,phase"
        save_rows(out, header, [s_sorted, phase])
        fit_path = out + ".fit.json"
        with open(fit_path, "w", encoding="utf-8") as fh:
            json.dump(fit_doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote phase curve to {out} and fit report to {fit_path}")
    else:
        doc = {**fit_doc, "s": s_sorted.tolist(), "phase": phase.tolist()}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote phase curve and fit report to {out}")

    print(
        f"mode ({mode.m},{mode.n}) path {report.path}: amplitude {report.fitted_amplitude:.9f}, "
        f"scale {report.fitted_scale:.9g}, rms {report.rms_fit_error:.3e}"
    )
    if opts["check"]:
        amp_err, scale_err = gouy_law_errors(params, report)
        if not (amp_err <= opts["amplitude_tol"] and scale_err <= opts["scale_tol"]):
            print("gouy fit outside tolerance", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(config: RunConfig, out: str, fmt: str) -> int:
    entry, passed = correspondence_check(config.beam, config.compare_options)
    reports, orders = entry["reports"], entry["orders"]
    for rep in reports:
        print(
            f"paraxiality {rep['paraxiality']:g}: deviation {rep['max_relative_deviation']:.6e} "
            f"over {rep['point_count']} points"
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
            save_rows(out, header, [[r["paraxiality"] for r in reports],
                                    [r["max_relative_deviation"] for r in reports]])
        else:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"version": __version__, **entry, "passed": passed}, fh,
                          sort_keys=True, indent=2)
                fh.write("\n")
        print(f"wrote comparison report to {out}")
    if not passed:
        print(
            f"correspondence order below {entry['min_order_required']}: {min(orders):.3f}",
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
        if name != "verify":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format (default csv)")
        p.add_argument(
            "--natural-units",
            action="store_true",
            help="interpret beam.k as k*w0 and measure lengths in w0, times in w0/v",
        )
        if name == "field":
            p.add_argument(
                "--raw-eq19",
                action="store_true",
                help="emit constrained densities without the 2/v time-collapse Jacobian "
                "(bare squared-envelope convention)",
            )
    return parser


#: The subcommands that take an output format; verify always writes JSON.
_COMMANDS = {
    "field": cmd_field,
    "gouy": cmd_gouy,
    "compare": cmd_compare,
}


def _keep_freed_memory() -> bool:
    """Have glibc keep freed memory for reuse (see ``beam.BLOCK_POINTS``); True if it took."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD (-3) at glibc's 32 MiB dynamic ceiling, M_TRIM_THRESHOLD (-1) at 64 MiB
        return (mallopt(-3, 32 << 20), mallopt(-1, 64 << 20)) == (1, 1)
    except (OSError, AttributeError, TypeError):
        return False


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            natural_units=args.natural_units,
            include_jacobian=not getattr(args, "raw_eq19", False),
        )
        if args.command == "verify":
            return cmd_verify(config, args.out)
        return _COMMANDS[args.command](config, args.out, args.format)
    except (ConfigError, GouyPathError, UnsupportedOrderError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # ArithmeticError covers NumericOverflowError and any stray OverflowError,
    # FloatingPointError or ZeroDivisionError from the numerics; LinAlgError is
    # a least-squares fit that failed on overflowed samples
    except (ArithmeticError, QuadratureConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
