"""Run configuration: one JSON document per invocation, validated strictly.

Unknown keys are rejected rather than ignored so that typos surface as
config errors with a field path instead of silently producing default
behavior. In natural-units mode the beam is nondimensionalized: the
configured ``beam.k`` is read as the product k*w0, and w0 = v = 1, so
every length in the document is in waist units and every time in
waist-transit units. That keeps carrier-phase arguments and the
exp(k*L_R)-scale constants of the complex-source family in floating
range regardless of the physical wavelength.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .beam import FAMILIES, BeamParams, ModeIndex
from .constraint import VARIANTS, ConstraintKind
from .errors import ConfigError
from .gridio import AxisSpec
from .verify import GOUY_PATHS, MUTATIONS, SUITES

QUANTITIES = ("psi", "density", "angular_limit")

_TOP_KEYS = {"beam", "modes", "family", "quantity", "grid", "constraint", "verify", "gouy", "compare"}
_GRID_KEYS = {"axes", "fixed", "time"}
_PSI_COORDS = {"x1", "x2", "x3", "s", "t"}
_DENSITY_COORDS = {"r", "theta", "phi"}
_ANGULAR_COORDS = {"theta", "phi"}

VERIFY_DEFAULTS = {
    "suites": list(SUITES),
    "points": 200,
    "seed": 1,
    "mutate": "none",
}

GOUY_DEFAULTS = {
    "mode": None,
    "s_min": None,
    "s_max": None,
    "samples": 401,
    "path": "auto",
    "check": False,
    "amplitude_tol": 1e-6,
    "scale_tol": 1e-6,
}

COMPARE_DEFAULTS = {
    "paraxialities": [0.02, 0.01, 0.005, 0.0025],
    "points": 100,
    "seed": 7,
    "min_order": 1.8,
}


@dataclass(frozen=True)
class RunConfig:
    beam: BeamParams
    modes: tuple
    family: str
    quantity: str
    axes: tuple
    fixed: dict
    time_mode: str  # "explicit" | "fixed" | "constraint" | "s_locked"
    fixed_t: float
    time_constraint: ConstraintKind
    include_jacobian: bool
    natural_units: bool
    verify_options: dict
    gouy_options: dict
    compare_options: dict
    echo: dict = field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _merged(defaults: dict, given, section: str) -> dict:
    _require(isinstance(given, dict), f"{section}: must be an object")
    unknown = set(given) - set(defaults)
    _require(not unknown, f"{section}: unknown option(s) {sorted(unknown)}")
    out = dict(defaults)
    out.update(given)
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number within float range; NaN fails the comparison."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check(options: dict, section: str, key: str, valid, want: str) -> None:
    _require(valid(options[key]), f"{section}.{key}: must be {want}, got {options[key]!r}")


def _parse_verify(given) -> dict:
    opts = _merged(VERIFY_DEFAULTS, given, "verify")
    _check(opts, "verify", "suites",
           lambda v: isinstance(v, list) and v and all(isinstance(x, str) for x in v)
           and set(v) <= set(SUITES) and len(set(v)) == len(v),
           f"a non-empty list of distinct suites from {list(SUITES)}")
    _check(opts, "verify", "points", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    _check(opts, "verify", "seed", lambda v: _is_int(v) and v >= 0, "an integer >= 0")
    _check(opts, "verify", "mutate", lambda v: v in MUTATIONS, f"one of {MUTATIONS}")
    return opts


def _parse_gouy(given, beam: BeamParams) -> dict:
    opts = _merged(GOUY_DEFAULTS, given, "gouy")
    if opts["mode"] is not None:
        opts["mode"] = _mode_pair(opts["mode"], "gouy.mode")
    for key, default in (("s_min", -10.0), ("s_max", 10.0)):
        if opts[key] is None:
            opts[key] = default * beam.rayleigh_range
        _check(opts, "gouy", key, _is_number, "a number or null")
        opts[key] = float(opts[key])
    _require(opts["s_min"] < opts["s_max"],
             f"gouy: need s_min < s_max, got ({opts['s_min']}, {opts['s_max']})")
    _check(opts, "gouy", "samples", lambda v: _is_int(v) and v >= 10, "an integer >= 10")
    _check(opts, "gouy", "path", lambda v: v in GOUY_PATHS, f"one of {GOUY_PATHS}")
    _check(opts, "gouy", "check", lambda v: isinstance(v, bool), "true or false")
    for key in ("amplitude_tol", "scale_tol"):
        _check(opts, "gouy", key, lambda v: _is_number(v) and v >= 0, "a number >= 0")
    return opts


def _parse_compare(given) -> dict:
    opts = _merged(COMPARE_DEFAULTS, given, "compare")
    _check(opts, "compare", "paraxialities",
           lambda v: isinstance(v, list) and len(v) >= 2
           and all(_is_number(p) and 0 < p <= 0.05 for p in v) and len(set(v)) == len(v),
           "a list of at least two distinct values in (0, 0.05]")
    _check(opts, "compare", "points", lambda v: _is_int(v) and v >= 2, "an integer >= 2")
    _check(opts, "compare", "seed", lambda v: _is_int(v) and v >= 0, "an integer >= 0")
    _check(opts, "compare", "min_order", _is_number, "a number")
    opts["min_order"] = float(opts["min_order"])
    return opts


def _parse_beam(doc: dict, natural_units: bool) -> BeamParams:
    beam = doc.get("beam")
    _require(isinstance(beam, dict), "beam: section missing or not an object")
    unknown = set(beam) - {"k", "w0", "v"}
    _require(not unknown, f"beam: unknown field(s) {sorted(unknown)}")
    _require("k" in beam, "beam.k: required")
    try:
        if natural_units:
            for name in ("w0", "v"):
                _require(
                    beam.get(name, 1) == 1,
                    f"beam.{name}: must be omitted or 1 in natural-units mode "
                    "(lengths are in waist units there)",
                )
            return BeamParams(k=float(beam["k"]), w0=1.0, v=1.0)
        return BeamParams(
            k=float(beam["k"]),
            w0=float(beam.get("w0", 1.0)),
            v=float(beam.get("v", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"beam: {exc}") from None


def _mode_pair(pair, where: str) -> ModeIndex:
    _require(isinstance(pair, (list, tuple)) and len(pair) == 2, f"{where}: must be an [m, n] pair")
    try:
        return ModeIndex(int(pair[0]), int(pair[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_modes(doc: dict) -> tuple:
    modes = doc.get("modes", [])
    _require(isinstance(modes, list), "modes: must be a list of [m, n] pairs")
    return tuple(_mode_pair(pair, f"modes[{i}]") for i, pair in enumerate(modes))


def _parse_constraint(section, where: str) -> ConstraintKind:
    _require(isinstance(section, dict), f"{where}: must be an object")
    unknown = set(section) - {"kind"}
    _require(not unknown, f"{where}: unknown field(s) {sorted(unknown)}")
    kind = section.get("kind", "exact_fE")
    _require(kind in VARIANTS, f"{where}.kind: unknown variant {kind!r}, choose from {VARIANTS}")
    return ConstraintKind(kind)


def _parse_grid(doc: dict, quantity: str, default_constraint: ConstraintKind):
    grid = doc.get("grid")
    if grid is None:
        return (), {}, "fixed", 0.0, default_constraint
    _require(isinstance(grid, dict), "grid: must be an object")
    unknown = set(grid) - _GRID_KEYS
    _require(not unknown, f"grid: unknown field(s) {sorted(unknown)}")

    allowed = {"psi": _PSI_COORDS, "density": _DENSITY_COORDS, "angular_limit": _ANGULAR_COORDS}[quantity]

    axes = []
    names = []
    for i, d in enumerate(grid.get("axes", [])):
        _require(isinstance(d, dict), f"grid.axes[{i}]: must be an object")
        ax = AxisSpec.from_dict(d)
        _require(ax.name in allowed, f"grid.axes[{i}].name: {ax.name!r} not valid for quantity {quantity!r} (allowed: {sorted(allowed)})")
        axes.append(ax)
        names.append(ax.name)
    _require(len(set(names)) == len(names), f"grid.axes: duplicate axis names {names}")

    fixed = grid.get("fixed", {})
    _require(isinstance(fixed, dict), "grid.fixed: must be an object")
    for name, val in fixed.items():
        _require(name in allowed, f"grid.fixed.{name}: not valid for quantity {quantity!r}")
        _require(name not in names, f"grid.fixed.{name}: already swept as an axis")
        _require(isinstance(val, (int, float)), f"grid.fixed.{name}: must be a number")

    time_mode, fixed_t, time_kind = "fixed", 0.0, default_constraint
    uses_s = "s" in names or "s" in fixed
    uses_t = "t" in names or "t" in fixed
    time_section = grid.get("time")
    if uses_s:
        _require(
            not uses_t and "x3" not in names and "x3" not in fixed and time_section is None,
            "grid: the s coordinate fixes x3 = s and t = s/v; do not combine it with x3, t or a time section",
        )
        time_mode = "s_locked"
    elif uses_t:
        _require(time_section is None, "grid: explicit t coordinate conflicts with a time section")
        time_mode = "explicit"
    elif time_section is not None:
        _require(isinstance(time_section, dict), "grid.time: must be an object")
        mode = time_section.get("mode", "fixed")
        if mode == "fixed":
            unknown = set(time_section) - {"mode", "t"}
            _require(not unknown, f"grid.time: unknown field(s) {sorted(unknown)}")
            fixed_t = time_section.get("t", 0.0)
            _require(_is_number(fixed_t), f"grid.time.t: must be a number, got {fixed_t!r}")
            fixed_t = float(fixed_t)
        elif mode == "constraint":
            unknown = set(time_section) - {"mode", "kind"}
            _require(not unknown, f"grid.time: unknown field(s) {sorted(unknown)}")
            time_mode = "constraint"
            kind = time_section.get("kind", default_constraint.variant)
            _require(kind in VARIANTS, f"grid.time.kind: unknown variant {kind!r}")
            time_kind = ConstraintKind(kind)
        else:
            raise ConfigError(f"grid.time.mode: unknown mode {mode!r}, choose fixed or constraint")

    return tuple(axes), dict(fixed), time_mode, fixed_t, time_kind


def parse_config(doc: dict, *, natural_units: bool = False,
                 include_jacobian: bool = True) -> RunConfig:
    """Validate a configuration document and resolve defaults."""
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown top-level key(s) {sorted(unknown)}")

    beam = _parse_beam(doc, natural_units)
    modes = _parse_modes(doc)

    family = doc.get("family", "exact")
    _require(family in FAMILIES, f"family: unknown family {family!r}, choose from {tuple(FAMILIES)}")
    quantity = doc.get("quantity", "psi")
    _require(quantity in QUANTITIES, f"quantity: unknown quantity {quantity!r}, choose from {QUANTITIES}")

    constraint = _parse_constraint(doc.get("constraint", {}), "constraint")
    axes, fixed, time_mode, fixed_t, time_kind = _parse_grid(doc, quantity, constraint)

    return RunConfig(
        beam=beam,
        modes=modes,
        family=family,
        quantity=quantity,
        axes=axes,
        fixed=fixed,
        time_mode=time_mode,
        fixed_t=fixed_t,
        time_constraint=time_kind,
        include_jacobian=include_jacobian,
        natural_units=natural_units,
        verify_options=_parse_verify(doc.get("verify", {})),
        gouy_options=_parse_gouy(doc.get("gouy", {}), beam),
        compare_options=_parse_compare(doc.get("compare", {})),
        echo=doc,
    )


def load_config(path, *, natural_units: bool = False,
                include_jacobian: bool = True) -> RunConfig:
    """Read and validate a JSON config file; all problems raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse_config(doc, natural_units=natural_units, include_jacobian=include_jacobian)
