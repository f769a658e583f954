"""Independent reference values and output checks for the benchmark.

Every reference is built term by term from ``numpy.polynomial.hermite``,
``math`` and ``cmath``, and field files are parsed with ``numpy`` and
``json``: nothing here imports exactbeam, so a defect in the package
cannot cancel out of a comparison.

A value passes when ``|got - ref| <= REL_TOL * scale + 4 * EPS * |z| * |ref|``.
``scale`` is ``|ref|`` with each Hermite polynomial replaced by the sum of
the moduli of its power-basis terms, so a point near a polynomial node is
judged against the size of the terms that cancel there. ``z`` is the
argument of the complex exponential, whose rounding every double
implementation carries as an absolute phase error of about ``EPS * |z|``.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from numpy.polynomial import hermite as herm
from numpy.polynomial import polynomial as poly

REL_TOL = 1e-12
EPS = np.finfo(float).eps


class Ref:
    """A reference value with the magnitudes its comparison tolerance scales with."""

    __slots__ = ("value", "scale", "exp_arg")

    def __init__(self, value, scale, exp_arg=0.0):
        self.value = value
        self.scale = scale
        self.exp_arg = exp_arg

    def allowed(self) -> float:
        return REL_TOL * self.scale + 4.0 * EPS * self.exp_arg * abs(self.value)

    def matches(self, got) -> bool:
        return abs(complex(got) - self.value) <= self.allowed()


def hermite(order: int, x: float):
    """(H_order(x), sum of |terms| of its power series at x)."""
    coef = [0.0] * order + [1.0]
    value = float(herm.hermval(x, coef))
    scale = float(poly.polyval(abs(x), np.abs(herm.herm2poly(coef))))
    return value, scale


def _norm(w0, m, n):
    return math.sqrt(2.0 / (math.pi * 2.0 ** (m + n) * math.factorial(m) * math.factorial(n))) / w0


def envelope(k, w0, m, n, x1, x2, s) -> Ref:
    """Hermite-Gaussian envelope Phi_mn(x1, x2, s), factor by factor."""
    lr = 0.5 * k * w0 * w0
    w = w0 * math.sqrt(1.0 + (s / lr) ** 2)
    hm, sm = hermite(m, math.sqrt(2.0) * x1 / w)
    hn, sn = hermite(n, math.sqrt(2.0) * x2 / w)
    z = 1j * k * (x1 * x1 + x2 * x2) / (2.0 * complex(s, -lr)) - 1j * (1 + m + n) * math.atan2(s, lr)
    gauss = cmath.exp(z)
    pref = _norm(w0, m, n) * w0 / w
    return Ref(pref * hm * hn * gauss, pref * sm * sn * abs(gauss), abs(z))


def _with_carrier(env: Ref, k, v, x3, t) -> Ref:
    carrier = cmath.exp(1j * (k * x3 - (k * v) * t))
    return Ref(env.value * carrier, env.scale, env.exp_arg)


def exact_psi(k, w0, v, m, n, x1, x2, x3, t) -> Ref:
    return _with_carrier(envelope(k, w0, m, n, x1, x2, 0.5 * (x3 + v * t)), k, v, x3, t)


def paraxial_psi(k, w0, v, m, n, x1, x2, x3, t) -> Ref:
    return _with_carrier(envelope(k, w0, m, n, x1, x2, x3), k, v, x3, t)


def alternate_exact_psi(k, w0, v, x1, x2, x3, t) -> Ref:
    """Complex-source spherical wave (L_R/R) exp[i k (R + i L_R) - i omega t]."""
    lr = 0.5 * k * w0 * w0
    radius = cmath.sqrt(x1 * x1 + x2 * x2 + complex(x3, -lr) ** 2)
    z = 1j * k * (radius + 1j * lr) - 1j * (k * v) * t
    value = (lr / radius) * cmath.exp(z)
    return Ref(value, abs(value), abs(z))


def bateman_gaussian_psi(k, w0, v, x1, x2, x3, t) -> Ref:
    """Rational-form (0,0) field C00 L_R/(L_R + i u/2) exp[i k rho^2/(u - 2 i L_R)] carrier."""
    lr = 0.5 * k * w0 * w0
    u = x3 + v * t
    z = 1j * k * (x1 * x1 + x2 * x2) / (u - 2j * lr)
    value = _norm(w0, 0, 0) * lr / (lr + 0.5j * u) * cmath.exp(z)
    return _with_carrier(Ref(value, abs(value), abs(z)), k, v, x3, t)


def density_D(k, w0, v, m, n, x1, x2, x3, jacobian=True) -> Ref:
    """Constrained density (2/v) C^2 (w0/w(r))^2 H_m^2 H_n^2 exp(-2 rho^2/w(r)^2)."""
    lr = 0.5 * k * w0 * w0
    r = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    w = w0 * math.sqrt(1.0 + (r / lr) ** 2)
    hm, sm = hermite(m, math.sqrt(2.0) * x1 / w)
    hn, sn = hermite(n, math.sqrt(2.0) * x2 / w)
    z = -2.0 * (x1 * x1 + x2 * x2) / (w * w)
    pref = _norm(w0, m, n) ** 2 * (w0 / w) ** 2 * math.exp(z) * ((2.0 / v) if jacobian else 1.0)
    return Ref(pref * hm * hm * hn * hn, pref * sm * sm * sn * sn, abs(z))


def asymptotic_F(k, w0, m, n, theta, phi) -> Ref:
    """Far-field angular limit C^2 L_R^2 H_m^2 H_n^2 exp(-2 sin^2(theta) L_R^2/w0^2)."""
    lr = 0.5 * k * w0 * w0
    st = math.sin(theta)
    ratio = lr / w0
    hm, sm = hermite(m, math.sqrt(2.0) * st * math.cos(phi) * ratio)
    hn, sn = hermite(n, math.sqrt(2.0) * st * math.sin(phi) * ratio)
    z = -2.0 * st * st * ratio * ratio
    pref = _norm(w0, m, n) ** 2 * lr * lr * math.exp(z)
    return Ref(pref * hm * hm * hn * hn, pref * sm * sm * sn * sn, abs(z))


# ---------------------------------------------------------------------------
# field files written by `beam field`
# ---------------------------------------------------------------------------


def _axis_values(axis: dict) -> np.ndarray:
    return np.linspace(float(axis["min"]), float(axis["max"]), int(axis["count"]))


def _row_coordinates(axes, flat_index):
    """Axis values of one row of a row-major (indexing="ij") grid."""
    coords = {}
    for axis, i in zip(axes, np.unravel_index(flat_index, [a["count"] for a in axes])):
        coords[axis["name"]] = _axis_values(axis)[i]
    return coords


def check_psi_csv(path, config: dict, sample_rows: int, rng) -> list:
    """Problems found in a `beam field` CSV of an exact psi grid (empty list: it passed).

    ``config`` is the run config in natural units (w0 = v = 1) with a fixed
    (x3, t) and swept (x1, x2).
    """
    problems = []
    axes = config["grid"]["axes"]
    names = [a["name"] for a in axes]
    with open(path, "r", encoding="utf-8") as fh:
        meta = fh.readline()
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not meta.startswith("# "):
        problems.append("first line is not a '# ' metadata line")
    else:
        doc = json.loads(meta[2:])
        if [a["name"] for a in doc.get("axes", [])] != names:
            problems.append("metadata axes differ from the config")
    expected_header = ",".join(names + ["re", "im", "modulus", "phase"])
    if header != expected_header:
        problems.append(f"header {header!r} != {expected_header!r}")
    rows = int(np.prod([a["count"] for a in axes]))
    if data.shape != (rows, len(names) + 4):
        problems.append(f"data shape {data.shape} != {(rows, len(names) + 4)}")
        return problems

    k = float(config["beam"]["k"])
    (m, n), = config["modes"]
    x3, t = (float(config["grid"]["fixed"][c]) for c in ("x3", "t"))
    nc = len(names)
    for row in rng.choice(rows, size=min(sample_rows, rows), replace=False):
        coords = _row_coordinates(axes, row)
        if any(data[row, i] != coords[name] for i, name in enumerate(names)):
            problems.append(f"row {row}: coordinates {data[row, :nc]} off the grid")
            continue
        got = complex(data[row, nc], data[row, nc + 1])
        ref = exact_psi(k, 1.0, 1.0, m, n, coords["x1"], coords["x2"], x3, t)
        if not ref.matches(got):
            problems.append(f"row {row}: psi {got} != reference {ref.value}")
        if abs(data[row, nc + 2] - abs(got)) > 4 * EPS * abs(got):
            problems.append(f"row {row}: modulus column disagrees with re, im")
        if abs(data[row, nc + 3] - cmath.phase(got)) > 4 * EPS * math.pi:
            problems.append(f"row {row}: phase column disagrees with re, im")
    return problems


def check_density_json(path, config: dict, sample_rows: int, rng) -> list:
    """Problems found in a `beam field --format json` density grid over (r, theta, phi)."""
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    axes = config["grid"]["axes"]
    if [a["name"] for a in doc.get("axes", [])] != [a["name"] for a in axes]:
        problems.append("axes differ from the config")
    rows = int(np.prod([a["count"] for a in axes]))
    re = np.asarray(doc["values"]["re"], dtype=float)
    im = np.asarray(doc["values"]["im"], dtype=float)
    if re.shape != (rows,) or im.shape != (rows,):
        problems.append(f"value counts {re.shape}, {im.shape} != ({rows},)")
        return problems
    if np.any(im != 0.0):
        problems.append("a real density has a non-zero imaginary part")

    k = float(config["beam"]["k"])
    (m, n), = config["modes"]
    for row in rng.choice(rows, size=min(sample_rows, rows), replace=False):
        c = _row_coordinates(axes, row)
        st = math.sin(c["theta"])
        x1 = c["r"] * st * math.cos(c["phi"])
        x2 = c["r"] * st * math.sin(c["phi"])
        x3 = c["r"] * math.cos(c["theta"])
        ref = density_D(k, 1.0, 1.0, m, n, x1, x2, x3)
        if not ref.matches(re[row]):
            problems.append(f"row {row}: density {re[row]} != reference {ref.value}")
    return problems
