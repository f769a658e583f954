"""In-process library client of the eval_api workload.

Calls the exactbeam field evaluators on seeded point batches of two sizes,
times each call, and checks a seeded sample of every result against the
independent references in ``oracle.py``. A 1e4-point batch holds a 160 KB
complex result, well inside L2; a 1e6-point batch holds 16 MB per complex
array, which with its temporaries approaches the L3.

    PYTHONPATH=src python3 perfbench/eval_api.py --seed 1 --seconds 10 --trace 0 --out r.json

With ``--trace 1`` untraced and traced iterations alternate, and the
traced ones record spans around each call and inside the library.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import time

import numpy as np

import oracle
from layers import BATCHES, EVAL_ORDERS
from tracer import Tracer

K_W0 = 50.0  # natural units: w0 = v = 1, lengths in waists
PARAXIAL_MODE = (2, 2)
DENSITY_MODE = (3, 2)
SAMPLES_PER_CALL = 16


def _points(rng, count, lr):
    """General space-time points within two spot radii, |x3|, |v t| <= 3 L_R."""
    x3 = rng.uniform(-3.0, 3.0, count) * lr
    t = rng.uniform(-3.0, 3.0, count) * lr
    w = np.sqrt(1.0 + (0.5 * (x3 + t) / lr) ** 2)
    return (rng.uniform(-2.0, 2.0, count) * w, rng.uniform(-2.0, 2.0, count) * w, x3, t)


def _forward_points(rng, count, lr):
    """Points ahead of the complex source's branch cut: x3 in [0.2, 3] L_R."""
    x3 = rng.uniform(0.2, 3.0, count) * lr
    w = np.sqrt(1.0 + (x3 / lr) ** 2)
    t = rng.uniform(-3.0, 3.0, count) * lr
    return (rng.uniform(-2.0, 2.0, count) * w, rng.uniform(-2.0, 2.0, count) * w, x3, t)


def _cone_points(rng, count):
    """Spatial points inside the beam cone: r in [1, 200], theta <= 0.2."""
    r = rng.uniform(1.0, 200.0, count)
    theta = rng.uniform(0.0, 0.2, count)
    phi = rng.uniform(-math.pi, math.pi, count)
    return (r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi), r * np.cos(theta))


def _angles(rng, count):
    return (rng.uniform(0.0, 0.2, count), rng.uniform(-math.pi, math.pi, count))


def build_specs(beam, constraint):
    """(span name, point kind, call, reference) for every timed evaluation.

    ``call`` looks each function up on its module at call time, so the
    traced iterations reach the tracer's wrappers.
    """
    params = beam.BeamParams(K_W0, 1.0, 1.0)
    k = K_W0
    specs = []
    for label, (m, n) in EVAL_ORDERS.items():
        mode = beam.ModeIndex(m, n)
        specs.append((
            f"beam.exact_psi.{label}", "general",
            lambda p, mode=mode: beam.exact_psi(params, mode, beam.SpaceTimePoint(*p)),
            lambda x1, x2, x3, t, m=m, n=n: oracle.exact_psi(k, 1.0, 1.0, m, n, x1, x2, x3, t),
        ))
    pm = beam.ModeIndex(*PARAXIAL_MODE)
    dm = beam.ModeIndex(*DENSITY_MODE)
    specs += [
        ("beam.paraxial_psi", "general",
         lambda p: beam.paraxial_psi(params, pm, beam.SpaceTimePoint(*p)),
         lambda x1, x2, x3, t: oracle.paraxial_psi(k, 1.0, 1.0, *PARAXIAL_MODE, x1, x2, x3, t)),
        ("beam.alternate_exact_psi", "forward",
         lambda p: beam.alternate_exact_psi(params, beam.SpaceTimePoint(*p)),
         lambda x1, x2, x3, t: oracle.alternate_exact_psi(k, 1.0, 1.0, x1, x2, x3, t)),
        ("beam.bateman_gaussian_psi", "general",
         lambda p: beam.bateman_gaussian_psi(params, beam.SpaceTimePoint(*p)),
         lambda x1, x2, x3, t: oracle.bateman_gaussian_psi(k, 1.0, 1.0, x1, x2, x3, t)),
        ("constraint.density_D", "cone",
         lambda p: constraint.density_D(params, dm, *p),
         lambda x1, x2, x3: oracle.density_D(k, 1.0, 1.0, *DENSITY_MODE, x1, x2, x3)),
        ("constraint.asymptotic_F", "angles",
         lambda p: constraint.asymptotic_F(params, dm, *p),
         lambda theta, phi: oracle.asymptotic_F(k, 1.0, *DENSITY_MODE, theta, phi)),
    ]
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps-small", type=int, default=100,
                        help="calls per iteration on the 1e4-point batch")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer(run_id=1)
    index = tracer.open("cli.import")
    importlib.import_module("exactbeam.cli")
    tracer.close(index)
    beam = importlib.import_module("exactbeam.beam")
    constraint = importlib.import_module("exactbeam.constraint")

    rng = np.random.default_rng(args.seed)
    lr = 0.5 * K_W0
    inputs = {}
    for batch, size in BATCHES.items():
        inputs[batch] = {
            "general": _points(rng, size, lr),
            "forward": _forward_points(rng, size, lr),
            "cone": _cone_points(rng, size),
            "angles": _angles(rng, size),
        }
    sample_index = {batch: rng.choice(size, SAMPLES_PER_CALL, replace=False)
                    for batch, size in BATCHES.items()}
    specs = build_specs(beam, constraint)
    reps = {"b1e4": args.reps_small, "b1e6": 1}

    iterations, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    it = 0
    while True:
        traced = args.trace == 1 and it % 2 == 1
        if traced:
            tracer.run_id = it
            tracer.install()
        eval_s = 0.0
        points = 0
        for name, kind, call, reference in specs:
            for batch, size in BATCHES.items():
                p = inputs[batch][kind]
                attempted += 1
                try:
                    for rep in range(reps[batch]):
                        index = tracer.open(f"{name}.{batch}") if traced else -1
                        t0 = time.perf_counter()
                        try:
                            values = call(p)
                        finally:
                            eval_s += time.perf_counter() - t0
                            if traced:
                                tracer.close(index, {"batch_points": size})
                        points += size
                        if rep == 0:
                            bad = [int(i) for i in sample_index[batch]
                                   if not reference(*(float(a[i]) for a in p)).matches(values[i])]
                except (ArithmeticError, ValueError, TypeError) as exc:
                    bad = [f"raised {exc!r}"]
                if bad:
                    failed += 1
                    problems.append(f"iteration {it} {name}.{batch}: mismatch at {bad[:4]}")
        if traced:
            tracer.uninstall()
        iterations.append({"traced": traced, "eval_s": eval_s, "points": points})
        it += 1
        kinds = {i["traced"] for i in iterations}
        if time.perf_counter() - start >= args.seconds and len(kinds) == 1 + args.trace:
            break

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"iterations": iterations, "attempted": attempted, "failed": failed,
                   "problems": problems, "spans": tracer.spans if args.trace else []}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
