"""exactbeam benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload field_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
(``PYTHONPATH=src``) and the CLI runs as ``python -m exactbeam.cli``. Every
workload is a closed loop: one client, one child process at a time, no
parallelism of its own.

Workloads (all inputs come from ``--seed``):

* ``field_grid``: two ``beam field`` runs per iteration, an exact (2,1) psi
  grid of 1000 x 500 (x1, x2) points at a fixed (x3, t) off the co-moving
  plane written as CSV, and a (3,2) density grid of 50 x 100 x 100
  (r, theta, phi) points written as JSON. Output formatting dominates.
* ``verify_sweep``: five CLI runs per iteration, ``beam verify`` at
  k*w0 in {20, 50, 100} on five modes with 20,000 points, a
  ``gouy_w0_1pct`` mutant that must fail ``reduced``, and ``beam gouy
  --check`` on mode (3,2) with 20,001 samples. Many small stencil
  evaluations plus five interpreter starts; no output layer.
* ``eval_api``: the library called in-process on 1e4- and 1e6-point
  batches (see ``eval_api.py``).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
of BENCHMARK.json: ``wall_s``, the median wall time of one iteration
(for eval_api, of its evaluation calls only); ``points_per_s``, grid
points written, library points evaluated, or verify points sampled plus
gouy samples, per second of that iteration; ``peak_rss_mb``, the largest
peak RSS of one child process; and ``setup_s``, the median wall time of a
fresh interpreter importing exactbeam.cli. With ``--trace 1`` untraced and
traced iterations alternate and it carries the per-layer metrics of
``layers.py``, including ``trace.overhead_s``, the traced minus the
untraced median iteration time.

An invocation counts as failed when it crashes or times out, fails an
output check, or gives a wrong verdict: an unmutated exact field must
PASS every suite, the mutant must fail exactly ``reduced``, and ``gouy``
must exit 0 with amplitude -6 within 1e-6. ``correct`` is false only for
crashes and failed output checks; wrong verdicts count in ``failed`` and in
``fail_frac``. The environment, child command lines and every problem
found are written to ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import proc  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
CHILD_TIMEOUT_S = 120.0

#: Sizes per scale; "smoke" is the reduced run of ``smoke.py``.
SCALES = {
    "full": {"csv_grid": (1000, 500), "density_grid": (50, 100, 100), "verify_points": 20000,
             "gouy_samples": 20001, "reps_small": 100, "setup_reps": 5},
    "smoke": {"csv_grid": (100, 50), "density_grid": (5, 10, 10), "verify_points": 1000,
              "gouy_samples": 2001, "reps_small": 2, "setup_reps": 2},
}
CSV_SAMPLE_ROWS = 200
VERIFY_KW0 = (20, 50, 100)
VERIFY_MODES = [[0, 0], [1, 0], [2, 1], [3, 3], [6, 4]]
MUTANT_MODES = [[0, 0], [1, 0], [2, 1]]
GOUY_MODE = [3, 2]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("exactbeam/*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "cli": "python -m exactbeam.cli with PYTHONPATH=src; the `beam` console script "
               "needs `pip install -e .`, which fails offline with setuptools < 68",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int, env, log_dir) -> float:
    """Median wall time of a fresh interpreter importing exactbeam.cli and exiting."""
    times = []
    for i in range(reps):
        child = proc.run([PY, "-c", "import exactbeam.cli"], cwd=ROOT, env=env,
                         log_stem=log_dir / f"setup{i}")
        if child.returncode != 0:
            raise RuntimeError(f"importing exactbeam.cli failed: {child.stderr.strip()[-500:]}")
        times.append(child.wall_s)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One CLI run of an iteration; ``check(child)`` returns (output problems, wrong verdicts)."""

    name: str
    args: list
    check: Callable
    points: int


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def field_grid(rng, scale, work: Path):
    nx1, nx2 = scale["csv_grid"]
    h1, h2, x3, gap = (float(v) for v in rng.uniform([2.5, 2.5, 10.0, 5.0], [3.5, 3.5, 60.0, 20.0]))
    psi = {
        "beam": {"k": 50}, "modes": [[2, 1]], "family": "exact", "quantity": "psi",
        "grid": {
            "axes": [{"name": "x1", "min": -h1, "max": h1, "count": nx1},
                     {"name": "x2", "min": -h2, "max": h2, "count": nx2}],
            # x3 - v t = gap waists: off the co-moving plane, where exact and paraxial differ
            "fixed": {"x3": x3, "t": x3 - gap},
        },
    }
    nr, nth, nph = scale["density_grid"]
    density = {
        "beam": {"k": 50}, "modes": [[3, 2]], "quantity": "density",
        "grid": {"axes": [
            {"name": "r", "min": float(rng.uniform(0.5, 2.0)), "max": float(rng.uniform(150.0, 250.0)), "count": nr},
            {"name": "theta", "min": 0.0, "max": float(rng.uniform(0.1, 0.3)), "count": nth},
            {"name": "phi", "min": -np.pi, "max": np.pi, "count": nph},
        ]},
    }
    check_seed = int(rng.integers(2**31))
    csv_out, json_out = work / "psi.csv", work / "density.json"
    first_digest = {}

    def check_once(child, path, full_check):
        """Check the run's first output in full; every later one must be byte-identical to it."""
        if child.returncode != 0:
            return [f"exit {child.returncode}: {child.stderr.strip()[-300:]}"], []
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = first_digest.get(path)
        if first is None:
            first_digest[path] = digest
            return full_check(path, np.random.default_rng(check_seed)), []
        if digest == first:
            return [], []
        return [f"{path.name} is not byte-identical to the run's first output"], []

    def check_csv(child):
        return check_once(child, csv_out, lambda path, rng: oracle.check_psi_csv(
            path, psi, CSV_SAMPLE_ROWS, rng))

    def check_json(child):
        return check_once(child, json_out, lambda path, rng: oracle.check_density_json(
            path, density, CSV_SAMPLE_ROWS, rng))

    return [
        Invocation("field_psi_csv", ["field", "--config", _write_config(work / "psi.cfg.json", psi),
                                     "--out", str(csv_out), "--natural-units"],
                   check_csv, nx1 * nx2),
        Invocation("field_density_json",
                   ["field", "--config", _write_config(work / "density.cfg.json", density),
                    "--out", str(json_out), "--format", "json", "--natural-units"],
                   check_json, nr * nth * nph),
    ]


def _check_bundle(child, bundle_path: Path, suites):
    """Output problems of a verify run, and the suites it failed."""
    if child.returncode not in (0, 1):
        return [f"exit {child.returncode}: {child.stderr.strip()[-300:]}"], None
    try:
        bundle = json.loads(bundle_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable bundle: {exc}"], None
    failed = bundle.get("failed_suites")
    printed = [line.split()[1].rstrip(":") for line in child.stdout.splitlines()
               if line.startswith("suite ") and line.endswith("FAIL")]
    problems = []
    if sorted(bundle.get("suites", {})) != sorted(suites):
        problems.append(f"bundle suites {sorted(bundle.get('suites', {}))} != {sorted(suites)}")
    if failed != printed:
        problems.append(f"bundle failed_suites {failed} != printed FAIL lines {printed}")
    if child.returncode != (1 if failed else 0) or bundle.get("passed") != (not failed):
        problems.append(f"exit {child.returncode} and passed={bundle.get('passed')} "
                        f"disagree with failed_suites {failed}")
    return problems, failed


def verify_sweep(rng, scale, work: Path):
    suites = ["residual", "reduced", "symmetry", "gram", "normalization", "gouy", "compare"]
    invocations = []
    for kw0 in VERIFY_KW0:
        cfg = {"beam": {"k": kw0}, "modes": VERIFY_MODES,
               "verify": {"points": scale["verify_points"], "seed": int(rng.integers(1, 2**31))},
               "compare": {"seed": int(rng.integers(1, 2**31))}}
        out = work / f"verify{kw0}.bundle.json"

        def check(child, out=out):
            problems, failed = _check_bundle(child, out, suites)
            wrong = [f"exact field failed {failed}"] if failed else []
            return problems, wrong

        invocations.append(Invocation(
            f"verify_kw0_{kw0}",
            ["verify", "--config", _write_config(work / f"verify{kw0}.cfg.json", cfg),
             "--out", str(out), "--natural-units"],
            check, scale["verify_points"]))

    mutant = {"beam": {"k": 50}, "modes": MUTANT_MODES,
              "verify": {"points": scale["verify_points"], "seed": int(rng.integers(1, 2**31)),
                         "mutate": "gouy_w0_1pct"},
              "compare": {"seed": int(rng.integers(1, 2**31))}}
    mutant_out = work / "mutant.bundle.json"

    def check_mutant(child):
        problems, failed = _check_bundle(child, mutant_out, suites)
        wrong = [] if problems or failed == ["reduced"] else [f"mutant failed {failed}, not ['reduced']"]
        return problems, wrong

    invocations.append(Invocation(
        "verify_mutant",
        ["verify", "--config", _write_config(work / "mutant.cfg.json", mutant),
         "--out", str(mutant_out), "--natural-units"],
        check_mutant, scale["verify_points"]))

    samples = scale["gouy_samples"]
    gouy = {"beam": {"k": 50}, "modes": [GOUY_MODE], "gouy": {"samples": samples, "check": True}}
    gouy_out = work / "gouy.csv"
    target = -(1 + sum(GOUY_MODE))

    def check_gouy(child):
        if child.returncode not in (0, 1):
            return [f"exit {child.returncode}: {child.stderr.strip()[-300:]}"], []
        try:
            amplitude = json.loads(Path(str(gouy_out) + ".fit.json").read_text())["fitted_amplitude"]
            with open(gouy_out, encoding="utf-8") as fh:
                fh.readline()
                header = fh.readline().strip()
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable gouy output: {exc!r}"], []
        problems = []
        if header != "s,phase" or rows.shape != (samples, 2):
            problems.append(f"phase curve header {header!r}, shape {rows.shape}")
        wrong = [] if child.returncode == 0 and abs(amplitude - target) <= 1e-6 else [
            f"gouy exit {child.returncode}, amplitude {amplitude!r} (want {target})"]
        return problems, wrong

    invocations.append(Invocation(
        "gouy_check",
        ["gouy", "--config", _write_config(work / "gouy.cfg.json", gouy), "--out", str(gouy_out),
         "--natural-units"],
        check_gouy, samples))
    return invocations


def run_cli_workload(invocations, args, env, work: Path, record: dict) -> dict:
    """Closed loop over iterations of the invocations until --seconds have passed."""
    iterations, span_lists = [], []
    start = time.perf_counter()
    it = 0
    while True:
        traced = args.trace == 1 and it % 2 == 1
        wall = 0.0
        entry = {"traced": traced, "points": 0, "peak_rss_mb": 0.0, "attempted": 0,
                 "failed": 0, "output_problems": [], "wrong_verdicts": []}
        for inv in invocations:
            spans_path = work / f"spans-{it}-{inv.name}.json"
            if traced:
                argv = [PY, str(HERE / "tracer.py"), "--spans", str(spans_path),
                        "--run-id", str(it), "--", *inv.args]
            else:
                argv = [PY, "-m", "exactbeam.cli", *inv.args]
            record["commands"].setdefault(f"{inv.name}{'.traced' if traced else ''}", argv)
            child = proc.run(argv, cwd=ROOT, env=env, log_stem=work / f"{inv.name}",
                             timeout_s=CHILD_TIMEOUT_S)
            wall += child.wall_s
            entry["points"] += inv.points
            entry["peak_rss_mb"] = max(entry["peak_rss_mb"], child.peak_rss_mb)
            entry["attempted"] += 1
            if child.timed_out:
                problems, wrong = [f"timed out after {CHILD_TIMEOUT_S} s"], []
            else:
                problems, wrong = inv.check(child)
            if problems or wrong:
                entry["failed"] += 1
                entry["output_problems"] += [f"{inv.name}: {p}" for p in problems]
                entry["wrong_verdicts"] += [f"{inv.name}: {p}" for p in wrong]
            if traced and spans_path.exists():
                span_lists.append(json.loads(spans_path.read_text()))
        entry["wall_s"] = wall
        iterations.append(entry)
        it += 1
        kinds = {e["traced"] for e in iterations}
        if time.perf_counter() - start >= args.seconds and len(kinds) == 1 + args.trace:
            break
    return {"iterations": iterations, "span_lists": span_lists}


def run_eval_workload(args, scale, env, work: Path, record: dict) -> dict:
    out = work / "eval_result.json"
    argv = [PY, str(HERE / "eval_api.py"), "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--reps-small",
            str(scale["reps_small"]), "--out", str(out)]
    record["commands"]["eval_api"] = argv
    child = proc.run(argv, cwd=ROOT, env=env, log_stem=work / "eval_api",
                     timeout_s=args.seconds + CHILD_TIMEOUT_S)
    if child.returncode != 0 or not out.exists():
        crash = {"traced": False, "wall_s": child.wall_s, "points": 0,
                 "peak_rss_mb": child.peak_rss_mb, "attempted": 1, "failed": 1,
                 "output_problems": [f"eval_api client exit {child.returncode}: "
                                     f"{child.stderr.strip()[-500:]}"],
                 "wrong_verdicts": []}
        return {"iterations": [crash], "span_lists": []}
    result = json.loads(out.read_text())
    iterations = [{"traced": i["traced"], "wall_s": i["eval_s"], "points": i["points"],
                   "peak_rss_mb": child.peak_rss_mb, "attempted": 0, "failed": 0,
                   "output_problems": [], "wrong_verdicts": []} for i in result["iterations"]]
    iterations[0].update(attempted=result["attempted"], failed=result["failed"],
                         output_problems=result["problems"])
    return {"iterations": iterations, "span_lists": [result["spans"]] if result["spans"] else []}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("field_grid", "verify_sweep", "eval_api")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "exactbeam" / "cli.py").is_file():
        print(f"no exactbeam package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": environment(),
              "commands": {}}

    setup_s = measure_setup(scale["setup_reps"], env, work)
    rng = np.random.default_rng(args.seed)
    if args.workload == "eval_api":
        outcome = run_eval_workload(args, scale, env, work, record)
    else:
        build = field_grid if args.workload == "field_grid" else verify_sweep
        outcome = run_cli_workload(build(rng, scale, work), args, env, work, record)

    iterations = outcome["iterations"]
    untraced = [i for i in iterations if not i["traced"]]
    traced = [i for i in iterations if i["traced"]]
    attempted = sum(i["attempted"] for i in iterations)
    failed = sum(i["failed"] for i in iterations)
    output_problems = [p for i in iterations for p in i["output_problems"]]
    wall = statistics.median(i["wall_s"] for i in untraced)
    if args.trace:
        # no traced iteration only when the eval_api client crashed, which `correct` reports
        overhead = statistics.median(i["wall_s"] for i in traced) - wall if traced else 0.0
        values = layers.aggregate(outcome["span_lists"], overhead)
        units = dict(layers.METRICS)
    else:
        values = {
            "wall_s": wall,
            "points_per_s": statistics.median(i["points"] / i["wall_s"] for i in untraced),
            "peak_rss_mb": max(i["peak_rss_mb"] for i in untraced),
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "points_per_s": "points/s", "peak_rss_mb": "MB", "setup_s": "s"}

    record.update(iterations=iterations, setup_s=setup_s, metrics=values,
                  fail_frac=failed / attempted)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} "
          f"invocations; wrong verdicts {sum(len(i['wrong_verdicts']) for i in iterations)}, "
          f"output problems {len(output_problems)})")
    for problem in output_problems[:20]:
        print(f"output problem: {problem}")
    print("environment: " + json.dumps({key: record[key] for key in ("environment", "seed", "commands")},
                                       sort_keys=True))
    print(f"record: {records / (work.name + '.json')}")
    print(json.dumps({
        "correct": not output_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
