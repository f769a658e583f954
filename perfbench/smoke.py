"""Reduced-size self-check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at the "smoke" scale, untraced and traced, and checks
that every metric of BENCHMARK.json is printed with its unit, that every
workload checked its outputs and that its checks reject tampered outputs,
that the traced runs emit every per-layer metric, with non-zero values
for the layers the workload exercises, and that tracing overhead is
reported. Exits 1 and lists what failed, otherwise exits 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import run

#: A per-layer metric each workload must move, by workload.
EXERCISED = {
    "field_grid": ("gridio.save_csv.s", "gridio.save_json.s", "cli.cmd_field.self_s"),
    "verify_sweep": ("verify.residual_full_wave.calls", "verify.fit_gouy.calls",
                     "numerics.second_derivative.calls", "cli.cmd_verify.self_s"),
    "eval_api": ("beam.exact_psi.order20.b1e6.ns_per_point", "constraint.asymptotic_F.b1e4.ns_per_point",
                 "numerics.hermite.calls"),
}


def _metrics(spec):
    return {m["name"]: m["unit"] for m in spec}


def check_runs(bench: dict) -> list:
    errors = []
    for workload in run.WORKLOADS:
        for trace, expected in ((0, _metrics(bench["end_to_end"])), (1, _metrics(bench["per_layer"]))):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name in got:
                if not any(line.startswith(f"{workload} {name} = ") for line in lines):
                    errors.append(f"{where}: {name} not printed by name")
            if not any(line.startswith(f"{workload} fail_frac = ") for line in lines):
                errors.append(f"{where}: fail_frac not printed")
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            if trace:
                if "trace.overhead_s" not in got:
                    errors.append(f"{where}: no tracing overhead")
                for name in EXERCISED[workload]:
                    if not result["metrics"].get(name, {}).get("value"):
                        errors.append(f"{where}: {name} is 0 on a workload that exercises it")
    return errors


def check_checkers(work: Path) -> list:
    """The output checks must reject outputs with one wrong value."""
    errors = []
    env = run.child_env()
    rng = np.random.default_rng(5)
    invocations = run.field_grid(rng, run.SCALES["smoke"], work)
    for inv in invocations:
        child = run.proc.run([run.PY, "-m", "exactbeam.cli", *inv.args], cwd=run.ROOT, env=env,
                             log_stem=work / inv.name)
        problems, _ = inv.check(child)
        if problems:
            errors.append(f"{inv.name}: untouched output rejected: {problems}")
    csv_path, json_path = work / "psi.csv", work / "density.json"
    psi = json.loads((work / "psi.cfg.json").read_text())
    density = json.loads((work / "density.cfg.json").read_text())

    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    lines[2] = ",".join(cells)
    csv_path.write_text("".join(lines))
    rows = psi["grid"]["axes"][0]["count"] * psi["grid"]["axes"][1]["count"]
    if not oracle.check_psi_csv(csv_path, psi, rows, np.random.default_rng(0)):
        errors.append("CSV check accepted a psi value off by 1e-9")

    doc = json.loads(json_path.read_text())
    peak = int(np.argmax(doc["values"]["re"]))
    doc["values"]["re"][peak] *= 1 + 1e-9
    json_path.write_text(json.dumps(doc))
    if not oracle.check_density_json(json_path, density, len(doc["values"]["re"]), np.random.default_rng(0)):
        errors.append("JSON check accepted a density value off by 1e-9")

    bundle = work / "bundle.json"
    bundle.write_text(json.dumps({"suites": {"reduced": {}}, "failed_suites": [], "passed": True}))
    printed = run.proc.Child(argv=[], returncode=0, wall_s=0.0, peak_rss_mb=0.0,
                             stdout="suite reduced: FAIL\n", stderr="", timed_out=False)
    if not run._check_bundle(printed, bundle, ["reduced"])[0]:
        errors.append("verify check accepted a bundle that disagrees with its printed verdicts")

    ref = oracle.exact_psi(50.0, 1.0, 1.0, 0, 0, 0.3, -0.2, 30.0, 10.0)
    if ref.matches(ref.value * (1 + 1e-11)):
        errors.append("eval_api reference accepted a value off by 1e-11")
    exact = oracle.exact_psi(50.0, 1.0, 1.0, 10, 10, 0.3, -0.2, 30.0, 10.0)
    if exact.matches(oracle.paraxial_psi(50.0, 1.0, 1.0, 10, 10, 0.3, -0.2, 30.0, 10.0).value):
        errors.append("eval_api reference accepted the paraxial field off the co-moving plane")
    return errors


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        errors = check_checkers(work) + check_runs(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
