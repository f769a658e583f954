"""Per-layer metrics of a traced run, aggregated from spans.

Times are summed per iteration (run id) and reported as the median over
iterations; counts repeat exactly from one iteration to the next. A layer
that a workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

EVAL_ORDERS = {"order00": (0, 0), "order04": (2, 2), "order10": (5, 5), "order20": (10, 10)}
BATCHES = {"b1e4": 10_000, "b1e6": 1_000_000}
#: Batch evaluations timed by the eval_api client, each at every size in BATCHES.
EVAL_SPANS = tuple(
    [f"beam.exact_psi.{order}" for order in EVAL_ORDERS]
    + ["beam.paraxial_psi", "beam.alternate_exact_psi", "beam.bateman_gaussian_psi",
       "constraint.density_D", "constraint.asymptotic_F"]
)
VERIFY_FUNCTIONS = ("residual_full_wave", "residual_reduced", "check_symmetry",
                    "transverse_gram", "compute_normalization", "fit_gouy",
                    "gouy_phase_samples", "alternate_correspondence_sweep", "sample_points")

METRICS = (
    [("gridio.save_csv.s", "s"), ("gridio.save_csv.ns_per_value", "ns/value"),
     ("gridio.save_json.s", "s"), ("gridio.save_json.ns_per_value", "ns/value"),
     ("gridio.bytes_written", "B"),
     ("cli.import.s", "s"), ("config.load_config.s", "s"),
     ("cli.cmd_field.self_s", "s"), ("cli.cmd_verify.self_s", "s")]
    + [(f"{span}.{batch}.ns_per_point", "ns/point") for span in EVAL_SPANS for batch in BATCHES]
    + [("beam.envelope_phi.calls", "count"), ("beam.envelope_phi.points", "count"),
       ("numerics.hermite.calls", "count"), ("numerics.hermite.s", "s"),
       ("numerics.second_derivative.calls", "count"),
       ("numerics.first_derivative.calls", "count"),
       ("numerics.quadrature_nodes.calls", "count")]
    + [(f"verify.{fn}.{kind}", unit) for fn in VERIFY_FUNCTIONS
       for kind, unit in (("s", "s"), ("calls", "count"))]
    + [("verify.residual.kept_ratio", "ratio"), ("trace.overhead_s", "s")]
)


def _median(values):
    return statistics.median(values) if values else 0.0


class _Iteration:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)


def aggregate(span_lists, overhead_s: float) -> dict:
    """Per-layer metric values from span lists (one list per traced process)."""
    iterations = defaultdict(_Iteration)
    imports = []
    batch_ns = defaultdict(list)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, run, counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, run, counts) in enumerate(spans):
            it = iterations[run]
            duration = end - start
            it.total[name] += duration
            it.self_time[name] += duration - child_time[i]
            it.calls[name] += 1
            for key, value in (counts or {}).items():
                it.counts[f"{name}.{key}"] += value
            if name == "cli.import":
                imports.append(duration)
            elif counts and "batch_points" in counts:
                batch_ns[name].append(duration * 1e9 / counts["batch_points"])

    its = list(iterations.values())

    def per_iteration(fn):
        return _median([fn(it) for it in its])

    def ns_per(name, key):
        def value(it):
            n = it.counts[f"{name}.{key}"]
            return it.total[name] * 1e9 / n if n else 0.0
        return per_iteration(value)

    def kept_ratio(it):
        kept = sum(it.counts[f"verify.{fn}.kept"] for fn in ("residual_full_wave", "residual_reduced"))
        sampled = sum(it.counts[f"verify.{fn}.sampled"] for fn in ("residual_full_wave", "residual_reduced"))
        return kept / sampled if sampled else 0.0

    values = {
        "gridio.save_csv.s": per_iteration(lambda it: it.total["gridio.save_csv"]),
        "gridio.save_csv.ns_per_value": ns_per("gridio.save_csv", "values"),
        "gridio.save_json.s": per_iteration(lambda it: it.total["gridio.save_json"]),
        "gridio.save_json.ns_per_value": ns_per("gridio.save_json", "values"),
        "gridio.bytes_written": per_iteration(
            lambda it: it.counts["gridio.save_csv.bytes"] + it.counts["gridio.save_json.bytes"]),
        "cli.import.s": _median(imports),
        "config.load_config.s": per_iteration(lambda it: it.total["config.load_config"]),
        "cli.cmd_field.self_s": per_iteration(lambda it: it.self_time["cli.cmd_field"]),
        "cli.cmd_verify.self_s": per_iteration(lambda it: it.self_time["cli.cmd_verify"]),
        "beam.envelope_phi.calls": per_iteration(lambda it: it.calls["beam.envelope_phi"]),
        "beam.envelope_phi.points": per_iteration(lambda it: it.counts["beam.envelope_phi.points"]),
        "numerics.hermite.s": per_iteration(lambda it: it.total["numerics.hermite"]),
        "verify.residual.kept_ratio": per_iteration(kept_ratio),
        "trace.overhead_s": overhead_s,
    }
    for span in EVAL_SPANS:
        for batch in BATCHES:
            values[f"{span}.{batch}.ns_per_point"] = _median(batch_ns[f"{span}.{batch}"])
    for fn in ("hermite", "second_derivative", "first_derivative", "quadrature_nodes"):
        values[f"numerics.{fn}.calls"] = per_iteration(lambda it, fn=fn: it.calls[f"numerics.{fn}"])
    for fn in VERIFY_FUNCTIONS:
        values[f"verify.{fn}.s"] = per_iteration(lambda it, fn=fn: it.total[f"verify.{fn}"])
        values[f"verify.{fn}.calls"] = per_iteration(lambda it, fn=fn: it.calls[f"verify.{fn}"])
    return values
