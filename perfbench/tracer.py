"""Span tracer for the benchmark's traced runs, and the traced CLI entry point.

The tracer wraps the public functions of the exactbeam modules wherever
they are bound: in each module namespace and in module-level dicts such
as the CLI's command table. Every call records a span of name, start,
end, parent span and run id. Spans stay in memory and are written out as
JSON when the traced process ends. Nothing under ``src/`` changes.

Run a traced CLI invocation as::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json --run-id N -- verify --config ...
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

#: Traced public functions by defining module. A name the module no longer
#: defines is skipped, so its calls read 0.
TRACED = {
    "exactbeam.cli": ("cmd_field", "cmd_verify", "cmd_gouy"),
    "exactbeam.config": ("load_config",),
    "exactbeam.gridio": ("save", "save_csv", "save_json"),
    "exactbeam.beam": ("exact_psi", "paraxial_psi", "alternate_exact_psi",
                       "bateman_gaussian_psi", "envelope_phi"),
    "exactbeam.constraint": ("density_D", "asymptotic_F"),
    "exactbeam.numerics": ("hermite", "second_derivative", "first_derivative",
                           "quadrature_nodes"),
    "exactbeam.verify": ("sample_points", "residual_full_wave", "residual_reduced",
                         "check_symmetry", "transverse_gram", "compute_normalization",
                         "fit_gouy", "gouy_phase_samples", "alternate_correspondence_sweep"),
}


def _annotate_envelope(args, kwargs, result):
    return {"points": int(np.broadcast(*args[2:5]).size)}


def _annotate_csv(args, kwargs, result):
    grid, path = args[:2]  # one value per axis column and per re, im, modulus, phase
    return {"values": grid.values.size * (len(grid.axes) + 4), "bytes": os.path.getsize(path)}


def _annotate_json(args, kwargs, result):
    grid, path = args[:2]  # the re and im lists
    return {"values": 2 * grid.values.size, "bytes": os.path.getsize(path)}


def _annotate_residual(args, kwargs, result):
    return {"kept": result.point_count, "sampled": result.point_count + result.skipped_points}


#: Extra counts recorded on a span, computed from the call's arguments and result.
ANNOTATIONS = {
    "beam.envelope_phi": _annotate_envelope,
    "gridio.save_csv": _annotate_csv,
    "gridio.save_json": _annotate_json,
    "verify.residual_full_wave": _annotate_residual,
    "verify.residual_reduced": _annotate_residual,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, run id, counts or None]."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []  # (container, key, original)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, None])
        self._stack.append(index)
        return index

    def close(self, index: int, counts=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = counts
        self._stack.pop()

    def _wrap(self, name, fn):
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    try:
                        counts = annotate(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError, ValueError, OSError):
                        counts = None  # a changed signature loses the counts, not the span
                return result
            finally:
                self.close(index, counts)

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in the exactbeam namespaces."""
        modules = [importlib.import_module(name) for name in TRACED]
        modules.append(importlib.import_module("exactbeam"))
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for ns in modules:
                    namespace = vars(ns)
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(namespace, key, original, wrapper)
                        elif isinstance(value, dict):
                            for k2, v2 in list(value.items()):
                                if v2 is original:
                                    self._patch(value, k2, original, wrapper)

    def _patch(self, container, key, original, wrapper):
        container[key] = wrapper
        self._patches.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one traced `beam` CLI invocation")
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    index = tracer.open("cli.import")
    cli = importlib.import_module("exactbeam.cli")
    tracer.close(index)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
