"""Field-grid container and deterministic CSV/JSON serialization.

CSV layout: one '#'-prefixed metadata line (a JSON document with the
axis descriptors and the run metadata), one header row naming the axis
columns followed by ``re,im,modulus,phase``, then one data row per grid
point in row-major axis order. All numbers are printed with %.17g,
which round-trips IEEE doubles exactly and keeps byte-identical output
for identical inputs. JSON files carry the same information as a single
document, written as ``json.dump(doc, sort_keys=True, indent=1)`` would.

Both writers stream: they format CHUNK_ROWS rows (CSV) or values (JSON)
at a time and never build the coordinate meshgrid. Their bytes equal
those of ``np.savetxt`` with ``fmt="%.17g"`` and of ``json.dump``.
``save_rows`` is the same CSV writer for plain float columns (the gouy
and compare outputs). The numbers are spelled by ``_floattext.encode``,
BLOCK values at a time: numpy code that writes the exact bytes of
``'%.17g' % v`` (CSV) or ``float.__repr__(v)`` (JSON) and hands every
value it cannot prove exact (non-finite, extreme, or close to a rounding
tie) to CPython's own formatter; ``_floattext.join`` then lays out the
rows. Each axis's values are encoded once and gathered per row. The
encoder is imported by the writers, not with this module, so that
commands that write no grid do not load it.

An output of more than one chunk is formatted by up to one forked worker
process per usable CPU (``os.sched_getaffinity``). Each worker renders
whole chunks from the arrays it inherited at fork, with the same chunk
renderer as the in-process path, and the parent writes the returned
bytes in chunk order, so the file does not depend on the CPU count. At
most two chunks per worker are in flight, so memory stays bounded
whatever the grid size. A one-chunk output, a single usable CPU or a
platform without ``fork`` keeps all formatting in the calling process.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FORMAT_VERSION = 1

#: Rows (CSV) or values (JSON) formatted per write.
CHUNK_ROWS = 65_536


@dataclass(frozen=True)
class AxisSpec:
    """Uniformly sampled axis: name, bounds, sample count (>= 2)."""

    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"axis {self.name!r}: count must be >= 2, got {self.count}")
        if not np.isfinite(self.minimum) or not np.isfinite(self.maximum):
            raise ConfigError(f"axis {self.name!r}: bounds must be finite")
        if not self.minimum < self.maximum:
            raise ConfigError(
                f"axis {self.name!r}: min must be < max, got ({self.minimum}, {self.maximum})"
            )

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)

    def to_dict(self) -> dict:
        return {"name": self.name, "min": self.minimum, "max": self.maximum, "count": self.count}

    @classmethod
    def from_dict(cls, d: dict) -> "AxisSpec":
        try:
            return cls(str(d["name"]), float(d["min"]), float(d["max"]), int(d["count"]))
        except KeyError as missing:
            raise ConfigError(f"axis descriptor missing field {missing}") from None


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Complex amplitudes on a rectangular lattice, plus run metadata."""

    axes: tuple
    values: np.ndarray
    metadata: dict

    def __post_init__(self):
        shape = tuple(ax.count for ax in self.axes)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != shape:
            if values.size != int(np.prod(shape)):
                raise ValueError(
                    f"values size {values.size} does not match axis counts {shape}"
                )
            values = values.reshape(shape)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "axes", tuple(self.axes))


def _meta_doc(grid: FieldGrid) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "axes": [ax.to_dict() for ax in grid.axes],
        "metadata": grid.metadata,
    }


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _write_chunks(fh, render, count: int) -> None:
    """Write ``render(start, stop)`` for the CHUNK_ROWS ranges of [0, count), in order.

    ``render`` returns the encoded bytes of items [start, stop). It runs in
    forked workers when there is more than one chunk and more than one
    usable CPU, and in this process otherwise.
    """
    ranges = [(start, min(start + CHUNK_ROWS, count)) for start in range(0, count, CHUNK_ROWS)]
    workers = min(_usable_cpus(), len(ranges))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            _write_forked(fh, render, ranges, workers, multiprocessing.get_context("fork"))
            return
    for start, stop in ranges:
        fh.write(render(start, stop))


#: The chunk renderer of a forked worker process; never set in the parent.
_adopted_render = None


def _adopt_renderer(render) -> None:
    global _adopted_render
    _adopted_render = render


def _render_adopted(start: int, stop: int) -> bytes:
    return _adopted_render(start, stop)


def _write_forked(fh, render, ranges, workers: int, context) -> None:
    from concurrent.futures import ProcessPoolExecutor

    # fork passes render to the workers without pickling it; tasks are ranges
    pool = ProcessPoolExecutor(workers, mp_context=context,
                               initializer=_adopt_renderer, initargs=(render,))
    pending = deque()
    try:
        for start, stop in ranges:
            if len(pending) == 2 * workers:
                fh.write(pending.popleft().result())
            pending.append(pool.submit(_render_adopted, start, stop))
        while pending:
            fh.write(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


def _write_csv(path, header: str, count: int, block) -> None:
    """Write ``header`` and ``count`` rows, CHUNK_ROWS rows per chunk.

    ``block(start, stop)`` returns the columns of rows [start, stop): float
    arrays, printed as %.17g, or rows of text that ``_floattext.encode``
    made earlier.
    """
    from ._floattext import BLOCK, encode, join

    def render(start, stop):
        lines = []
        for a in range(start, stop, BLOCK):
            columns = [c if c.dtype == np.uint8 else encode(c, shortest=False)
                       for c in block(a, min(a + BLOCK, stop))]
            lines.append(join(columns, [b","] * (len(columns) - 1) + [b"\n"]))
        return b"".join(lines)

    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("utf-8"))
        _write_chunks(fh, render, count)


def save_rows(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV below ``header``.

    The bytes are those of ``np.savetxt(path, np.column_stack(columns),
    fmt="%.17g", delimiter=",", header=header, comments="")``.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    _write_csv(path, header, len(columns[0]), lambda a, b: [c[a:b] for c in columns])


def save_csv(grid: FieldGrid, path) -> None:
    from ._floattext import encode

    shape = grid.values.shape
    flat = grid.values.ravel()
    # each coordinate repeats across rows: format every axis value once
    axis_text = [encode(ax.values, shortest=False) for ax in grid.axes]

    def block(start, stop):
        index = np.unravel_index(np.arange(start, stop), shape)
        z = flat[start:stop]
        return [text[i] for text, i in zip(axis_text, index)] + [
            z.real, z.imag, np.abs(z), np.angle(z)]

    header = (
        "# " + json.dumps(_meta_doc(grid), sort_keys=True) + "\n"
        + ",".join([ax.name for ax in grid.axes] + ["re", "im", "modulus", "phase"])
    )
    _write_csv(path, header, flat.size, block)


def load_csv(path) -> FieldGrid:
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline()
        if not meta_line.startswith("#"):
            raise ConfigError(f"{path}: missing metadata line")
        doc = json.loads(meta_line.lstrip("#").strip())
        fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    axes = tuple(AxisSpec.from_dict(d) for d in doc["axes"])
    n_ax = len(axes)
    values = data[:, n_ax] + 1j * data[:, n_ax + 1]
    return FieldGrid(axes=axes, values=values, metadata=doc.get("metadata", {}))


def save_json(grid: FieldGrid, path) -> None:
    from ._floattext import BLOCK, encode, join

    # Equals json.dump(doc, fh, sort_keys=True, indent=1) with
    # doc["values"] = {"re": [...], "im": [...]}: "values" sorts after the
    # other top-level keys and "im" before "re", so the arrays go last.
    # The chunks run over the im values followed by the re values.
    head = json.dumps(_meta_doc(grid), sort_keys=True, indent=1)
    flat = grid.values.ravel()
    n = flat.size
    separator = b",\n   "

    def render(start, stop):
        parts = []
        for offset, values in ((0, flat.imag), (n, flat.real)):
            lo, hi = max(start - offset, 0), min(stop - offset, n)
            if lo >= hi:
                continue
            if lo:
                parts.append(separator)
            elif offset:
                parts.append(b'\n  ],\n  "re": [\n   ')
            for a in range(lo, hi, BLOCK):
                text = encode(values[a:min(a + BLOCK, hi)], shortest=True)
                parts.append(join([text], [separator]))
            parts[-1] = parts[-1][:-len(separator)]
        return b"".join(parts)

    with open(path, "wb") as fh:
        fh.write((head[:-len("\n}")] + ',\n "values": {\n  "im": [\n   ').encode("utf-8"))
        _write_chunks(fh, render, 2 * n)
        fh.write(b"\n  ]\n }\n}\n")


def load_json(path) -> FieldGrid:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    axes = tuple(AxisSpec.from_dict(d) for d in doc["axes"])
    values = np.asarray(doc["values"]["re"]) + 1j * np.asarray(doc["values"]["im"])
    return FieldGrid(axes=axes, values=values, metadata=doc.get("metadata", {}))


def save(grid: FieldGrid, path, fmt: str) -> None:
    if fmt == "csv":
        save_csv(grid, path)
    elif fmt == "json":
        save_json(grid, path)
    else:
        raise ConfigError(f"unknown output format {fmt!r}; choose csv or json")


def load(path, fmt: str = None) -> FieldGrid:
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    return load_json(path) if fmt == "json" else load_csv(path)
