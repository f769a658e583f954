"""Field-grid container and deterministic CSV/JSON serialization.

CSV layout: one '#'-prefixed metadata line (a JSON document with the
axis descriptors and the run metadata), one header row naming the axis
columns followed by ``re,im,modulus,phase``, then one data row per grid
point in row-major axis order. All numbers are printed with %.17g,
which round-trips IEEE doubles exactly and keeps byte-identical output
for identical inputs. JSON files carry the same information as a single
document, written as ``json.dump(doc, sort_keys=True, indent=1)`` would.

Both writers stream: they format ``_floattext.BLOCK`` rows (CSV) or
values of one array (JSON: the im array, then the re array) per chunk
and never build the coordinate meshgrid. Their
bytes equal those of ``np.savetxt`` with ``fmt="%.17g"`` and of
``json.dump``. ``save_rows`` is the same CSV writer for plain float
columns (the gouy and compare outputs). The numbers are spelled by
``_floattext.encode``: numpy code that writes the exact bytes of
``'%.17g' % v`` (CSV) or ``float.__repr__(v)`` (JSON) and hands every
value it cannot prove exact (non-finite, extreme, or close to an inexact
rounding tie) to CPython's own formatter; ``_floattext.join`` then lays
out the rows. Each axis's values are encoded once and gathered per row.
The encoder is imported by the writers, not with this module, so that
commands that write no grid do not load it.

The chunks are rendered by ``_threads.run_blocks``, the runner of the
field evaluators' fill, on min(usable CPUs, chunks // 2, 3) threads, the
calling thread among them. The encoder's numpy work releases the
interpreter lock and the threads read the caller's arrays in place. The
thread that finishes the next chunk in order writes it and every
finished chunk after it; a thread whose chunk must wait for an earlier
one holds it until it is written, so at most one finished chunk per
thread waits and memory stays bounded whatever the grid size. The file
does not depend on the CPU count. An output of fewer than four chunks
(the 20,001-row gouy CSV has two) or a single usable CPU is rendered in
the calling thread alone.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from ._threads import run_blocks
from .errors import ConfigError

FORMAT_VERSION = 1


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


def _write_chunks(fh, render, count: int) -> None:
    """Write ``render(start, stop)`` for the ``_floattext.BLOCK`` ranges of [0, count), in order.

    ``render`` returns the encoded bytes of items [start, stop); the ranges
    go to ``_threads.run_blocks``. A failure wakes the threads that wait for
    their chunk's turn, and ``run_blocks`` raises it in the caller.
    """
    from ._floattext import BLOCK

    finished, turn = {}, threading.Condition()  # rendered chunks waiting, by start
    written, failed = 0, False  # start of the next chunk to write

    def chunk(start, stop):
        nonlocal written, failed
        try:
            text = render(start, stop)
            with turn:
                finished[start] = text
                while written in finished:
                    fh.write(finished.pop(written))
                    written += BLOCK
                turn.notify_all()
                turn.wait_for(lambda: written > start or failed)
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    run_blocks(chunk, [(start, min(start + BLOCK, count)) for start in range(0, count, BLOCK)])


def _write_csv(path, header: str, count: int, block) -> None:
    """Write ``header`` and ``count`` rows, one chunk of rows at a time.

    ``block(start, stop)`` returns the columns of rows [start, stop): float
    arrays, printed as %.17g, or rows of text that ``_floattext.encode``
    made earlier.
    """
    from ._floattext import encode, join

    def render(start, stop):
        columns = [c if c.dtype == np.uint8 else encode(c, shortest=False)
                   for c in block(start, stop)]
        return join(columns, [b","] * (len(columns) - 1) + [b"\n"])

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
    from ._floattext import encode, join

    # Equals json.dump(doc, fh, sort_keys=True, indent=1) with
    # doc["values"] = {"re": [...], "im": [...]}: "values" sorts after the
    # other top-level keys and "im" before "re", so the arrays go last.
    head = json.dumps(_meta_doc(grid), sort_keys=True, indent=1)
    flat = grid.values.ravel()
    n = flat.size
    separator = b",\n   "

    def render(values, start, stop):
        # every value is followed by the separator but the array's last one
        text = join([encode(values[start:stop], shortest=True)], [separator])
        return text if stop < n else text[:-len(separator)]

    with open(path, "wb") as fh:
        fh.write((head[:-len("\n}")] + ',\n "values": {\n  "im": [\n   ').encode("utf-8"))
        _write_chunks(fh, lambda start, stop: render(flat.imag, start, stop), n)
        fh.write(b'\n  ],\n  "re": [\n   ')
        _write_chunks(fh, lambda start, stop: render(flat.real, start, stop), n)
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
