"""Field-grid container and deterministic CSV/JSON serialization.

CSV layout: one '#'-prefixed metadata line (a JSON document with the
axis descriptors and the run metadata), one header row naming the axis
columns followed by ``re,im,modulus,phase``, then one data row per grid
point in row-major axis order. All numbers are printed with %.17g,
which round-trips IEEE doubles exactly and keeps byte-identical output
for identical inputs. JSON files carry the same information as a single
document, written as ``json.dump(doc, sort_keys=True, indent=1)`` would.

Both writers stream: they format CHUNK_ROWS rows (CSV) or values (JSON)
at a time, so memory stays bounded whatever the grid size, and they never
build the coordinate meshgrid. Their bytes equal those of ``np.savetxt``
with ``fmt="%.17g"`` and of ``json.dump``. ``save_rows`` is the same CSV
writer for plain float columns (the gouy and compare outputs).
"""

from __future__ import annotations

import json
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

    def coordinate_columns(self) -> list:
        """Row-major flattened coordinate column per axis."""
        grids = np.meshgrid(*(ax.values for ax in self.axes), indexing="ij")
        return [g.ravel() for g in grids]


def _meta_doc(grid: FieldGrid) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "axes": [ax.to_dict() for ax in grid.axes],
        "metadata": grid.metadata,
    }


def _write_csv(path, header: str, count: int, block) -> None:
    """Write ``header`` and ``count`` rows, CHUNK_ROWS rows per ``%`` format.

    ``block(start, stop)`` returns the columns of rows [start, stop): float
    arrays, printed with %.17g, or object arrays of preformatted strings.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, count, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, count)
            columns = block(start, stop)
            table = np.empty((stop - start, len(columns)), dtype=object)
            for j, column in enumerate(columns):
                table[:, j] = column
            row = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
            fh.write((row * (stop - start)) % tuple(table.ravel().tolist()))


def save_rows(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV below ``header``.

    The bytes are those of ``np.savetxt(path, np.column_stack(columns),
    fmt="%.17g", delimiter=",", header=header, comments="")``.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    _write_csv(path, header, len(columns[0]), lambda a, b: [c[a:b] for c in columns])


def save_csv(grid: FieldGrid, path) -> None:
    shape = grid.values.shape
    flat = grid.values.ravel()
    # each coordinate repeats across rows: format every axis value once
    axis_text = [np.array(["%.17g" % v for v in ax.values.tolist()], dtype=object)
                 for ax in grid.axes]

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


def _write_json_floats(fh, values: np.ndarray, separator: str) -> None:
    """Write a float array's items as json's encoder would, CHUNK_ROWS at a time."""
    for start in range(0, values.size, CHUNK_ROWS):
        if start:
            fh.write(separator)
        chunk = values[start:start + CHUNK_ROWS]
        # json prints NaN and Infinity by name; finite floats by repr
        encode = float.__repr__ if np.isfinite(chunk).all() else json.dumps
        fh.write(separator.join(map(encode, chunk.tolist())))


def save_json(grid: FieldGrid, path) -> None:
    # Equals json.dump(doc, fh, sort_keys=True, indent=1) with
    # doc["values"] = {"re": [...], "im": [...]}: "values" sorts after the
    # other top-level keys and "im" before "re", so the arrays go last.
    head = json.dumps(_meta_doc(grid), sort_keys=True, indent=1)
    flat = grid.values.ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-len("\n}")] + ',\n "values": {\n  "im": [\n   ')
        _write_json_floats(fh, flat.imag, ",\n   ")
        fh.write('\n  ],\n  "re": [\n   ')
        _write_json_floats(fh, flat.real, ",\n   ")
        fh.write("\n  ]\n }\n}\n")


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
