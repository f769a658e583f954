import json
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from exactbeam import AxisSpec, ConfigError, FieldGrid, gridio
from exactbeam.cli import main
from exactbeam.gridio import FORMAT_VERSION, load, load_csv, load_json, save, save_csv, save_json


@pytest.fixture
def grid(rng):
    axes = (AxisSpec("x1", -1.0, 1.0, 5), AxisSpec("x3", 0.0, 50.0, 3))
    values = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    return FieldGrid(axes=axes, values=values, metadata={"family": "exact", "mode": [0, 0]})


class TestAxisSpec:
    def test_values(self):
        ax = AxisSpec("x1", -1.0, 1.0, 5)
        np.testing.assert_array_equal(ax.values, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_dict_round_trip(self):
        ax = AxisSpec("t", 0.0, 2.5, 11)
        assert AxisSpec.from_dict(ax.to_dict()) == ax

    @pytest.mark.parametrize(
        "bad",
        [
            dict(count=1),
            dict(minimum=2.0),
            dict(minimum=np.inf),
            dict(maximum=np.nan),
        ],
    )
    def test_validation(self, bad):
        kwargs = dict(name="x1", minimum=-1.0, maximum=1.0, count=5)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            AxisSpec(**kwargs)

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            AxisSpec.from_dict({"name": "x1", "min": 0.0, "max": 1.0})


class TestFieldGrid:
    def test_reshapes_flat_values(self):
        axes = (AxisSpec("x1", 0.0, 1.0, 2), AxisSpec("x2", 0.0, 1.0, 3))
        g = FieldGrid(axes=axes, values=np.arange(6.0), metadata={})
        assert g.values.shape == (2, 3)
        assert g.values.dtype == complex

    def test_size_mismatch(self):
        axes = (AxisSpec("x1", 0.0, 1.0, 2),)
        with pytest.raises(ValueError):
            FieldGrid(axes=axes, values=np.arange(3.0), metadata={})


class TestCsv:
    def test_round_trip_exact(self, grid, tmp_path):
        path = tmp_path / "field.csv"
        save_csv(grid, path)
        back = load_csv(path)
        assert np.array_equal(back.values, grid.values)
        assert back.axes == grid.axes
        assert back.metadata == grid.metadata

    def test_layout(self, grid, tmp_path):
        path = tmp_path / "field.csv"
        save_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        doc = json.loads(lines[0][2:])
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["metadata"]["family"] == "exact"
        assert lines[1] == "x1,x3,re,im,modulus,phase"
        assert len(lines) == 2 + 15
        first = [float(v) for v in lines[2].split(",")]
        assert first[0] == -1.0 and first[1] == 0.0
        assert first[4] == pytest.approx(np.hypot(first[2], first[3]), rel=1e-15)

    def test_deterministic_bytes(self, grid, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(grid, a)
        save_csv(grid, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_metadata_line(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("x1,re,im,modulus,phase\n0,1,0,1,0\n")
        with pytest.raises(ConfigError):
            load_csv(path)


class TestJson:
    def test_round_trip_exact(self, grid, tmp_path):
        path = tmp_path / "field.json"
        save_json(grid, path)
        back = load_json(path)
        assert np.array_equal(back.values, grid.values)
        assert back.axes == grid.axes
        assert back.metadata == grid.metadata

    def test_deterministic_bytes(self, grid, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json(grid, a)
        save_json(grid, b)
        assert a.read_bytes() == b.read_bytes()


class TestDispatch:
    def test_save_by_format(self, grid, tmp_path):
        save(grid, tmp_path / "f.csv", "csv")
        save(grid, tmp_path / "f.json", "json")
        assert np.array_equal(load(tmp_path / "f.csv").values, grid.values)
        assert np.array_equal(load(tmp_path / "f.json").values, grid.values)

    def test_extension_inference(self, grid, tmp_path):
        save(grid, tmp_path / "f.json", "json")
        assert load(tmp_path / "f.json").metadata == grid.metadata
        save(grid, tmp_path / "f.dat", "csv")
        assert np.array_equal(load(tmp_path / "f.dat").values, grid.values)

    def test_unknown_format(self, grid, tmp_path):
        with pytest.raises(ConfigError):
            save(grid, tmp_path / "f.xml", "xml")


# ---------------------------------------------------------------------------
# Golden bytes: the np.savetxt and json.dump writers that the streaming
# writers replace, kept here as the reference.
# ---------------------------------------------------------------------------


def _reference_meta(grid):
    return {
        "format_version": FORMAT_VERSION,
        "axes": [ax.to_dict() for ax in grid.axes],
        "metadata": grid.metadata,
    }


def reference_csv(grid, path):
    flat = grid.values.ravel()
    mesh = np.meshgrid(*(ax.values for ax in grid.axes), indexing="ij")
    columns = [g.ravel() for g in mesh] + [flat.real, flat.imag, np.abs(flat), np.angle(flat)]
    header = (
        "# " + json.dumps(_reference_meta(grid), sort_keys=True) + "\n"
        + ",".join([ax.name for ax in grid.axes] + ["re", "im", "modulus", "phase"])
    )
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


def reference_json(grid, path):
    doc = _reference_meta(grid)
    flat = grid.values.ravel()
    doc["values"] = {"re": flat.real.tolist(), "im": flat.imag.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _random_grid(rng, shape, metadata=None):
    axes = tuple(AxisSpec(name, -1.5 + i, 2.0 + 3 * i, n)
                 for i, (name, n) in enumerate(zip(("x1", "x2", "x3"), shape)))
    scale = 10.0 ** rng.integers(-20, 20, size=shape)
    values = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return FieldGrid(axes=axes, values=values, metadata=metadata or {"mode": [2, 1]})


def _assert_same_bytes(grid, tmp_path):
    for writer, reference, ext in ((save_csv, reference_csv, "csv"),
                                   (save_json, reference_json, "json")):
        ours, theirs = tmp_path / f"ours.{ext}", tmp_path / f"ref.{ext}"
        writer(grid, ours)
        reference(grid, theirs)
        assert ours.read_bytes() == theirs.read_bytes(), ext


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the writers see, and so their worker count."""
    return lambda n: monkeypatch.setattr(gridio, "_usable_cpus", lambda: n)


class TestGoldenBytes:
    """In-process path: one usable CPU."""

    workers = 1

    @pytest.fixture(autouse=True)
    def _workers(self, usable_cpus):
        usable_cpus(self.workers)

    @pytest.mark.parametrize("shape", [(9,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("chunk_offset", [-1, 0, 1])
    def test_chunk_boundaries(self, shape, chunk_offset, rng, tmp_path, monkeypatch):
        """Grids of chunk+1, chunk and chunk-1 points."""
        grid = _random_grid(rng, shape)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", grid.values.size + chunk_offset)
        _assert_same_bytes(grid, tmp_path)

    @pytest.mark.parametrize("shape", [(40,), (7, 6), (3, 4, 5)])
    def test_many_chunks(self, shape, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 4)
        _assert_same_bytes(_random_grid(rng, shape), tmp_path)

    def test_default_chunk(self, rng, tmp_path):
        _assert_same_bytes(_random_grid(rng, (gridio.CHUNK_ROWS + 3,)), tmp_path)

    def test_signed_zero_and_non_finite(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 4)
        grid = _random_grid(rng, (5, 3))
        flat = grid.values.reshape(-1)
        flat[0] = complex(-0.0, 0.0)
        flat[1] = complex(0.0, -0.0)
        flat[6] = complex(np.nan, 1.0)
        flat[7] = complex(np.inf, -np.inf)
        flat[14] = complex(-np.inf, np.nan)
        _assert_same_bytes(grid, tmp_path)
        text = (tmp_path / "ours.json").read_text()
        assert "NaN" in text and "Infinity" in text and "-0.0" in text

    @pytest.mark.parametrize("negative_zero", [None, 0, 5])
    def test_all_zero_im(self, negative_zero, rng, tmp_path, monkeypatch):
        """A real quantity's im part, with at most one -0.0 in the first or second chunk."""
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 4)
        grid = _random_grid(rng, (5, 3))
        flat = grid.values.reshape(-1)
        flat.imag[:] = 0.0
        if negative_zero is not None:
            flat[negative_zero] = complex(flat[negative_zero].real, -0.0)
        _assert_same_bytes(grid, tmp_path)
        assert ("-0.0" in (tmp_path / "ours.json").read_text()) == (negative_zero is not None)

    def test_non_ascii_metadata(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 5)
        grid = _random_grid(rng, (4, 3), metadata={"note": "ψ(x₁) für Gouy", "mode": [0, 0]})
        _assert_same_bytes(grid, tmp_path)


class TestGoldenBytesForked(TestGoldenBytes):
    """The same cases with every chunk formatted by one of two forked workers."""

    workers = 2


def _cli(tmp_path, command, doc, out, *extra):
    config = tmp_path / f"{command}.config.json"
    config.write_text(json.dumps(doc))
    return main([command, "--config", str(config), "--out", str(out), "--natural-units",
                 *extra])


class TestCliCsvGoldenBytes:
    """gouy and compare CSVs equal np.savetxt of the numbers in their JSON reports."""

    workers = 1

    @pytest.fixture(autouse=True)
    def _workers(self, usable_cpus):
        usable_cpus(self.workers)

    def test_gouy_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 7)
        doc = {"beam": {"k": 50}, "modes": [[1, 1]], "gouy": {"samples": 101}}
        assert _cli(tmp_path, "gouy", doc, tmp_path / "g.csv") == 0
        assert _cli(tmp_path, "gouy", doc, tmp_path / "g.json", "--format", "json") == 0
        report = json.loads((tmp_path / "g.json").read_text())
        fit_doc = json.loads((tmp_path / "g.csv.fit.json").read_text())
        header = "# " + json.dumps(fit_doc, sort_keys=True) + "\ns,phase"
        np.savetxt(tmp_path / "ref.csv", np.column_stack([report["s"], report["phase"]]),
                   fmt="%.17g", delimiter=",", header=header, comments="")
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_compare_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 3)
        doc = {"beam": {"k": 100}, "compare": {"points": 60}}
        assert _cli(tmp_path, "compare", doc, tmp_path / "c.csv") == 0
        assert _cli(tmp_path, "compare", doc, tmp_path / "c.json", "--format", "json") == 0
        report = json.loads((tmp_path / "c.json").read_text())
        rows = np.array([[r["paraxiality"], r["max_relative_deviation"]]
                         for r in report["reports"]])
        header = (
            "# " + json.dumps({"version": report["version"], "orders": report["orders"],
                               "passed": report["passed"]}, sort_keys=True)
            + "\nparaxiality,deviation"
        )
        np.savetxt(tmp_path / "ref.csv", rows, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCliCsvGoldenBytesForked(TestCliCsvGoldenBytes):
    workers = 2


# ---------------------------------------------------------------------------
# Worker processes: how many start, and failures inside them.
# ---------------------------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Count the processes forked while a test runs."""
    count = [0]
    real_fork = os.fork

    def counting_fork():
        count[0] += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


def _run_within(seconds, fn, *args):
    """Run ``fn(*args)`` in a thread that must finish within ``seconds``; return its exception."""
    outcome = []

    def run():
        try:
            fn(*args)
        except Exception as exc:  # handed to the test, which checks its type
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} still running after {seconds} s"
    return outcome[0] if outcome else None


def _worker_renders(monkeypatch, render):
    """Make every forked worker format its chunks with ``render`` instead."""
    adopt = gridio._adopt_renderer
    monkeypatch.setattr(gridio, "_adopt_renderer", lambda _: adopt(render))


def _raise_in_worker(start, stop):
    raise ValueError(f"render failed on [{start}, {stop})")


def _exit_worker(start, stop):
    os._exit(3)


class TestWorkers:
    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_one_chunk_starts_no_process(self, writer, rng, tmp_path, monkeypatch, forks,
                                         usable_cpus):
        usable_cpus(8)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 30)  # JSON: 15 im + 15 re values
        writer(_random_grid(rng, (5, 3)), tmp_path / "one")
        assert forks[0] == 0

    @pytest.mark.parametrize("cpus, chunks, expected", [(8, 3, 3), (2, 3, 2), (1, 3, 0)])
    def test_worker_count(self, cpus, chunks, expected, rng, tmp_path, monkeypatch, forks,
                          usable_cpus):
        """min(usable CPUs, chunks) workers; none with one CPU."""
        usable_cpus(cpus)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 5)
        save_csv(_random_grid(rng, (chunks * 5,)), tmp_path / "f.csv")
        assert forks[0] == expected
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_worker_exception_reaches_caller(self, writer, rng, tmp_path, monkeypatch,
                                             usable_cpus):
        usable_cpus(2)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 4)
        _worker_renders(monkeypatch, _raise_in_worker)
        error = _run_within(60, writer, _random_grid(rng, (6, 5)), tmp_path / "f")
        assert isinstance(error, ValueError) and "render failed" in str(error)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_dead_worker_raises(self, writer, rng, tmp_path, monkeypatch, usable_cpus):
        usable_cpus(2)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 4)
        _worker_renders(monkeypatch, _exit_worker)
        error = _run_within(60, writer, _random_grid(rng, (6, 5)), tmp_path / "f")
        assert isinstance(error, BrokenProcessPool)
        assert multiprocessing.active_children() == []

    def test_chunks_in_flight_bounded(self, monkeypatch, usable_cpus):
        """At most two chunks per worker are submitted ahead of the writer."""
        from concurrent.futures import ProcessPoolExecutor

        usable_cpus(2)
        monkeypatch.setattr(gridio, "CHUNK_ROWS", 1)
        written, ahead = [], []
        submit = ProcessPoolExecutor.submit

        def counting_submit(pool, fn, *args):
            ahead.append(len(ahead) + 1 - len(written))
            return submit(pool, fn, *args)

        class Sink:
            def write(self, data):
                written.append(data)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        gridio._write_chunks(Sink(), lambda start, stop: b"%d," % start, 20)
        assert b"".join(written) == b"".join(b"%d," % i for i in range(20))
        assert max(ahead) == 4
