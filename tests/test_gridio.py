import json
import math
import os
import random
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from exactbeam import AxisSpec, ConfigError, FieldGrid, _floattext, _threads, gridio
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
    return lambda n: monkeypatch.setattr(_threads, "usable_cpus", lambda: n)


class TestGoldenBytes:
    """In-process path: one usable CPU. Every test writes one CSV and one JSON file."""

    workers = 1
    #: copies of ``shape`` along the first axis in ``test_chunk_boundaries``
    repeats = 1

    @pytest.fixture(autouse=True)
    def _workers(self, usable_cpus, writer_threads):
        """One usable CPU starts no thread; more render each chunk stream (the CSV
        rows, the JSON im and re arrays) on that many threads."""
        usable_cpus(self.workers)
        yield
        assert writer_threads == ([self.workers] * 3 if self.workers > 1 else [])

    @pytest.mark.parametrize("shape", [(9,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("chunk_offset", [-1, 0, 1])
    def test_chunk_boundaries(self, shape, chunk_offset, rng, tmp_path, monkeypatch):
        """Chunks of one point more than, as many as and one point fewer than the
        ``shape`` grid, over ``repeats`` copies of it."""
        grid = _random_grid(rng, (self.repeats * shape[0], *shape[1:]))
        monkeypatch.setattr(_floattext, "BLOCK", math.prod(shape) + chunk_offset)
        _assert_same_bytes(grid, tmp_path)

    @pytest.mark.parametrize("shape", [(40,), (7, 6), (3, 4, 5)])
    def test_many_chunks(self, shape, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(_floattext, "BLOCK", 4)
        _assert_same_bytes(_random_grid(rng, shape), tmp_path)

    def test_default_chunk(self, rng, tmp_path):
        _assert_same_bytes(_random_grid(rng, (self.repeats * _floattext.BLOCK + 3,)), tmp_path)

    def test_signed_zero_and_non_finite(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(_floattext, "BLOCK", 4)
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
        monkeypatch.setattr(_floattext, "BLOCK", 4)
        grid = _random_grid(rng, (5, 3))
        flat = grid.values.reshape(-1)
        flat.imag[:] = 0.0
        if negative_zero is not None:
            flat[negative_zero] = complex(flat[negative_zero].real, -0.0)
        _assert_same_bytes(grid, tmp_path)
        assert ("-0.0" in (tmp_path / "ours.json").read_text()) == (negative_zero is not None)

    def test_non_ascii_metadata(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(_floattext, "BLOCK", 3)
        grid = _random_grid(rng, (4, 3), metadata={"note": "ψ(x₁) für Gouy", "mode": [0, 0]})
        _assert_same_bytes(grid, tmp_path)


class TestGoldenBytesForked(TestGoldenBytes):
    """The same cases with two usable CPUs, on chunk streams of four chunks or more, so
    that each stream is rendered on two threads."""

    workers = 2
    repeats = 4


def _cli(tmp_path, command, doc, out, *extra):
    config = tmp_path / f"{command}.config.json"
    config.write_text(json.dumps(doc))
    return main([command, "--config", str(config), "--out", str(out), "--natural-units",
                 *extra])


class TestCliCsvGoldenBytes:
    """gouy and compare CSVs equal np.savetxt of the numbers in their JSON reports."""

    workers = 1

    @pytest.fixture(autouse=True)
    def _workers(self, usable_cpus, writer_threads):
        """Only the CSV goes through the chunk writer: on ``workers`` threads when that
        is two or more."""
        usable_cpus(self.workers)
        yield
        assert writer_threads == ([self.workers] if self.workers > 1 else [])

    def test_gouy_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_floattext, "BLOCK", 7)
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
        monkeypatch.setattr(_floattext, "BLOCK", 1)  # four rows, one per paraxiality
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
    """The same CLI runs with two usable CPUs; their CSVs have four chunks or more, so
    the chunks are rendered on two threads."""

    workers = 2


# ---------------------------------------------------------------------------
# The chunk writer's threads: how many start, the order of the writes, and
# failures inside them.
# ---------------------------------------------------------------------------


@pytest.fixture
def writer_threads(monkeypatch):
    """The thread count, the caller's included, of each writer ``run_blocks`` call that
    started threads while a test runs."""
    started, counts = [0], []
    thread_start, run_blocks = threading.Thread.start, gridio.run_blocks

    def counting_start(thread):
        started[0] += 1
        thread_start(thread)

    def counting_run_blocks(run, blocks):
        before = started[0]
        try:
            run_blocks(run, blocks)
        finally:
            if started[0] > before:
                counts.append(started[0] - before + 1)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(gridio, "run_blocks", counting_run_blocks)
    return counts


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


def _no_fork():
    raise AssertionError("os.fork called")


def _render_fails_after_first_chunk(monkeypatch):
    """Make every chunk but the first raise; return the threads that raised."""
    write_chunks, raised_in = gridio._write_chunks, []

    def failing(fh, render, count):
        def render_or_raise(start, stop):
            if not start:
                return render(start, stop)
            raised_in.append(threading.current_thread())
            raise ValueError(f"render failed on [{start}, {stop})")

        write_chunks(fh, render_or_raise, count)

    monkeypatch.setattr(gridio, "_write_chunks", failing)
    return raised_in


class _CountingSink:
    """A file that keeps each write, and a ``render`` for ``_write_chunks`` that records,
    as each chunk finishes, how many finished chunks are not yet written."""

    def __init__(self, pause=None):
        self.written, self.waiting = [], []
        self._finished = 0
        self._lock = threading.Lock()
        self._pause = pause

    def write(self, data):
        self.written.append(data)

    def render(self, start, stop):
        if self._pause:
            self._pause()
        with self._lock:
            self._finished += 1
            self.waiting.append(self._finished - len(self.written))
        return b"%d," % start


class TestWorkers:
    @pytest.fixture(autouse=True)
    def _threads_joined(self):
        """Every writer thread has finished when a writer returns or raises."""
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_one_chunk_starts_no_process(self, writer, rng, tmp_path, monkeypatch,
                                         writer_threads, usable_cpus):
        """No thread or process for a one-chunk output."""
        usable_cpus(8)
        monkeypatch.setattr(_floattext, "BLOCK", 30)  # JSON: one chunk per array of 15 values
        writer(_random_grid(rng, (5, 3)), tmp_path / "one")
        assert writer_threads == []

    @pytest.mark.parametrize("cpus, chunks, expected",
                             [(8, 3, 0), (2, 4, 2), (8, 7, 3), (1, 3, 0), (1, 8, 0),
                              (64, 200, 3)])
    def test_worker_count(self, cpus, chunks, expected, rng, tmp_path, monkeypatch,
                          writer_threads, usable_cpus):
        """min(usable CPUs, chunks // 2, MAX_THREADS) threads; the caller alone below two."""
        usable_cpus(cpus)
        monkeypatch.setattr(_floattext, "BLOCK", 5)
        save_csv(_random_grid(rng, (chunks * 5,)), tmp_path / "f.csv")
        assert writer_threads == ([expected] if expected else [])

    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_worker_exception_reaches_caller(self, writer, rng, tmp_path, monkeypatch,
                                             usable_cpus):
        usable_cpus(2)
        monkeypatch.setattr(_floattext, "BLOCK", 4)
        raised_in = _render_fails_after_first_chunk(monkeypatch)
        error = _run_within(60, writer, _random_grid(rng, (6, 5)), tmp_path / "f")
        assert isinstance(error, ValueError) and "render failed" in str(error)
        assert raised_in

    def test_chunks_in_flight_bounded(self, monkeypatch, usable_cpus):
        """At most one finished chunk per thread waits to be written."""
        usable_cpus(2)
        monkeypatch.setattr(_floattext, "BLOCK", 1)
        sink = _CountingSink()
        assert _run_within(60, gridio._write_chunks, sink, sink.render, 20) is None
        assert b"".join(sink.written) == b"".join(b"%d," % i for i in range(20))
        assert len(sink.waiting) == 20 and max(sink.waiting) <= 2

    def test_ordering_rule_under_contention(self, monkeypatch, usable_cpus, writer_threads):
        """Three threads over 200 one-item chunks that each take a random few
        microseconds, switching as often as the interpreter allows: every chunk is
        written once and in order, and at most one finished chunk per thread waits."""
        usable_cpus(3)
        monkeypatch.setattr(_floattext, "BLOCK", 1)
        pauses = random.Random(29)
        sink = _CountingSink(lambda: time.sleep(pauses.uniform(1e-6, 5e-5)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _run_within(60, gridio._write_chunks, sink, sink.render, 200) is None
        finally:
            sys.setswitchinterval(interval)
        assert writer_threads == [3]
        assert sink.written == [b"%d," % i for i in range(200)]
        assert max(sink.waiting) <= 3

    @pytest.mark.parametrize("block", [4, 5])
    def test_bytes_independent_of_thread_count(self, block, rng, tmp_path, monkeypatch,
                                               usable_cpus, writer_threads):
        """1, 2 and 3 threads write the reference bytes; with 30 values per
        JSON array, the last 4-value chunk of each array is short and the
        5-value chunks fill it. Every chunk stream has six chunks or more."""
        monkeypatch.setattr(_floattext, "BLOCK", block)
        grid = _random_grid(rng, (6, 5))
        for workers in (1, 2, 3):
            usable_cpus(workers)
            writer_threads.clear()
            _assert_same_bytes(grid, tmp_path)
            assert writer_threads == ([workers] * 3 if workers > 1 else [])

    @pytest.mark.parametrize("writer", [save_csv, save_json])
    def test_never_forks(self, writer, rng, tmp_path, monkeypatch, writer_threads,
                         usable_cpus):
        usable_cpus(2)
        monkeypatch.setattr(_floattext, "BLOCK", 4)
        monkeypatch.setattr(os, "fork", _no_fork)
        writer(_random_grid(rng, (6, 5)), tmp_path / "f")
        assert writer_threads == [2] * (2 if writer is save_json else 1)


def test_field_run_loads_no_thread_pool(tmp_path):
    """A ``beam field`` run whose writers render on three threads does not load
    ``concurrent.futures``."""
    config = tmp_path / "field.json"
    config.write_text(json.dumps({"beam": {"k": 50}, "modes": [[1, 0]], "grid": {"axes": [
        {"name": "x1", "min": -2.0, "max": 2.0, "count": 300},
        {"name": "x3", "min": 0.0, "max": 9.0, "count": 300}]}}))
    # 90,000 rows and values per array are six chunks each: three threads per stream
    code = (
        "import sys\n"
        "from exactbeam import _threads\n"
        "_threads.usable_cpus = lambda: 3\n"
        "from exactbeam.cli import main\n"
        "for fmt in ('csv', 'json'):\n"
        "    out = sys.argv[2] + '.' + fmt\n"
        "    assert main(['field', '--config', sys.argv[1], '--out', out, '--format', fmt,\n"
        "                 '--natural-units']) == 0\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(gridio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "wrote 90000 grid points" in result.stdout
    loaded = set(result.stderr.split())
    assert "exactbeam._floattext" in loaded
    assert not {"concurrent", "concurrent.futures"} & loaded


class TestUsableCpus:
    def test_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _threads.usable_cpus() == 3

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_without_affinity(self, count, expected, monkeypatch):
        """macOS and Windows have no sched_getaffinity: the machine's CPU count."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _threads.usable_cpus() == expected


def test_direct_and_fallback_blocks_spell_alike(rng, tmp_path, monkeypatch):
    """A block the encoder spells in place, and the same block with one value
    CPython must format, give the same bytes on every other row."""
    spelled_in_place = []
    spell = _floattext._spell

    def recording_spell(digits, exponent, negative, shortest, out=None):
        spelled_in_place.append(out is not None)
        return spell(digits, exponent, negative, shortest, out)

    monkeypatch.setattr(_floattext, "_spell", recording_spell)
    columns = [rng.normal(size=200), 10.0 ** rng.uniform(-6, 12, 200)]
    gridio.save_rows(tmp_path / "exact.csv", "a,b", columns)
    columns[1][77] = np.nan
    gridio.save_rows(tmp_path / "fallback.csv", "a,b", columns)
    assert spelled_in_place == [True, True, True, False]
    exact = (tmp_path / "exact.csv").read_text().splitlines()
    fallback = (tmp_path / "fallback.csv").read_text().splitlines()
    assert fallback[78] == exact[78].split(",")[0] + ",nan"
    del exact[78], fallback[78]
    assert exact == fallback
