"""The vectorised float encoder against CPython's own '%.17g' and float.__repr__."""

import json
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exactbeam._floattext import WIDTH, _digits, encode, join


def reference(values, shortest):
    if shortest:
        return [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in values]
    return ["%.17g" % v for v in values]


def decoded(values, shortest):
    return [bytes(row).rstrip(b"\0").decode() for row in encode(values, shortest)]


def assert_exact(values):
    values = np.asarray(values, dtype=float).ravel()
    for shortest in (False, True):
        got = decoded(values, shortest)
        want = reference(values.tolist(), shortest)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not bad, (shortest, len(bad), bad[:5])


BOTH_STYLES = settings(derandomize=True, max_examples=150, deadline=None)


@BOTH_STYLES
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_exact(values[np.isfinite(values)])


@BOTH_STYLES
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_drawn_floats(values):
    assert_exact(values)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


class TestEdgeClasses:
    def test_signed_zero(self):
        assert decoded([0.0, -0.0], False) == ["0", "-0"]
        assert decoded([0.0, -0.0], True) == ["0.0", "-0.0"]

    def test_subnormals_and_extremes(self):
        tiny = np.nextafter(0.0, 1.0)
        values = [tiny, 2 * tiny, 3 * tiny, 12345 * tiny, 2.0**-1022, np.nextafter(2.0**-1022, 0),
                  np.finfo(float).max, np.nextafter(np.finfo(float).max, 0), 1e-280, 1e280]
        assert_exact(_neighbours(values) * np.array([[1.0], [-1.0]]))

    def test_around_powers_of_ten(self):
        assert_exact(_neighbours(10.0 ** np.arange(-250, 250)))
        assert_exact([0.09999999999999999, 1e16, 1e17, 1e23, 9.999999999999999e22, 1e-4, 1e-5])

    def test_powers_of_two(self):
        powers = 2.0 ** np.arange(-1074, 1024)
        assert_exact(np.concatenate([powers, -_neighbours(powers)]))

    def test_integers_beyond_two_to_the_53(self, rng):
        start = 2**53 - 1000
        values = np.concatenate([np.arange(start, start + 3000, dtype=np.int64),
                                 rng.integers(2**53, 2**63, 3000)])
        assert_exact(values.astype(float))

    def test_decimal_ties(self, rng):
        """Doubles whose 18th significant digit is an exact 5, and short decimals."""
        whole = rng.integers(2**50, 2**51, 3000).astype(float)
        rounded = [np.round(rng.uniform(-1e4, 1e4, 2000), d) for d in range(8)]
        assert_exact(np.concatenate([whole + 0.25, whole + 0.75, *rounded]))

    def test_exact_ties_and_edges_stay_fast(self, rng):
        """Where 10**(16 - X) is a double, numpy rounds exact ties half to even
        (n + 0.125 below 1e15: %.17g's 18th digit; n + 0.25 in [2**49, 2**50):
        repr's 16th) and decides repr's interval edges (integers above 1e16)."""
        values = np.concatenate([rng.integers(10**14, 10**15, 3000) + 0.125,
                                 rng.integers(2**49, 2**50, 3000) + 0.25,
                                 rng.integers(10**16, 2**56, 3000).astype(float)])
        assert_exact(values)
        for shortest in (False, True):
            assert _digits(values, shortest)[2].all()

    def test_random_bits_and_scales(self, rng):
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
        scaled = rng.normal(size=50_000) * 10.0 ** rng.integers(-300, 300, 50_000)
        assert_exact(np.concatenate([bits[np.isfinite(bits)], scaled]))

    def test_non_finite(self):
        values = [np.nan, np.inf, -np.inf, -np.nan]
        assert decoded(values, False) == ["nan", "inf", "-inf", "nan"]
        assert decoded(values, True) == ["NaN", "Infinity", "-Infinity", "NaN"]


def test_no_numpy_warning_on_any_input(rng):
    values = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308],
        rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for shortest in (False, True):
                encode(values, shortest)


def test_blocks_and_shapes():
    values = np.linspace(-3.0, 3.0, 40_001).reshape(-1, 1)
    rows = encode(values, False)
    assert rows.shape == (values.size, WIDTH) and rows.dtype == np.uint8
    assert decoded(values, True) == reference(values.ravel().tolist(), True)
    assert encode(np.empty(0), True).shape == (0, WIDTH)


def test_join_drops_padding():
    a = encode([1.5, -0.0, 1e-7], False)
    b = encode([2.0, np.nan, 3.25], True)
    assert join([a, b], [b",", b"\n"]) == b"1.5,2.0\n-0,NaN\n9.9999999999999995e-08,3.25\n"
    assert join([a[:0]], [b","]) == b""
