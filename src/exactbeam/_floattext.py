"""Byte-exact decimal text of float64 arrays, computed with numpy.

``encode`` scales |v| by 10**(16 - X), X = floor(log10|v|), in
double-double arithmetic (Dekker's exact product; 10**q as hi + lo), so
the scaled value s in [1e16, 1e17) is known to about 1e-15. '%.17g'
rounds s to an integer; repr keeps the shortest rounding of s inside
v's half-ulp interval, the rule of Grisu (Loitsch, PLDI 2010) and Ryu
(Adams, PLDI 2018). One gather through a table keyed by sign, exponent
class and digit count spells the digits. Values not proven exact go to
CPython's own formatter: non-finite values, |v| outside [1e-280, 1e280],
values within 1e-6 of the last kept digit's rounding tie or interval
edge, and for repr the powers of two, whose interval is lopsided.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

#: Bytes per encoded value: len('-2.2250738585072014e-308').
WIDTH = 24

#: Values encoded at a time, so that each temporary stays cache-sized.
BLOCK = 16_384

_MARGIN = 1e-6
_Q_MIN = -270  # the 10**q tables cover q = 16 - X for X in [-284, 286]

# A value's source row: six '<u4' words of its digits (the first holds
# '0' and two digits, byte 3 of each is NUL), one of |X|, one of '-.e+'.
_DIGIT = [1, 2] + [4 * word + i for word in range(1, 6) for i in range(3)]
_EXPONENT, _ZERO, _NUL, _MINUS, _DOT, _E, _PLUS = 24, 0, 3, 28, 29, 30, 31


@lru_cache(maxsize=None)
def _tables():
    """10**q as hi + lo, the '<u4' words of '000'..'999' and '-.e+', and trailing zeros."""
    hi, lo = [], []
    for q in range(_Q_MIN, 301):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        a, b = (num / den).as_integer_ratio()  # int / int rounds correctly
        hi.append(a / b)
        lo.append((num * b - a * den) / (den * b))
    words = np.frombuffer(b"".join([b"%03d\0" % g for g in range(1000)] + [b"-.e+"]), "<u4")
    trailing = [3] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 1000))]
    return np.array(hi), np.array(lo), words, np.array(trailing)


def _template(negative: bool, exponent, digits: int, shortest: bool) -> list:
    """Source-row offsets spelling ``digits`` significant digits; ``exponent``
    is X (fixed notation) or (sign offset, width) (exponential notation)."""
    d = _DIGIT[:digits]
    if isinstance(exponent, tuple):
        sign, width = exponent
        spelled = d[:1] + [_DOT] * (digits > 1) + d[1:] + [_E, sign]
        spelled += [_EXPONENT + i for i in range(3 - width, 3)]
    elif exponent >= 0:
        spelled = [_DIGIT[i] if i < digits else _ZERO for i in range(exponent + 1)]
        if digits > exponent + 1:
            spelled += [_DOT] + d[exponent + 1:]
        elif shortest:
            spelled += [_DOT, _ZERO]
    else:
        spelled = [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + d
    spelled = [_MINUS] * negative + spelled
    return spelled + [_NUL] * (WIDTH - len(spelled))


@lru_cache(maxsize=None)
def _layout(shortest: bool):
    """The layout table of one style, its exponent class count and fixed-notation count."""
    fixed = list(range(-4, 16 if shortest else 17))  # repr: X in [-4, 15]; %g: [-4, 16]
    classes = fixed + [(sign, width) for sign in (_MINUS, _PLUS) for width in (2, 3)]
    table = [_template(negative, cls, digits, shortest)
             for negative in (False, True) for cls in classes for digits in range(1, 18)]
    return np.array(table, dtype=np.int32), len(classes), len(fixed)


def _scaled(x, exponent):
    """x * 10**(16 - exponent) as hi + lo, with Dekker's exact product by the hi part."""
    hi_table, lo_table = _tables()[:2]
    p, p_lo = hi_table[16 - _Q_MIN - exponent], lo_table[16 - _Q_MIN - exponent]
    hi = x * p
    halves = []
    for a in (x, p):
        t = a * 134217729.0  # 2**27 + 1 splits a into two 26-bit halves
        halves += [t - (t - a), a - (t - (t - a))]
    xh, xl, ph, pl = halves
    return hi, xl * pl - (((hi - xh * ph) - xl * ph) - xh * pl) + x * p_lo


def _decade(hi, lo):
    """+1 where hi + lo >= 1e17, -1 where it is below 1e16, else 0."""
    return (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))


def _digits(x, shortest: bool):
    """17-digit integers, decimal exponents and an exactness mask for 1e-280 <= x <= 1e280."""
    exponent = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _scaled(x, exponent)
    # log10 may round across a power of ten: judge the scaled value on hi + lo
    moved = np.flatnonzero(_decade(hi, lo))
    exponent[moved] += _decade(hi[moved], lo[moved])
    hi[moved], lo[moved] = _scaled(x[moved], exponent[moved])
    safe = _decade(hi, lo) == 0
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)  # s = whole + frac exactly
    frac = lo - floor
    safe &= np.abs(frac - 0.5) >= _MARGIN
    digits = whole + (frac >= 0.5)
    if shortest:
        # round s to k digits fewer, k = 1, 2, ..., while the result stays
        # inside the half-ulp interval; passing is monotone in k
        _, binary = np.frexp(x)
        half_ulp = np.ldexp(_tables()[0][16 - _Q_MIN - exponent], binary - 54)
        active = np.flatnonzero(safe)
        for k in range(1, 17):
            p = 10**k
            w = whole[active]
            r = w - w // p * p
            offset = r - p * (2 * r >= p)  # the rounded value is w - offset
            distance = np.abs(offset + frac[active])
            tie = np.abs(distance - p // 2) < _MARGIN
            distance -= half_ulp[active]
            edge = np.abs(distance) < _MARGIN
            safe[active[edge | ((distance < 0) & tie)]] = False
            keep = (distance < 0) & ~edge & ~tie
            active = active[keep]
            if not active.size:
                break
            digits[active] = (w - offset)[keep]
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, exponent + carry, safe


def _spell(digits, exponent, negative, shortest: bool):
    """Text rows of 17-digit integers with decimal exponents and signs."""
    words, trailing = _tables()[2:]
    table, classes, fixed = _layout(shortest)
    groups, rest = [], digits
    for _ in range(5):
        rest, group = rest // 1000, rest % 1000
        groups.insert(0, group)
    groups.insert(0, rest)
    count, zeros = 17, True  # significant digits: 17 less the zeros at the end
    for group in groups[::-1]:
        count = count - zeros * trailing[group]
        zeros = zeros & (group == 0)
    source = words[np.stack(groups + [np.abs(exponent), np.full_like(rest, 1000)], axis=1)]
    cls = np.where((exponent >= -4) & (exponent < fixed - 4), exponent + 4,
                   fixed + 2 * (exponent > 0) + (np.abs(exponent) >= 100))
    index = table[(negative * classes + cls) * 17 + count - 1]
    index += 32 * np.arange(digits.size, dtype=np.int32)[:, None]
    # every index is in range by construction; "clip" skips the bounds check
    return np.take(source.view(np.uint8).reshape(-1), index, mode="clip")


def _encode_block(v, shortest: bool, out) -> None:
    bits = v.view(np.uint64)
    negative = (bits >> np.uint64(63)).astype(np.intp)
    x = np.abs(v)
    zero = x == 0
    zeros = (b"0.0", b"-0.0") if shortest else (b"0", b"-0")
    out[zero] = np.array([list(z.ljust(WIDTH, b"\0")) for z in zeros], np.uint8)[negative[zero]]
    fast = (x >= 1e-280) & (x <= 1e280)
    if shortest:
        fast &= (bits & np.uint64((1 << 52) - 1)) != 0
    rows = np.flatnonzero(fast)
    digits, exponent, safe = _digits(x[rows], shortest)
    out[rows[safe]] = _spell(digits[safe], exponent[safe], negative[rows[safe]], shortest)
    slow = np.concatenate([rows[~safe], np.flatnonzero(~fast & ~zero)])
    if shortest:
        text = [float.__repr__(s) if s - s == 0 else json.dumps(s) for s in v[slow].tolist()]
    else:
        text = ["%.17g" % s for s in v[slow].tolist()]
    padded = b"".join(t.encode().ljust(WIDTH, b"\0") for t in text)
    out[slow] = np.frombuffer(padded, np.uint8).reshape(-1, WIDTH)


def encode(values, shortest: bool) -> np.ndarray:
    """Rows of ``WIDTH`` bytes: ``'%.17g' % v``, or with ``shortest``
    ``float.__repr__(v)`` (``json.dumps(v)`` if not finite), NUL-padded."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    out = np.empty((values.size, WIDTH), dtype=np.uint8)
    for start in range(0, values.size, BLOCK):
        _encode_block(values[start:start + BLOCK], shortest, out[start:start + BLOCK])
    return out


def join(columns, separators) -> bytes:
    """Each row's texts in ``columns``, each followed by its separator, without padding."""
    widths = [c.shape[1] + len(s) for c, s in zip(columns, separators)]
    rows = np.empty((columns[0].shape[0], sum(widths)), dtype=np.uint8)
    start = 0
    for column, separator, width in zip(columns, separators, widths):
        rows[:, start:start + column.shape[1]] = column
        rows[:, start + column.shape[1]:start + width] = np.frombuffer(separator, np.uint8)
        start += width
    flat = rows.reshape(-1)
    return flat[flat != 0].tobytes()
