"""Byte-exact decimal text of float64 arrays, computed with numpy.

``encode`` scales |v| by 10**(16 - X), X = floor(log10|v|), in
double-double arithmetic (Dekker's exact product; 10**q as hi + lo), so
the scaled value s in [1e16, 1e17) is known to about 1e-15. '%.17g'
rounds s to an integer; repr keeps the shortest rounding of s inside
v's half-ulp interval, the rule of Grisu (Loitsch, PLDI 2010) and Ryu
(Adams, PLDI 2018). One gather through a table keyed by sign, exponent
class and digit count spells the digits. Where 10**(16 - X) is a double
the scaled value is exact, so rounding ties go half to even and repr's
interval edges are decided in numpy too. Values not proven exact go to
CPython's own formatter: non-finite values, |v| outside [1e-280, 1e280],
values of inexact scale within 1e-6 of the last kept digit's rounding
tie or interval edge, and for repr the powers of two, whose interval is
lopsided.
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


@lru_cache(maxsize=None)
def _layout(shortest: bool):
    """The layout table of one style, its exponent class count and fixed-notation count.

    Row (negative * classes + class) * 17 + digits - 1 holds the source-row
    offsets that spell that many significant digits, NUL-padded. The classes
    are X in [-4, 15] (repr) or [-4, 16] (%g) in fixed notation, then the
    exponent's sign and width (2 or 3). Each row spells the symbols below
    that it keeps, in the order of their places.
    """
    fixed = 20 if shortest else 21
    negative = np.arange(2)[:, None, None] == 1
    c = np.arange(fixed + 4)[:, None]
    d = np.arange(1, 18)
    x, plain, signed = c - 4, c < fixed, c >= fixed
    whole, width = plain & (x >= 0), 2 + (c - fixed) % 2
    symbols = [(_MINUS, -6, negative), (_ZERO, -5, plain & (x < 0)), (_DOT, -4, plain & (x < 0))]
    symbols += [(_ZERO, k - 3, plain & (k < -x - 1)) for k in range(3)]  # 0 < |v| < 1
    symbols += [(np.where(i < d, _DIGIT[i], _ZERO), i, (i < d) | (plain & (i <= x)))
                for i in range(17)]
    symbols += [(_DOT, np.where(plain, x + 0.5, 0.5),
                 (whole & ((d > x + 1) | shortest)) | (signed & (d > 1))),
                (_ZERO, x + 0.75, shortest & whole & (d <= x + 1)),  # repr's '.0'
                (_E, 17, signed), (np.where(c < fixed + 2, _MINUS, _PLUS), 18, signed)]
    symbols += [(_EXPONENT + k, 19 + k, signed & (k >= 3 - width)) for k in range(3)]
    # sort each row's kept symbols by place: places are multiples of 1/4 and
    # symbols below 32, so 128 * place + symbol carries its symbol, and a
    # dropped symbol's key sorts last and reads as NUL
    key = np.empty((2, c.size, d.size, len(symbols)), np.int32)
    for n, (symbol, at, kept) in enumerate(symbols):
        key[..., n] = np.where(kept, 128 * at + symbol, 4096 + _NUL)
    return np.sort(key, axis=-1)[..., :WIDTH].reshape(-1, WIDTH) % 32, c.size, fixed


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
    # where 10**(16 - X) is a double (X in [-6, 16]), hi + lo is s exactly,
    # so a rounding tie is one too, and it rounds half to even
    exact = (exponent >= -6) & (exponent <= 16)
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)  # s = whole + frac exactly
    frac = lo - floor
    safe &= exact | (np.abs(frac - 0.5) >= _MARGIN)
    digits = whole + ((frac > 0.5) | ((frac == 0.5) & ((whole & 1) == 1)))
    if shortest:
        # round s to k digits fewer, k = 1, 2, ..., while the result stays
        # inside the half-ulp interval; passing is monotone in k
        _, binary = np.frexp(x)
        half_ulp = np.ldexp(_tables()[0][16 - _Q_MIN - exponent], binary - 54)
        even = (x.view(np.uint64) & np.uint64(1)) == 0
        active = np.flatnonzero(safe)
        for k in range(1, 17):
            p = 10**k
            w, f = whole[active], frac[active]
            quotient = w // p
            r = w - p * quotient
            # round to nearest; a tie (r = p/2, f = 0) goes to the even quotient
            up = (2 * r > p) | ((2 * r == p) & ((f > 0) | ((quotient & 1) == 1)))
            offset = r - p * up  # the rounded value is w - offset
            distance = np.abs(offset + f)
            tie = (np.abs(distance - p // 2) < _MARGIN) & ~exact[active]
            distance -= half_ulp[active]
            edge = (np.abs(distance) < _MARGIN) & ~exact[active]
            safe[active[edge | ((distance < 0) & tie)]] = False
            # an exact edge is inside when v's last bit is 0: it reads back as v
            inside = (distance < 0) | ((distance == 0) & even[active])
            keep = inside & ~edge & ~tie
            active = active[keep]
            if not active.size:
                break
            digits[active] = (w - offset)[keep]
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, exponent + carry, safe


def _spell(digits, exponent, negative, shortest: bool, out=None):
    """Text rows of 17-digit integers with decimal exponents and signs, into ``out`` if given."""
    words, trailing = _tables()[2:]
    table, classes, fixed = _layout(shortest)
    groups, rest = [], digits
    for _ in range(5):
        quotient = rest // 1000  # numpy divides by a constant fast, but % is slow
        groups.insert(0, rest - 1000 * quotient)
        rest = quotient
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
    return np.take(source.view(np.uint8).reshape(-1), index, mode="clip", out=out)


def _encode_block(v, shortest: bool, out) -> None:
    bits = v.view(np.uint64)
    negative = (bits >> np.uint64(63)).astype(np.intp)
    x = np.abs(v)
    fast = (x >= 1e-280) & (x <= 1e280)
    if shortest:
        fast &= (bits & np.uint64((1 << 52) - 1)) != 0
    rows = None if fast.all() else np.flatnonzero(fast)
    digits, exponent, safe = _digits(x if rows is None else x[rows], shortest)
    if rows is None:
        if safe.all():  # the common block: every value spelled in place
            _spell(digits, exponent, negative, shortest, out)
            return
        rows = np.arange(v.size)
    out[rows[safe]] = _spell(digits[safe], exponent[safe], negative[rows[safe]], shortest)
    zero = x == 0
    zeros = (b"0.0", b"-0.0") if shortest else (b"0", b"-0")
    out[zero] = np.array([list(z.ljust(WIDTH, b"\0")) for z in zeros], np.uint8)[negative[zero]]
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
