"""``repr`` text of whole float64 arrays: Schubfach digits in uint64 arithmetic.

``repr_cells(values)`` gives, for every float64 value, exactly the bytes
``repr`` gives it, in a row of at most ``WIDTH`` bytes with NUL in the
places the value does not use (the sign of a positive value, the end of the
row).  A CSV line built from such rows drops its NUL bytes in one
compaction.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; Ryu, U. Adams, PLDI 2018, finds the same ones): the shortest
decimal in the value's rounding interval and, of those, the one closest to
the value, the even one on a tie.  That is what Python's ``repr`` prints.
The method needs 64-bit integer products only, so it runs over whole uint64
arrays; ``multiplyHigh`` is built from 32-bit limbs.  Python's layout rules
then apply: an exponent, written ``e%+03d``, iff decpt <= -4 or decpt > 16;
``0.000ddd`` below 1; ``.0`` after an integer.  Each (layout, digit count)
pair is one column template over a per-value table of characters, so the
layout is one gather.  Zero, subnormals, infinities and NaN take ``repr``
one value at a time.

Every uint64 operation runs on arrays, 1-element ones included: array
arithmetic wraps silently, where numpy scalar overflow warns.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per formatting pass: the uint64 work arrays of a pass stay below 1 MB.
PASS_VALUES = 8192

WIDTH = 24  # "-" + 17 digits + "." + "e-308"

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the normal float64 range
_MASK_63 = (1 << 63) - 1
_MASK_32 = (1 << 32) - 1

# The per-value character table that the templates gather from, 28 bytes:
# "000" and the 17 significant digits, the exponent's sign and its three
# digits (NUL for a leading zero), then the value's sign, ".", "e" and NUL.
_ZERO, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1, _SIGN, _DOT, _E, _NUL = 0, *range(20, 28)
_CHARS = 28
_TAIL = np.frombuffer(b"\0.e\0", dtype=np.uint32)  # sign (filled in), ".", "e", NUL
_GATHER_ROWS = 1024  # rows per gather: its intp index stays below 200 kB
_ONE_BITS = np.float64(1.0).view(np.uint64)  # what _shortest reads in place of a value that is not normal


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 6_432."""
    return (e * 217_706) >> 16


@functools.cache
def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for k in [-324, 292], as 63-bit halves."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        shift = 125 - _flog2pow10(-k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & _MASK_63)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999, one uint32 each in memory order, and their trailing zeros (0: 4)."""
    text = [b"%04d" % i for i in range(10_000)]
    zeros = [4 - len(digits.rstrip(b"0")) for digits in text]
    return np.frombuffer(b"".join(text), dtype=np.uint32), np.array(zeros, dtype=np.intp)


def _layout(decpt, n) -> list[int]:
    """Character-table columns of ``repr`` for n significant digits and decimal point position decpt."""
    digit = [3 + i for i in range(17)]
    if decpt <= -4 or decpt > 16:
        mantissa = [digit[0]] + ([_DOT, *digit[1:n]] if n > 1 else [])
        return [_SIGN, *mantissa, _E, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1]
    if decpt <= 0:
        return [_SIGN, _ZERO, _DOT, *[_ZERO] * -decpt, *digit[:n]]
    # the digit columns past n hold '0': the integer part's zeros and the ".0"
    return [_SIGN, *digit[:decpt], _DOT, *digit[decpt:max(n, decpt + 1)]]


@functools.cache
def _templates() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, lengths, bases)``: row ``21 (n - 1) + c`` of columns is the NUL-padded layout of n
    digits in class c (0 exponent, else decpt + 4), of ``lengths`` places; bases holds each gather
    row's table offset."""
    rows = [_layout(decpt, n) for n in range(1, 18) for decpt in [17, *range(-3, 17)]]
    columns = np.array([row + [_NUL] * (WIDTH - len(row)) for row in rows], dtype=np.intp)
    bases = np.repeat(np.arange(_GATHER_ROWS) * _CHARS, WIDTH).reshape(_GATHER_ROWS, WIDTH)
    return columns, np.array([len(row) for row in rows]), bases


def _divmod(a, d):
    """``(a // d, a % d)`` of an unsigned array, the remainder by ``a - (a // d) d``, which is cheaper than ``%``."""
    q = a // d
    return q, a - q * d


def _limbs(a):
    return a & _MASK_32, a >> 32


def _mul_high(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays given as 32-bit limbs ``(lo, hi)``.

    Written in place, so that a pass makes few temporaries.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = a_lo * b_lo
    mid >>= 32
    part = lh & _MASK_32
    mid += part
    np.bitwise_and(hl, _MASK_32, out=part)
    mid += part
    mid >>= 32
    high = a_hi * b_hi
    lh >>= 32
    hl >>= 32
    high += lh
    high += hl
    high += mid
    return high


def _rop(g, cp):
    """Schubfach's rounded-to-odd ``g cp 2^-127``.

    g = g1 2^63 + g0 comes as ``(g1, limbs of g1, limbs of g0)``.
    """
    g1, g1_limbs, g0 = g
    cp_limbs = _limbs(cp)
    z = ((g1 * cp) >> 1) + _mul_high(g0, cp_limbs)
    return (_mul_high(g1_limbs, cp_limbs) + (z >> 63)) | (((z & _MASK_63) + _MASK_63) >> 63)


def _shortest(bits):
    """``(f, k)``: the shortest-closest decimal ``f 10^k`` of normal float64 ``bits``, f of 16-17 digits."""
    g1_table, g0_table = _g_table()
    q = ((bits >> 52) & 0x7FF).astype(np.int64) - 1075
    c = (bits & ((1 << 52) - 1)) | (1 << 52)
    odd = c & 1
    # The interval is asymmetric at a power of two above the smallest normal.
    asym = (c == 1 << 52) & (q != -1074)
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1 = g1_table.take(k - _K_MIN)
    g = (g1, _limbs(g1), _limbs(g0_table.take(k - _K_MIN)))
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + asym.astype(np.uint64)) << h)
    vbr = _rop(g, (cb + 2) << h)
    s = vb >> 2
    # One digit shorter: the multiple of ten in the interval, if there is exactly one.
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + odd <= sp10 << 2
    wpin = (tp10 << 2) + odd <= vbr
    # Else s or s + 1, whichever is in the interval, or the closer, or the even one.
    t = s + 1
    uin = vbl + odd <= s << 2
    win = (t << 2) + odd <= vbr
    mid = (s + t) << 1
    closer = (vb < mid) | ((vb == mid) & ((s & 1) == 0))  # s is the closer, or the even one on a tie
    one_in = uin ^ win
    f = s + (one_in & win | ~one_in & ~closer)
    # f + (tp10 or sp10 - f), whichever multiple of ten alone is in the interval: wraps back exactly
    return f + (upin ^ wpin) * (sp10 - f + wpin * np.uint64(10)), k


def _chars(values, normal) -> tuple[np.ndarray, np.ndarray]:
    """The ``(m, _CHARS)`` character table and each value's template row; a value not normal gets any row."""
    bits = values.view(np.uint64)
    f, k = _shortest(bits * normal + ~normal * _ONE_BITS)
    short = f < 10 ** 16
    f += f * np.uint64(9) * short  # the significant digits, left-aligned in 17 places
    decpt = k + 17 - short  # the value is 0.d1d2... 10^decpt
    quads, trailing_zeros = _quads()
    words = np.empty((len(values), _CHARS // 4), dtype=np.uint32)
    high, low = (part.astype(np.uint32) for part in _divmod(f, 10 ** 8))
    first, high = _divmod(high, 10 ** 8)
    groups = [*_divmod(high, 10_000), *_divmod(low, 10_000)]
    words[:, 0] = quads.take(first)
    for col, group in enumerate(groups, start=1):
        words[:, col] = quads.take(group)
    e = decpt - 1
    words[:, 5] = quads.take(np.abs(e))
    words[:, 6] = _TAIL
    table = words.view(np.uint8)
    table[:, _EXP_SIGN] = (e < 0) * (ord("-") - ord("+")) + ord("+")
    table[:, _EXP_100] *= table[:, _EXP_100] != ord("0")  # e-05, not e-005
    table[:, _SIGN] = (bits >> 63) * ord("-")
    # trailing zeros of the 16 digits after the first: of a group, plus the next group's on
    # to the left while the group is all zeros (4 of them)
    zeros = trailing_zeros.take(groups[0])
    for group in groups[1:]:
        tz = trailing_zeros.take(group)
        zeros = tz + (tz == 4) * zeros
    layout = (decpt + 4) * ((decpt > -4) & (decpt <= 16))
    return table, 21 * (16 - zeros) + layout


def repr_cells(values) -> np.ndarray:
    """``repr`` of every value of a float64 array with NUL padding, shape ``values.shape + (width,)``.

    The width, at most ``WIDTH``, is the longest text's.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    out = np.zeros((len(flat), WIDTH), dtype=np.uint8)
    columns, lengths, bases = _templates()
    width = 0
    for start in range(0, len(flat), PASS_VALUES):
        part = flat[start:start + PASS_VALUES]
        exp_bits = (part.view(np.uint64) >> 52) & 0x7FF
        normal = (exp_bits != 0) & (exp_bits != 0x7FF)
        table, row = _chars(part, normal)
        w = int(lengths.take(row).max())
        for at in range(0, len(part), _GATHER_ROWS):
            index = np.take(columns[:, :w], row[at:at + _GATHER_ROWS], axis=0)
            index += bases[:len(index), :w]
            out[start + at:start + at + len(index), :w] = np.take(table[at:].ravel(), index, mode="clip")
        for i in np.flatnonzero(~normal).tolist():  # zero, subnormal, inf, nan
            text = repr(float(part[i])).encode()
            out[start + i] = 0
            out[start + i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
            w = max(w, len(text))
        width = max(width, w)
    return out[:, :width].reshape(np.shape(values) + (width,))
