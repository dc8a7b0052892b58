"""``repr`` text of whole float64 arrays: Dragonbox digits in uint64 arithmetic.

``repr_cells(values)`` gives, for every float64 value, exactly the bytes
``repr`` gives it, in a row of at most ``WIDTH`` bytes with NUL in the
places the value does not use (the sign of a positive value, the end of the
row).  A CSV line built from such rows drops its NUL bytes in one
compaction.

The digits are Dragonbox's (J. Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020; Schubfach and Ryu find the
same ones): the shortest decimal in the value's rounding interval and, of
those, the one closest to the value, the even one on a tie.  That is what
Python's ``repr`` prints.  For a value ``fc 2^e`` the cache entry
``⌈10^k 2^(127 - ⌊log2 10^k⌋)⌉``, k = 2 - ⌊e log10 2⌋, scales the interval
to about 10^18; the entry, β and δ below are looked up by the biased
exponent, in tables built on first use.  Then:

- the main case makes one 64 x 128-bit product, ``(2 fc + 1) 2^β`` times
  the entry: its top 64 bits are the scaled right endpoint, and the 64 bits
  below them tell an integer; the interval's half-width δ is a shift of the
  entry's high word.  Dividing the endpoint by 1000 gives 15-16 digits if
  the remainder is below δ, else one more digit from the remainder;
- a second, parity-only product runs only on the ``np.flatnonzero``
  subset of values whose remainder equals δ, or whose extra digit may be
  one too high or a tie (the remainder's distance divisible by 100);
- a power of two above the smallest normal has an interval twice as wide
  below as above.  Its digits depend on the exponent alone, so they are
  read from a table that Dragonbox's shift-only endpoint formulas fill.

Dragonbox proves that these integer steps give the exact digits for every
binary64 value: the 128-bit entry carries enough bits that the product's
dropped low 64 bits cannot move the endpoint's integer part or its integer
test, and where the scaled values alone cannot decide (the remainder equal
to δ, a distance divisible by 100) the parity product reads the deciding
bits exactly.  The products are built from 32-bit limbs (``_mul_high``), so
every step is an integer operation on uint64 arrays.  Python's layout rules
then apply: an exponent, written ``e%+03d``, iff decpt <= -4 or decpt > 16;
``0.000ddd`` below 1; ``.0`` after an integer.  Each (layout, digit count)
pair is one column template over a per-value table of characters, so the
layout is one gather.  Zero, subnormals, infinities and NaN take ``repr``
one value at a time.

Every uint64 operation runs on arrays, 1-element ones included: array
arithmetic wraps silently, where numpy scalar overflow warns.  The integer
arithmetic is exact, so the text is ``repr``'s at every numpy SIMD dispatch
level.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per formatting pass: the uint64 work arrays of a pass stay below 1 MB.
PASS_VALUES = 8192

WIDTH = 24  # "-" + 17 digits + "." + "e-308"

_K_MIN, _K_MAX = -292, 326  # the cache's decimal exponents: k of every normal float64
_MASK_32 = (1 << 32) - 1
_MASK_52 = (1 << 52) - 1

# The characters of a value that the templates gather from, 28 bytes in seven
# words: "000" and the 17 significant digits, the exponent's sign and its three
# digits (NUL for a leading zero), then the value's sign, ".", "e" and NUL.  A
# pass's table holds them word by word: word j of value i is (j, i) of a
# (7, PASS_VALUES) uint32 array, so that each word is written contiguously.
_ZERO, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1, _SIGN, _DOT, _E, _NUL = 0, *range(20, 28)
_WORDS = 7
_TAILS = np.frombuffer(b"\0.e\0-.e\0", dtype=np.uint32)  # the last word of a value >= 0, and of one < 0
_DECPT_MIN, _DECPT_MAX = -308, 309  # the decimal point positions of the normal float64 range
_GATHER_ROWS = 1024  # rows per gather: its int32 index stays below 100 kB


def _flog2pow10(k):
    """floor(log2(10^k)) for |k| <= 1_650."""
    return (k * 1_741_647) >> 19


@functools.cache
def _cache() -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's cache: ⌈10^k 2^(127 - ⌊log2 10^k⌋)⌉ for k in [-292, 326], as high and low 64-bit words."""
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - _flog2pow10(k)
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        words.append(-(-num // den))
    return (np.array([w >> 64 for w in words], dtype=np.uint64),
            np.array([w & ((1 << 64) - 1) for w in words], dtype=np.uint64))


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """What the digits need of each biased exponent E, as arrays indexed by E.

    ``(β, limbs of the cache entry's high word, limbs of its low word, its
    high word, δ, δ/2 - 50, the main case's decimal exponent, the power of
    two's 16-17 digits, their decimal exponent)``.  E = 0 and 2047, which no
    normal value has, repeat E = 1 and 2046.
    """
    e = np.clip(np.arange(2048), 1, 2046) - 1075  # value = fc 2^e
    cache_high, cache_low = _cache()
    # The main case: k = 2 - floor(log10 2^e), so the digits come out as f 10^floor(log10 2^e).
    k_main = (e * 315_653) >> 20
    k = 2 - k_main
    beta = (e + _flog2pow10(k)).astype(np.uint64)
    high, low = cache_high.take(k - _K_MIN), cache_low.take(k - _K_MIN)
    delta = high >> (np.uint64(63) - beta)
    # The shorter interval of fc = 2^52: its endpoints and its centre rounded up are shifts of the
    # cache entry's high word, exact for binary64 (Dragonbox's shorter-interval case).
    k_short = (e * 631_305 - 261_663) >> 21  # floor(log10 (3/4) 2^e)
    shift = (11 - e - _flog2pow10(-k_short)).astype(np.uint64)
    entry = cache_high.take(-k_short - _K_MIN)
    left = (entry - (entry >> 54)) >> shift
    right = (entry + (entry >> 53)) >> shift
    left += 1  # the first integer above the left endpoint, which is an integer only at 2^54 and 2^55,
    # where taking the endpoint itself changes no digit
    tens = right // 10 * 10
    centre = ((entry >> (shift - np.uint64(1))) + 1) >> 1
    tie = (e == -77) & (centre & 1 == 1)  # the centre lies halfway between two integers only at 2^-25
    centre = np.where(tie, centre - 1, centre + (centre < left))
    f_short = np.where(tens >= left, tens, centre)
    return (beta, *_limbs(high), *_limbs(low), high, delta, (delta >> 1) - 50, k_main, f_short, k_short)


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999, one uint32 each in memory order, and for each of the four
    groups after the first digit, from the left, the template row part ``21 (n - 1)`` of the n digits
    that end in the group (0 for 0000: the digits end further left)."""
    text = [b"%04d" % i for i in range(10_000)]
    ends = np.array([len(digits.rstrip(b"0")) for digits in text], dtype=np.int16)
    tails = np.array([21 * (4 * j + ends) * (ends > 0) for j in range(4)], dtype=np.int16)
    return np.frombuffer(b"".join(text), dtype=np.uint32), tails


@functools.cache
def _exponents() -> tuple[np.ndarray, np.ndarray]:
    """For each decimal point position decpt in [_DECPT_MIN, _DECPT_MAX]: the uint32 of the exponent
    ``e%+d`` of decpt - 1, its hundreds NUL when 0, and the template class (0 exponent, else decpt + 4)."""
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    text = b"".join(b"%c%03d" % (b"-+"[e >= 0], abs(e)) for e in (decpt - 1).tolist())
    exponents = np.frombuffer(text, dtype=np.uint8).reshape(-1, 4).copy()
    exponents[exponents[:, 1] == ord("0"), 1] = 0  # e-05, not e-005
    layouts = (decpt + 4) * ((decpt > -4) & (decpt <= 16))
    return exponents.view(np.uint32).ravel(), layouts.astype(np.int16)


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
    digits in class c (0 exponent, else decpt + 4), of ``lengths`` places, as byte offsets into a
    pass's character table; bases holds each gather row's offset."""
    rows = [_layout(decpt, n) for n in range(1, 18) for decpt in [17, *range(-3, 17)]]
    chars = np.array([row + [_NUL] * (WIDTH - len(row)) for row in rows], dtype=np.int32)
    columns = chars // 4 * (4 * PASS_VALUES) + chars % 4
    bases = np.repeat(np.arange(_GATHER_ROWS, dtype=np.int32) * 4, WIDTH).reshape(_GATHER_ROWS, WIDTH)
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


def _parity(two_f, field):
    """Dragonbox's parity product: of ``two_f 2^(e - 1) 10^k``, scaled by the cache entry as z is, the
    parity of the integer part and whether it is an integer."""
    beta, _, _, low_lo, low_hi, high, *_ = _exponent_tables()
    beta = beta.take(field)
    middle = two_f * high.take(field) + _mul_high(_limbs(two_f), (low_lo.take(field), low_hi.take(field)))
    low = two_f * (low_hi.take(field) << 32 | low_lo.take(field))
    point = np.uint64(64) - beta
    return (middle >> point) & 1 == 1, ((middle << beta) | (low >> point)) == 0


def _shortest(bits, field):
    """``(f, k)``: the shortest-closest decimal ``f 10^k`` of normal float64 ``bits`` of exponent field
    ``field``, f of 16-17 digits."""
    beta, high_lo, high_hi, low_lo, low_hi, high, delta, offset, k_main, f_short, k_short = _exponent_tables()
    fc = bits & _MASK_52
    fc |= 1 << 52
    u = fc << 1
    u |= 1
    u <<= beta.take(field)
    u_limbs = _limbs(u)
    # (2 fc + 1) 2^β times the cache entry, over 2^128: z, the right endpoint's integer part, and
    # middle, the 64 bits below it (0: the endpoint is an integer)
    carry = _mul_high(u_limbs, (low_lo.take(field), low_hi.take(field)))
    z = _mul_high(u_limbs, (high_lo.take(field), high_hi.take(field)))
    middle = u
    middle *= high.take(field)
    middle += carry
    z += middle < carry
    s, r = _divmod(z, 1000)
    # An odd fc's interval is open: an integer endpoint is out, and s moves down (r = 1000).
    at = np.flatnonzero(r == 0)
    at = at[(middle[at] == 0) & (fc[at] & 1 == 1)]
    s[at] -= 1
    r[at] = 1000
    # Below δ, 10 s is the answer; above it, one digit more.  longer's top bit says which.
    d = delta.take(field)
    longer = d - r
    at = np.flatnonzero(longer == 0)  # on δ the left endpoint decides, by the fraction's parity
    if len(at):
        parity, integer = _parity((fc[at] << 1) - 1, field[at])
        longer[at] = (~(parity | (integer & (fc[at] & 1 == 0)))).astype(np.uint64) << 63
    longer = (longer.view(np.int64) >> 63).view(np.uint64)  # all ones: one digit more
    dist = r - offset.take(field)  # r - δ/2 + 50
    digit, rest = _divmod(dist, 100)
    digit &= longer
    f = s * 10
    f += digit
    # dist divisible by 100: the digit may be one too high, or tie with the one below
    rest |= ~longer
    at = np.flatnonzero(rest == 0)
    if len(at):
        parity, integer = _parity(fc[at] << 1, field[at])
        down = (parity != (dist[at] & 1 == 1)) | (integer & (f[at] & 1 == 1))
        f[at] -= down
    k = k_main.take(field)
    # the powers of two above the smallest normal
    at = np.flatnonzero(fc == 1 << 52)
    at = at[field[at] > 1]
    f[at] = f_short.take(field[at])
    k[at] = k_short.take(field[at])
    return f, k


def _chars(values, field) -> tuple[np.ndarray, np.ndarray]:
    """The ``(7, PASS_VALUES)`` uint32 character table of the values and each one's template row, given
    their exponent fields as intp; a value not normal gets any row."""
    bits = values.view(np.uint64)
    f, k = _shortest(bits, field)
    short = (f - 10 ** 16) >> 63  # 1: 16 digits
    f += f * np.uint64(9) * short  # the significant digits, left-aligned in 17 places
    decpt = k - short.view(np.int64)
    decpt += 17 - _DECPT_MIN  # the value is 0.d1d2... 10^decpt: its row of the exponent tables
    quads, tails = _quads()
    exponents, layouts = _exponents()
    words = np.empty((_WORDS, PASS_VALUES), dtype=np.uint32)
    high, low = _divmod(f, 10 ** 8)
    first, high = _divmod(high, 10 ** 8)
    groups = [g.view(np.intp) for g in (*_divmod(high, 10_000), *_divmod(low, 10_000))]
    n = len(values)
    words[0, :n] = quads.take(first.view(np.intp))
    for col, group in enumerate(groups, start=1):
        words[col, :n] = quads.take(group)
    words[5, :n] = exponents.take(decpt)
    positive, negative = _TAILS.tolist()
    tail = bits >> 63
    tail *= negative - positive
    tail += positive
    words[6, :n] = tail
    # the digit count sets the row: of the four groups, the first from the right not all zeros
    row = layouts.take(decpt)
    row += np.maximum(np.maximum(tails[0].take(groups[0]), tails[1].take(groups[1])),
                      np.maximum(tails[2].take(groups[2]), tails[3].take(groups[3])))
    return words, row


def repr_cells(values) -> np.ndarray:
    """``repr`` of every value of a float64 array with NUL padding, shape ``values.shape + (width,)``.

    The width, at most ``WIDTH``, is the longest text's.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    out = np.empty((len(flat), WIDTH), dtype=np.uint8)
    columns, lengths, bases = _templates()
    width = 0
    for start in range(0, len(flat), PASS_VALUES):
        part = flat[start:start + PASS_VALUES]
        field = ((part.view(np.uint64) >> 52) & 0x7FF).view(np.intp)  # an intp index takes without a cast
        normal = (field != 0) & (field != 0x7FF)
        table, row = _chars(part, field)
        chars = table.view(np.uint8).ravel()
        w = int(lengths.take(row).max())
        for at in range(0, len(part), _GATHER_ROWS):
            index = np.take(columns[:, :w], row[at:at + _GATHER_ROWS], axis=0)
            index += bases[:len(index), :w]
            out[start + at:start + at + len(index), :w] = np.take(chars[4 * at:], index, mode="clip")
        out[start:start + len(part), w:] = 0
        for i in np.flatnonzero(~normal).tolist():  # zero, subnormal, inf, nan
            text = repr(float(part[i])).encode()
            out[start + i] = 0
            out[start + i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
            w = max(w, len(text))
        width = max(width, w)
    return out[:, :width].reshape(np.shape(values) + (width,))
