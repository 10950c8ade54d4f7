"""Float64 tables spelled as CSV lines in whole-array passes.

``repr_lines(table)`` returns the same text as ``%r`` applied value by
value: each value spelled as Python's ``repr`` spells it, with the
shortest decimal digits that read back as the same double and, among
those, the closest to it.

The digits follow from an exact product. A value x with
1e-4 <= |x| < 1e16 prints without an exponent; scaled by 10^k with k
between 1 and 20, a power of ten that float64 holds exactly, it becomes a
17-digit P = |x| 10^k, which Dekker's two-product holds exactly as the sum
of two doubles. Each decimal that reads back as x lies strictly within h
of P in the same scale, where h is half the unit in the last place of x
times 10^k, between 0.55 and 11.1 when x's significand is not a power of
two. So the shortest digits are those of the multiple of 100 nearest P
when it lies within h (it is then the only one, and no wider multiple of
a power of ten can lie closer), else of the nearest multiple of 10 when it
does, else of the integer nearest P, which always does; trailing zeros
are dropped.

Each value is laid out as a 40-byte field of five little-endian uint64
words, ORed together from lookup tables, with NUL bytes where a character
is left out, and one ``bytes.translate`` deletes the NULs:

====== =================================================================
byte   content
====== =================================================================
0      ``-`` for a negative value
1-2    ``0.`` when |x| < 1
3-5    the zeros between ``0.`` and the first digit
6+2j   digit j of the 17 (j = 0 to 16), NUL for a dropped trailing zero
7+2j   ``.`` after the last digit of the whole part
====== =================================================================

``repr`` itself spells, one at a time, every value the passes cannot
decide exactly: NaN, infinities and zeros, values that print with an
exponent, power-of-two significands (their rounding interval is
asymmetric), a 17-digit integer outside [10^16, 10^17), and any
comparison within ``_TOL`` of a tie or of the interval's ends. Its
strings also fit a 40-byte field.
"""

from __future__ import annotations

import functools

import numpy as np

#: Digits held by the scaled integer P.
_DIGITS = 17
#: Distances from P closer than this to a tie or to h are left to ``repr``;
#: P and h are exact, and the distances carry rounding errors near 1e-14.
_TOL = 1e-9
#: The powers of ten 10^0 to 10^20, each exact in float64.
_POW10 = np.array([float(10**k) for k in range(21)])
#: Veltkamp's splitter 2^27 + 1, for the exact product.
_SPLIT = 134217729.0
#: A spelled value: five words of characters and NULs, then its separator.
_FIELD = np.dtype([("text", "<u8", (5,)), ("sep", "u1")])


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables, built on first use so that import does not pay for
    them: the uint64 digit words of every 4-digit group 0 to 9999 at bytes
    0, 2, 4 and 6, first as they are and then with trailing zeros left out,
    and for each decimal point position from -3 to 16 the five words of
    its ``0.``, its zeros and its ``.``, and of the ``0`` characters it
    needs at the digits of the whole part and at the first fraction digit
    (ORed onto a digit character, ``0`` leaves it as it is)."""
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.cumsum(groups[:, ::-1], axis=1)[:, ::-1] > 0  # before the trailing zeros
    digits = np.zeros((2, 10000, 8), dtype=np.uint8)
    digits[:, :, 0::2] = groups + ord("0")
    digits[1, :, 0::2] *= kept
    points = np.zeros((20, 40), dtype=np.uint8)
    for row, decpt in enumerate(range(-3, _DIGITS)):
        if decpt <= 0:
            points[row, 1:3] = np.frombuffer(b"0.", dtype=np.uint8)
            points[row, 3:3 - decpt] = ord("0")
        else:
            points[row, 5 + 2 * decpt] = ord(".")
            points[row, 6:8 + 2 * decpt:2] = ord("0")
    tables = digits.view("<u8").reshape(20000), points.view("<u8")
    for table in tables:
        table.flags.writeable = False
    return tables


def _exact_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: ``(p, e)`` with p = fl(a b) and p + e = a b
    exactly, for products that neither overflow nor underflow."""
    p = a * b
    a_hi = _SPLIT * a - (_SPLIT * a - a)
    b_hi = _SPLIT * b - (_SPLIT * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``a`` = |x|: the shortest round-trip digits as a 17-digit
    integer N, the decimal point position (|x| = 0.N 10^decpt), and where
    the passes decide them exactly. Elsewhere N and decpt are placeholders,
    decpt still within [-3, 16]."""
    mantissa, exponent = np.frexp(a)
    exact = (a >= 1e-4) & (a < 1e16) & (mantissa != 0.5)
    a = np.where(exact, a, 1.5)
    k = np.clip(_DIGITS - 1 - np.floor(np.log10(a)).astype(np.int64), 1, 20)
    scale = _POW10.take(k)
    p, e = _exact_product(a, scale)
    # P = p + e is outside [1e16, 1e17) only where log10 rounded across a
    # power of ten; p, above 2^53, is an integer
    exact &= (p >= 1e16) & (p < 1e17) & ((p > 1e16) | (e >= 0.0))
    half_ulp = np.ldexp(scale, exponent - 54)  # a has 53 bits below 2^exponent
    whole = p.astype(np.int64)
    rest = whole % 100
    offset = rest + e  # P less the multiple of 100 at or below p
    # the nearest integer always lies within half_ulp, the wider ones may
    chosen = np.floor(offset + 0.5)
    exact &= np.abs(np.abs(offset - chosen) - 0.5) > _TOL
    for step in (10.0, 100.0):
        wider = step * np.floor(offset / step + 0.5)
        dist = np.abs(offset - wider)
        inside = dist < half_ulp - _TOL
        exact &= np.abs(dist - half_ulp) > _TOL
        exact &= ~inside | (np.abs(dist - 0.5 * step) > _TOL)
        chosen = np.where(inside, wider, chosen)
    digits = whole - rest + chosen.astype(np.int64)
    exact &= digits < 10**_DIGITS
    return digits, _DIGITS - k, exact


def _fields(flat: np.ndarray) -> np.ndarray:
    """The ``_FIELD`` of each value of ``flat``, separator left unset."""
    digits, decpt, exact = _shortest(np.abs(flat))
    group_words, point_words = _tables()
    point_row = decpt + 3
    fields = np.empty(flat.size, dtype=_FIELD)
    text = fields["text"]
    # words 4 to 1 hold the 4-digit groups from the last; a group followed
    # by zeros alone loses its trailing zeros
    rest, group = np.divmod(digits, 10000)
    zeros_follow = np.ones(flat.size, dtype=bool)
    for word in range(4, 0, -1):
        text[:, word] = group_words.take(group + 10000 * zeros_follow)
        text[:, word] |= point_words[:, word].take(point_row)
        zeros_follow &= group == 0
        rest, group = np.divmod(rest, 10000)
    # group now holds the first digit, never a zero
    text[:, 0] = (group + ord("0")).astype(np.uint64) << np.uint64(48)
    text[:, 0] |= point_words[:, 0].take(point_row)
    text[:, 0] |= np.signbit(flat) * np.uint64(ord("-"))
    slow = np.flatnonzero(~exact)
    if slow.size:
        spelled = [repr(v) for v in flat[slow].tolist()]
        text[slow] = np.array(spelled, dtype="S40").view("<u8").reshape(-1, 5)
    return fields


def repr_lines(table: np.ndarray) -> str:
    """The rows of a 2-D float64 array as lines of comma-separated ``repr``
    text, each line ending in a newline."""
    width = table.shape[1]
    # _fields returns first, so its digit arrays are freed before the
    # bytes are copied out; that keeps a 4,096-row block near 1.2 MB
    fields = _fields(np.ascontiguousarray(table, dtype=np.float64).ravel())
    fields["sep"] = ord(",")
    fields["sep"][width - 1::width] = ord("\n")
    return fields.tobytes().translate(None, b"\0").decode("ascii")
