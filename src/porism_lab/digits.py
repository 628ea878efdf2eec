"""Exact decimal printing of float arrays, byte for byte as ``%`` prints
each float.

``groups`` holds the 4-byte digit groups of 0..9999 in the forms the
printers gather: ``svg`` prints its coordinates as ``%.4f`` from them, and
``csv_cells`` prints the cells of a CSV table as ``'%.17g'``.  Each
printer fills one fixed-width record per number, NUL where a character is
absent, and ``bytes.translate`` then drops the NULs.

``%.17g`` rounds the exact binary value |v| to 17 significant digits,
half to even: with e = floor(log10 |v|) and k = 16 - e, the digits are
the integer N nearest to T = |v| 10^k, which lies in [10^16, 10^17).  For
e in [-28, 16], so 0 <= k <= 44, ``_powers`` holds 10^k as C + C_tail:
C = fl(10^k) and C_tail = 10^k - C, itself a double since 5^k < 2^106
(it is 0 for k <= 22, where 10^k is a double).  Dekker's product
(Veltkamp's split, no FMA), exact for doubles without overflow or
underflow, gives |v| C = p + q exactly, so

    T = p + q + |v| C_tail,   |v| C_tail <= T 2^-53 < 12.

p lies within 20 of T, so it is an even integer (p > 2^53), and |q| <= 8.
s = q + fl(|v| C_tail), summed in floats, is within 2^-48 of T - p, and
where s is not within 2^-44 of a half-integer (``_NEAR``) the integer
nearest to T - p is rint(s), so N = p + rint(s); as p is even, rint's
tie rule is never what decides.  For k <= 22, s = q = T - p exactly, so
only an exact tie is that near.

The e from ``log10`` may be one too large or too small next to a power of
ten.  T > 10^16 - 0.04 holds wherever e is right, and where e is one too
large it leaves only T in (10^16 - 0.04, 10^16), whose digits at e - 1
round up to 10^17; N <= 10^17 holds wherever e is right, and where e is
one too small, T < 10^17 + 1/2 rounds to the same 10^17.  So both bounds
keep exactly the cells they print right, and N = 10^17 prints as 10^16
at exponent e + 1.  A near-tie, a T outside those bounds, an e outside
[-28, 16], an infinity and a NaN print by ``%``, one cell at a time; a
zero prints from N = 0.

The layout is C's ``%g`` with precision 17: with X the exponent after
rounding, fixed notation for -4 <= X < 17 and exponent notation
(``e-05``, at least two exponent digits) otherwise, trailing zeros of
the fraction and a bare point dropped, and a ``-`` for every negative
value and for -0.0.  A record (``_records``) is four little-endian
words: the sign, the ``0.`` and zeros that lead a fixed value below 1 and
the leading digit; the other 16 digits, zero-padded before the point and
trailing-NUL after it, with the point inserted after X of them (the
digits after it shifted up a byte); the 17th byte of that zone, the
exponent and the separator.  The per-exponent parts come from one small
table (``_layout``).  A skipped cell's record is all NUL, so that only its
separator prints: an empty field.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

_FILL = "\x01"  # marks a cell that ``%`` prints
_BLOCK = 1 << 13  # cells printed at a time, so a table's temporaries stay small
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's factor for 53-bit doubles
_NEAR = 0.5 - 2.0 ** -44
_E_MIN, _E_MAX = -28, 16


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = hi + lo, each with at most 26 significant bits."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10^k for k = 0..44 as C + C_tail, C = fl(10^k) and C_tail the exact
    rest (0 for k <= 22), with C's split: four rows of 45 doubles."""
    c = np.array([float(10 ** k) for k in range(45)])
    tail = np.array([float(10 ** k - int(f)) for k, f in enumerate(c.tolist())])
    rows = (c, *_split(c), tail)
    for row in rows:
        row.flags.writeable = False
    return rows


@functools.cache
def groups() -> np.ndarray:
    """The 4-byte digit groups of 0..9999 as read-only uint32 rows: the
    leading-NUL group that keeps the units digit, the zero-padded group,
    the trailing-NUL group (all NUL for 0), and the leading-NUL group that
    is all NUL for 0."""
    i = np.arange(10 ** 4, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (i // place % 10 + ord("0")).astype(np.uint8)
    low = np.where(i < place * (place > 1), 0, digits)
    trail = np.where(i % (place * 10) == 0, 0, digits)
    high = np.where(i < place, 0, digits)
    table = np.stack([low, digits, trail, high]).view(np.uint32)[..., 0]
    table.flags.writeable = False
    return table


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """Per printed exponent X, from _E_MIN to _E_MAX + 1 (reached only by
    rounding up), a row of nine little-endian words: the record's head,
    with "0." and up to three zeros at bytes 1-5 for a fixed value below 1;
    its tail, with the exponent at bytes 1-4 in exponent notation; the
    masks of the 16 zone bytes before and from the point (two words each);
    and the point at its byte of the 17-byte zone (three words).  The point
    follows X zone digits in fixed notation, the first in exponent
    notation, and is in the head below 1.  Then the tail's separators, ","
    and a newline at byte 5."""
    x = np.arange(_E_MIN, _E_MAX + 2)
    fixed = (x >= -4) & (x < 17)
    below = fixed & (x < 0)
    at = np.where(fixed, x, 0)
    at[below] = -1
    table = np.zeros((len(x), 9), "<u8")
    table[:, 0] = np.array([b"\0" + b"0." + b"0" * (-e - 1) for e in x.tolist()], "S8").view("<u8")
    table[~below, 0] = 0
    table[:, 1] = np.array([b"\0" + b"e%+03d" % e for e in x.tolist()], "S8").view("<u8")
    table[fixed, 1] = 0
    before = np.arange(16) < at[:, None]
    table[:, 2:6] = (np.hstack([before, ~before]) * 0xFF).astype(np.uint8).view("<u8")
    table[:, 6:] = ((np.arange(24) == at[:, None]) * ord(".")).astype(np.uint8).view("<u8")
    separators = np.array([ord(","), ord("\n")], "<u8") << np.uint64(40)
    for array in (table, separators):
        array.flags.writeable = False
    return table, separators


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N, the 17 digits of each |v| as an int64, the row of its printed
    exponent X in the table of ``_layout``, and the mask of the cells so
    printed, zeros included; every other cell has N = 0 and the row of
    X = 0."""
    with np.errstate(all="ignore"):  # log10(0), and inf and NaN, masked out below
        a = np.abs(v)
        e = np.floor(np.log10(a))
        ok = (e >= _E_MIN) & (e <= _E_MAX)
        k = np.where(ok, 16 - e, 0).astype(np.intp)
        c, c_hi, c_lo, tail = (row.take(k) for row in _powers())
        p = a * c
        a_hi, a_lo = _split(a)
        s = a_hi * c_hi - p
        s += a_hi * c_lo
        s += a_lo * c_hi
        s += a_lo * c_lo
        s += a * tail
        r = np.rint(s)
        n = p.astype(np.int64) + r.astype(np.int64)
    ok &= np.abs(s - r) < _NEAR
    ok &= (p - 1e16) + s > -0.04
    ok &= n <= 10 ** 17
    up = n == 10 ** 17
    n -= up * (9 * 10 ** 16)
    n *= ok
    x = np.where(ok, (16 - _E_MIN) - k + up, -_E_MIN)
    return n, x, ok | (v == 0.0)


def _records(v: np.ndarray, n: np.ndarray, x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The record of each cell, four little-endian words: the head (sign,
    the "0.000" of a fixed value below 1, the leading digit or _FILL at
    byte 6), the 16 other digits with the point among them (two words),
    and the tail (the 17th zone byte, the exponent, and the separator slot
    at byte 5).  Absent characters are NUL."""
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    g = np.empty((len(n), 4), np.intp)  # the flat index of each zero-padded group
    g[:, 0] = hi // 10 ** 4
    g[:, 1] = hi - g[:, 0] * 10 ** 4
    g[:, 2] = lo // 10 ** 4
    g[:, 3] = lo - g[:, 2] * 10 ** 4
    g += 10 ** 4
    table = groups().ravel()
    digits = table.take(g).view("<u8")
    # A group with no digit after it takes its trailing-NUL form.
    g[:, 3] += 10 ** 4
    g[:, 2] += (g[:, 3] == 2 * 10 ** 4) * 10 ** 4
    last = lo == 0
    g[:, 1] += last * 10 ** 4
    g[:, 0] += (last & (g[:, 1] == 2 * 10 ** 4)) * 10 ** 4
    stripped = table.take(g).view("<u8")
    layout = _layout()[0].take(x, axis=0)
    right0 = stripped[:, 0] & layout[:, 4]
    right1 = stripped[:, 1] & layout[:, 5]
    point = (right0 | right1) != 0
    rec = np.empty((len(n), 4), "<u8")
    rec[:, 0] = layout[:, 0] | (np.signbit(v) & ok) * np.uint64(ord("-"))
    rec[:, 0] |= (lead + 1 + (ord("0") - 1) * ok).astype("<u8") << np.uint64(48)
    rec[:, 1] = digits[:, 0] & layout[:, 2]
    rec[:, 1] |= right0 << np.uint64(8)
    rec[:, 1] |= layout[:, 6] * point
    rec[:, 2] = digits[:, 1] & layout[:, 3]
    rec[:, 2] |= right1 << np.uint64(8)
    rec[:, 2] |= right0 >> np.uint64(56)
    rec[:, 2] |= layout[:, 7] * point
    rec[:, 3] = layout[:, 1] | (right1 >> np.uint64(56)) | layout[:, 8] * point
    return rec


def csv_cells(values: np.ndarray, ends: np.ndarray, skip: np.ndarray | None = None
              ) -> Iterator[str]:
    """The CSV text of the flat float64 array ``values``, a block of cells
    at a time: each cell ``'%.17g' % cell``, or nothing where the bool
    array ``skip`` is True; each followed by a newline where ``ends`` marks
    the last cell of a row, by "," otherwise."""
    for start in range(0, len(values), _BLOCK):
        v = values[start:start + _BLOCK]
        n, x, ok = _round17(v)
        rec = _records(v, n, x, ok)
        if skip is not None:
            cut = skip[start:start + _BLOCK]
            rec[cut] = 0  # only the separator prints
            ok |= cut
        rec[:, 3] |= _layout()[1].take(ends[start:start + _BLOCK])
        text = rec.tobytes().translate(None, b"\0").decode()
        marked = v[~ok].tolist()
        if marked:
            text = text.replace(_FILL, "%s") % tuple("%.17g" % c for c in marked)
        yield text
