"""The CSV printer (``digits.csv_cells`` behind ``report.format_csv``)
against ``'%.17g' % v``, cell by cell: hypothesis floats and raw bit
patterns; the values its rules are about (17-digit ties, near-ties where
the exponent's power of ten has a tail, the neighbours of powers of ten,
where the rounding reaches the next power or ``log10`` misjudges the
exponent, and the edges of fixed notation); zeros, subnormals, infinities
and NaN; and tables with a ``held`` mask whose cells not held print as
empty fields: of 0 to 5 columns and any rows, of dtypes other than
float64, of more cells than one block, and every column of a sweep."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from porism_lab import digits, report
from porism_lab.report import LabConfig, format_csv


def _oracle(header, rows):
    """The CSV text, every cell by ``%``, a None cell as an empty field."""
    return "".join([",".join(header) + "\n", *(
        ",".join("" if v is None else "%.17g" % v for v in row) + "\n" for row in rows)])


def _rows(values, held):
    """The rows of the table ``values``, None where ``held`` is False."""
    return [[v if h else None for v, h in zip(row, mask)]
            for row, mask in zip(values.tolist(), held.tolist())]


def _column(values):
    """Each value of ``values`` printed by the pass, as one column."""
    v = np.array(values, float)
    return "".join(digits.csv_cells(v, np.ones(len(v), bool))).split("\n")[:-1]


def _check(values):
    values = [float(v) for v in values]
    assert _column(values) == ["%.17g" % v for v in values]
    assert _column([-v for v in values]) == ["%.17g" % -v for v in values]


def _near_ties(k: int, count: int = 6) -> list[float]:
    """Doubles a = m 2^-(j + k) whose exact a 10^k = m 5^k / 2^j lies in
    [10^16, 10^17) within 2^-48 of a half-integer without being one: m 5^k
    is 2^(j - 1) + d modulo 2^j with 0 < |d| < 2^(j - 48).  For k > 22 the
    pass's sum rounds there, so only its near-tie rule decides them right."""
    found = []
    for j in range(49, 100):
        inverse = pow(5 ** k, -1, 2 ** j)
        for d in range(1, min(2 ** (j - 48), 1 << 12)):
            for offset in (d, -d):
                m = (2 ** (j - 1) + offset) * inverse % 2 ** j
                m += (2 ** 52 - m + 2 ** j - 1) // 2 ** j * 2 ** j  # the least m >= 2^52
                if m < 2 ** 53 and 10 ** 16 <= Fraction(m * 5 ** k, 2 ** j) < 10 ** 17:
                    found.append(math.ldexp(m, -j - k))
                    if len(found) == count:
                        return found
    return found


_SPECIAL = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
            1e-29, 1e-28, 1.7976931348623157e308, 1e300, math.inf, math.nan,
            0.1, 0.5, 1.5, 2.5, 1.0, 10.0, 123.0, 1e16, 2e16, 1e17, 1e22, 1e23, 2.0 ** 60]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=60))
@example([1e-4, 1e-5, 9.9999999999999999e16, 99999999999999999.0])
@settings(max_examples=300, deadline=None)
def test_floats_print_as_percent(values):
    _check(values)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
@example([0x8000000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 1])
@settings(max_examples=300, deadline=None)
def test_bit_patterns_print_as_percent(patterns):
    values = struct.unpack(f"<{len(patterns)}d", struct.pack(f"<{len(patterns)}Q", *patterns))
    assert _column(values) == ["%.17g" % v for v in values]


def test_ties_print_as_percent():
    # 17-digit ties (18 significant digits ending in 5), rounded half to even,
    # and exact values of 17 digits, 1234567890123456.5 among them.
    ties = [1234567890123456.25, 1234567890123456.75, 1234567890123456.5, 3 * 2.0 ** -24,
            2.0 ** -24, 5 * 2.0 ** -25, 0.5, 2.5, 2.0 ** 54 + 2, 2.0 ** 56 + 8]
    near = [a for k in range(23, 29) for a in _near_ties(k)]
    assert len(near) == 36
    _check(ties + near)


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-30, 18):
        p = 10.0 ** k
        values += [p, math.nextafter(p, 0), math.nextafter(p, math.inf)]
    for p in (1e16, 1e17, 1e-4, 1e-5):
        below = above = p
        for _ in range(4):
            below, above = math.nextafter(below, 0), math.nextafter(above, math.inf)
            values += [below, above]
    _check(values)


def test_zeros_subnormals_and_non_finite_values():
    _check(_SPECIAL)
    assert _column([-0.0, 0.0, -math.inf, -math.nan]) == ["-0", "0", "-inf", "%.17g" % -math.nan]


@st.composite
def _tables(draw):
    """A float64 table of 0 to 5 columns, every float possible in a cell,
    and a random ``held`` mask of its shape."""
    shape = draw(st.integers(0, 8)), draw(st.integers(0, 5))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(), fill=st.nothing()))
    return values, draw(hnp.arrays(bool, shape))


@given(_tables())
@example((np.array([[-0.0, 5e-324, math.nan], [math.inf, -math.inf, 1e-310]]),
          np.array([[True, True, False], [True, True, True]])))
@settings(max_examples=200, deadline=None)
def test_format_csv_of_any_float_table(table):
    values, held = table
    header = [f"c{i}" for i in range(values.shape[1])]
    assert format_csv(header, values, held) == _oracle(header, _rows(values, held))
    assert format_csv(header, values) == _oracle(header, values.tolist())


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32, np.int64])
@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (6, 1)])
def test_format_csv_of_arrays_with_skips(shape, dtype):
    # A table that is not float64 prints as '%.17g' prints each cell, which
    # is its nearest double.
    rng = np.random.default_rng(shape[0])
    if dtype == np.int64:
        values = rng.integers(-2 ** 62, 2 ** 62, shape)
    else:
        values = (10.0 ** rng.uniform(-32, 19, shape) * rng.choice([-1.0, 1.0], shape)
                  ).astype(dtype) / 3
    held = rng.random(shape) < 0.7
    header = ["t", "q", "r"][:shape[1]]
    assert format_csv(header, values, held) == _oracle(header, _rows(values, held))
    assert format_csv(header, values) == _oracle(header, values.tolist())


def test_format_csv_of_a_long_double():
    assert format_csv(["a"], np.array([[0.1]], np.longdouble)) == "a\n0.10000000000000001\n"


def test_tables_larger_than_a_block(monkeypatch):
    # 45 cells in blocks of 7: rows end at cells 14 and 34, the first and
    # the last cell of a block, and skips and '%' cells (NaN, infinities, a
    # 17-digit tie, 1e17 and a value below 1e-28) lie on both sides of
    # block edges.
    monkeypatch.setattr(digits, "_BLOCK", 7)
    rng = np.random.default_rng(39)
    values = 10.0 ** rng.uniform(-35, 20, (9, 5))
    flat = values.reshape(-1)
    flat[[6, 7, 13, 20, 21, 27, 28]] = [math.nan, 1234567890123456.25, math.inf, -1e-300,
                                        1e17, -math.inf, math.nan]
    held = np.ones(values.shape, bool)
    held.reshape(-1)[[6, 14, 20, 22, 34, 35]] = False
    header = ["a", "b", "c", "d", "e"]
    assert format_csv(header, values, held) == _oracle(header, _rows(values, held))
    assert format_csv(header, values) == _oracle(header, values.tolist())


@pytest.mark.parametrize("rho, n", [(0.2, 24), (0.36266, 180), (0.0047559, 48)])
def test_sweep_tables_print_as_percent(rho, n):
    header, values, held, skips = report.run_sweep(LabConfig(r=rho, t_samples=n),
                                                   list(report.SWEEP_QUANTITIES))
    assert format_csv(header, values, held) == _oracle(header, _rows(values, held))
    assert np.count_nonzero(~held) == len(skips)
