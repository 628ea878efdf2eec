"""The CSV printer (``digits.csv_cells`` behind ``report.format_csv``)
against ``'%.17g' % v``, cell by cell: hypothesis floats and raw bit
patterns; the values its rules are about (17-digit ties, near-ties where
the exponent's power of ten has a tail, the neighbours of powers of ten,
where the rounding reaches the next power or ``log10`` misjudges the
exponent, and the edges of fixed notation); zeros, subnormals, infinities
and NaN; and tables of str and None cells with 0 rows, 1 row or 1 column,
of rows of several lengths, and of more cells than one block."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porism_lab import digits, report
from porism_lab.report import LabConfig, format_csv


def _oracle(header, rows):
    """The CSV text, every cell by ``%``."""
    return "".join(",".join(v if isinstance(v, str) else "" if v is None else "%.17g" % v
                            for v in row) + "\n" for row in [header, *rows])


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


@pytest.mark.parametrize("rows", [
    [],
    [[1.5]],
    [[1.0 / 3.0], [None], ["x"], [-0.0]],
    [[0.1, None, "a", 2, True, -1e-300, math.nan, math.inf, 1e-5]],
    [[0.5, 1.0], [], [2.0], [None, None, None], ["", "s"]],
], ids=["no_rows", "one_cell", "one_column", "one_row", "rows_of_several_lengths"])
def test_format_csv_of_str_and_none_cells(rows):
    header = ["t", "q"]
    assert format_csv(header, rows) == _oracle(header, rows)


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (6, 1)])
def test_format_csv_of_arrays_with_skips(shape):
    rng = np.random.default_rng(shape[0])
    values = 10.0 ** rng.uniform(-32, 19, shape) * rng.choice([-1.0, 1.0], shape)
    held = rng.random(shape) < 0.7
    rows = [[v if h else None for v, h in zip(row, mask)] for row, mask in zip(values.tolist(), held)]
    header = ["t", "q", "r"][:shape[1]]
    assert format_csv(header, values, held) == _oracle(header, rows)
    assert format_csv(header, values) == _oracle(header, values.tolist())


@given(st.lists(st.one_of(st.floats(), st.none(), st.sampled_from(["", "x", "1.50"])),
                min_size=0, max_size=40), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_format_csv_of_any_list_table(cells, width):
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    assert format_csv(["a"], rows) == _oracle(["a"], rows)


def test_tables_larger_than_a_block(monkeypatch):
    # Fallback cells, skips and row ends fall on both sides of a block edge.
    monkeypatch.setattr(digits, "_BLOCK", 7)
    rng = np.random.default_rng(39)
    rows = (10.0 ** rng.uniform(-35, 20, (9, 5))).tolist()
    rows[1][1:4] = [None, math.nan, 1234567890123456.25]
    rows[2][0], rows[5][4] = "s", math.inf
    assert format_csv(["h"], rows) == _oracle(["h"], rows)
    values = np.array([[np.nan if v is None or isinstance(v, str) else v for v in row]
                       for row in rows])
    held = np.array([[v is not None and not isinstance(v, str) for v in row] for row in rows])
    assert format_csv(["h"], values, held) == _oracle(["h"], [
        [v if h else None for v, h in zip(row, mask)] for row, mask in zip(rows, held)])


@pytest.mark.parametrize("rho, n", [(0.2, 24), (0.36266, 180), (0.0047559, 48)])
def test_sweep_arrays_print_as_the_list_table(rho, n):
    lab = LabConfig(r=rho, t_samples=n)
    names = list(report.SWEEP_QUANTITIES)
    header, rows, skips = report.run_sweep(lab, names)
    text = format_csv(*report.sweep_arrays(lab, names)[:3])
    assert text == format_csv(header, rows) == _oracle(header, rows)
    assert any(v is None for row in rows for v in row) == bool(skips)
