"""Plane-geometry primitives: points, lines, circles, conics in matrix form,
and canonicalization of central conics.

Conics are stored as symmetric 3x3 quadratic forms M with
[x y 1] M [x y 1]^T = 0, normalized so the largest-magnitude entry is 1.
All values are immutable and all operations are pure functions.

Functions ending in ``_batch`` are the array twins of the scalar API, used by
the measurement pass over a whole t-sweep: points are arrays of shape
(..., 2), lines (..., 3) rows (a, b, c), triangles (n, 3, 2) vertex stacks
and conics ``ConicBatch`` coefficient rows.

A formula both twins evaluate is written once, as a private core of
arithmetic and the functions it is passed (``math.hypot`` by the scalar
twin, ``np.hypot`` by the batched one): here ``_center_solve`` and
``_eigenvalues``.  Each twin keeps its own checks (where the scalar twin
raises, the batched one makes the same check on all samples at once through
a ``PassLog``, which raises for the lowest failing sample) and its own
data-dependent branches.  The scalar rank tests compare singular values;
the batched ones call ``rank_test_batch``, a certified filter that decides
them as the SVD does from the 3x3 minors it returns, and runs the SVD only
near the threshold.  The norms that filter computes also give every row a
condition estimate (``condition_estimate_batch``), so the largest condition
number of a set of stacks (``max_condition_batch``) needs the SVD only of
the rows that can hold it.  The ``canonicalize`` twins share their names
and their one major/transverse-axis selection; the scalar one branches
where the batched one masks, and divides by the eigenvector norm only once
it is known not to vanish.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateConic,
    DegenerateTriangle,
    NotCentral,
    ParallelLines,
    PassLog,
)

# Scale-free degeneracy thresholds (see module tests for the rationale:
# comparisons are made after max-entry / longest-side normalization).
DEGENERACY_EPS = 1e-12

# Relative axis difference below which a conic counts as circular and its
# canonical angle is pinned to 0.
CIRCULAR_EPS = 1e-9


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def distance_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.hypot(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])


def midpoint(p: Point, q: Point) -> Point:
    return Point(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))


@dataclass(frozen=True)
class Line:
    """Locus a*x + b*y + c = 0, stored with a^2 + b^2 = 1 and the first
    nonzero of (a, b) positive."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.a, self.b)
        if n == 0.0:
            raise ValueError("line with zero normal")
        a, b, c = self.a / n, self.b / n, self.c / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def eval(self, p: Point) -> float:
        """Signed distance of p from the line (coefficients are unit-normal)."""
        return self.a * p.x + self.b * p.y + self.c

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def line_through(p: Point, q: Point) -> Line:
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def line_batch(a, b, c) -> np.ndarray:
    """Rows (a, b, c) normalized like ``Line``; the coefficients broadcast."""
    a, b, c = np.broadcast_arrays(a, b, c)
    n = np.hypot(a, b)
    a, b, c = a / n, b / n, c / n
    sign = np.where((a < 0.0) | ((a == 0.0) & (b < 0.0)), -1.0, 1.0)
    return np.stack([a * sign, b * sign, c * sign], axis=-1)


def line_through_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return line_batch(p[..., 1] - q[..., 1], q[..., 0] - p[..., 0],
                      p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1])


def line_intersection(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) < DEGENERACY_EPS:
        raise ParallelLines(f"lines {l1} and {l2} are (nearly) parallel")
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def line_intersection_batch(l1: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection points and the mask of the pairs that meet; the scalar
    twin raises ParallelLines where the mask is false."""
    a1, b1, c1 = l1[..., 0], l1[..., 1], l1[..., 2]
    a2, b2, c2 = l2[..., 0], l2[..., 1], l2[..., 2]
    det = a1 * b2 - a2 * b1
    x = (b1 * c2 - b2 * c1) / det
    y = (a2 * c1 - a1 * c2) / det
    return np.stack([x, y], axis=-1), np.abs(det) >= DEGENERACY_EPS


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


def power_of_point(p: Point, circle: Circle) -> float:
    """|p - center|^2 - radius^2; zero exactly on the circle."""
    dx, dy = p.x - circle.center.x, p.y - circle.center.y
    return dx * dx + dy * dy - circle.radius * circle.radius


class ConicKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    DEGENERATE_LINES = "degenerate_lines"
    EMPTY = "empty"


@dataclass(frozen=True, eq=False)
class ConicMatrix:
    """Symmetric 3x3 quadratic form, scale fixed by max-entry normalization.

    ``cond`` optionally carries the condition number of the linear system the
    matrix was solved from.  Reports do not read it: they take the batched
    estimate of ``max_condition_batch``, and ``cond`` is the oracle the
    batched tests compare that estimate against.
    """

    m: np.ndarray
    cond: float | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"conic matrix must be 3x3, got {m.shape}")
        top = np.abs(m).max()
        if not math.isfinite(top):
            raise DegenerateConic("conic matrix is not finite")
        if top == 0.0:
            raise ValueError("zero conic matrix")
        if np.abs(m - m.T).max() > 1e-9 * top:
            raise ValueError("conic matrix must be symmetric")
        m = 0.5 * (m + m.T) / top
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @classmethod
    def from_coeffs(cls, A: float, B: float, C: float, D: float, E: float,
                    F: float, cond: float | None = None) -> "ConicMatrix":
        """Build from A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0."""
        return cls(np.array([[A, B, D], [B, C, E], [D, E, F]]), cond)

    @functools.cached_property
    def sv(self) -> np.ndarray:
        """Singular values, largest first, computed once for all rank tests."""
        return np.linalg.svd(self.m, compute_uv=False)


#: Coefficient row (A, B, C, D, E, F) of each entry of the 3x3 matrix,
#: row by row.
_MATRIX_ENTRIES = np.array([0, 1, 3, 1, 2, 4, 3, 4, 5])


def _normalized(c: np.ndarray) -> np.ndarray:
    """Coefficient rows (k, n) with each column divided by its largest
    magnitude."""
    return c / np.abs(c).max(axis=0)


@dataclass(frozen=True, eq=False)
class ConicBatch:
    """A stack of n conics A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0, held
    as the (6, n) coefficient rows ``c`` = (A, B, C, D, E, F), one column per
    conic.  Their makers scale each column so that its largest coefficient
    has magnitude 1 (``_normalized``): the max-entry normalization of
    ``ConicMatrix``, since the largest entry of the matrix is the largest
    coefficient.  ``m`` derives the (n, 3, 3) matrix stack from them.

    A stack whose first conics are circumconics also carries, for those,
    the (k, 3, 4) incidence rows they were solved from and their condition
    estimates ``kappa`` (``condition_estimate_batch`` of the norms its rank
    filter computed, NaN where not certified); ``max_condition_batch``
    takes the exact largest condition number from them, with an SVD of the
    few rows that can hold it."""

    c: np.ndarray
    rows: np.ndarray | None = None
    kappa: np.ndarray | None = None

    @property
    def m(self) -> np.ndarray:
        return np.take(self.c, _MATRIX_ENTRIES, axis=0).T.reshape(-1, 3, 3)

    @functools.cached_property
    def rank_test(self) -> np.ndarray:
        """The sign of ``rank_test_batch`` of the matrices, computed once
        for all the rank tests made on the stack."""
        return rank_test_batch(np.take(self.c, _MATRIX_ENTRIES, axis=0))[0]


def singular_values_batch(a: np.ndarray) -> np.ndarray:
    """One stacked SVD over a (n, k, l) stack.  A row holding a non-finite
    entry (such as a sample outside the rows of a partial stage) gets NaN
    instead of failing the whole stack."""
    ok = np.isfinite(a).all(axis=(1, 2))
    sv = np.full((a.shape[0], min(a.shape[1:])), np.nan)
    if ok.any():
        sv[ok] = np.linalg.svd(a[ok], compute_uv=False)
    return sv


_U = 2.0 ** -53  # unit roundoff of float64
# Relative margin of the filter's decisions: it covers the SVD's own error,
# |computed - exact| <= p u sigma_max with p up to about 100 (a relative
# 100 u / 1e-12 = 1.1% at the threshold), and the relative rounding of the
# norms and products below (a few dozen u).
_RANK_MARGIN = 1.0 / 32
# Products of three entries of a matrix of Frobenius norm <= 2^100 neither
# overflow nor lose more than _UNDERFLOW to underflow, all terms together.
_FILTER_MAX_NORM = 2.0 ** 100
_UNDERFLOW = 2.0 ** -900


def _minor_index(k: int):
    """Index arrays into the entries of a 3 x k matrix, flattened row by
    row: the products a[r, i] a[s, j] and a[r, j] a[s, i] of every 2x2 minor
    (rows r < s, columns i < j; those of rows 0, 1 first), and for every 3x3
    minor (columns i < j < l) its row-2 entries and the positions of the
    row-(0, 1) minors of columns (j, l), (i, l), (i, j)."""
    pairs = list(itertools.combinations(range(k), 2))
    products = [(r * k + i, s * k + j, r * k + j, s * k + i)
                for r, s in ((0, 1), (0, 2), (1, 2)) for i, j in pairs]
    triples = list(itertools.combinations(range(k), 3))
    pos = [(pairs.index((j, l)), pairs.index((i, l)), pairs.index((i, j))) for i, j, l in triples]
    return np.array(products).T, 2 * k + np.array(triples), np.array(pos)


_MINOR_INDEX = {k: _minor_index(k) for k in (3, 4)}


def rank_test_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The rank test sigma_min > 1e-12 sigma_max of every matrix of a
    stack of n 3 x k matrices, k = 3 or 4, decided as
    ``singular_values_batch`` decides it, and the minors and norms it is
    decided from.  The stack comes entry-major, as the (3k, n) array ``x``
    whose row e holds entry e of every matrix, entries numbered row by row.
    Returns the sign of sigma_min - 1e-12 sigma_max (int8, 0 for a matrix
    with a non-finite entry); the (1, n) determinants, or for k = 4 the
    (4, n) minors of columns (012, 013, 023, 123), each its Laplace
    expansion along row 2; and the norms (F, P, D) below, each of shape
    (n,), from which ``condition_estimate_batch`` estimates every matrix's
    condition number.

    A certified filter brackets sigma_3 / sigma_1 within a factor of 3:
    sigma_1 sigma_2 sigma_3 is the norm D of the 3x3 minors (the determinant,
    or Cauchy-Binet for k = 4), sigma_1 sigma_2 lies in [P/sqrt 3, P] for the
    norm P of the 2x2 minors (the second compound), and sigma_1 in
    [F/sqrt 3, F] for the Frobenius norm F, so that the ratio lies in
    [D/(P F), 3 D/(P F)].  D and P are widened by rounding bounds on the
    minors, as in Shewchuk's static filters: 3 u (|p| + |q|) per 2x2 minor
    p - q and 6 u of the absolute Laplace terms per 3x3 minor.  The SVD runs
    only on the rows that the widened bracket, with ``_RANK_MARGIN``, leaves
    undecided: a ratio within about [1e-12/3, 3e-12], minors that cancel
    to their rounding bound (nearly rank 1), F above ``_FILTER_MAX_NORM``,
    or a non-finite entry.  The filter runs in passes over blocks of
    columns (``_FILTER_ENTRIES``), which decide each column as one pass
    would; the SVD runs once, on the open rows of every pass.
    """
    k = len(x) // 3
    step = _FILTER_ENTRIES // _MINOR_INDEX[k][0].shape[1]  # columns per pass
    passes = [_filter(np.ascontiguousarray(x[:, i:i + step]), k)
              for i in range(0, max(x.shape[1], 1), step)]
    full, deficient, minors3, F, P, D = (np.concatenate(part, axis=-1) for part in zip(*passes))
    sign = full.astype(np.int8) - deficient
    open_rows = ~(full | deficient)
    if open_rows.any():
        sv = singular_values_batch(x[:, open_rows].T.reshape(-1, 3, k))
        sign[open_rows] = ((sv[:, -1] > DEGENERACY_EPS * sv[:, 0]).astype(np.int8)
                           - (sv[:, -1] < DEGENERACY_EPS * sv[:, 0]))
    return sign, minors3, (F, P, D)


# Entries per 2x2-minor temporary of one pass of the filter, which splits a
# long stack into passes over as many columns, so that its temporaries stay
# small.  Of 2^13 to 2^15, 2^14 gave the fastest 720-sample verify; one pass
# per stack made it about 10% slower.
_FILTER_ENTRIES = 2 ** 14


def _filter(x: np.ndarray, k: int) -> tuple:
    """The filter of ``rank_test_batch`` on the columns of ``x``: its full-rank
    and rank-deficient decisions, 3x3 minors and norms (F, P, D)."""
    products, row2, pos = _MINOR_INDEX[k]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are left open
        # Gathers by np.take, of a contiguous x, a few times faster here than
        # indexing with an array; products and absolute values in place, each temporary
        # dropped once used: fresh temporaries take about half the time at
        # n = 720, and the peak memory of a stack of several systems per
        # sample grows with each one kept.
        p = np.take(x, products[0], axis=0)
        p *= np.take(x, products[1], axis=0)
        q = np.take(x, products[2], axis=0)
        q *= np.take(x, products[3], axis=0)
        minors2 = p - q
        abs2 = np.abs(p, out=p)
        abs2 += np.abs(q, out=q)
        del q
        x2 = np.take(x, row2, axis=0)
        laplace = np.take(minors2, pos, axis=0)
        laplace *= x2
        minors3 = laplace[:, 0] - laplace[:, 1] + laplace[:, 2]
        del laplace
        F = np.sqrt(np.einsum("ij,ij->j", x, x))
        P = np.sqrt(np.einsum("ij,ij->j", minors2, minors2))
        D = np.sqrt(np.einsum("ij,ij->j", minors3, minors3))
        del minors2
        e_P = 3.0 * _U * abs2.sum(axis=0) + _UNDERFLOW
        x2 = np.abs(x2, out=x2)
        x2 *= np.take(abs2, pos, axis=0)
        e_D = 6.0 * _U * x2.sum(axis=(0, 1)) + _UNDERFLOW
        in_range = F <= _FILTER_MAX_NORM
        full = in_range & (D - e_D > DEGENERACY_EPS * (1.0 + _RANK_MARGIN) * (P + e_P) * F)
        deficient = in_range & (3.0 * (D + e_D)
                                < DEGENERACY_EPS * (1.0 - _RANK_MARGIN) * (P - e_P) * F)
    return full, deficient, minors3, F, P, D


# A certified condition estimate is within this relative error of the exact
# condition number (see ``condition_estimate_batch``).
_KAPPA_ERROR = 2.0 ** -12
# Bound on how far the rounding of x^2, y^2 and of the closed form move the
# normalized cubic near its largest root (38 u from the inputs, the rest
# for the closed form).
_CUBIC_ERROR = 64 * _U


def condition_estimate_batch(F: np.ndarray, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """An estimate of sigma_max / sigma_min for every row, from the norms
    (F, P, D) that ``rank_test_batch`` returns for a stack of 3 x k
    matrices, and
    without an SVD.  It is NaN where it is not certified to lie within
    ``_KAPPA_ERROR`` = 2^-12 (relative) of the exact condition number of
    the floating-point matrix, which includes every non-finite row.

    By Cauchy-Binet, F^2, P^2 and D^2 are the elementary symmetric functions
    of sigma_1^2 >= sigma_2^2 >= sigma_3^2, the roots of
    lam^3 - F^2 lam^2 + P^2 lam - D^2 (Horn and Johnson, *Matrix Analysis*,
    0.8, on compound matrices).  Scaled by F^2 the roots lam_i sum to 1 and
    the cubic is g(lam) = lam^3 - lam^2 + x^2 lam - y^2, x = P/F^2,
    y = D/F^3.  The largest root lam_1 has a trigonometric closed form.  The
    smallest one is found without cancellation as the smaller root of
    mu^2 - s mu + p, where p = lam_2 lam_3 = y^2/lam_1 and
    s = lam_2 + lam_3 = (x^2 - p)/lam_1, taken as 2p / (s + sqrt(s^2 - 4p)).
    The estimate is sqrt(lam_1 / lam_3).

    Error bound, to first order in u = 2^-53.  The filter's rounding bounds
    give |P - P_exact| <= 12 u F^2 and |D - D_exact| <= 9.3 u F^3 (the
    absolute Laplace terms of the 3x3 minors sum to at most (4/3)^1.5 F^3).
    So x^2 and y^2 carry relative errors e_x <= 24u/x + 55u and
    e_y <= 19u/y + 59u:

    - lam_1: these and the closed form move g by at most 64u near lam_1,
      and g(lam_1 + h) = g' h + g'' h^2/2 + h^3 there, so lam_1 moves by at
      most h_1 = min(64u/g', sqrt(128u/g''), (64u)^(1/3)), a relative
      e_1 = h_1/lam_1;
    - p and s: relative errors d_p <= e_y + e_1 + 2u and
      d_s <= 1.5 e_x + 0.5 e_y + 1.5 e_1 + 3u (p <= x^2/3, so x^2 - p does
      not cancel);
    - lam_3: s^2 - 4p moves by at most W = s^2 (2 d_s + d_p + d_s^2 + 6u),
      its square root by at most min(sqrt W, W / sqrt(s^2 - 4p)) (a pair
      lam_2 = lam_3 is the square-root case), and lam_3 by a relative
      e_3 <= d_p + d_s + min(...)/s.

    The estimate is therefore within beta = (e_1 + e_3)/2 + 4u of the exact
    condition number.  It is NaN where beta > 2^-12, or where F lies outside
    [2^-100, 2^100], where products of entries could under- or overflow.
    Since e_y <= 2 beta, a certified row has condition number at most
    F^3/D <= 2^42/19 = 2.3e11, below the rank threshold 1/DEGENERACY_EPS.
    Nearly rank-1 rows and near-triple clusters are left uncertified.  On
    random stacks with chosen singular values (clustered, nearly rank 1,
    up to kappa = 1e11), against 60-digit mpmath, the error stays within
    0.09 beta.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = P / (F * F)
        y = D / (F * F * F)
        b, c = x * x, y * y
        t = 1.0 - 3.0 * b
        r = np.sqrt(np.maximum(t, 0.0))
        cos3 = np.clip((2.0 - 9.0 * b + 27.0 * c) / (2.0 * t * r), -1.0, 1.0)
        lam1 = (1.0 + np.where(r > 0.0, 2.0 * r * np.cos(np.arccos(cos3) / 3.0), 0.0)) / 3.0
        p = c / lam1
        s = (b - p) / lam1
        root = np.sqrt(np.maximum(s * s - 4.0 * p, 0.0))
        kappa = np.sqrt(lam1 * (s + root) / (2.0 * p))

        e_x = 24.0 * _U / x + 55.0 * _U
        e_y = 19.0 * _U / y + 59.0 * _U
        g1 = (3.0 * lam1 - 2.0) * lam1 + b
        g2 = 6.0 * lam1 - 2.0
        h1 = np.minimum(np.minimum(_CUBIC_ERROR / np.maximum(g1, 0.0),
                                   np.sqrt(2.0 * _CUBIC_ERROR / np.maximum(g2, 0.0))),
                        np.cbrt(_CUBIC_ERROR))
        e_1 = h1 / lam1
        d_p = e_y + e_1 + 2.0 * _U
        d_s = 1.5 * e_x + 0.5 * e_y + 1.5 * e_1 + 3.0 * _U
        W = s * s * (2.0 * d_s + d_p + d_s * d_s + 6.0 * _U)
        e_3 = d_p + d_s + np.minimum(np.sqrt(W), W / root) / s
        beta = 0.5 * (e_1 + e_3) + 4.0 * _U
        certified = ((beta <= _KAPPA_ERROR) & (F >= 1.0 / _FILTER_MAX_NORM)
                     & (F <= _FILTER_MAX_NORM))
    return np.where(certified, kappa, np.nan)


def max_condition_batch(rows: list[np.ndarray], kappa: list[np.ndarray]) -> float:
    """The largest sigma_max / sigma_min, as ``singular_values_batch``
    gives it, over the rows of (n_i, 3, k) stacks, with the estimates
    ``kappa`` of ``condition_estimate_batch``.  One stacked SVD runs, over
    the candidate rows only: those whose estimate is NaN or at least
    (1 - m) kappa_max, with kappa_max the largest estimate and
    m = 2^-10 + 256 u kappa_max.  The result is bit for bit the maximum over
    every row: numpy's stacked SVD calls LAPACK once per matrix, so a row
    gives the same singular values in any subset.  A non-finite row has a
    NaN estimate, so its NaN ratio propagates as through ``np.max``.

    The margin covers both errors.  LAPACK's singular values satisfy
    |computed - exact| <= p u sigma_1 (*LAPACK Users' Guide*, 4.9), p up to
    about 100 here, so a ratio r computed for a matrix of condition number
    kappa <= 2.3e11 is within e <= 101 u (kappa + 1) of it, relative; a
    certified estimate is within beta <= 2^-12.  Let i be a row with the
    largest estimate and j a row with r_j >= r_i.  Then
    kappa_j >= r_j / (1 + e_j) >= (1 - e_i) kappa_i / (1 + e_j), so
    estimate_j / kappa_max >= 1 - 2 beta - e_i - e_j
    >= 1 - 2^-11 - 203 u (kappa_max + 1) > 1 - m: row j is a candidate, and
    so is the row of the largest ratio.  At ``LabConfig()`` a verify
    sends 26 of its 3600 circumconic rows to the SVD.
    """
    rows, kappa = np.concatenate(rows), np.concatenate(kappa)
    top = np.max(kappa, initial=0.0, where=np.isfinite(kappa))
    candidate = ~(kappa < (1.0 - 2.0 ** -10 - 256 * _U * top) * top)
    sv = singular_values_batch(rows[candidate])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(sv[:, 0] / sv[:, -1]))


def _conic_eval(c, x, y):
    """[x y 1] M [x y 1]^T of the conic of coefficients c = (A, B, C, D, E,
    F), summed as the product (v M) v; arithmetic only, for floats and
    arrays."""
    A, B, C, D, E, F = c
    return ((x * A + y * B + D) * x + (x * B + y * C + E) * y) + (x * D + y * E + F)


def conic_eval(conic: ConicMatrix, p: Point) -> float:
    """[x y 1] M [x y 1]^T under the stored normalization."""
    # The entries of the matrix at the coefficients (A, B, C, D, E, F).
    return float(_conic_eval(conic.m.flat[[0, 1, 4, 2, 5, 8]], p.x, p.y))


def conic_eval_batch(conic: ConicBatch, p: np.ndarray) -> np.ndarray:
    """``conic_eval`` of every conic at its point."""
    return _conic_eval(conic.c, p[:, 0], p[:, 1])


@dataclass(frozen=True)
class CanonicalConic:
    """Center, rotation and semi-axes of a central conic.

    ``angle`` is the direction of the major (ellipse) or transverse
    (hyperbola) axis against +x, in (-pi/2, pi/2]; for a circle it is 0.
    For hyperbolas ``semi_major``/``semi_minor`` are the transverse/conjugate
    semi-axes regardless of which is numerically larger.
    """

    center: Point
    angle: float
    semi_major: float
    semi_minor: float
    kind: ConicKind


@dataclass(frozen=True, eq=False)
class CanonicalBatch:
    """Canonical forms of a conic stack: centers (n, 2) and per-sample angle
    and semi-axes as in ``CanonicalConic``.  ``hyperbola`` marks the
    hyperbolas; rank-deficient and empty conics have zero semi-axes."""

    center: np.ndarray
    angle: np.ndarray
    semi_major: np.ndarray
    semi_minor: np.ndarray
    hyperbola: np.ndarray

    def __getitem__(self, s: slice) -> "CanonicalBatch":
        """The canonical forms of the conics ``s`` of the stack, as views."""
        return CanonicalBatch(self.center[s], self.angle[s], self.semi_major[s],
                              self.semi_minor[s], self.hyperbola[s])


def _wrap_half_pi(angle: float) -> float:
    """Reduce an axis direction to (-pi/2, pi/2]."""
    a = math.fmod(angle, math.pi)
    if a <= -math.pi / 2:
        a += math.pi
    elif a > math.pi / 2:
        a -= math.pi
    return a


def _wrap_half_pi_batch(angle: np.ndarray) -> np.ndarray:
    a = np.fmod(angle, math.pi)
    return np.where(a <= -math.pi / 2, a + math.pi, np.where(a > math.pi / 2, a - math.pi, a))


def _angle_gap(x: np.ndarray, y: np.ndarray, period: float) -> np.ndarray:
    """Circular distance between two axis directions modulo period."""
    g = np.fmod(x - y, period)
    return np.abs(np.where(g > period / 2, g - period, np.where(g < -period / 2, g + period, g)))


def _center_solve(A, B, C, D, E, F, det2):
    """Center (cx, cy) of the quadratic block and the constant term f0 after
    translating it to the origin; arithmetic only, for floats and arrays."""
    cx = (B * E - C * D) / det2
    cy = (B * D - A * E) / det2
    # One refinement step keeps the center usable when the block is poorly
    # conditioned (thin ellipses far from the origin).
    rx = A * cx + B * cy + D
    ry = B * cx + C * cy + E
    cx = cx - (C * rx - B * ry) / det2
    cy = cy - (A * ry - B * rx) / det2
    # Constant term evaluated as the full quadratic: the gradient vanishes at
    # the center, so this form is second-order insensitive to center error
    # (unlike F + D cx + E cy).
    f0 = (A * cx + 2 * B * cy) * cx + C * cy * cy + 2 * (D * cx + E * cy) + F
    return cx, cy, f0


def _eigenvalues(A, B, C, hypot):
    """Eigenvalues lam1 <= lam2 of the symmetric block [[A, B], [B, C]]."""
    tr = A + C
    disc = hypot(A - C, 2.0 * B)
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def canonicalize(conic: ConicMatrix) -> CanonicalConic:
    """Extract center, axis rotation and semi-axes of a central conic.

    The center solves the vanishing-gradient system of the quadratic block;
    the rotation diagonalizes that block; semi-axes come from the reduced
    diagonal equation.  Raises NotCentral for parabolas and DegenerateConic
    when both the block and the full matrix are rank-deficient.
    """
    m = conic.m
    A, B, D = m[0, 0], m[0, 1], m[0, 2]
    C, E = m[1, 1], m[1, 2]
    F = m[2, 2]
    det2 = A * C - B * B
    # Degeneracy and centrality are judged on singular-value ratios: a plain
    # |det| threshold under max-entry normalization would misclassify thin
    # conics far from the origin, whose determinant is legitimately tiny.
    sv = conic.sv
    rank3_ok = sv[2] > DEGENERACY_EPS * sv[0]
    block_scale = max(abs(A), abs(C)) + abs(B)
    # <=, not <: a vanishing block (A = B = C = 0) is singular too.
    if abs(det2) <= DEGENERACY_EPS * block_scale * block_scale:
        if not rank3_ok:
            raise DegenerateConic(f"conic of rank < 3 (singular values {sv})")
        raise NotCentral("parabolic conic has no affine center")

    cx, cy, f0 = _center_solve(A, B, C, D, E, F, det2)

    # Closed-form symmetric 2x2 eigendecomposition.  Either of the two
    # algebraically equivalent eigenvector forms can cancel to zero; take
    # the larger one.
    lam1, lam2 = _eigenvalues(A, B, C, math.hypot)
    use_a = math.hypot(lam1 - C, B) >= math.hypot(B, lam1 - A)
    v1x, v1y = (lam1 - C, B) if use_a else (B, lam1 - A)
    n1 = math.hypot(v1x, v1y)
    if n1 < DEGENERACY_EPS * max(abs(A), abs(C), abs(B)):
        v1x, v1y = 1.0, 0.0  # repeated eigenvalue: any direction serves
    else:
        v1x, v1y = v1x / n1, v1y / n1

    if not rank3_ok:
        kind = ConicKind.DEGENERATE_LINES if det2 < 0 else ConicKind.EMPTY
        return CanonicalConic(Point(cx, cy), 0.0, 0.0, 0.0, kind)

    # lam1 u^2 + lam2 v^2 + f0 = 0  ->  semi-axis^2 = -f0 / lam
    q1 = -f0 / lam1
    q2 = -f0 / lam2
    ellipse = q1 > 0 and q2 > 0
    hyperbola = q1 * q2 < 0
    if not (ellipse or hyperbola):
        # Both quotients negative: no real points.
        return CanonicalConic(Point(cx, cy), 0.0, 0.0, 0.0, ConicKind.EMPTY)
    a1, a2 = math.sqrt(abs(q1)), math.sqrt(abs(q2))
    # Major (transverse) axis along v1, else along v2 = (-v1y, v1x).
    along_v1 = a1 >= a2 if ellipse else q1 > 0
    major, minor = (a1, a2) if along_v1 else (a2, a1)
    if ellipse and major - minor < CIRCULAR_EPS * major:
        angle = 0.0
    else:
        angle = _wrap_half_pi(math.atan2(v1y, v1x) if along_v1 else math.atan2(v1x, -v1y))
    kind = ConicKind.ELLIPSE if ellipse else ConicKind.HYPERBOLA
    return CanonicalConic(Point(cx, cy), angle, major, minor, kind)


def canonicalize_batch(conic: ConicBatch, log: PassLog) -> CanonicalBatch:
    """``canonicalize`` over a stack: the same rank test (decided by
    ``rank_test_batch``), center solve and refinement step, and closed-form
    2x2 eigendecomposition."""
    A, B, C, D, E, F = conic.c
    det2 = A * C - B * B
    rank3_ok = conic.rank_test > 0
    block_scale = np.maximum(np.abs(A), np.abs(C)) + np.abs(B)
    singular = np.abs(det2) <= DEGENERACY_EPS * block_scale * block_scale
    log.check(singular & ~rank3_ok, DegenerateConic, "conic of rank < 3")
    log.check(singular & rank3_ok, NotCentral, "parabolic conic has no affine center")

    cx, cy, f0 = _center_solve(A, B, C, D, E, F, det2)

    lam1, lam2 = _eigenvalues(A, B, C, np.hypot)
    use_a = np.hypot(lam1 - C, B) >= np.hypot(B, lam1 - A)
    v1x = np.where(use_a, lam1 - C, B)
    v1y = np.where(use_a, B, lam1 - A)
    n1 = np.hypot(v1x, v1y)
    repeated = n1 < DEGENERACY_EPS * np.maximum(np.maximum(np.abs(A), np.abs(C)), np.abs(B))
    v1x = np.where(repeated, 1.0, v1x / n1)
    v1y = np.where(repeated, 0.0, v1y / n1)

    q1 = -f0 / lam1
    q2 = -f0 / lam2
    ellipse = rank3_ok & (q1 > 0) & (q2 > 0)
    hyperbola = rank3_ok & (q1 * q2 < 0)
    a1, a2 = np.sqrt(np.abs(q1)), np.sqrt(np.abs(q2))
    # Major (transverse) axis along v1, else along v2 = (-v1y, v1x).
    along_v1 = np.where(ellipse, a1 >= a2, q1 > 0)
    major = np.where(along_v1, a1, a2)
    minor = np.where(along_v1, a2, a1)
    angle = _wrap_half_pi_batch(np.arctan2(np.where(along_v1, v1y, v1x),
                                          np.where(along_v1, v1x, -v1y)))
    real = ellipse | hyperbola
    circular = ellipse & (major - minor < CIRCULAR_EPS * major)
    return CanonicalBatch(np.stack([cx, cy], axis=-1),
                          np.where(real & ~circular, angle, 0.0),
                          np.where(real, major, 0.0), np.where(real, minor, 0.0),
                          hyperbola)


def conic_from_canonical(c: CanonicalConic) -> ConicMatrix:
    """Rebuild the quadratic form of an ellipse or hyperbola."""
    if c.kind not in (ConicKind.ELLIPSE, ConicKind.HYPERBOLA):
        raise DegenerateConic(f"cannot rebuild matrix for kind {c.kind}")
    s2 = 1.0 if c.kind is ConicKind.ELLIPSE else -1.0
    d1 = 1.0 / (c.semi_major * c.semi_major)
    d2 = s2 / (c.semi_minor * c.semi_minor)
    ca, sa = math.cos(c.angle), math.sin(c.angle)
    rot = np.array([[ca, -sa], [sa, ca]])
    block = rot @ np.diag([d1, d2]) @ rot.T
    ctr = np.array([c.center.x, c.center.y])
    lin = -block @ ctr
    const = ctr @ block @ ctr - 1.0
    m = np.zeros((3, 3))
    m[:2, :2] = block
    m[:2, 2] = lin
    m[2, :2] = lin
    m[2, 2] = const
    return ConicMatrix(m)


def tangency_residual(conic: ConicMatrix, line: Line) -> float:
    """Dual-form value L adj(M) L^T, normalized by the largest entry of
    adj(M); zero iff the line is tangent to the conic."""
    adj = _adjugate(conic.m)
    top = np.abs(adj).max()
    if top == 0.0:
        raise DegenerateConic("adjugate vanishes: conic has rank <= 1")
    v = line.as_array()
    return float(v @ adj @ v) / top


def _adjugate(m: np.ndarray) -> np.ndarray:
    """adj(M): column i holds the cofactors of row i, the cross product of
    the other two rows."""
    return np.stack([np.cross(m[1], m[2]), np.cross(m[2], m[0]), np.cross(m[0], m[1])], axis=1)


def foci(conic: CanonicalConic) -> tuple[Point, Point]:
    """Foci of an ellipse or hyperbola.

    A circle (axes equal within tolerance) returns its center twice rather
    than raising: the foci genuinely coincide there.
    """
    if conic.kind is ConicKind.ELLIPSE:
        gap = conic.semi_major ** 2 - conic.semi_minor ** 2
        if gap <= (CIRCULAR_EPS * conic.semi_major) ** 2:
            return conic.center, conic.center
        c = math.sqrt(gap)
    elif conic.kind is ConicKind.HYPERBOLA:
        c = math.hypot(conic.semi_major, conic.semi_minor)
    else:
        raise DegenerateConic(f"no foci for kind {conic.kind}")
    step = Point(c * math.cos(conic.angle), c * math.sin(conic.angle))
    return conic.center + step, conic.center - step


def foci_batch(conic: CanonicalBatch) -> tuple[np.ndarray, np.ndarray]:
    """Foci of every canonical form; rows with zero semi-axes (where the
    scalar twin raises) give the center twice."""
    gap = conic.semi_major ** 2 - conic.semi_minor ** 2
    circle = gap <= (CIRCULAR_EPS * conic.semi_major) ** 2
    c = np.where(conic.hyperbola, np.hypot(conic.semi_major, conic.semi_minor),
                 np.sqrt(np.where(circle, 0.0, gap)))
    step = np.stack([c * np.cos(conic.angle), c * np.sin(conic.angle)], axis=-1)
    return conic.center + step, conic.center - step


def _area2(p1, p2, p3):
    """Twice the signed area of the triangle p1 p2 p3, each an (x, y) pair
    of floats or of arrays."""
    return (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])


@dataclass(frozen=True)
class Triangle:
    """Three vertices in counter-clockwise order.

    Construction re-orders a clockwise input (swapping the last two vertices)
    and rejects triangles whose area is below 1e-12 * (longest side)^2.
    """

    v: tuple[Point, Point, Point]

    def __post_init__(self):
        p1, p2, p3 = self.v
        area2 = _area2((p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y))
        longest = max(distance(p1, p2), distance(p2, p3), distance(p3, p1))
        if abs(area2) < 2.0 * DEGENERACY_EPS * longest * longest:
            raise DegenerateTriangle(f"area {0.5 * area2:.3e} below threshold")
        if area2 < 0:
            object.__setattr__(self, "v", (p1, p3, p2))

    @property
    def signed_area(self) -> float:
        p1, p2, p3 = self.v
        return 0.5 * _area2((p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y))

    def side_line(self, i: int) -> Line:
        """Line of the side opposite vertex i."""
        return line_through(self.v[(i + 1) % 3], self.v[(i + 2) % 3])

    def perimeter(self) -> float:
        p1, p2, p3 = self.v
        return distance(p1, p2) + distance(p2, p3) + distance(p3, p1)


def triangle_batch(v: np.ndarray, log: PassLog) -> np.ndarray:
    """``Triangle`` over a vertex stack: a degenerate row raises through
    ``log`` and clockwise rows get their last two vertices swapped."""
    area2 = _area2(*v.transpose(1, 2, 0))
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    longest = np.maximum(np.maximum(distance_batch(p1, p2), distance_batch(p2, p3)),
                         distance_batch(p3, p1))
    log.check(np.abs(area2) < 2.0 * DEGENERACY_EPS * longest * longest,
              DegenerateTriangle, "triangle area below threshold")
    return np.where((area2 < 0)[:, None, None], v[:, [0, 2, 1]], v)


def signed_area_batch(v: np.ndarray) -> np.ndarray:
    return 0.5 * _area2(*v.transpose(1, 2, 0))


def side_lines_batch(v: np.ndarray) -> np.ndarray:
    """Lines of the sides opposite each vertex, shape (n, 3, 3)."""
    return line_through_batch(v[:, [1, 2, 0]], v[:, [2, 0, 1]])


def perimeter_batch(v: np.ndarray) -> np.ndarray:
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    return distance_batch(p1, p2) + distance_batch(p2, p3) + distance_batch(p3, p1)
