"""Plane-geometry primitives: points, lines, circles, conics in matrix form,
and canonicalization of central conics.

Conics are stored as symmetric 3x3 quadratic forms M with
[x y 1] M [x y 1]^T = 0, normalized so the largest-magnitude entry is 1.
All values are immutable and all operations are pure functions.

Functions ending in ``_batch`` are the array twins of the scalar API, used by
the measurement pass over a whole t-sweep: points are arrays of shape
(..., 2), lines (..., 3) rows (a, b, c), triangles (n, 3, 2) vertex stacks
and conics ``ConicBatch`` coefficient rows.

The twin rule, which the twins of every module follow, is this.  A formula
both twins evaluate is written once, as a private core that takes one
arithmetic namespace ``xp``: numpy itself from the batched twin, ``_MATH``
from the scalar one, which binds numpy's names to the ``math`` functions
and builtins on floats.  A core takes ``xp`` and nothing function-valued; a
twin keeps its checks (where the scalar twin raises, the batched one makes
the same check on all samples at once through a ``PassLog``, which raises
for the lowest failing sample), the steps that can raise in floats, and its
types.  Both twins decide their rank tests through the one certified
filter of ``rank`` (``rank_test`` for one matrix, ``rank_test_batch`` for a
stack), which this module imports with the package's degeneracy threshold
``DEGENERACY_EPS`` and the column blocking ``_blocks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateConic,
    DegenerateTriangle,
    NotCentral,
    ParallelLines,
    PassLog,
)
from .rank import _COLUMN_BLOCK, DEGENERACY_EPS, _blocks, rank_test, rank_test_batch

# Relative axis difference below which a conic counts as circular and its
# canonical angle is pinned to 0.
CIRCULAR_EPS = 1e-9


class _MATH:
    """The arithmetic namespace of the scalar twins: numpy's names for the
    ``math`` functions and builtins on floats (see the module docstring).
    A class, not an instance, because its attributes are looked up
    faster."""

    cos, sin, sqrt, hypot = math.cos, math.sin, math.sqrt, math.hypot
    arccos, arctan2, fmod = math.acos, math.atan2, math.fmod

    # The objects builtin max and min return for two floats, NaN and signed
    # zeros included, at a fraction of their call's cost.
    @staticmethod
    def maximum(x, y):
        return y if y > x else x

    @staticmethod
    def minimum(x, y):
        return y if y < x else x

    @staticmethod
    def where(c, x, y):
        return x if c else y


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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def distance_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.hypot(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])


def _stacked(*arrays) -> np.ndarray:
    """``np.stack(arrays, axis=-1)`` of arrays of one shape, filled into one
    new array without the stack's temporaries."""
    out = np.empty(np.shape(arrays[0]) + (len(arrays),))
    for i, a in enumerate(arrays):
        out[..., i] = a
    return out


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
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("line with zero normal")
        a, b, c = _unit_line(self.a, self.b, self.c, _MATH)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def eval(self, p: Point) -> float:
        """Signed distance of p from the line (coefficients are unit-normal)."""
        return self.a * p.x + self.b * p.y + self.c

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _unit_line(a, b, c, xp):
    """(a, b, c) divided by hypot(a, b), with the first nonzero of (a, b)
    made positive."""
    n = xp.hypot(a, b)
    a, b, c = a / n, b / n, c / n
    sign = xp.where((a < 0.0) | ((a == 0.0) & (b < 0.0)), -1.0, 1.0)
    return a * sign, b * sign, c * sign


def line_through(p: Point, q: Point) -> Line:
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def line_through_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows (a, b, c), normalized like ``Line``, of the lines through p and q."""
    return _stacked(*_unit_line(p[..., 1] - q[..., 1], q[..., 0] - p[..., 0],
                                p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1], np))


def _line_meet(l1, l2, xp):
    """Meet (x, y) of two lines (a, b, c) and whether they meet, that is are
    not (nearly) parallel.  Where they do not, x and y divide by 1, not by
    the determinant, so that no float division by zero can raise."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    meets = abs(det) >= DEGENERACY_EPS
    det = xp.where(meets, det, 1.0)
    return (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det, meets


def line_intersection(l1: Line, l2: Line) -> Point:
    x, y, meets = _line_meet((l1.a, l1.b, l1.c), (l2.a, l2.b, l2.c), _MATH)
    if not meets:
        raise ParallelLines(f"lines {l1} and {l2} are (nearly) parallel")
    return Point(x, y)


def line_intersection_batch(l1: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection points and the mask of the pairs that meet; the scalar
    twin raises ParallelLines where the mask is false."""
    x, y, meets = _line_meet(np.moveaxis(l1, -1, 0), np.moveaxis(l2, -1, 0), np)
    return _stacked(x, y), meets


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


class _first_read:
    """A read-only attribute that ``fn`` computes from the instance on first
    read and keeps in the instance's ``__dict__``, where later reads find it
    first: ``functools.cached_property`` without the lock that its first
    read takes on Python 3.11."""

    def __init__(self, fn, name: str | None = None):
        self.fn, self.name, self.__doc__ = fn, name or fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class ConicMatrix:
    """Symmetric 3x3 quadratic form, scale fixed by max-entry normalization.
    ``c`` holds its coefficients (A, B, C, D, E, F) as Python floats, set at
    construction and read by the scalar kernel; ``m``, the read-only array
    of the same entries, is built from ``c`` on first read, as is
    ``rank_test``, and each is kept by the instance."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"conic matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "c", _normalized_entries(m.ravel().tolist()))
        del self.__dict__["m"]  # the argument: m is built, normalized, from c

    @classmethod
    def from_coeffs(cls, A: float, B: float, C: float, D: float, E: float,
                    F: float) -> "ConicMatrix":
        """Build from A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0, checked and
        normalized in floats as the constructor does, without an array."""
        A, B, C, D, E, F = map(float, (A, B, C, D, E, F))
        conic = cls.__new__(cls)
        object.__setattr__(conic, "c", _normalized_entries((A, B, D, B, C, E, D, E, F)))
        return conic

    @_first_read
    def rank_test(self) -> int:
        """The sign of ``rank_test`` of the matrix, computed once for all the
        rank tests made on it."""
        A, B, C, D, E, F = self.c
        return rank_test((A, B, D, B, C, E, D, E, F), 3)[0]


def _conic_array(conic: ConicMatrix) -> np.ndarray:
    """The read-only 3x3 array of the coefficients ``c`` of ``conic``."""
    A, B, C, D, E, F = conic.c
    m = np.array([[A, B, D], [B, C, E], [D, E, F]])
    m.flags.writeable = False
    return m


# Bound after the class statement, where the dataclass has made m a field
# without a default.
ConicMatrix.m = _first_read(_conic_array, "m")


def _normalized_entries(m) -> tuple:
    """The coefficients (A, B, C, D, E, F) of the matrix of nine floats
    ``m``, row by row, after the checks of ``ConicMatrix`` (non-finite, zero,
    symmetric within 1e-9 of the largest entry, in this order), each entry
    taken as 0.5 (m_ij + m_ji) / max |m|: the array formula
    0.5 (M + M^T) / top, bit for bit."""
    # Explicit: ``max`` skips a NaN it does not meet first.
    if not all(map(math.isfinite, m)):
        raise DegenerateConic("conic matrix is not finite")
    top = max(map(abs, m))
    if top == 0.0:
        raise ValueError("zero conic matrix")
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    if max(abs(m01 - m10), abs(m02 - m20), abs(m12 - m21)) > 1e-9 * top:
        raise ValueError("conic matrix must be symmetric")
    return (0.5 * (m00 + m00) / top, 0.5 * (m01 + m10) / top, 0.5 * (m11 + m11) / top,
            0.5 * (m02 + m20) / top, 0.5 * (m12 + m21) / top, 0.5 * (m22 + m22) / top)


#: Coefficient row (A, B, C, D, E, F) of each entry of the 3x3 matrix,
#: row by row.
_MATRIX_ENTRIES = np.array([0, 1, 3, 1, 2, 4, 3, 4, 5])


def _normalized(c: np.ndarray) -> np.ndarray:
    """Coefficient rows (k, n) with each column divided by its largest
    magnitude, in place: ``c`` itself is returned."""
    c /= _column_top(c)
    return c


def _column_top(c: np.ndarray) -> np.ndarray:
    """The largest magnitude in each column of the rows (k, n) ``c``, NaN
    where the column holds a NaN, taken row by row without a (k, n)
    temporary."""
    top = np.abs(c[0])
    for row in c[1:]:
        np.maximum(top, np.abs(row), out=top)
    return top


@dataclass(frozen=True, eq=False)
class ConicBatch:
    """A stack of n conics A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0, held
    as the (6, n) coefficient rows ``c`` = (A, B, C, D, E, F), one column per
    conic.  Their makers scale each column so that its largest coefficient
    has magnitude 1 (``_normalized``): the max-entry normalization of
    ``ConicMatrix``, since the largest entry of the matrix is the largest
    coefficient.

    A stack that ``conics.centered_conics_batch`` built for a verify also
    carries ``max_condition``, the largest condition number of the
    incidence systems its circumconics were solved from
    (``rank.rank_test_batch`` with ``condition``, which decides the systems
    as any stack's, determinant tier first, and estimates their condition
    from the norms its passes form on the way), and None otherwise.  It
    was taken while that kernel held what the systems' entries are made
    from: the stack keeps only its (6, n) coefficient rows, its
    ``max_condition`` and, once a rank test has read it, the (n,) int8
    sign of ``rank_test``, for as long as it is held."""

    c: np.ndarray
    max_condition: float | None = None

    @_first_read
    def rank_test(self) -> np.ndarray:
        """The sign of ``rank.rank_test_batch`` of the matrices, computed once
        for all the rank tests made on the stack.  The filter gathers each
        pass's block of matrix entries from ``c`` and keeps only the sign:
        it holds neither the (9, n) entries of the whole stack nor its
        norms."""
        return rank_test_batch(3, self.c.shape[1],
                               lambda cols: np.take(self.c[:, cols], _MATRIX_ENTRIES, axis=0))[0]


def _conic_eval(c, x, y):
    """[x y 1] M [x y 1]^T of the conic of coefficients c = (A, B, C, D, E,
    F), summed as the product (v M) v; arithmetic only, for floats and
    arrays."""
    A, B, C, D, E, F = c
    return ((x * A + y * B + D) * x + (x * B + y * C + E) * y) + (x * D + y * E + F)


def conic_eval(conic: ConicMatrix, p: Point) -> float:
    """[x y 1] M [x y 1]^T under the stored normalization."""
    return float(_conic_eval(conic.c, p.x, p.y))


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


def _wrap_half_pi(angle, xp):
    """Reduce an axis direction to (-pi/2, pi/2]."""
    a = xp.fmod(angle, math.pi)
    return xp.where(a <= -math.pi / 2, a + math.pi, xp.where(a > math.pi / 2, a - math.pi, a))


def _angle_gap(x: np.ndarray, y: np.ndarray, period: float) -> np.ndarray:
    """Circular distance between two axis directions modulo period."""
    g = np.fmod(x - y, period)
    return np.abs(np.where(g > period / 2, g - period, np.where(g < -period / 2, g + period, g)))


def _singular_block(A, B, C, xp):
    """The determinant det2 = AC - B^2 of the quadratic block [[A, B], [B, C]]
    and whether the block is singular: |det2| at most 1e-12 (max(|A|, |C|)
    + |B|)^2, "at most" so that a vanishing block (A = B = C = 0) is
    singular too.  Where it is, the conic has no center to solve for."""
    det2 = A * C - B * B
    scale = xp.maximum(abs(A), abs(C)) + abs(B)
    return det2, abs(det2) <= DEGENERACY_EPS * scale * scale


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


def _eigenvalues(A, B, C, xp):
    """Eigenvalues lam1 <= lam2 of the symmetric block [[A, B], [B, C]]."""
    tr = A + C
    disc = xp.hypot(A - C, 2.0 * B)
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def _eigenvector(A, B, C, lam1, xp):
    """A unit eigenvector (v1x, v1y) of [[A, B], [B, C]] for lam1.  Either
    of the two algebraically equivalent forms can cancel to zero; this
    takes the larger one.  Where its norm vanishes against the block (a
    repeated eigenvalue, where any direction serves) it is (1, 0), and the
    norm divided by is 1, so that no twin divides by a zero norm."""
    n_a, n_b = xp.hypot(lam1 - C, B), xp.hypot(B, lam1 - A)
    use_a = n_a >= n_b
    # The norm of the form taken: the same hypot of the same two numbers.
    n1 = xp.where(use_a, n_a, n_b)
    repeated = n1 < DEGENERACY_EPS * xp.maximum(xp.maximum(abs(A), abs(C)), abs(B))
    n1 = xp.where(repeated, 1.0, n1)
    return (xp.where(repeated, 1.0, xp.where(use_a, lam1 - C, B) / n1),
            xp.where(repeated, 0.0, xp.where(use_a, B, lam1 - A) / n1))


def _axes(f0, lam1, lam2, v1x, v1y, xp):
    """The central conic lam1 u^2 + lam2 v^2 + f0 = 0 along the unit
    eigenvectors v1 = (v1x, v1y) and v2 = (-v1y, v1x): whether it is an
    ellipse and whether a hyperbola, its major (transverse) and minor
    (conjugate) semi-axes, and the angle of its major axis, wrapped to
    (-pi/2, pi/2] and 0 for a circle."""
    # semi-axis^2 = -f0 / lam
    q1 = -f0 / lam1
    q2 = -f0 / lam2
    # Signs, not the product q1 q2, which overflows or underflows.
    ellipse = (q1 > 0) & (q2 > 0)
    hyperbola = ((q1 > 0) & (q2 < 0)) | ((q1 < 0) & (q2 > 0))
    a1, a2 = xp.sqrt(abs(q1)), xp.sqrt(abs(q2))
    # Major (transverse) axis along v1, else along v2.
    along_v1 = xp.where(ellipse, a1 >= a2, q1 > 0)
    major, minor = xp.where(along_v1, a1, a2), xp.where(along_v1, a2, a1)
    del q1, q2, a1, a2  # before the angle's temporaries
    angle = _wrap_half_pi(xp.arctan2(xp.where(along_v1, v1y, v1x),
                                     xp.where(along_v1, v1x, -v1y)), xp)
    circular = ellipse & (major - minor < CIRCULAR_EPS * major)
    return ellipse, hyperbola, major, minor, xp.where(circular, 0.0, angle)


def _canonical(A, B, C, D, E, F, det2, xp):
    """The canonical form of the conic of coefficients (A, B, C, D, E, F)
    whose quadratic block, of determinant det2, is not singular
    (``_singular_block``), which both twins of ``canonicalize`` read: its
    center (cx, cy) from the center solve and its refinement step, then
    ``_axes`` of the conic translated there, along the closed-form
    eigendecomposition of the block."""
    cx, cy, f0 = _center_solve(A, B, C, D, E, F, det2)
    lam1, lam2 = _eigenvalues(A, B, C, xp)
    v1x, v1y = _eigenvector(A, B, C, lam1, xp)
    return (cx, cy) + _axes(f0, lam1, lam2, v1x, v1y, xp)


def canonicalize(conic: ConicMatrix) -> CanonicalConic:
    """Extract center, axis rotation and semi-axes of a central conic.

    The center solves the vanishing-gradient system of the quadratic block;
    the rotation diagonalizes that block; semi-axes come from the reduced
    diagonal equation.  Raises NotCentral for parabolas and DegenerateConic
    when both the block and the full matrix are rank-deficient.
    """
    A, B, C, D, E, F = conic.c
    det2, singular = _singular_block(A, B, C, _MATH)
    # Degeneracy and centrality are judged on singular-value ratios: a plain
    # |det| threshold under max-entry normalization would misclassify thin
    # conics far from the origin, whose determinant is legitimately tiny.
    rank3_ok = conic.rank_test > 0
    # Before the center solve, which divides by det2.
    if singular:
        if not rank3_ok:
            raise DegenerateConic("conic of rank < 3")
        raise NotCentral("parabolic conic has no affine center")
    cx, cy, ellipse, hyperbola, major, minor, angle = _canonical(A, B, C, D, E, F, det2, _MATH)
    if rank3_ok and (ellipse or hyperbola):
        kind = ConicKind.ELLIPSE if ellipse else ConicKind.HYPERBOLA
        return CanonicalConic(Point(cx, cy), angle, major, minor, kind)
    # A line pair or a point, or both quotients negative: no real points.
    kind = ConicKind.DEGENERATE_LINES if not rank3_ok and det2 < 0 else ConicKind.EMPTY
    return CanonicalConic(Point(cx, cy), 0.0, 0.0, 0.0, kind)


def canonicalize_batch(conic: ConicBatch, log: PassLog) -> CanonicalBatch:
    """``canonicalize`` over a stack: the same rank test (decided by
    ``rank_test_batch``), singular-block test and canonical form
    (``_canonical``).  The checks run over the whole stack; the rest runs
    in blocks of at most ``_COLUMN_BLOCK`` conics (``_blocks``), each
    written into the result, so that its temporaries stay small."""
    rank3_ok = conic.rank_test > 0
    singular = _singular_block(*conic.c[:3], np)[1]
    log.check(singular & ~rank3_ok, DegenerateConic, "conic of rank < 3")
    log.check(singular & rank3_ok, NotCentral, "parabolic conic has no affine center")
    del singular

    n = conic.c.shape[1]
    can = CanonicalBatch(np.empty((n, 2)), np.empty(n), np.empty(n), np.empty(n),
                         np.empty(n, bool))
    for i, j in _blocks(n, _COLUMN_BLOCK):
        # det2 is made again for each block: cheaper than keeping the stack's.
        A, B, C, D, E, F = conic.c[:, i:j]
        cx, cy, ellipse, hyperbola, major, minor, angle = _canonical(
            A, B, C, D, E, F, _singular_block(A, B, C, np)[0], np)
        out, ok = can[i:j], rank3_ok[i:j]
        out.center[:, 0], out.center[:, 1] = cx, cy
        real = ok & (ellipse | hyperbola)
        out.angle[...] = np.where(real, angle, 0.0)
        out.semi_major[...] = np.where(real, major, 0.0)
        out.semi_minor[...] = np.where(real, minor, 0.0)
        out.hyperbola[...] = ok & hyperbola
        del cx, cy, ellipse, hyperbola, major, minor, angle, real  # before the next block's
    return can


def _focal_step(major, minor, angle, hyperbola, xp):
    """The offset (x, y) of the foci of a canonical form from its center:
    along the major (transverse) axis by hypot(major, minor) for a
    hyperbola and by sqrt(major^2 - minor^2) for an ellipse, and zero for
    a circle (axes equal within tolerance), where the foci coincide."""
    gap = major * major - minor * minor
    tol = CIRCULAR_EPS * major
    c = xp.where(hyperbola, xp.hypot(major, minor), xp.sqrt(xp.where(gap <= tol * tol, 0.0, gap)))
    return c * xp.cos(angle), c * xp.sin(angle)


def foci(conic: CanonicalConic) -> tuple[Point, Point]:
    """Foci of an ellipse or hyperbola; a circle gives its center twice."""
    if conic.kind not in (ConicKind.ELLIPSE, ConicKind.HYPERBOLA):
        raise DegenerateConic(f"no foci for kind {conic.kind}")
    step = Point(*_focal_step(conic.semi_major, conic.semi_minor, conic.angle,
                              conic.kind is ConicKind.HYPERBOLA, _MATH))
    return conic.center + step, conic.center - step


def foci_batch(conic: CanonicalBatch) -> tuple[np.ndarray, np.ndarray]:
    """Foci of every canonical form; rows with zero semi-axes (where the
    scalar twin raises) give the center twice."""
    step = _stacked(*_focal_step(conic.semi_major, conic.semi_minor, conic.angle,
                                 conic.hyperbola, np))
    return conic.center + step, conic.center - step


def _area2(p1, p2, p3):
    """Twice the signed area of the triangle p1 p2 p3, each an (x, y) pair
    of floats or of arrays."""
    return (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])


def _thin(area2, d1, d2, d3, xp):
    """Whether a triangle of twice the signed area ``area2`` and of sides
    d1, d2, d3 has an area of at most 1e-12 (longest side)^2: "at most", so
    that three coincident vertices, and a zero area whose bound underflows
    to 0, are thin.  An area that is NaN (the difference of two products
    that overflow) is thin too."""
    longest = xp.maximum(xp.maximum(d1, d2), d3)
    return (abs(area2) <= 2.0 * DEGENERACY_EPS * longest * longest) | (area2 != area2)


def _not_a_triangle(s1, s2, s3, xp):
    """Whether side lengths s1, s2, s3 violate the triangle inequality."""
    return ((xp.minimum(xp.minimum(s1, s2), s3) <= 0.0)
            | (s1 + s2 <= s3) | (s2 + s3 <= s1) | (s3 + s1 <= s2))


@dataclass(frozen=True)
class SideLengths:
    """Side lengths opposite vertices 1, 2, 3."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        s1, s2, s3 = self.s1, self.s2, self.s3
        if _not_a_triangle(s1, s2, s3, _MATH):
            raise DegenerateTriangle(f"side lengths violate triangle inequality: {s1}, {s2}, {s3}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class Triangle:
    """Three vertices in counter-clockwise order.

    Construction decides, once for the whole package, what a triangle is.
    It re-orders a clockwise input (swapping the last two vertices),
    rejects a thin triangle, one whose area is at most
    1e-12 * (longest side)^2 (three coincident vertices among them), and
    then one whose measured sides fail the triangle inequality, as
    ``SideLengths`` does: a nearly flat triangle can have an area above the
    threshold and yet sides that round to s1 + s2 <= s3.  It measures the
    three sides once, for both tests, and keeps them, relabelled after a
    swap, as the ``SideLengths`` that ``centers.side_lengths`` returns and
    ``perimeter`` sums: ``hypot`` is symmetric, so they are the bits
    ``distance`` gives on the final vertex order.

    Construction also makes each instance's private memo of values derived
    from its vertices alone, which ``centers`` fills: its centers and its
    excentral triangle, each computed by the same function on the same
    floats on first use, so a value read from the memo is bit-identical to
    one computed afresh from an equal triangle.  The memo belongs to one
    instance; it takes no part in equality, hashing or ``repr``, and a
    computation that raises leaves nothing in it.
    """

    v: tuple[Point, Point, Point]

    def __post_init__(self):
        p1, p2, p3 = self.v
        area2 = _area2((p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y))
        d12, d23, d31 = distance(p1, p2), distance(p2, p3), distance(p3, p1)
        if _thin(area2, d12, d23, d31, _MATH):
            raise DegenerateTriangle(f"area {0.5 * area2:.3e} below threshold")
        if area2 < 0:
            object.__setattr__(self, "v", (p1, p3, p2))
        # The sides opposite each final vertex (hypot is symmetric), which
        # raise if they fail the triangle inequality.
        sides = (d23, d12, d31) if area2 < 0 else (d23, d31, d12)
        object.__setattr__(self, "_sides", SideLengths(*sides))
        object.__setattr__(self, "_memo", {})

    @property
    def signed_area(self) -> float:
        p1, p2, p3 = self.v
        return 0.5 * _area2((p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y))

    def side_line(self, i: int) -> Line:
        """Line of the side opposite vertex i."""
        return line_through(self.v[(i + 1) % 3], self.v[(i + 2) % 3])

    def perimeter(self) -> float:
        s = self._sides
        return s.s3 + s.s1 + s.s2


def _sides_batch(v: np.ndarray) -> np.ndarray:
    """The (n, 3) side lengths opposite each vertex of a vertex stack, as
    ``distance_batch`` gives them: the transpose of a (3, n) array, so that
    each side's column is contiguous."""
    s = np.empty((3, len(v)))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.hypot(v[:, j, 0] - v[:, k, 0], v[:, j, 1] - v[:, k, 1], out=s[i])
    return s.T


def triangle_batch(v: np.ndarray, log: PassLog) -> tuple[np.ndarray, np.ndarray]:
    """``Triangle`` over a vertex stack: a row that ``Triangle`` rejects
    raises through ``log``, by the same two checks in the same order (thin,
    then the triangle inequality of the measured sides), and clockwise rows
    get their last two vertices swapped.  Returns the final vertex stack,
    ``v`` itself when no row is clockwise, and the (n, 3) sides both checks
    read (``_sides_batch``), opposite each final vertex: relabelled after a
    swap, as ``Triangle`` keeps them, so they are the bits that measuring
    the final stack gives."""
    area2 = _area2(*v.transpose(1, 2, 0))
    s = _sides_batch(v)
    log.check(_thin(area2, *s.T, np), DegenerateTriangle, "triangle area below threshold")
    log.check(_not_a_triangle(*s.T, np), DegenerateTriangle,
              "side lengths violate triangle inequality")
    clockwise = area2 < 0
    if clockwise.any():
        v = np.where(clockwise[:, None, None], v[:, [0, 2, 1]], v)
        s.T[1:, clockwise] = s.T[:0:-1, clockwise]
    return v, s


def signed_area_batch(v: np.ndarray) -> np.ndarray:
    return 0.5 * _area2(*v.transpose(1, 2, 0))


def side_lines_batch(v: np.ndarray) -> np.ndarray:
    """Lines of the sides opposite each vertex, shape (n, 3, 3)."""
    return line_through_batch(v[:, [1, 2, 0]], v[:, [2, 0, 1]])


def perimeter_batch(s: np.ndarray) -> np.ndarray:
    """Perimeters of the (n, 3) sides that ``triangle_batch`` returns,
    summed as ``Triangle.perimeter`` sums them."""
    s1, s2, s3 = s.T
    return s3 + s1 + s2
