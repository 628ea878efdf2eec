"""Plane-geometry primitives: points, lines, circles, conics in matrix form,
and canonicalization of central conics.

Conics are stored as symmetric 3x3 quadratic forms M with
[x y 1] M [x y 1]^T = 0, normalized so the largest-magnitude entry is 1.
All values are immutable and all operations are pure functions.

Functions ending in ``_batch`` are the array twins of the scalar API, used by
the measurement pass over a whole t-sweep: points are arrays of shape
(..., 2), lines (..., 3) rows (a, b, c), triangles (n, 3, 2) vertex stacks
and conics (n, 3, 3) stacks.

A formula both twins evaluate is written once, as a private core of
arithmetic and the functions it is passed (``math.hypot`` by the scalar
twin, ``np.hypot`` by the batched one): here ``_center_solve`` and
``_eigenvalues``.  Each twin keeps its own checks (where the scalar twin
raises, the batched one makes the same check on all samples at once through
a ``PassLog``, which raises for the lowest failing sample), its own
data-dependent branches (the eigenvector choice and the ellipse, hyperbola
or empty classification of ``canonicalize``) and its own SVD rank tests.
"""

from __future__ import annotations

import functools
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
    matrix was solved from (surfaced in verification reports).
    """

    m: np.ndarray
    cond: float | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"conic matrix must be 3x3, got {m.shape}")
        top = np.abs(m).max()
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


@dataclass(frozen=True, eq=False)
class ConicBatch:
    """Stack of quadratic forms, shape (n, 3, 3), with the max-entry
    normalization of ``ConicMatrix``; ``cond`` optionally carries one
    condition number per matrix."""

    m: np.ndarray
    cond: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        top = np.abs(m).max(axis=(1, 2))[:, None, None]
        object.__setattr__(self, "m", 0.5 * (m + np.swapaxes(m, 1, 2)) / top)

    @functools.cached_property
    def sv(self) -> np.ndarray:
        """Singular values of every matrix, largest first, computed once for
        all the rank tests made on this stack."""
        return singular_values_batch(self.m)


def singular_values_batch(a: np.ndarray) -> np.ndarray:
    """One stacked SVD over a (n, k, l) stack.  A row holding a non-finite
    entry (such as a sample outside the rows of a partial stage) gets NaN
    instead of failing the whole stack."""
    ok = np.isfinite(a).all(axis=(1, 2))
    sv = np.full((a.shape[0], min(a.shape[1:])), np.nan)
    sv[ok] = np.linalg.svd(a[ok], compute_uv=False)
    return sv


def conic_eval(conic: ConicMatrix, p: Point) -> float:
    """[x y 1] M [x y 1]^T under the stored normalization."""
    v = np.array([p.x, p.y, 1.0])
    return float(v @ conic.m @ v)


def conic_eval_batch(conic: ConicBatch, p: np.ndarray) -> np.ndarray:
    v = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    return (v[:, None, :] @ conic.m @ v[:, :, None])[:, 0, 0]


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
    if abs(det2) < DEGENERACY_EPS * block_scale * block_scale:
        if not rank3_ok:
            raise DegenerateConic(f"conic of rank < 3 (singular values {sv})")
        raise NotCentral("parabolic conic has no affine center")

    cx, cy, f0 = _center_solve(A, B, C, D, E, F, det2)

    # Closed-form symmetric 2x2 eigendecomposition.  Either of the two
    # algebraically equivalent eigenvector forms can cancel to zero; take
    # the larger one.
    lam1, lam2 = _eigenvalues(A, B, C, math.hypot)
    cand_a = (lam1 - C, B)
    cand_b = (B, lam1 - A)
    v1 = cand_a if math.hypot(*cand_a) >= math.hypot(*cand_b) else cand_b
    n1 = math.hypot(*v1)
    if n1 < DEGENERACY_EPS * max(abs(A), abs(C), abs(B)):
        v1 = (1.0, 0.0)  # repeated eigenvalue: any direction serves
        n1 = 1.0
    v1 = np.array([v1[0] / n1, v1[1] / n1])
    v2 = np.array([-v1[1], v1[0]])

    if not rank3_ok:
        kind = ConicKind.DEGENERATE_LINES if det2 < 0 else ConicKind.EMPTY
        return CanonicalConic(Point(cx, cy), 0.0, 0.0, 0.0, kind)

    # lam1 u^2 + lam2 v^2 + f0 = 0  ->  semi-axis^2 = -f0 / lam
    q1 = -f0 / lam1
    q2 = -f0 / lam2
    if q1 > 0 and q2 > 0:
        a1, a2 = math.sqrt(q1), math.sqrt(q2)
        if a1 >= a2:
            major, minor, vec = a1, a2, v1
        else:
            major, minor, vec = a2, a1, v2
        if major - minor < CIRCULAR_EPS * major:
            angle = 0.0
        else:
            angle = _wrap_half_pi(math.atan2(vec[1], vec[0]))
        return CanonicalConic(Point(cx, cy), angle, major, minor, ConicKind.ELLIPSE)
    if q1 * q2 < 0:
        if q1 > 0:
            transverse, conjugate, vec = math.sqrt(q1), math.sqrt(-q2), v1
        else:
            transverse, conjugate, vec = math.sqrt(q2), math.sqrt(-q1), v2
        angle = _wrap_half_pi(math.atan2(vec[1], vec[0]))
        return CanonicalConic(Point(cx, cy), angle, transverse, conjugate,
                              ConicKind.HYPERBOLA)
    # Both quotients negative: no real points.
    return CanonicalConic(Point(cx, cy), 0.0, 0.0, 0.0, ConicKind.EMPTY)


def canonicalize_batch(conic: ConicBatch, log: PassLog) -> CanonicalBatch:
    """``canonicalize`` over a stack: the same rank test (one stacked SVD),
    center solve and refinement step, and closed-form 2x2
    eigendecomposition."""
    m = conic.m
    A, B, D = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    C, E = m[:, 1, 1], m[:, 1, 2]
    F = m[:, 2, 2]
    det2 = A * C - B * B
    sv = conic.sv
    rank3_ok = sv[:, 2] > DEGENERACY_EPS * sv[:, 0]
    block_scale = np.maximum(np.abs(A), np.abs(C)) + np.abs(B)
    singular = np.abs(det2) < DEGENERACY_EPS * block_scale * block_scale
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
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = ((-1) ** (i + j)) * (minor[0, 0] * minor[1, 1]
                                             - minor[0, 1] * minor[1, 0])
    return out


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


@dataclass(frozen=True)
class Triangle:
    """Three vertices in counter-clockwise order.

    Construction re-orders a clockwise input (swapping the last two vertices)
    and rejects triangles whose area is below 1e-12 * (longest side)^2.
    """

    v: tuple[Point, Point, Point]

    def __post_init__(self):
        p1, p2, p3 = self.v
        area2 = (p2.x - p1.x) * (p3.y - p1.y) - (p3.x - p1.x) * (p2.y - p1.y)
        longest = max(distance(p1, p2), distance(p2, p3), distance(p3, p1))
        if abs(area2) < 2.0 * DEGENERACY_EPS * longest * longest:
            raise DegenerateTriangle(f"area {0.5 * area2:.3e} below threshold")
        if area2 < 0:
            object.__setattr__(self, "v", (p1, p3, p2))

    @property
    def signed_area(self) -> float:
        p1, p2, p3 = self.v
        return 0.5 * ((p2.x - p1.x) * (p3.y - p1.y) - (p3.x - p1.x) * (p2.y - p1.y))

    def side_line(self, i: int) -> Line:
        """Line of the side opposite vertex i."""
        return line_through(self.v[(i + 1) % 3], self.v[(i + 2) % 3])

    def perimeter(self) -> float:
        p1, p2, p3 = self.v
        return distance(p1, p2) + distance(p2, p3) + distance(p3, p1)


def _area2_batch(v: np.ndarray) -> np.ndarray:
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    return ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
            - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))


def triangle_batch(v: np.ndarray, log: PassLog) -> np.ndarray:
    """``Triangle`` over a vertex stack: a degenerate row raises through
    ``log`` and clockwise rows get their last two vertices swapped."""
    area2 = _area2_batch(v)
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    longest = np.maximum(np.maximum(distance_batch(p1, p2), distance_batch(p2, p3)),
                         distance_batch(p3, p1))
    log.check(np.abs(area2) < 2.0 * DEGENERACY_EPS * longest * longest,
              DegenerateTriangle, "triangle area below threshold")
    return np.where((area2 < 0)[:, None, None], v[:, [0, 2, 1]], v)


def signed_area_batch(v: np.ndarray) -> np.ndarray:
    return 0.5 * _area2_batch(v)


def side_lines_batch(v: np.ndarray) -> np.ndarray:
    """Lines of the sides opposite each vertex, shape (n, 3, 3)."""
    return line_through_batch(v[:, [1, 2, 0]], v[:, [2, 0, 1]])


def perimeter_batch(v: np.ndarray) -> np.ndarray:
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    return distance_batch(p1, p2) + distance_batch(p2, p3) + distance_batch(p3, p1)
