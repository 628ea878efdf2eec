"""Constructors for circumconics and inconics.

Circumconics through three vertices with a prescribed center are solved in
the frame centered there, where the two vanishing-gradient conditions hold
by construction: the conic is the null vector of the 3x4 incidence system.
Inconics come from the closed-form coefficients of the origin-centered
conic tangent to three given lines.

The ``_batch`` functions are the array twins used by the measurement pass
(see ``geom``); a failing check raises through the pass's ``PassLog``.
``centered_conics_batch`` is the twin of both constructors at once: it
builds a whole stack of circumconics and inconics with one call of each
kernel.  Both twins call the same cores: the congruence ``_shift`` on
coefficients, the line terms ``_cross_terms`` and ``_tangent_form``, and
``geom._eigenvalues``.  Each twin keeps its own incidence rows, checks,
rank tests (the SVD, or ``geom.rank_test_batch``) and its own 3x3 minors:
``_det3`` sums them with ``math.fsum`` and is the oracle for the batched
twin, which takes the Laplace minors that ``rank_test_batch`` decides its
rank test from.  Their terms are products of entries that are already
rounded, so a compensated sum would remove only the smaller summation
error (README, "How verify and sweep measure").  The scalar twin takes the
condition number from its SVD; the batched one estimates it from the
filter's norms (``geom.condition_estimate_batch``) and runs no SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .centers import _barycentric_sums, side_lengths
from .errors import (
    DegenerateConic,
    NotAHyperbola,
    ParallelTangents,
    PassLog,
    PerspectorAtInfinity,
    _named,
)
# canonicalize stays importable from this module: the benchmark's tracer
# self-test (perfbench/test_perfbench.py) resolves it here.
from .geom import (  # noqa: F401
    DEGENERACY_EPS,
    ConicBatch,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    _eigenvalues,
    _normalized,
    canonicalize,
    condition_estimate_batch,
    line_through,
    line_through_batch,
    rank_test_batch,
)

BarycentricFn = Callable[[float, float, float], float]


# Nothing emits it; kept because perfbench/tracer.py resolves it when it installs.
class InconicCoefficientWarning(UserWarning):
    pass


@dataclass(frozen=True)
class InconicCoefficients:
    """Origin-centered conic A x^2 + 2B xy + C y^2 + D = 0."""

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self):
        if max(abs(self.A), abs(self.B), abs(self.C)) == 0.0:
            raise ValueError("quadratic part of inconic vanishes")

    def to_conic(self) -> ConicMatrix:
        return ConicMatrix.from_coeffs(self.A, self.B, self.C, 0.0, 0.0, self.D)


def _det3(rows: list[list[float]], skip: int) -> float:
    """Signed 3x3 minor of a 3x4 row system with one column removed,
    accumulated with compensated summation."""
    cols = [j for j in range(4) if j != skip]
    (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in cols] for row in rows)
    return math.fsum([a * e * i, -a * f * h, -b * d * i, b * f * g, c * d * h, -c * e * g])


def _centered_circumconic(t: Triangle, center: Point) -> tuple[float, float, float, float, float]:
    """Coefficients (A, B, C, F) of A u^2 + 2B uv + C v^2 + F = 0 through the
    vertices in the frame translated so the prescribed center is the origin,
    plus the constraint-system condition number.

    Centering first makes the two vanishing-gradient constraints structural
    (no linear terms survive), which shrinks the null-space problem to a
    3x4 system whose null vector is exactly its four signed minors.  That
    route loses far less precision than the raw five-constraint solve when
    the conic passes near a degenerate line pair.
    """
    rows = [[u * u, 2 * u * v, v * v, 1.0]
            for u, v in ((p.x - center.x, p.y - center.y) for p in t.v)]
    # The 3x3 minors are sums of six products of three entries.
    top = max(abs(x) for row in rows for x in row)
    if not 6.0 * top * top * top < math.inf:  # false for a NaN entry too
        raise DegenerateConic("centered circumconic incidence system is not finite")
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    if sv[-1] < DEGENERACY_EPS * sv[0]:
        raise DegenerateConic("centered circumconic is not unique for this center")
    cond = float(sv[0] / sv[-1])
    vec = (_det3(rows, 0), -_det3(rows, 1), _det3(rows, 2), -_det3(rows, 3))
    top = max(abs(x) for x in vec)
    if top == 0.0:
        raise DegenerateConic("centered circumconic constraints collapse")
    A, B, C, F = (x / top for x in vec)
    return A, B, C, F, cond


# Signs of the null vector's entries, each a minor of the 3x4 system.
_MINOR_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _centered_circumconic_batch(v: np.ndarray, center: np.ndarray, log: PassLog):
    """``_centered_circumconic`` over a stack of N systems (N may hold k
    systems per sample, see ``PassLog``): the (4, N) rows (A, B, C, F), the
    (N, 3, 4) incidence rows and the norms (F, P, D) their rank filter
    computed.  The filter takes the incidence rows entry-major as they are
    built: row 4 r + j of ``x`` holds entry (r, j) of every system."""
    u = v[:, :, 0].T - center[:, 0]
    w = v[:, :, 1].T - center[:, 1]
    x = np.empty((12, len(center)))
    x[0::4], x[1::4], x[2::4], x[3::4] = u * u, 2 * u * w, w * w, 1.0
    sign, minors, norms = rank_test_batch(x)
    log.check(sign < 0, DegenerateConic, "centered circumconic is not unique for this center")
    # Minor k of the filter keeps columns (012, 013, 023, 123)[k]; reversed,
    # column k is the one left out, as in ``_det3(rows, k)``.
    vec = minors[::-1] * _MINOR_SIGNS
    top = np.abs(vec).max(axis=0)
    log.check(top == 0.0, DegenerateConic, "centered circumconic constraints collapse")
    return vec / top, x.T.reshape(-1, 3, 4), norms


def _shift(A, B, C, F, cx, cy):
    """Coefficients (A, B, C, D, E, F) of the conic A u^2 + 2B uv + C v^2 + F
    = 0 in the frame of its center (cx, cy), moved back to the original
    frame by the congruence x -> x - center; arithmetic only, for floats and
    arrays."""
    D = -(A * cx + B * cy)
    E = -(B * cx + C * cy)
    return A, B, C, D, E, F - (D * cx + E * cy)


def circumconic_centered(t: Triangle, center: Point) -> ConicMatrix:
    """Unique conic through the three vertices with the given quadratic-form
    center (the null vector of three incidences in the center-origin frame)."""
    A, B, C, F, cond = _centered_circumconic(t, center)
    conic = ConicMatrix.from_coeffs(*_shift(A, B, C, F, center.x, center.y), cond=cond)
    if conic.sv[-1] < DEGENERACY_EPS * conic.sv[0]:
        raise DegenerateConic("centered circumconic degenerates for this center")
    return conic


def _cross_terms(lines):
    """d_ij = a_i b_j - a_j b_i of three lines (a_i, b_i, c_i): d12, d13, d23."""
    (a1, b1, _), (a2, b2, _), (a3, b3, _) = lines
    return a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2


def _tangent_form(lines, d12, d13, d23):
    """Closed-form (A, B, C, D) of the origin-centered conic
    A x^2 + 2B xy + C y^2 + D = 0 tangent to three lines (a_i, b_i, c_i),
    with cross terms d_ij from ``_cross_terms``; arithmetic only, for floats
    and arrays.  Negating a line negates two of the d_ij and all four
    factors of D, so no coefficient depends on the lines' orientation."""
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = lines
    A = a2 * a3 * c1 * c1 * d23 - a1 * a3 * c2 * c2 * d13 + a1 * a2 * c3 * c3 * d12
    B = 0.5 * ((a2 * b3 + a3 * b2) * c1 * c1 * d23
               - (a1 * b3 + a3 * b1) * c2 * c2 * d13
               + (a1 * b2 + a2 * b1) * c3 * c3 * d12)
    C = b2 * b3 * c1 * c1 * d23 - b1 * b3 * c2 * c2 * d13 + b1 * b2 * c3 * c3 * d12
    D = (0.25 / (d12 * d13 * d23)
         * (d23 * c1 + d13 * c2 - d12 * c3)
         * (d23 * c1 - d13 * c2 - d12 * c3)
         * (d23 * c1 - d13 * c2 + d12 * c3)
         * (d23 * c1 + d13 * c2 + d12 * c3))
    return A, B, C, D


def inconic_from_tangents(l1: Line, l2: Line, l3: Line) -> InconicCoefficients:
    """Coefficients of the origin-centered conic tangent to three lines, in
    closed form (``_tangent_form``)."""
    lines = [(line.a, line.b, line.c) for line in (l1, l2, l3)]
    d12, d13, d23 = _cross_terms(lines)
    if min(abs(d12), abs(d13), abs(d23)) < 1e-12:
        raise ParallelTangents(f"tangent lines are (nearly) parallel: deltas=({d12:.2e}, {d13:.2e}, {d23:.2e})")

    A, B, C, D = _tangent_form(lines, d12, d13, d23)
    if max(abs(A), abs(B), abs(C)) == 0.0:
        raise DegenerateConic("quadratic part vanishes: the tangent lines pass through the center")
    return InconicCoefficients(A, B, C, D)


def inconic_from_tangents_batch(l1: np.ndarray, l2: np.ndarray, l3: np.ndarray,
                                log: PassLog) -> ConicBatch:
    """``inconic_from_tangents(...).to_conic()`` over stacks of lines (n, 3)."""
    lines = [line.T for line in (l1, l2, l3)]
    d12, d13, d23 = _cross_terms(lines)
    log.check(np.minimum(np.minimum(np.abs(d12), np.abs(d13)), np.abs(d23)) < 1e-12,
              ParallelTangents, "tangent lines are (nearly) parallel")
    A, B, C, D = _tangent_form(lines, d12, d13, d23)
    zero = np.zeros_like(A)
    return ConicBatch(_normalized(np.array([A, B, C, zero, zero, D])))


def inconic_centered(t: Triangle, center: Point) -> ConicMatrix:
    """Conic with the given center tangent to the three side lines.

    The result is a hyperbola (not an error) when the center falls outside
    the ellipse regions of the medial-line arrangement; classification is
    left to ``canonicalize``.
    """
    shifted = [Point(p.x - center.x, p.y - center.y) for p in t.v]
    lines = [
        line_through(shifted[1], shifted[2]),
        line_through(shifted[0], shifted[2]),
        line_through(shifted[0], shifted[1]),
    ]
    m = inconic_from_tangents(*lines).to_conic().m
    return ConicMatrix.from_coeffs(*_shift(m[0, 0], m[0, 1], m[1, 1], m[2, 2],
                                           center.x, center.y))


def _centered_inconic_batch(v: np.ndarray, center: np.ndarray, log: PassLog) -> np.ndarray:
    """The (4, N) rows (A, B, C, F) of ``inconic_centered`` over a stack, in
    the frame of each center, normalized as ``inconic_from_tangents_batch``
    normalizes them."""
    s = v - center[:, None, :]
    return inconic_from_tangents_batch(line_through_batch(s[:, 1], s[:, 2]),
                                       line_through_batch(s[:, 0], s[:, 2]),
                                       line_through_batch(s[:, 0], s[:, 1]), log).c[[0, 1, 2, 5]]


def centered_conics_batch(v: np.ndarray, center: np.ndarray, n_circum: int,
                          log: PassLog) -> ConicBatch:
    """One stack of conics with prescribed centers: ``circumconic_centered``
    over the first ``n_circum`` systems (triangles ``v`` (N, 3, 2) and
    centers (N, 2)) and ``inconic_centered`` over the rest.  N may hold k
    systems per sample; ``log`` then checks k blocks (see ``PassLog``), and
    a log that names them names the failing one.

    One call of each kernel covers the whole stack: the 3x4 rank filter
    for the circumconics, the tangent-line closed form for the inconics,
    the congruence ``_shift`` back from the centers, and the 3x3 rank
    test, kept as the stack's ``rank_test`` for ``canonicalize_batch``.
    The checks run in this order, each over all its blocks: circumconic
    not unique, circumconic constraints collapse, tangent lines parallel,
    circumconic degenerates.  The stack carries the incidence rows and
    condition estimates of its circumconics, computed from the norms of
    the rank filter without an SVD; a verify takes its largest condition
    number from them (``geom.max_condition_batch``) with one SVD of the
    rows that can hold it."""
    circum, rows, norms = _centered_circumconic_batch(v[:n_circum], center[:n_circum], log)
    # The inconics are the blocks after the circumconics.
    inconic_log = _named(log, log._names[n_circum // len(log.ts):])
    origin = np.concatenate([circum, _centered_inconic_batch(v[n_circum:], center[n_circum:],
                                                             inconic_log)], axis=1)
    conic = ConicBatch(_normalized(np.array(_shift(*origin, center[:, 0], center[:, 1]))),
                       rows, condition_estimate_batch(*norms))
    del circum, origin  # not held through the rank test
    log.check(conic.rank_test[:n_circum] < 0, DegenerateConic,
              "centered circumconic degenerates for this center")
    return conic


def brianchon_point(t: Triangle, g: BarycentricFn) -> Point:
    """Perspector of the inconic selected by the product-form center
    function g.

    Convention: g is evaluated cyclically and the inconic's center is the
    point whose barycentrics are the cyclic *reciprocals* of g, so
    g = s2*s3 selects the incircle (center (s1 : s2 : s3)) and maps to the
    Gergonne point.  The perspector of the inconic centered at barycentrics
    (u1 : u2 : u3) is (1/(u2+u3-u1) : 1/(u3+u1-u2) : 1/(u1+u2-u3)).
    """
    s1, s2, s3 = side_lengths(t).as_tuple()
    gv = (g(s1, s2, s3), g(s2, s3, s1), g(s3, s1, s2))
    if min(abs(x) for x in gv) < 1e-300:
        raise PerspectorAtInfinity(f"center function vanishes: {gv}")
    u = [1.0 / x for x in gv]
    scale = max(abs(x) for x in u)
    w = []
    for i in range(3):
        denom = u[(i + 1) % 3] + u[(i + 2) % 3] - u[i]
        if abs(denom) < 1e-14 * scale:
            raise PerspectorAtInfinity(f"perspector denominator vanishes for coordinate {i + 1}")
        w.append(1.0 / denom)
    at_infinity, total, x, y = _barycentric_sums(w, [p.x for p in t.v], [p.y for p in t.v], max)
    if at_infinity:
        raise PerspectorAtInfinity("perspector weights sum to zero")
    return Point(x / total, y / total)


def hyperbola_focal_length(t: Triangle, center: Point) -> float:
    """Distance between the foci (2c) of the centered circumconic, which
    must come out a hyperbola.

    Works on the center-origin coefficients directly: with semi-axes
    a^2 = |F/lam1| and b^2 = |F/lam2|, the focal distance is
    2c = 2 sqrt(|F| (|lam1| + |lam2|) / |lam1 lam2|).
    """
    A, B, C, F, _ = _centered_circumconic(t, center)
    lam1, lam2 = _eigenvalues(A, B, C, math.hypot)
    if lam1 * lam2 >= 0.0:
        kind = "ellipse" if lam1 * F < 0 else "empty conic"
        raise NotAHyperbola(f"centered circumconic is an {kind}")
    return 2.0 * math.sqrt(abs(F) * (abs(lam1) + abs(lam2)) / abs(lam1 * lam2))


def hyperbola_focal_length_batch(v: np.ndarray, center: np.ndarray, log: PassLog) -> np.ndarray:
    """``hyperbola_focal_length`` over a stack, which may hold k systems per
    sample (see ``PassLog``)."""
    (A, B, C, F), _, _ = _centered_circumconic_batch(v, center, log)
    lam1, lam2 = _eigenvalues(A, B, C, np.hypot)
    not_hyperbola = lam1 * lam2 >= 0.0
    log.check(not_hyperbola & (lam1 * F < 0), NotAHyperbola, "centered circumconic is an ellipse")
    log.check(not_hyperbola & ~(lam1 * F < 0), NotAHyperbola,
              "centered circumconic is an empty conic")
    return 2.0 * np.sqrt(np.abs(F) * (np.abs(lam1) + np.abs(lam2)) / np.abs(lam1 * lam2))
