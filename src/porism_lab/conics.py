"""Constructors for circumconics and inconics.

Circumconics through three vertices with a prescribed center are solved in
the frame centered there, where the two vanishing-gradient conditions hold
by construction: the conic is the null vector of the 3x4 incidence system.
Inconics come from the closed-form coefficients of the origin-centered
conic tangent to three given lines.

The ``_batch`` functions are the array twins used by the measurement pass,
under the twin rule of ``geom``.  ``centered_conics_batch`` is the twin of
both constructors at once: it builds a whole stack of circumconics and
inconics with one call of each kernel.  Both twins decide their rank tests
by the certified filter of ``rank`` (``rank_test``, ``rank_test_batch``),
and both take the circumconic's null vector from the Laplace minors that
filter decided from, by one formula (``rank.null_vector``), so the two
give the same coefficients bit for bit.  Their terms are products of
entries that are already rounded, so a compensated sum of them would
remove only the smaller summation error (README, "How verify and sweep
measure").
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .centers import _barycentric_sums, side_lengths
from .errors import (
    DegenerateConic,
    NotAHyperbola,
    ParallelTangents,
    PassLog,
    PerspectorAtInfinity,
)
# canonicalize stays importable from this module: the benchmark's tracer
# self-test (perfbench/test_perfbench.py) resolves it here.
from .geom import (  # noqa: F401
    _MATH,
    ConicBatch,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    _column_top,
    _eigenvalues,
    _normalized,
    _normalized_entries,
    _stacked,
    canonicalize,
    line_through,
    line_through_batch,
)
from .rank import DEGENERACY_EPS, null_vector, rank_test, rank_test_batch

BarycentricFn = Callable[[float, float, float], float]


# Nothing emits it; kept because perfbench/tracer.py resolves it when it installs.
class InconicCoefficientWarning(UserWarning):
    pass


def _centered_circumconic(t: Triangle, center: Point) -> tuple[float, float, float, float]:
    """Coefficients (A, B, C, F) of A u^2 + 2B uv + C v^2 + F = 0 through the
    vertices in the frame translated so the prescribed center is the origin.

    Centering first makes the two vanishing-gradient constraints structural
    (no linear terms survive), which shrinks the null-space problem to a
    3x4 system whose null vector is exactly its four signed minors
    (``null_vector`` of the minors ``rank_test`` decided from), as
    ``_centered_circumconic_batch`` takes them.  That route loses far less
    precision than the raw five-constraint solve when the conic passes near
    a degenerate line pair.
    """
    entries = []
    for p in t.v:
        u, v = p.x - center.x, p.y - center.y
        entries += (u * u, 2 * u * v, v * v, 1.0)
    # The 3x3 minors are sums of six products of three entries.
    top = max(map(abs, entries))
    if not 6.0 * top * top * top < math.inf:  # false for a NaN entry too
        raise DegenerateConic("centered circumconic incidence system is not finite")
    sign, minors = rank_test(entries, 4)
    if sign < 0:
        raise DegenerateConic("centered circumconic is not unique for this center")
    vec = null_vector(minors)
    top = max(map(abs, vec))
    if top == 0.0:
        raise DegenerateConic("centered circumconic constraints collapse")
    return tuple(x / top for x in vec)


def _offsets(systems) -> tuple[np.ndarray, np.ndarray]:
    """The x and y offsets (u, w) of the vertices from the centers of the
    ``systems``, each a (3, N) array over all of them in order: a system
    block is a pair of triangles (n, 3, 2) and centers (n, 2), N the sum of
    their n.  Each block is written into the result, so that no stack of
    the blocks' triangles or centers is made."""
    n = sum(len(center) for _, center in systems)
    u, w = np.empty((3, n)), np.empty((3, n))
    i = 0
    for v, center in systems:
        j = i + len(center)
        np.subtract(v[:, :, 0].T, center[:, 0], out=u[:, i:j])
        np.subtract(v[:, :, 1].T, center[:, 1], out=w[:, i:j])
        i = j
    return u, w


def _entries(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The incidence rows (u^2, 2uw, w^2, 1) of ``_centered_circumconic``
    of the systems of vertex offsets ``u``, ``w`` (3, m), entry-major as
    ``rank.rank_test_batch`` takes them: row 4 r + j of the (12, m) result
    holds entry (r, j) of every system, each written into it as it is
    computed."""
    x = np.empty((12, u.shape[1]))
    np.multiply(u, u, out=x[0::4])
    np.multiply(2, u, out=x[1::4])
    x[1::4] *= w
    np.multiply(w, w, out=x[2::4])
    x[3::4] = 1.0
    return x


def _centered_circumconic_batch(systems, log: PassLog,
                                condition: bool = False) -> tuple[np.ndarray, float | None]:
    """``_centered_circumconic`` over the system blocks ``systems`` (see
    ``_offsets``), N systems in all (N may hold k systems per sample, see
    ``PassLog``): the (4, N) rows (A, B, C, F), and with ``condition`` the
    largest condition number of the systems, else None, as for no system
    (``rank.rank_test_batch``).  The kernel holds only the vertex offsets
    from the centers, from which the filter makes each pass's block of
    incidence rows, and the largest condition number its SVD candidates'."""
    u, w = _offsets(systems)
    sign, minors, kappa_max = rank_test_batch(4, u.shape[1],
                                              lambda cols: _entries(u[:, cols], w[:, cols]),
                                              condition)
    log.check(sign < 0, DegenerateConic, "centered circumconic is not unique for this center")
    del u, w
    vec = np.array(null_vector(minors))
    del minors
    top = _column_top(vec)
    log.check(top == 0.0, DegenerateConic, "centered circumconic constraints collapse")
    vec /= top
    return vec, kappa_max


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
    conic = ConicMatrix.from_coeffs(*_shift(*_centered_circumconic(t, center), center.x, center.y))
    if conic.rank_test < 0:
        raise DegenerateConic("centered circumconic degenerates for this center")
    return conic


def _cross_terms(lines, xp):
    """d_ij = a_i b_j - a_j b_i of three lines (a_i, b_i, c_i): d12, d13,
    d23, and whether any two of the lines are (nearly) parallel."""
    (a1, b1, _), (a2, b2, _), (a3, b3, _) = lines
    d12, d13, d23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    return d12, d13, d23, xp.minimum(xp.minimum(abs(d12), abs(d13)), abs(d23)) < DEGENERACY_EPS


def _tangent_form(lines, d12, d13, d23):
    """Closed-form (A, B, C, D) of the origin-centered conic
    A x^2 + 2B xy + C y^2 + D = 0 tangent to three lines (a_i, b_i, c_i),
    with cross terms d_ij from ``_cross_terms``; arithmetic only, for floats
    and arrays.  Negating a line negates two of the d_ij and all four
    factors of D, so no coefficient depends on the lines' orientation."""
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = lines
    A = a2 * a3 * c1 * c1 * d23 - a1 * a3 * c2 * c2 * d13 + a1 * a2 * c3 * c3 * d12
    B = ((a2 * b3 + a3 * b2) * c1 * c1 * d23
         - (a1 * b3 + a3 * b1) * c2 * c2 * d13
         + (a1 * b2 + a2 * b1) * c3 * c3 * d12) / 2
    C = b2 * b3 * c1 * c1 * d23 - b1 * b3 * c2 * c2 * d13 + b1 * b2 * c3 * c3 * d12
    D = (1 / (4 * (d12 * d13 * d23))
         * (d23 * c1 + d13 * c2 - d12 * c3)
         * (d23 * c1 - d13 * c2 - d12 * c3)
         * (d23 * c1 - d13 * c2 + d12 * c3)
         * (d23 * c1 + d13 * c2 + d12 * c3))
    return A, B, C, D


def _inconic_coefficients(l1: Line, l2: Line, l3: Line) -> tuple[float, float, float, float]:
    """Coefficients (A, B, C, D) of the origin-centered conic
    A x^2 + 2B xy + C y^2 + D = 0 tangent to three lines, in closed form
    (``_tangent_form``)."""
    lines = [(line.a, line.b, line.c) for line in (l1, l2, l3)]
    d12, d13, d23, parallel = _cross_terms(lines, _MATH)
    if parallel:
        raise ParallelTangents(f"tangent lines are (nearly) parallel: deltas=({d12:.2e}, {d13:.2e}, {d23:.2e})")

    A, B, C, D = _tangent_form(lines, d12, d13, d23)
    if max(abs(A), abs(B), abs(C)) == 0.0:
        raise DegenerateConic("quadratic part vanishes: the tangent lines pass through the center")
    return A, B, C, D


def inconic_from_tangents(l1: Line, l2: Line, l3: Line) -> ConicMatrix:
    """The origin-centered conic tangent to three lines, normalized as every
    ``ConicMatrix``."""
    A, B, C, D = _inconic_coefficients(l1, l2, l3)
    return ConicMatrix.from_coeffs(A, B, C, 0.0, 0.0, D)


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
    # Normalized as ``inconic_from_tangents`` normalizes it, without
    # building that matrix.
    A, B, C, D = _inconic_coefficients(*lines)
    A, B, C, _, _, F = _normalized_entries((A, B, 0.0, B, C, 0.0, 0.0, 0.0, D))
    return ConicMatrix.from_coeffs(*_shift(A, B, C, F, center.x, center.y))


def _centered_inconic_batch(systems, log: PassLog) -> np.ndarray:
    """The (4, N) rows (A, B, C, F) of ``inconic_centered`` over the system
    blocks ``systems`` (see ``_offsets``), in the frame of each center,
    normalized as ``inconic_from_tangents`` normalizes them: its largest
    magnitude is that of these four, since its D and E are zero."""
    s = _stacked(*(offset.T for offset in _offsets(systems)))  # (N, 3, 2)
    lines = [line.T for line in (line_through_batch(s[:, 1], s[:, 2]),
                                 line_through_batch(s[:, 0], s[:, 2]),
                                 line_through_batch(s[:, 0], s[:, 1]))]
    del s
    d12, d13, d23, parallel = _cross_terms(lines, np)
    log.check(parallel, ParallelTangents, "tangent lines are (nearly) parallel")
    rows = np.empty((4, len(d12)))
    for row, value in zip(rows, _tangent_form(lines, d12, d13, d23)):
        row[...] = value
    return _normalized(rows)


def centered_conics_batch(circum, inconic, log: PassLog, condition: bool = False) -> ConicBatch:
    """One stack of conics with prescribed centers: ``circumconic_centered``
    over the system blocks ``circum`` and ``inconic_centered`` over the
    blocks ``inconic`` after them, each block a pair of triangles
    (n, 3, 2) and centers (n, 2) (``_offsets``).  The stack may hold k
    systems per sample; ``log`` then checks k blocks (see ``PassLog``), and
    a log that names them names the failing one.

    One call of each kernel covers the whole stack: the 3x4 rank filter
    for the circumconics, the tangent-line closed form for the inconics,
    the congruence ``_shift`` back from the centers, and the 3x3 rank
    test, kept as the stack's ``rank_test`` for ``canonicalize_batch``.
    The checks run in this order, each over all its blocks: circumconic
    not unique, circumconic constraints collapse, tangent lines parallel,
    circumconic degenerates.  With ``condition`` (a verify), the stack
    carries the largest condition number of its circumconics' incidence
    systems (``ConicBatch.max_condition``), which the circumconic kernel
    takes while it holds their entries.  No stack of the blocks'
    triangles or centers is made: each kernel reads the blocks, and each
    block's coefficients are shifted straight into the stack's rows, which
    are then normalized in place."""
    circum_rows, kappa_max = _centered_circumconic_batch(circum, log, condition)
    n_circum = circum_rows.shape[1]
    # The inconics are the blocks after the circumconics.
    inconic_log = PassLog(log.ts, log.rows, log.names[n_circum // len(log.ts):])
    inconic_rows = _centered_inconic_batch(inconic, inconic_log)
    c = np.empty((6, n_circum + inconic_rows.shape[1]))
    _shift_into(c[:, :n_circum], circum_rows, circum)
    _shift_into(c[:, n_circum:], inconic_rows, inconic)
    del circum_rows, inconic_rows
    conic = ConicBatch(_normalized(c), kappa_max)
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
    at_infinity, total, x, y = _barycentric_sums(w, [p.x for p in t.v], [p.y for p in t.v], _MATH)
    if at_infinity:
        raise PerspectorAtInfinity("perspector weights sum to zero")
    return Point(x / total, y / total)


def _focal_length(F, lam1, lam2, xp):
    """Distance between the foci (2c) of the hyperbola
    lam1 u^2 + lam2 v^2 + F = 0: with semi-axes a^2 = |F/lam1| and
    b^2 = |F/lam2|, 2c = 2 sqrt(|F| (|lam1| + |lam2|) / |lam1 lam2|)."""
    return 2.0 * xp.sqrt(abs(F) * (abs(lam1) + abs(lam2)) / abs(lam1 * lam2))


def _shift_into(out: np.ndarray, origin: np.ndarray, systems) -> None:
    """``_shift`` of the (4, N) rows (A, B, C, F) about the centers of the
    system blocks ``systems``, block by block, written into the (6, N) rows
    ``out``."""
    i = 0
    for _, center in systems:
        j = i + len(center)
        for row, value in zip(out[:, i:j], _shift(*origin[:, i:j], center[:, 0], center[:, 1])):
            row[...] = value
        i = j


def hyperbola_focal_length(t: Triangle, center: Point) -> float:
    """Distance between the foci (2c) of the centered circumconic, which
    must come out a hyperbola; computed from the center-origin coefficients
    directly (``_focal_length``)."""
    A, B, C, F = _centered_circumconic(t, center)
    lam1, lam2 = _eigenvalues(A, B, C, _MATH)
    if lam1 * lam2 >= 0.0:
        kind = "ellipse" if lam1 * F < 0 else "empty conic"
        raise NotAHyperbola(f"centered circumconic is an {kind}")
    return _focal_length(F, lam1, lam2, _MATH)


def hyperbola_focal_length_batch(systems, log: PassLog) -> np.ndarray:
    """``hyperbola_focal_length`` over the system blocks ``systems``, pairs
    of triangles (n, 3, 2) and centers (n, 2) (``_offsets``), which may
    hold k systems per sample (see ``PassLog``)."""
    (A, B, C, F), _ = _centered_circumconic_batch(systems, log)
    lam1, lam2 = _eigenvalues(A, B, C, np)
    not_hyperbola = lam1 * lam2 >= 0.0
    log.check(not_hyperbola & (lam1 * F < 0), NotAHyperbola, "centered circumconic is an ellipse")
    log.check(not_hyperbola & ~(lam1 * F < 0), NotAHyperbola,
              "centered circumconic is an empty conic")
    return _focal_length(F, lam1, lam2, np)
