"""Triangle centers from trilinear/barycentric coordinates, plus the medial
and excentral derived triangles.

The registry is closed: exactly the centers the downstream family machinery
needs, each with an explicit trilinear or constructive definition so that
every one can be cross-checked against an independent construction.

The ``_batch`` functions are the array twins used by the measurement pass
(see ``geom``): triangles are (n, 3, 2) vertex stacks, points (n, 2) arrays,
and a failing check raises through the pass's ``PassLog``.  Both twins call
the same cores: ``_angles`` (law of cosines), ``_trilinears`` (X1, X3, X9,
X11, X100), ``_barycentric_sums`` and ``_excenter_weights``.  Each twin
keeps its own checks, the isosceles gap of ``_require_scalene`` and
``scalene_batch``, and the equilateral fallback of X11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTriangle,
    IsoscelesDegeneracy,
    PassLog,
    PointAtInfinity,
    UnsupportedCenter,
)
from .geom import (
    Line,
    Point,
    Triangle,
    distance,
    distance_batch,
    line_intersection,
    line_through,
    midpoint,
    triangle_batch,
)

SUPPORTED_CENTERS = frozenset({1, 3, 4, 5, 6, 7, 9, 10, 11, 40, 100, 1155})

# min |s_i - s_j| below this fraction of the perimeter counts as isosceles
# for the centers whose trilinears carry (s_i - s_j) denominators.
ISOSCELES_EPS = 1e-10


@dataclass(frozen=True)
class SideLengths:
    """Side lengths opposite vertices 1, 2, 3."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        s1, s2, s3 = self.s1, self.s2, self.s3
        if min(s1, s2, s3) <= 0.0 or s1 + s2 <= s3 or s2 + s3 <= s1 or s3 + s1 <= s2:
            raise DegenerateTriangle(f"side lengths violate triangle inequality: {s1}, {s2}, {s3}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class TrilinearTriple:
    """Homogeneous trilinears, stored with unit Euclidean norm and the first
    nonzero component positive."""

    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        n = math.sqrt(self.f1 ** 2 + self.f2 ** 2 + self.f3 ** 2)
        if n == 0.0:
            raise ValueError("zero trilinear triple")
        f = [self.f1 / n, self.f2 / n, self.f3 / n]
        for x in f:
            if x != 0.0:
                if x < 0.0:
                    f = [-y for y in f]
                break
        object.__setattr__(self, "f1", f[0])
        object.__setattr__(self, "f2", f[1])
        object.__setattr__(self, "f3", f[2])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.f1, self.f2, self.f3)


def side_lengths(t: Triangle) -> SideLengths:
    p1, p2, p3 = t.v
    return SideLengths(distance(p2, p3), distance(p1, p3), distance(p1, p2))


def side_lengths_batch(v: np.ndarray, log: PassLog) -> np.ndarray:
    """Side lengths (n, 3) opposite each vertex."""
    p1, p2, p3 = v[:, 0], v[:, 1], v[:, 2]
    s = np.stack([distance_batch(p2, p3), distance_batch(p1, p3), distance_batch(p1, p2)], axis=-1)
    s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2]
    log.check((s.min(axis=1) <= 0.0) | (s1 + s2 <= s3) | (s2 + s3 <= s1) | (s3 + s1 <= s2),
              DegenerateTriangle, "side lengths violate triangle inequality")
    return s


def _angles(s1, s2, s3, acos, maximum, minimum):
    """Interior angles at vertices 1, 2, 3 via the law of cosines, the cosine
    clamped to [-1, 1]; arithmetic only, for floats and arrays."""
    def ang(a, b, c):
        return acos(maximum(-1.0, minimum(1.0, (b * b + c * c - a * a) / (2.0 * b * c))))

    return ang(s1, s2, s3), ang(s2, s3, s1), ang(s3, s1, s2)


def angles(t: Triangle) -> tuple[float, float, float]:
    """Interior angles at vertices 1, 2, 3 via the law of cosines."""
    return _angles(*side_lengths(t).as_tuple(), math.acos, max, min)


def _barycentric_sums(w, xs, ys, maximum):
    """For weights w and vertex coordinates xs, ys: whether the weights sum
    to zero against their largest magnitude, their total, and the weighted
    coordinate sums (the point is the sums over the total)."""
    total = w[0] + w[1] + w[2]
    scale = maximum(maximum(abs(w[0]), abs(w[1])), abs(w[2]))
    return (abs(total) < 1e-14 * scale, total,
            w[0] * xs[0] + w[1] * xs[1] + w[2] * xs[2],
            w[0] * ys[0] + w[1] * ys[1] + w[2] * ys[2])


def _barycentric_point(t: Triangle, w: tuple[float, float, float]) -> Point:
    at_infinity, total, x, y = _barycentric_sums(w, [p.x for p in t.v], [p.y for p in t.v], max)
    if at_infinity:
        raise PointAtInfinity(f"barycentric weights sum to zero: {w}")
    return Point(x / total, y / total)


def _barycentric_batch(v: np.ndarray, w, log: PassLog) -> np.ndarray:
    """``_barycentric_point`` for weights w = (w1, w2, w3), each an array."""
    at_infinity, total, x, y = _barycentric_sums(w, v[:, :, 0].T, v[:, :, 1].T, np.maximum)
    log.check(at_infinity, PointAtInfinity, "barycentric weights sum to zero")
    return np.stack([x / total, y / total], axis=-1)


def trilinear_to_point(t: Triangle, f: TrilinearTriple | tuple[float, float, float]) -> Point:
    """Point whose barycentric weights are (f1 s1, f2 s2, f3 s3)."""
    if isinstance(f, TrilinearTriple):
        f = f.as_tuple()
    s = side_lengths(t).as_tuple()
    return _barycentric_point(t, (f[0] * s[0], f[1] * s[1], f[2] * s[2]))


def medial(t: Triangle) -> Triangle:
    """Triangle of the side midpoints (vertex i maps to the midpoint of the
    side opposite vertex i)."""
    p1, p2, p3 = t.v
    return Triangle((midpoint(p2, p3), midpoint(p1, p3), midpoint(p1, p2)))


def medial_batch(v: np.ndarray, log: PassLog) -> np.ndarray:
    return triangle_batch(0.5 * (v[:, [1, 0, 0]] + v[:, [2, 2, 1]]), log)


def _excenter_weights(s1, s2, s3):
    """Barycentrics of the three excenters: (-s1 : s2 : s3) cyclic."""
    return (-s1, s2, s3), (s1, -s2, s3), (s1, s2, -s3)


def excentral(t: Triangle) -> Triangle:
    """Triangle of the three excenters (barycentrics (-s1 : s2 : s3) cyclic)."""
    return Triangle(tuple(_barycentric_point(t, w)
                          for w in _excenter_weights(*side_lengths(t).as_tuple())))


def excentral_batch(v: np.ndarray, log: PassLog) -> np.ndarray:
    ex = [_barycentric_batch(v, w, log) for w in _excenter_weights(*side_lengths_batch(v, log).T)]
    return triangle_batch(np.stack(ex, axis=1), log)


def _require_scalene(s: tuple[float, float, float], what: str) -> None:
    gap = min(abs(s[0] - s[1]), abs(s[1] - s[2]), abs(s[2] - s[0]))
    if gap < ISOSCELES_EPS * (s[0] + s[1] + s[2]):
        raise IsoscelesDegeneracy(f"{what} is ill-conditioned on isosceles input")


def scalene_batch(s: np.ndarray) -> np.ndarray:
    """Rows of side lengths (n, 3) on which ``_require_scalene`` passes."""
    s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2]
    gap = np.minimum(np.minimum(np.abs(s1 - s2), np.abs(s2 - s3)), np.abs(s3 - s1))
    return ~(gap < ISOSCELES_EPS * (s1 + s2 + s3))


def antiorthic_axis_of(t: Triangle) -> Line:
    """Line through the intersections of corresponding reference and
    excentral side lines (the trilinear polar of the incenter)."""
    s = side_lengths(t).as_tuple()
    _require_scalene(s, "antiorthic axis construction")
    exc = excentral(t)
    pts = []
    for i in range(3):
        pts.append(line_intersection(t.side_line(i), exc.side_line(i)))
        if len(pts) == 2:
            break
    return line_through(pts[0], pts[1])


_TRILINEAR = frozenset({1, 3, 9, 11, 100})


def _trilinears(k: int, s1, s2, s3, angles, cos):
    """Trilinears (f1, f2, f3) of X_k for k in ``_TRILINEAR`` from the side
    lengths; ``angles()`` gives the interior angles.  Arithmetic only, for
    floats and arrays."""
    if k == 1:
        return 1.0, 1.0, 1.0
    if k == 9:
        return s2 + s3 - s1, s3 + s1 - s2, s1 + s2 - s3
    if k == 100:
        return 1.0 / (s2 - s3), 1.0 / (s3 - s1), 1.0 / (s1 - s2)
    A, B, C = angles()
    if k == 3:
        return cos(A), cos(B), cos(C)
    return 1.0 - cos(B - C), 1.0 - cos(C - A), 1.0 - cos(A - B)  # k == 11


def center(t: Triangle, k: int) -> Point:
    """Cartesian location of a supported triangle center."""
    if k not in SUPPORTED_CENTERS:
        raise UnsupportedCenter(f"center X_{k} is not in the registry {sorted(SUPPORTED_CENTERS)}")
    s = side_lengths(t).as_tuple()

    if k == 100:
        _require_scalene(s, "X_100")
    if k in _TRILINEAR:
        f = _trilinears(k, *s, lambda: angles(t), math.cos)
        if k == 11 and max(f) < 1e-13:
            # Numerically equilateral: the triple vanishes identically and
            # the symmetric limit is the centroid like every other center.
            f = (1.0, 1.0, 1.0)
        return trilinear_to_point(t, f)
    if k == 4:
        # Orthocenter = V1 + V2 + V3 - 2*circumcenter; avoids sec(A) blowing
        # up on right triangles.
        x3 = center(t, 3)
        p1, p2, p3 = t.v
        return Point(p1.x + p2.x + p3.x - 2 * x3.x, p1.y + p2.y + p3.y - 2 * x3.y)
    if k == 5:
        return midpoint(center(t, 3), center(t, 4))
    if k == 6:
        return trilinear_to_point(t, s)
    if k == 7:
        return _barycentric_point(t, (1.0 / (s[1] + s[2] - s[0]),
                                      1.0 / (s[2] + s[0] - s[1]),
                                      1.0 / (s[0] + s[1] - s[2])))
    if k == 10:
        return center(medial(t), 1)
    if k == 40:
        x1, x3 = center(t, 1), center(t, 3)
        return Point(2 * x3.x - x1.x, 2 * x3.y - x1.y)
    # k == 1155: intersection of line X1-X3 with the antiorthic axis.
    _require_scalene(s, "X_1155")
    return line_intersection(line_through(center(t, 1), center(t, 3)),
                             antiorthic_axis_of(t))


#: Centers with a batched twin: the ones the measurement pass needs.
BATCH_CENTERS = frozenset({1, 3, 9, 10, 11, 40, 100})


def center_batch(v: np.ndarray, k: int, log: PassLog, s: np.ndarray | None = None) -> np.ndarray:
    """``center`` over a triangle stack, for k in ``BATCH_CENTERS``; ``s``
    passes side lengths already computed for ``v``."""
    if k not in BATCH_CENTERS:
        raise UnsupportedCenter(f"center X_{k} has no batched form; batched: {sorted(BATCH_CENTERS)}")
    if s is None:
        s = side_lengths_batch(v, log)
    if k == 10:
        return center_batch(medial_batch(v, log), 1, log)
    if k == 40:
        return 2 * center_batch(v, 3, log, s) - center_batch(v, 1, log, s)
    if k == 100:
        log.check(~scalene_batch(s), IsoscelesDegeneracy, "X_100 is ill-conditioned on isosceles input")
    sides = s.T
    f = _trilinears(k, *sides, lambda: _angles(*sides, np.arccos, np.maximum, np.minimum), np.cos)
    if k == 11:
        # Numerically equilateral rows fall back to the centroid, as in ``center``.
        flat = np.maximum(np.maximum(f[0], f[1]), f[2]) < 1e-13
        f = [np.where(flat, 1.0, x) for x in f]
    return _barycentric_batch(v, [x * y for x, y in zip(f, sides)], log)
