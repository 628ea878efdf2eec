"""Triangle centers from trilinear/barycentric coordinates, plus the medial
and excentral derived triangles.

The registry is closed: exactly the centers the downstream family machinery
needs, each with an explicit trilinear or constructive definition so that
every one can be cross-checked against an independent construction.

What a triangle is is decided once, in ``geom``: ``Triangle`` and
``triangle_batch`` reject thin triangles and sides that fail the triangle
inequality at construction, so nothing here checks a triangle again.
``side_lengths`` returns the ``SideLengths`` a triangle measured and
checked at construction.  ``center`` and ``excentral`` compute each value
once per ``Triangle`` instance and keep it in the triangle's memo
(``_memoized``): a later call on the same instance returns the kept value,
bit-identical to what a fresh equal triangle computes, since the same
function runs on the same floats.  Centers built from other centers (X4,
X5, X40, X1155) read those from the memo as well.  A computation that
raises is not kept: it raises again on every call.  Nothing is kept beyond
one instance.

The ``_batch`` functions are the array twins used by the measurement pass,
under the twin rule of ``geom``: triangles are (n, 3, 2) vertex stacks and
points (n, 2) arrays.  Like ``side_lengths``, they take the sides that
``geom.triangle_batch`` measured and checked with the stack.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IsoscelesDegeneracy,
    PassLog,
    PointAtInfinity,
    UnsupportedCenter,
)
from .geom import (
    _MATH,
    Line,
    Point,
    SideLengths,
    Triangle,
    _stacked,
    line_intersection,
    line_through,
    midpoint,
    triangle_batch,
)

SUPPORTED_CENTERS = frozenset({1, 3, 4, 5, 6, 7, 9, 10, 11, 40, 100, 1155})

# min |s_i - s_j| below this fraction of the perimeter counts as isosceles
# for the centers whose trilinears carry (s_i - s_j) denominators.
ISOSCELES_EPS = 1e-10


def _memoized(t: Triangle, key, build, *args):
    """``build(t, *args)``, computed on first use and kept in the memo of
    t under ``key`` (no build returns None); a build that raises keeps
    nothing."""
    memo = t._memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(t, *args)
    return value


def side_lengths(t: Triangle) -> SideLengths:
    """The sides of t opposite vertices 1, 2, 3, as measured and checked
    when t was constructed."""
    return t._sides


def _angles(s1, s2, s3, xp):
    """Interior angles at vertices 1, 2, 3 via the law of cosines, the cosine
    clamped to [-1, 1]."""
    def ang(a, b, c):
        cosine = (b * b + c * c - a * a) / (2.0 * b * c)
        return xp.arccos(xp.maximum(-1.0, xp.minimum(1.0, cosine)))

    return ang(s1, s2, s3), ang(s2, s3, s1), ang(s3, s1, s2)


def _barycentric_sums(w, xs, ys, xp):
    """For weights w and vertex coordinates xs, ys: whether the weights sum
    to zero (exactly, or against their largest magnitude), their total, and
    the weighted coordinate sums (the point is the sums over the total)."""
    total = w[0] + w[1] + w[2]
    scale = xp.maximum(xp.maximum(abs(w[0]), abs(w[1])), abs(w[2]))
    return ((abs(total) < 1e-14 * scale) | (total == 0), total,
            w[0] * xs[0] + w[1] * xs[1] + w[2] * xs[2],
            w[0] * ys[0] + w[1] * ys[1] + w[2] * ys[2])


def _barycentric_point(t: Triangle, w: tuple[float, float, float]) -> Point:
    at_infinity, total, x, y = _barycentric_sums(w, [p.x for p in t.v], [p.y for p in t.v], _MATH)
    if at_infinity:
        raise PointAtInfinity(f"barycentric weights sum to zero: {w}")
    return Point(x / total, y / total)


def _barycentric_batch(v: np.ndarray, w, log: PassLog) -> np.ndarray:
    """``_barycentric_point`` for weights w = (w1, w2, w3), each an array."""
    at_infinity, total, x, y = _barycentric_sums(w, v[:, :, 0].T, v[:, :, 1].T, np)
    log.check(at_infinity, PointAtInfinity, "barycentric weights sum to zero")
    return _stacked(x / total, y / total)


def trilinear_to_point(t: Triangle, f: tuple[float, float, float]) -> Point:
    """Point whose barycentric weights are (f1 s1, f2 s2, f3 s3)."""
    return _trilinear_point(t, f, side_lengths(t).as_tuple())


def _trilinear_point(t: Triangle, f, s) -> Point:
    """``trilinear_to_point`` given the side lengths s of t."""
    return _barycentric_point(t, (f[0] * s[0], f[1] * s[1], f[2] * s[2]))


def medial(t: Triangle) -> Triangle:
    """Triangle of the side midpoints (vertex i maps to the midpoint of the
    side opposite vertex i)."""
    p1, p2, p3 = t.v
    return Triangle((midpoint(p2, p3), midpoint(p1, p3), midpoint(p1, p2)))


def medial_batch(v: np.ndarray, log: PassLog) -> tuple[np.ndarray, np.ndarray]:
    """``medial`` over a stack: ``triangle_batch`` of the midpoint stack."""
    return triangle_batch(0.5 * (v[:, [1, 0, 0]] + v[:, [2, 2, 1]]), log)


def _excenter_weights(s1, s2, s3):
    """Barycentrics of the three excenters: (-s1 : s2 : s3) cyclic."""
    return (-s1, s2, s3), (s1, -s2, s3), (s1, s2, -s3)


def excentral(t: Triangle) -> Triangle:
    """Triangle of the three excenters (barycentrics (-s1 : s2 : s3) cyclic)."""
    return _memoized(t, "excentral", _excentral)


def _excentral(t: Triangle) -> Triangle:
    return Triangle(tuple(_barycentric_point(t, w)
                          for w in _excenter_weights(*side_lengths(t).as_tuple())))


def excentral_batch(v: np.ndarray, s: np.ndarray, log: PassLog) -> np.ndarray:
    """The excentral vertex stack of the stack ``v`` of sides ``s``, both
    from ``triangle_batch``."""
    ex = [_barycentric_batch(v, w, log) for w in _excenter_weights(*s.T)]
    return triangle_batch(np.stack(ex, axis=1), log)[0]


def _isosceles(s1, s2, s3, xp):
    """Whether the smallest gap between side lengths is below
    ``ISOSCELES_EPS`` times the perimeter."""
    gap = xp.minimum(xp.minimum(abs(s1 - s2), abs(s2 - s3)), abs(s3 - s1))
    return gap < ISOSCELES_EPS * (s1 + s2 + s3)


def _require_scalene(s: tuple[float, float, float], what: str) -> None:
    if _isosceles(*s, _MATH):
        raise IsoscelesDegeneracy(f"{what} is ill-conditioned on isosceles input")


def scalene_batch(s: np.ndarray) -> np.ndarray:
    """Rows of side lengths (n, 3) on which ``_require_scalene`` passes."""
    return ~_isosceles(*s.T, np)


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


def _trilinears(k: int, s1, s2, s3, xp):
    """Trilinears (f1, f2, f3) of X_k for k in ``_TRILINEAR`` from the side
    lengths."""
    if k == 1:
        return 1.0, 1.0, 1.0
    if k == 9:
        return s2 + s3 - s1, s3 + s1 - s2, s1 + s2 - s3
    if k == 100:
        return 1.0 / (s2 - s3), 1.0 / (s3 - s1), 1.0 / (s1 - s2)
    A, B, C = _angles(s1, s2, s3, xp)
    if k == 3:
        return xp.cos(A), xp.cos(B), xp.cos(C)
    return _equilateral_fallback((1.0 - xp.cos(B - C), 1.0 - xp.cos(C - A),
                                  1.0 - xp.cos(A - B)), xp)  # k == 11


def _equilateral_fallback(f, xp):
    """X11's trilinears f, or (1, 1, 1) where they vanish: on a numerically
    equilateral triangle the triple vanishes identically, and the symmetric
    limit is the centroid like every other center."""
    flat = xp.maximum(xp.maximum(f[0], f[1]), f[2]) < 1e-13
    return tuple(xp.where(flat, 1.0, x) for x in f)


def center(t: Triangle, k: int) -> Point:
    """Cartesian location of a supported triangle center."""
    if k not in SUPPORTED_CENTERS:
        raise UnsupportedCenter(f"center X_{k} is not in the registry {sorted(SUPPORTED_CENTERS)}")
    return _center(t, k)


def _center(t: Triangle, k: int) -> Point:
    """``center`` for a supported k, kept in the memo of t."""
    return _memoized(t, k, _build_center, k)


def _build_center(t: Triangle, k: int) -> Point:
    """Compute X_k of t; the centers it is built from come from ``_center``."""
    s = side_lengths(t).as_tuple()
    if k == 100:
        _require_scalene(s, "X_100")
    if k in _TRILINEAR:
        return _trilinear_point(t, _trilinears(k, *s, _MATH), s)
    if k == 4:
        # Orthocenter = V1 + V2 + V3 - 2*circumcenter; avoids sec(A) blowing
        # up on right triangles.
        x3 = _center(t, 3)
        p1, p2, p3 = t.v
        return Point(p1.x + p2.x + p3.x - 2 * x3.x, p1.y + p2.y + p3.y - 2 * x3.y)
    if k == 5:
        return midpoint(_center(t, 3), _center(t, 4))
    if k == 6:
        return _trilinear_point(t, s, s)
    if k == 7:
        return _barycentric_point(t, (1.0 / (s[1] + s[2] - s[0]),
                                      1.0 / (s[2] + s[0] - s[1]),
                                      1.0 / (s[0] + s[1] - s[2])))
    if k == 10:
        return _center(medial(t), 1)
    if k == 40:
        x1, x3 = _center(t, 1), _center(t, 3)
        return Point(2 * x3.x - x1.x, 2 * x3.y - x1.y)
    # k == 1155: intersection of line X1-X3 with the antiorthic axis.
    _require_scalene(s, "X_1155")
    return line_intersection(line_through(_center(t, 1), _center(t, 3)),
                             antiorthic_axis_of(t))


#: Centers with a batched twin: the ones the measurement pass needs.
BATCH_CENTERS = frozenset({1, 3, 9, 10, 11, 100})


def center_batch(v: np.ndarray, k: int, log: PassLog, s: np.ndarray) -> np.ndarray:
    """``center`` over a triangle stack, for k in ``BATCH_CENTERS``: ``v``
    and its side lengths ``s`` are the stack and the sides that
    ``triangle_batch`` returned, and checked, for it."""
    if k not in BATCH_CENTERS:
        raise UnsupportedCenter(f"center X_{k} has no batched form; batched: {sorted(BATCH_CENTERS)}")
    if k == 10:
        mv, ms = medial_batch(v, log)
        return center_batch(mv, 1, log, ms)
    if k == 100:
        log.check(~scalene_batch(s), IsoscelesDegeneracy, "X_100 is ill-conditioned on isosceles input")
    sides = s.T
    return _barycentric_batch(v, [x * y for x, y in zip(_trilinears(k, *sides, np), sides)], log)
