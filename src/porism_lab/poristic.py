"""The poristic triangle family: a one-parameter family of triangles sharing
a fixed incircle and circumcircle.

Canonical frame (used by every function here): origin at the Bevan point
X40, circumcenter X3 = (d, 0), incenter X1 = (2d, 0), where
d = sqrt(R(R - 2r)) is Euler's distance.  Formulas quoted from other frames
are shifted into this one; each shift is noted where it happens.

Each closed form is written once, as a private function of cos t and sin t
using only arithmetic and the ``sqrt`` it is given, so the scalar API (with
``math``) and its ``_batch`` twin over an array of t (with numpy) evaluate
the same expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import centers as _centers
from . import conics as _conics
from .errors import AxisAtInfinity, DegenerateTriangle, InvalidRatio, PassLog, _named
from .geom import (
    CanonicalBatch,
    Circle,
    ConicBatch,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    _normalized,
    _wrap_half_pi,
    _wrap_half_pi_batch,
    canonicalize_batch,
    line_batch,
    perimeter_batch,
    triangle_batch,
)

# A parameter radius about t = 0 and pi, where the family is isosceles.  The
# measurement pass does not read it (X100's gate is the side-length test of
# ``centers.scalene_batch``); the benchmark's sweep check
# (perfbench/workloads.py) reads it to accept the skipped cells of a sweep.
ISOSCELES_T_RADIUS = 1e-6


@dataclass(frozen=True)
class PoristicConfig:
    """Fixed circle pair (R, r) with 0 < r <= R/2.  It derives Euler's
    distance d = sqrt(R(R - 2r)), so d^2 = R(R - 2r) holds by construction,
    and rho = r / R; an invalid pair raises ``InvalidRatio``."""

    R: float
    r: float
    d: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        R, r = self.R, self.r
        if not R > 0:
            raise InvalidRatio(f"R must be positive, got {R}")
        if not 0 < r <= R / 2:
            raise InvalidRatio(f"r = {r} outside (0, R/2] for R = {R}")
        rho = r / R  # underflows to 0 for a pair like (1e100, 1e-300)
        if not 0 < rho <= 0.5:
            raise InvalidRatio(f"rho = {rho} outside (0, 1/2]")
        object.__setattr__(self, "d", math.sqrt(R * (R - 2 * r)))
        object.__setattr__(self, "rho", rho)

    @property
    def circumcircle(self) -> Circle:
        return Circle(Point(self.d, 0.0), self.R)

    @property
    def incircle(self) -> Circle:
        return Circle(Point(2 * self.d, 0.0), self.r)

    @property
    def excentral_circle(self) -> Circle:
        """Locus of the excenters: centered on X40 with radius 2R."""
        return Circle(Point(0.0, 0.0), 2 * self.R)


#: ``config_from_rR(R, r)`` is ``PoristicConfig(R, r)``.
config_from_rR = PoristicConfig


def config_from_rho(rho: float) -> PoristicConfig:
    """The family of ratio rho = r / R at R = 1."""
    return PoristicConfig(1.0, rho)


@dataclass(frozen=True)
class FamilySample:
    """One family member at parameter t (tangency point on the incircle)."""

    t: float
    triangle: Triangle
    excentral: Triangle
    omega: float
    perimeter: float


def _vertices(cfg: PoristicConfig, ct, st, sqrt):
    """omega and the vertices p1, p2, p3 as (x, y) pairs."""
    R, r, d = cfg.R, cfg.r, cfg.d
    w = sqrt(R * R - (d * ct + r) ** 2)
    p1 = (ct * (d * ct + r) - w * st + d, (d * ct + r) * st + w * ct)
    p2 = (ct * (d * ct + r) + w * st + d, (d * ct + r) * st - w * ct)
    den = R * R - 2 * d * R * ct + d * d
    p3 = (R * (2 * d * R - (R * R + d * d) * ct) / den + d,
          R * (d * d - R * R) * st / den)
    return w, p1, p2, p3


def _scalar(core, t: float, *args):
    """``core(*args)`` in floats; a zero denominator or the square root of a
    negative, where the closed form cancels at t, raises
    ``DegenerateTriangle``."""
    try:
        return core(*args)
    except (ZeroDivisionError, ValueError) as exc:
        raise DegenerateTriangle(f"closed form not defined at t = {t!r} ({exc})") from None


def sample(cfg: PoristicConfig, t: float) -> FamilySample:
    """Vertices from the closed-form parametrization.

    The apex-like vertex (the one on the x-axis at t = 0) is stored first so
    the t = 0 sample is isosceles with s2 = s3; the stored order is
    counter-clockwise.
    """
    w, p1, p2, p3 = _scalar(_vertices, t, cfg, math.cos(t), math.sin(t), math.sqrt)
    tri = Triangle((Point(*p3), Point(*p2), Point(*p1)))
    exc = _centers.excentral(tri)
    return FamilySample(t, tri, exc, w, tri.perimeter())


@dataclass(frozen=True, eq=False)
class FamilyBatch:
    """Family members at every t of a sweep: ``FamilySample`` with arrays
    (triangles as (n, 3, 2) vertex stacks)."""

    t: np.ndarray
    triangle: np.ndarray
    excentral: np.ndarray
    omega: np.ndarray
    perimeter: np.ndarray


def sample_batch(cfg: PoristicConfig, ts: np.ndarray, log: PassLog) -> FamilyBatch:
    w, p1, p2, p3 = _vertices(cfg, np.cos(ts), np.sin(ts), np.sqrt)
    tri = triangle_batch(np.stack([np.stack(p, axis=-1) for p in (p3, p2, p1)], axis=1), log)
    return FamilyBatch(ts, tri, _centers.excentral_batch(tri, log), w, perimeter_batch(tri))


def _perimeter(cfg: PoristicConfig, ct, sqrt):
    R, d = cfg.R, cfg.d
    return ((3 * R * R - 4 * d * R * ct + d * d)
            * sqrt(3 * R * R + 2 * d * R * ct - d * d)
            / (R * sqrt(R * R - 2 * d * R * ct + d * d)))


def perimeter_closed_form(cfg: PoristicConfig, t: float) -> float:
    return _scalar(_perimeter, t, cfg, math.cos(t), math.sqrt)


def perimeter_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return _perimeter(cfg, np.cos(ts), np.sqrt)


def _x9(cfg: PoristicConfig, ct, st):
    R, r, d = cfg.R, cfg.r, cfg.d
    x = (d * (4 * d * ct * ct * (R * ct - d) - r * (3 * d * ct + R) - r * r)
         / ((4 * R + r) * (d * ct - R + r)))
    y = (4 * R * d * d * st * (R * R - (2 * R * ct - d) ** 2)
         / ((R * R + d * d - 2 * d * R * ct) * (9 * R * R - d * d)))
    return x + d, y


def x9_closed_form(cfg: PoristicConfig, t: float) -> Point:
    """Mittenpunkt location; source formula lives in the X3-origin frame and
    is shifted by (+d, 0) into the canonical frame."""
    return Point(*_x9(cfg, math.cos(t), math.sin(t)))


def x9_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return np.stack(_x9(cfg, np.cos(ts), np.sin(ts)), axis=-1)


def _theta_args(cfg: PoristicConfig, ct, st):
    """(y, x) of the atan2 that gives minus the circumbilliard axis angle."""
    R, d = cfg.R, cfg.d
    return (1 - ct) * (2 * R * ct + R - d), (R + d - 2 * R * ct) * st


def theta_closed_form(cfg: PoristicConfig, t: float) -> float:
    """Angle of the circumbilliard's major axis against the x-axis,
    in (-pi/2, pi/2].

    tan(theta) = -(1 - cos t)(2R cos t + R - d) / ((R + d - 2R cos t) sin t),
    assembled with atan2 so the poles of tan are harmless.  Validated against
    the canonicalized circumbilliard axis over dense sweeps.
    """
    return _wrap_half_pi(-math.atan2(*_theta_args(cfg, math.cos(t), math.sin(t))))


def theta_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return _wrap_half_pi_batch(-np.arctan2(*_theta_args(cfg, np.cos(ts), np.sin(ts))))


def _excentral_lines(cfg: PoristicConfig, ct, st, sqrt):
    """Unnormalized (a, b, c) of the three excentral side lines."""
    R, r, d = cfg.R, cfg.r, cfg.d
    w = sqrt(R * R - (d * ct + r) ** 2)
    return (((d * st - w) * st - r * ct, -((d * ct + r) * st - w * ct), R * R - d * d),
            ((d * st + w) * st - r * ct, -((d * ct + r) * st + w * ct), R * R - d * d),
            (R * ct - d, R * st, -2 * d * R * ct + R * R + d * d))


def excentral_side_lines(cfg: PoristicConfig, t: float) -> tuple[Line, Line, Line]:
    """Closed-form side lines of the excentral triangle (the external
    bisectors of the family member at t)."""
    l1, l2, l3 = _excentral_lines(cfg, math.cos(t), math.sin(t), math.sqrt)
    return Line(*l1), Line(*l2), Line(*l3)


def excentral_side_lines_batch(cfg: PoristicConfig, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three lines as (n, 3) row stacks."""
    return tuple(line_batch(*abc) for abc in _excentral_lines(cfg, np.cos(ts), np.sin(ts), np.sqrt))


def _i3x_entries(cfg: PoristicConfig, ct, st):
    """(xx, xy, yy, const) of the I3x quadratic form."""
    R, d = cfg.R, cfg.d
    q = R * R - d * d
    xx = q * q - 8 * d * R * R * (R * ct - d) * st * st
    yy = q * q - 4 * d * R * ct * ((R * ct - d) ** 2 - R * R * st * st)
    xy = 4 * d * R * st * (2 * R * ct - R - d) * (2 * R * ct + R - d)
    const = -q * q * (R * R + d * d - 2 * d * R * ct)
    return xx, xy, yy, const


def i3x_implicit_matrix(cfg: PoristicConfig, t: float) -> ConicMatrix:
    """Closed-form quadratic form of the excentral inconic centered on X40.

    Its canonical semi-axes are R + d and R - d for every t; the matrix is
    the independent oracle for the tangent-line construction of the same
    conic.
    """
    xx, xy, yy, const = _i3x_entries(cfg, math.cos(t), math.sin(t))
    return ConicMatrix(np.array([[xx, 0.5 * xy, 0.0],
                                 [0.5 * xy, yy, 0.0],
                                 [0.0, 0.0, const]]))


def i3x_implicit_matrix_batch(cfg: PoristicConfig, ts: np.ndarray) -> ConicBatch:
    xx, xy, yy, const = _i3x_entries(cfg, np.cos(ts), np.sin(ts))
    zero = np.zeros_like(xx)
    return ConicBatch(_normalized(np.array([xx, 0.5 * xy, yy, zero, zero, const])))


def antiorthic_axis(cfg: PoristicConfig) -> Line:
    """Stationary antiorthic axis: the vertical line
    x = (3R^2 + d^2) / (2d) in the canonical frame (the familiar
    (3R^2 - d^2)/(2d) value is the same line seen from the X3 origin)."""
    R, d = cfg.R, cfg.d
    if d < 1e-12 * R:
        raise AxisAtInfinity("equilateral family: antiorthic axis at infinity")
    return Line(1.0, 0.0, -(3 * R * R + d * d) / (2 * d))


def weaver_circles(cfg: PoristicConfig) -> tuple[Circle, Circle]:
    """The two equal-power circles, both centered at (d - R, 0): the first
    shares its power against the antiorthic axis with the incircle, the
    second with the circumcircle (and with the excentral circle)."""
    R, d = cfg.R, cfg.d
    if d < 1e-12 * R:
        raise AxisAtInfinity("equilateral family: antiorthic axis at infinity")
    center = Point(d - R, 0.0)
    r_inc = ((d + R) / (2 * R)) * math.sqrt((3 * R - d) * (4 * R * R - R * d - d * d) / d)
    r_circ = math.sqrt((3 * R - d) * (d + R) * R / d)
    return Circle(center, r_inc), Circle(center, r_circ)


def mittenpunkt_locus_circle(cfg: PoristicConfig) -> Circle:
    """Circle traced by X9: center (d(3R^2 + d^2)/(9R^2 - d^2) + d, 0),
    radius 4Rd^2/(9R^2 - d^2)."""
    R, d = cfg.R, cfg.d
    if d < 1e-12 * R:
        raise AxisAtInfinity("equilateral family: X9 is stationary")
    den = 9 * R * R - d * d
    return Circle(Point(d * (3 * R * R + d * d) / den + d, 0.0), 4 * R * d * d / den)


#: The named conics of the family; ``CONIC_TAGS`` is its keys, in order.
#: Suffix "x" means built on the excentral triangle; the center column is
#: the center seen from the reference triangle (X5 of the excentral is X3 of
#: the reference, X6 of the excentral is X9 of the reference, X3 of the
#: excentral is X40).
_TAG_TABLE = {
    # tag: (use excentral triangle, circumconic?, reference center id)
    "E1": (False, True, 1),
    "E9": (False, True, 9),
    "E10": (False, True, 10),
    "I9": (False, False, 9),
    "E3x": (True, True, 40),
    "E5x": (True, True, 3),
    "E6x": (True, True, 9),
    "I3x": (True, False, 40),
    "I5x": (True, False, 3),
}
CONIC_TAGS = tuple(_TAG_TABLE)
_STACK_ORDER = sorted(CONIC_TAGS, key=lambda tag: not _TAG_TABLE[tag][1])  # circumconics first


def named_conic(cfg: PoristicConfig, t: float, tag: str,
                s: FamilySample | None = None) -> ConicMatrix:
    """Build one of the family's named conics at parameter t."""
    if tag not in _TAG_TABLE:
        raise KeyError(f"unknown conic tag {tag!r}; valid: {CONIC_TAGS}")
    on_excentral, is_circum, center_id = _TAG_TABLE[tag]
    if s is None:
        s = sample(cfg, t)
    tri = s.excentral if on_excentral else s.triangle
    center = _centers.center(s.triangle, center_id)
    if is_circum:
        return _conics.circumconic_centered(tri, center)
    return _conics.inconic_centered(tri, center)


def named_conics_batch(fam: FamilyBatch, tags, x: Callable[[int], np.ndarray],
                       log: PassLog) -> dict[str, tuple[ConicBatch, CanonicalBatch]]:
    """``named_conic`` and its ``canonicalize`` for each of ``tags`` over a
    sweep, as views of one stack; ``x(k)`` gives the reference triangle's
    center X_k, as computed by ``centers.center_batch``.

    The stack holds the circumconics, then the inconics, each in
    ``CONIC_TAGS`` order (E1, E9, E10, E3x, E5x, E6x, I9, I3x, I5x).  One
    ``conics.centered_conics_batch`` call builds it and one
    ``canonicalize_batch`` call canonicalizes it.  Its centers are
    computed first, in the same order.  Each check then runs over the
    whole stack, so it raises for the first tag, in that order, that fails
    it, at that tag's lowest failing t, and names that tag ahead of its
    message when the stack holds more than one; the checks of
    ``centered_conics_batch`` come before those of ``canonicalize_batch``."""
    unknown = set(tags) - set(CONIC_TAGS)
    if unknown:
        raise KeyError(f"unknown conic tags {sorted(unknown)}; valid: {CONIC_TAGS}")
    order = [tag for tag in _STACK_ORDER if tag in tags]
    center = np.concatenate([x(_TAG_TABLE[tag][2]) for tag in order])
    v = np.concatenate([fam.excentral if _TAG_TABLE[tag][0] else fam.triangle for tag in order])
    n = len(fam.t)
    n_circum = n * sum(_TAG_TABLE[tag][1] for tag in order)
    log = _named(log, order if len(order) > 1 else ())
    stack = _conics.centered_conics_batch(v, center, n_circum, log)
    can = canonicalize_batch(stack, log)
    out = {}
    for i, tag in enumerate(order):
        s = slice(i * n, (i + 1) * n)
        extra = (stack.rows[s], stack.kappa[s]) if i * n < n_circum else ()
        out[tag] = ConicBatch(stack.c[:, s], *extra), can[s]
    return out


class FamilyAngleClass(Enum):
    ALL_ACUTE = "all_acute"
    CONTAINS_RIGHT = "contains_right"
    CONTAINS_OBTUSE = "contains_obtuse"


def obtuse_class(cfg: PoristicConfig) -> FamilyAngleClass:
    """Family-level classification: obtuse members exist iff d > r."""
    if abs(cfg.d - cfg.r) <= 1e-12 * cfg.R:
        return FamilyAngleClass.CONTAINS_RIGHT
    if cfg.d < cfg.r:
        return FamilyAngleClass.ALL_ACUTE
    return FamilyAngleClass.CONTAINS_OBTUSE


def is_obtuse(s: FamilySample) -> bool:
    """Largest-angle test by the sign of the vertex dot products."""
    v = s.triangle.v
    for i in range(3):
        a, b, c = v[i], v[(i + 1) % 3], v[(i + 2) % 3]
        if (b.x - a.x) * (c.x - a.x) + (b.y - a.y) * (c.y - a.y) < 0.0:
            return True
    return False
