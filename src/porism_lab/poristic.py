"""The poristic triangle family: a one-parameter family of triangles sharing
a fixed incircle and circumcircle.

Canonical frame (used by every function here): origin at the Bevan point
X40, circumcenter X3 = (d, 0), incenter X1 = (2d, 0), where
d = sqrt(R(R - 2r)) is Euler's distance.  Formulas quoted from other frames
are shifted into this one; each shift is noted where it happens.

Each closed form is a private core of the parameter t, shared by the
scalar API and its ``_batch`` twin over an array of t under the twin rule
of ``geom``.  The scalar API evaluates each one, and builds its object,
inside ``_scalar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import centers as _centers
from . import conics as _conics
from .errors import AxisAtInfinity, DegenerateTriangle, InvalidRatio, PassLog
from .geom import (
    _MATH,
    CanonicalBatch,
    Circle,
    ConicBatch,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    _normalized,
    _stacked,
    _wrap_half_pi,
    canonicalize_batch,
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


def _vertices(cfg: PoristicConfig, t, xp):
    """omega and the vertices p1, p2, p3 as (x, y) pairs."""
    R, r, d = cfg.R, cfg.r, cfg.d
    ct, st = xp.cos(t), xp.sin(t)
    w = xp.sqrt(R * R - (d * ct + r) ** 2)
    p1 = (ct * (d * ct + r) - w * st + d, (d * ct + r) * st + w * ct)
    p2 = (ct * (d * ct + r) + w * st + d, (d * ct + r) * st - w * ct)
    den = R * R - 2 * d * R * ct + d * d
    p3 = (R * (2 * d * R - (R * R + d * d) * ct) / den + d,
          R * (d * d - R * R) * st / den)
    return w, p1, p2, p3


def _scalar(build, t: float):
    """``build()``, which evaluates a closed form in floats at t and builds
    its object.  Where the closed form cancels, underflows or overflows at
    t (a zero denominator, the square root of a negative, a non-finite
    point, a zero conic matrix), ``DegenerateTriangle`` is raised instead."""
    try:
        return build()
    except (ZeroDivisionError, ValueError) as exc:
        raise DegenerateTriangle(f"closed form not defined at t = {t!r} ({exc})") from None


def sample(cfg: PoristicConfig, t: float) -> FamilySample:
    """Vertices from the closed-form parametrization.

    The apex-like vertex (the one on the x-axis at t = 0) is stored first so
    the t = 0 sample is isosceles with s2 = s3; the stored order is
    counter-clockwise.
    """
    def build():
        w, p1, p2, p3 = _vertices(cfg, t, _MATH)
        return w, Triangle((Point(*p3), Point(*p2), Point(*p1)))

    w, tri = _scalar(build, t)
    return FamilySample(t, tri, _centers.excentral(tri), w, tri.perimeter())


@dataclass(frozen=True, eq=False)
class FamilyBatch:
    """Family members at every t of a sweep: ``FamilySample`` with arrays
    (triangles as (n, 3, 2) vertex stacks), and the (n, 3) ``sides`` of
    ``triangle``, measured and checked once by ``triangle_batch``, from
    which the excentral triangles, the perimeters and the centers are
    taken."""

    t: np.ndarray
    triangle: np.ndarray
    excentral: np.ndarray
    omega: np.ndarray
    perimeter: np.ndarray
    sides: np.ndarray


def _family_batch(ts: np.ndarray, v: np.ndarray, omega: np.ndarray, log: PassLog) -> FamilyBatch:
    """The ``FamilyBatch`` of the vertex stack ``v`` at ``ts``."""
    tri, s = triangle_batch(v, log)
    return FamilyBatch(ts, tri, _centers.excentral_batch(tri, s, log), omega, perimeter_batch(s), s)


def _vertex_stack(cfg: PoristicConfig, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The new (n, 3, 2) vertex stack of the members at ``ts``, in
    ``sample``'s vertex order, and their omega."""
    w, p1, p2, p3 = _vertices(cfg, ts, np)
    return _stacked(*p3, *p2, *p1).reshape(-1, 3, 2), w


def sample_batch(cfg: PoristicConfig, ts: np.ndarray, log: PassLog) -> FamilyBatch:
    return _family_batch(ts, *_vertex_stack(cfg, ts), log)


def _perimeter(cfg: PoristicConfig, t, xp):
    R, d = cfg.R, cfg.d
    ct = xp.cos(t)
    return ((3 * R * R - 4 * d * R * ct + d * d)
            * xp.sqrt(3 * R * R + 2 * d * R * ct - d * d)
            / (R * xp.sqrt(R * R - 2 * d * R * ct + d * d)))


def perimeter_closed_form(cfg: PoristicConfig, t: float) -> float:
    return _scalar(lambda: _perimeter(cfg, t, _MATH), t)


def perimeter_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return _perimeter(cfg, ts, np)


def _x9(cfg: PoristicConfig, t, xp):
    """X9 evaluated in units of R (rho = r/R, delta = d/R), then scaled by
    R: in user units its y numerator and denominator are of degree 5 and 4
    in R, which over- or underflow far from R = 1."""
    R, rho, delta = cfg.R, cfg.rho, cfg.d / cfg.R
    ct, st = xp.cos(t), xp.sin(t)
    x = (delta * (4 * delta * ct * ct * (ct - delta) - rho * (3 * delta * ct + 1) - rho * rho)
         / ((4 + rho) * (delta * ct - 1 + rho)))
    y = (4 * delta * delta * st * (1 - (2 * ct - delta) ** 2)
         / ((1 + delta * delta - 2 * delta * ct) * (9 - delta * delta)))
    return (x + delta) * R, y * R


def x9_closed_form(cfg: PoristicConfig, t: float) -> Point:
    """Mittenpunkt location; source formula lives in the X3-origin frame and
    is shifted by (+d, 0) into the canonical frame."""
    return _scalar(lambda: Point(*_x9(cfg, t, _MATH)), t)


def x9_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return _stacked(*_x9(cfg, ts, np))


def _theta(cfg: PoristicConfig, t, xp):
    """The circumbilliard axis angle: minus the atan2 of
    (1 - cos t)(2R cos t + R - d) over (R + d - 2R cos t) sin t, wrapped.
    Their common factor 2 sin(t/2) is cancelled, so it is no 0/0 at t = 0,
    and both take the sign of the second, so the atan2 lies in
    [-pi/2, pi/2] and the wrap never moves a small angle by pi; the axis
    is the same."""
    R, d = cfg.R, cfg.d
    ct = xp.cos(t)
    y = xp.sin(t / 2) * (2 * R * ct + R - d)
    x = (R + d - 2 * R * ct) * xp.cos(t / 2)
    return _wrap_half_pi(-xp.arctan2(xp.where(x < 0, -y, y), abs(x)), xp)


def theta_closed_form(cfg: PoristicConfig, t: float) -> float:
    """Angle of the circumbilliard's major axis against the x-axis,
    in (-pi/2, pi/2].

    tan(theta) = -(1 - cos t)(2R cos t + R - d) / ((R + d - 2R cos t) sin t),
    assembled with atan2 so the poles of tan are harmless.  Validated against
    the canonicalized circumbilliard axis over dense sweeps.
    """
    return _scalar(lambda: _theta(cfg, t, _MATH), t)


def theta_closed_form_batch(cfg: PoristicConfig, ts: np.ndarray) -> np.ndarray:
    return _theta(cfg, ts, np)


def _excentral_lines(cfg: PoristicConfig, t, xp):
    """Unnormalized (a, b, c) of the three excentral side lines."""
    R, r, d = cfg.R, cfg.r, cfg.d
    ct, st = xp.cos(t), xp.sin(t)
    w = xp.sqrt(R * R - (d * ct + r) ** 2)
    return (((d * st - w) * st - r * ct, -((d * ct + r) * st - w * ct), R * R - d * d),
            ((d * st + w) * st - r * ct, -((d * ct + r) * st + w * ct), R * R - d * d),
            (R * ct - d, R * st, -2 * d * R * ct + R * R + d * d))


def excentral_side_lines(cfg: PoristicConfig, t: float) -> tuple[Line, Line, Line]:
    """Closed-form side lines of the excentral triangle (the external
    bisectors of the family member at t)."""
    return _scalar(lambda: tuple(Line(*abc) for abc in _excentral_lines(cfg, t, _MATH)), t)


def _i3x_coeffs(cfg: PoristicConfig, t, xp):
    """Coefficients (A, B, C, D, E, F) of the I3x quadratic form, evaluated
    in units of R (delta = d/R) and brought to user units by scaling the
    constant term by R^2: in user units the quadratic part is of degree 4
    in R and the constant term of degree 6, which over- or underflow far
    from R = 1."""
    R, delta = cfg.R, cfg.d / cfg.R
    ct, st = xp.cos(t), xp.sin(t)
    q = 1 - delta * delta
    xx = q * q - 8 * delta * (ct - delta) * st * st
    yy = q * q - 4 * delta * ct * ((ct - delta) ** 2 - st * st)
    xy = 4 * delta * st * (2 * ct - 1 - delta) * (2 * ct + 1 - delta)
    return xx, xy / 2, yy, 0.0, 0.0, -q * q * (1 + delta * delta - 2 * delta * ct) * (R * R)


def i3x_implicit_matrix(cfg: PoristicConfig, t: float) -> ConicMatrix:
    """Closed-form quadratic form of the excentral inconic centered on X40.

    Its canonical semi-axes are R + d and R - d for every t; the matrix is
    the independent oracle for the I3x that the measurement pass builds
    (``named_conics_batch``, verify's ``i3x_implicit_gap``).
    """
    return _scalar(lambda: ConicMatrix.from_coeffs(*_i3x_coeffs(cfg, t, _MATH)), t)


def i3x_implicit_matrix_batch(cfg: PoristicConfig, ts: np.ndarray) -> ConicBatch:
    return ConicBatch(_normalized(np.array(np.broadcast_arrays(*_i3x_coeffs(cfg, ts, np)))))


def _not_equilateral(cfg: PoristicConfig, what: str) -> None:
    """Raise AxisAtInfinity("equilateral family: <what>") if the family is
    equilateral (d < 1e-12 R): its antiorthic axis is at infinity and its
    X9 stationary, so neither has a line or circle to return."""
    if cfg.d < 1e-12 * cfg.R:
        raise AxisAtInfinity(f"equilateral family: {what}")


def antiorthic_axis(cfg: PoristicConfig) -> Line:
    """Stationary antiorthic axis: the vertical line
    x = (3R^2 + d^2) / (2d) in the canonical frame (the familiar
    (3R^2 - d^2)/(2d) value is the same line seen from the X3 origin)."""
    _not_equilateral(cfg, "antiorthic axis at infinity")
    R, d = cfg.R, cfg.d
    return Line(1.0, 0.0, -(3 * R * R + d * d) / (2 * d))


def weaver_circles(cfg: PoristicConfig) -> tuple[Circle, Circle]:
    """The two equal-power circles, both centered at (d - R, 0): the first
    shares its power against the antiorthic axis with the incircle, the
    second with the circumcircle (and with the excentral circle)."""
    _not_equilateral(cfg, "antiorthic axis at infinity")
    R, d = cfg.R, cfg.d
    center = Point(d - R, 0.0)
    r_inc = ((d + R) / (2 * R)) * math.sqrt((3 * R - d) * (4 * R * R - R * d - d * d) / d)
    r_circ = math.sqrt((3 * R - d) * (d + R) * R / d)
    return Circle(center, r_inc), Circle(center, r_circ)


def mittenpunkt_locus_circle(cfg: PoristicConfig) -> Circle:
    """Circle traced by X9: center (d(3R^2 + d^2)/(9R^2 - d^2) + d, 0),
    radius 4Rd^2/(9R^2 - d^2)."""
    _not_equilateral(cfg, "X9 is stationary")
    R, d = cfg.R, cfg.d
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


def named_conics_batch(fam: FamilyBatch, tags, x: Callable[[int], np.ndarray], log: PassLog,
                       condition: bool = False
                       ) -> tuple[ConicBatch, dict[str, tuple[ConicBatch, CanonicalBatch]]]:
    """``named_conic`` and its ``canonicalize`` for each of ``tags`` over a
    sweep, as one stack; ``x(k)`` gives the reference triangle's center
    X_k, as computed by ``centers.center_batch`` (X40, which E3x and I3x
    read, as 2 X3 - X1).  Returns the stack, which with ``condition`` holds
    the largest condition number of its circumconics' incidence systems
    (``conics.centered_conics_batch``), and per tag a view of it: that
    tag's slice of the coefficient rows and of the canonical forms.  Each
    tag's system block is the family's triangles, or excentral triangles,
    and that tag's centers, as the pass holds them: no stack of the
    systems' triangles or centers is made.

    The stack holds the circumconics, then the inconics, each in
    ``CONIC_TAGS`` order (E1, E9, E10, E3x, E5x, E6x, I9, I3x, I5x).  One
    ``conics.centered_conics_batch`` call builds it and one
    ``canonicalize_batch`` call canonicalizes it.  Its centers are
    computed first, in the same order.  Each check then runs over the
    whole stack, so it raises for the first tag, in that order, that fails
    it, at that tag's lowest failing t, and names that tag ahead of its
    message; the checks of ``centered_conics_batch`` come before those of
    ``canonicalize_batch``."""
    unknown = set(tags) - set(CONIC_TAGS)
    if unknown:
        raise KeyError(f"unknown conic tags {sorted(unknown)}; valid: {CONIC_TAGS}")
    order = [tag for tag in _STACK_ORDER if tag in tags]
    centers = [x(_TAG_TABLE[tag][2]) for tag in order]
    systems = [(fam.excentral if _TAG_TABLE[tag][0] else fam.triangle, center)
               for tag, center in zip(order, centers)]
    n, circum = len(fam.t), sum(_TAG_TABLE[tag][1] for tag in order)
    log = PassLog(log.ts, log.rows, order)
    stack = _conics.centered_conics_batch(systems[:circum], systems[circum:], log, condition)
    can = canonicalize_batch(stack, log)
    return stack, {tag: (ConicBatch(stack.c[:, i * n:(i + 1) * n]), can[i * n:(i + 1) * n])
                   for i, tag in enumerate(order)}


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
