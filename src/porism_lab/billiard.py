"""Elliptic-billiard side of the similarity bridge.

A poristic triangle of perimeter L(t), rotated by the circumbilliard axis
angle and scaled by 1/L(t), lands on one fixed axis-aligned ellipse whose
semi-axes depend only on rho = r/R.  This module holds that normalization,
the rho <-> (a, b) maps, the confocal caustic and the circumbilliard foci
locus.

``normalize_sample`` and ``reflection_law_residual`` have ``_batch`` twins
over (n, 3, 2) vertex stacks for the measurement pass.  Under the twin rule
of ``geom`` their cores are the similarity map ``_similarity_map`` and the
reflection law ``_reflection_gap``; only the triangle check stays per twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CircularBilliard, InvalidRatio, PassLog
from .geom import _MATH, Point, Triangle, _stacked, triangle_batch
from .poristic import (
    FamilyBatch,
    FamilySample,
    PoristicConfig,
    theta_closed_form,
    x9_closed_form,
)


@dataclass(frozen=True)
class BilliardConfig:
    """Ellipse semi-axes a >= b > 0.  It derives the constants
    delta = sqrt(a^4 - a^2 b^2 + b^4) and c2 = a^2 - b^2; ``a ** 4`` raises
    ``OverflowError`` beyond about a = 1e77."""

    a: float
    b: float
    delta: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        a, b = self.a, self.b
        if not (a >= b > 0):
            raise ValueError(f"require a >= b > 0, got a={a}, b={b}")
        object.__setattr__(self, "delta", math.sqrt(a ** 4 - a * a * b * b + b ** 4))
        object.__setattr__(self, "c2", a * a - b * b)


def billiard_rho(cfg: BilliardConfig) -> float:
    """Inradius-to-circumradius ratio of the 3-periodic family,
    rho = 2(delta - b^2)(a^2 - delta) / c^4, which is 1/2 at a = b.

    With delta - b^2 = a^2 c^2 / (delta + b^2) and
    a^2 - delta = b^2 c^2 / (a^2 + delta) it is evaluated as
    2 a^2 b^2 / ((delta + b^2)(a^2 + delta)): sums of positive terms, with
    no cancellation for thin or nearly circular billiards."""
    a2, b2, delta = cfg.a * cfg.a, cfg.b * cfg.b, cfg.delta
    return 2.0 * a2 * b2 / ((delta + b2) * (a2 + delta))


def caustic_axes(cfg: BilliardConfig) -> tuple[float, float]:
    """Semi-axes of the confocal caustic tangent to every 3-periodic side,
    a (delta - b^2) / c^2 and b (a^2 - delta) / c^2, evaluated without
    cancellation as a^3 / (delta + b^2) and b^3 / (a^2 + delta) (see
    ``billiard_rho``)."""
    if cfg.c2 == 0.0:
        raise CircularBilliard("caustic formulas need a > b")
    a, b, delta = cfg.a, cfg.b, cfg.delta
    return a * a * a / (delta + b * b), b * b * b / (a * a + delta)


def cb_axes_normalized(rho: float) -> tuple[float, float, float]:
    """Circumbilliard semi-axes and focal half-distance in units of the
    triangle perimeter: (a9/L, b9/L, c9/L).

    a9/L = sqrt(2) sqrt(rho + 1 + sqrt(1 - 2 rho)) / (2 rho + 8), likewise
    with the inner minus for b9/L; the endpoints are sqrt(3)/9 at rho = 1/2
    and (1/4, 0) in the rho -> 0 limit.
    """
    if not 0 < rho <= 0.5:
        raise InvalidRatio(f"rho = {rho} outside (0, 1/2]")
    a9, b9, s, den = _cb_axes(rho, _MATH)
    return a9, b9, 2.0 * s ** 0.5 / den


def _cb_axes(rho, xp):
    """a9/L and b9/L of ``cb_axes_normalized``, with the root
    s = sqrt(1 - 2 rho) and the denominator 2 rho + 8 that c9/L shares.
    b9/L's inner rho + 1 - s is taken as rho + 2 rho / (1 + s), since
    1 - s = 2 rho / (1 + s): the difference loses all digits as rho -> 0."""
    s = xp.sqrt(xp.maximum(0.0, 1.0 - 2.0 * rho))
    den = 2.0 * rho + 8.0
    return (math.sqrt(2.0) * xp.sqrt(rho + 1.0 + s) / den,
            math.sqrt(2.0) * xp.sqrt(rho + 2.0 * rho / (1.0 + s)) / den, s, den)


def _similarity_map(xs, ys, angle, cx, cy, scale, xp):
    """The vertices (xs[i], ys[i]) translated by -(cx, cy), rotated by
    -angle and scaled by 1/scale, as (x, y) pairs."""
    ct, st = xp.cos(-angle), xp.sin(-angle)
    inv_l = 1.0 / scale
    out = []
    for x, y in zip(xs, ys):
        dx, dy = (x - cx) * inv_l, (y - cy) * inv_l
        out.append((ct * dx - st * dy, st * dx + ct * dy))
    return out


def normalize_sample(cfg: PoristicConfig, s: FamilySample) -> Triangle:
    """Map a family member onto the fixed billiard: translate by -X9(t),
    rotate by -theta(t), scale by 1/L(t).

    The image triangle is inscribed in the ellipse
    u^2/(a9/L)^2 + v^2/(b9/L)^2 = 1 and satisfies the reflection law at its
    vertices; its perimeter is 1 by construction.
    """
    theta, x9 = theta_closed_form(cfg, s.t), x9_closed_form(cfg, s.t)
    if not s.perimeter > 0:
        raise ValueError(f"similarity scale must be positive, got {s.perimeter}")
    return Triangle(tuple(Point(*p) for p in _similarity_map(
        [p.x for p in s.triangle.v], [p.y for p in s.triangle.v], theta, x9.x, x9.y,
        s.perimeter, _MATH)))


def normalize_sample_batch(fam: FamilyBatch, x9: np.ndarray, theta: np.ndarray,
                           log: PassLog) -> tuple[np.ndarray, np.ndarray]:
    """``normalize_sample`` over a sweep, given the closed forms it reads at
    each t, X9 (``x9_closed_form_batch``) and theta
    (``theta_closed_form_batch``), which the measurement pass computes once
    for this and for its rows: the normalized (n, 3, 2) vertex stack and
    its sides, from ``triangle_batch``."""
    out = _similarity_map(fam.triangle[..., 0].T, fam.triangle[..., 1].T,
                          theta, x9[:, 0], x9[:, 1], fam.perimeter, np)
    return triangle_batch(_stacked(*out[0], *out[1], *out[2]).reshape(-1, 3, 2), log)


def foci_locus_check(cfg: PoristicConfig) -> tuple[Point, float]:
    """Predicted circle traced by the circumbilliard foci: center
    ((R - d)d/(3R + d) + d, 0) and radius
    r9 = 2 sqrt(dR (3R - d)(R + d)) / (3R + d).

    The radius equals the focal half-distance of the isosceles member
    (c9 at t = 0), where the circle's center coincides with X9.
    """
    R, d = cfg.R, cfg.d
    center = Point((R - d) * d / (3 * R + d) + d, 0.0)
    r9 = 2.0 * math.sqrt(d * R * (3 * R - d) * (R + d)) / (3 * R + d)
    return center, r9


def _reflection_gap(xs, ys, a, b, xp):
    """Worst angle between the reflected incoming and the outgoing chord over
    the vertices (xs[i], ys[i]) on the ellipse (a, b)."""
    worst = 0.0
    for i in range(3):
        x, y, j, k = xs[i], ys[i], (i - 1) % 3, (i + 1) % 3
        nx, ny = 2 * x / (a * a), 2 * y / (b * b)
        nn = xp.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        d1x, d1y = x - xs[j], y - ys[j]
        n1 = xp.hypot(d1x, d1y)
        d1x, d1y = d1x / n1, d1y / n1
        d2x, d2y = xs[k] - x, ys[k] - y
        n2 = xp.hypot(d2x, d2y)
        d2x, d2y = d2x / n2, d2y / n2
        dot = d1x * nx + d1y * ny
        rx, ry = d1x - 2 * dot * nx, d1y - 2 * dot * ny
        worst = xp.maximum(worst, abs(xp.arctan2(abs(rx * d2y - ry * d2x), rx * d2x + ry * d2y)))
    return worst


def reflection_law_residual(tri: Triangle, a: float, b: float) -> float:
    """Worst angular mismatch (radians) between the reflected incoming chord
    and the outgoing chord at the vertices, for a triangle inscribed in the
    axis-aligned ellipse (a, b); the tangent comes from the implicit
    gradient."""
    return _reflection_gap([p.x for p in tri.v], [p.y for p in tri.v], a, b, _MATH)


def reflection_law_residual_batch(v: np.ndarray, a: float, b: float) -> np.ndarray:
    """``reflection_law_residual`` over a (n, 3, 2) vertex stack."""
    return _reflection_gap(v[:, :, 0].T, v[:, :, 1].T, a, b, np)

