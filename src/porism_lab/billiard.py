"""Elliptic-billiard side of the similarity bridge.

A poristic triangle of perimeter L(t), rotated by the circumbilliard axis
angle and scaled by 1/L(t), lands on one fixed axis-aligned ellipse whose
semi-axes depend only on rho = r/R.  This module holds that normalization,
the rho <-> (a, b) maps, the confocal caustic, the circumbilliard foci
locus, and the cross-check identities between the (a, b) and rho forms of
the shared invariants.

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
from .geom import _MATH, Point, Triangle, triangle_batch
from .poristic import (
    FamilyBatch,
    FamilySample,
    PoristicConfig,
    theta_closed_form,
    theta_closed_form_batch,
    x9_closed_form,
    x9_closed_form_batch,
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

    @classmethod
    def from_axes(cls, a: float, b: float) -> "BilliardConfig":
        return cls(a, b)


def billiard_rho(cfg: BilliardConfig) -> float:
    """Inradius-to-circumradius ratio of the 3-periodic family:
    rho = 2(delta - b^2)(a^2 - delta) / c^4, with rho -> 1/2 as a -> b."""
    if cfg.c2 == 0.0:
        return 0.5
    return 2 * (cfg.delta - cfg.b ** 2) * (cfg.a ** 2 - cfg.delta) / (cfg.c2 * cfg.c2)


def caustic_axes(cfg: BilliardConfig) -> tuple[float, float]:
    """Semi-axes of the confocal caustic tangent to every 3-periodic side."""
    if cfg.c2 == 0.0:
        raise CircularBilliard("caustic formulas need a > b")
    ac = cfg.a * (cfg.delta - cfg.b ** 2) / cfg.c2
    bc = cfg.b * (cfg.a ** 2 - cfg.delta) / cfg.c2
    return ac, bc


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
    s = sqrt(1 - 2 rho) and the denominator 2 rho + 8 that c9/L shares."""
    s = xp.sqrt(xp.maximum(0.0, 1.0 - 2.0 * rho))
    den = 2.0 * rho + 8.0
    return (math.sqrt(2.0) * xp.sqrt(rho + 1.0 + s) / den,
            math.sqrt(2.0) * xp.sqrt(rho + 1.0 - s) / den, s, den)


@dataclass(frozen=True)
class SimilarityParams:
    """The member-dependent similarity carrying the fixed billiard onto the
    family: dilate by ``scale`` (the perimeter), rotate by ``angle``, then
    translate to ``translation`` (the mittenpunkt)."""

    scale: float
    angle: float
    translation: Point

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"similarity scale must be positive, got {self.scale}")


def similarity_params(cfg: PoristicConfig, s: FamilySample) -> SimilarityParams:
    return SimilarityParams(s.perimeter, theta_closed_form(cfg, s.t),
                            x9_closed_form(cfg, s.t))


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
    sim = similarity_params(cfg, s)
    x9 = sim.translation
    return Triangle(tuple(Point(*p) for p in _similarity_map(
        [p.x for p in s.triangle.v], [p.y for p in s.triangle.v], sim.angle, x9.x, x9.y,
        sim.scale, _MATH)))


def normalize_sample_batch(cfg: PoristicConfig, fam: FamilyBatch, log: PassLog) -> np.ndarray:
    """``normalize_sample`` over a sweep: the normalized (n, 3, 2) vertex
    stack."""
    x9 = x9_closed_form_batch(cfg, fam.t)
    out = _similarity_map(fam.triangle[..., 0].T, fam.triangle[..., 1].T,
                          theta_closed_form_batch(cfg, fam.t), x9[:, 0], x9[:, 1],
                          fam.perimeter, np)
    return triangle_batch(np.stack([np.stack(p, axis=-1) for p in out], axis=1), log)


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


def billiard_cross_checks(cfg: BilliardConfig) -> list[dict]:
    """Evaluate the (a, b)-form of each shared invariant next to its
    rho-form; rows carry both values and the relative difference."""
    a, b, delta = cfg.a, cfg.b, cfg.delta
    rho = billiard_rho(cfg)
    rows = []

    def row(name, lhs, rhs):
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rows.append({"name": name, "ab_form": lhs, "rho_form": rhs, "rel_diff": rel})

    s = math.sqrt(max(0.0, 1.0 - 2.0 * rho))
    # Aspect ratio shared by the incenter circumconic and the excentral
    # circumcenter-centered inconic: (R + d) / (R - d).
    ab_x3 = math.sqrt(2 * delta * (delta + a * a - b * b) - a * a * b * b) / (b * b)
    row("exc_inconic_x3_aspect", ab_x3, (1.0 + s) / rho - 1.0)
    row("e1_axis_ratio", math.sqrt(2 * delta * delta + 2 * (a * a - b * b) * delta - a * a * b * b) / (b * b),
        (1.0 + s) / rho - 1.0)
    # Excentral MacBeath inconic aspect: two symmetric (a, b) forms and the
    # 1/sqrt(2 rho) form.
    f1 = (b * b + delta) * math.sqrt(delta + a * a - b * b) / (2 * b * a * a)
    f2 = (a * a + delta) * math.sqrt(delta + b * b - a * a) / (2 * a * b * b)
    row("exc_inconic_x5_forms", f1, f2)
    row("exc_inconic_x5_aspect", f1, 1.0 / math.sqrt(2.0 * rho))
    # Circumbilliard aspect from the normalized axes reproduces a/b.
    a9, b9, _ = cb_axes_normalized(rho)
    row("cb_aspect_roundtrip", a9 / b9, a / b)
    return rows


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


def three_periodic_orbit(cfg: BilliardConfig, phi0: float) -> Triangle:
    """Closed 3-bounce orbit through the boundary point at eccentric angle
    phi0, found by bisecting the launch angle until the orbit returns to its
    start.  Oracle tool for tangency tests, not part of the kernel API.

    Position closure after three bounces has spurious roots where the
    reflection law fails at the starting vertex, so every bracketed root is
    bisected and the orbit whose return direction also closes is kept.
    """
    a, b = cfg.a, cfg.b

    def boundary(phi):
        return (a * math.cos(phi), b * math.sin(phi))

    def advance(phi, alpha):
        """One chord from boundary(phi) in direction alpha; returns the next
        eccentric angle and the reflected direction there."""
        x, y = boundary(phi)
        dx, dy = math.cos(alpha), math.sin(alpha)
        # Second intersection of the ray with the ellipse (the first root of
        # the chord quadratic is s = 0 because (x, y) is on the boundary).
        qa = (dx / a) ** 2 + (dy / b) ** 2
        qb = 2 * (x * dx / (a * a) + y * dy / (b * b))
        s = -qb / qa
        x1, y1 = x + s * dx, y + s * dy
        phi1 = math.atan2(y1 / b, x1 / a)
        nx, ny = x1 / (a * a), y1 / (b * b)
        nn = math.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        dot = dx * nx + dy * ny
        return phi1, math.atan2(dy - 2 * dot * ny, dx - 2 * dot * nx)

    def run(alpha):
        phi, ang = phi0, alpha
        for _ in range(3):
            phi, ang = advance(phi, ang)
        gap = math.remainder(phi - phi0, 2 * math.pi)
        return gap, ang

    def direction_defect(alpha):
        # Reflect the returning chord at the start point; it must reproduce
        # the launch direction for a genuine periodic orbit.
        _, ang_in = run(alpha)
        x, y = boundary(phi0)
        nx, ny = x / (a * a), y / (b * b)
        nn = math.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        dx, dy = math.cos(ang_in), math.sin(ang_in)
        # ang_in is already the reflected outgoing direction at the return
        # point, which coincides with the start for a closed orbit.
        return abs(math.remainder(math.atan2(dy, dx) - alpha, 2 * math.pi))

    tang = math.atan2(b * math.cos(phi0), -a * math.sin(phi0))
    n_scan = 720
    alphas = [tang + math.pi * (k + 0.5) / n_scan for k in range(n_scan)]
    gaps = [run(al)[0] for al in alphas]
    best = None
    for i in range(n_scan - 1):
        g0, g1 = gaps[i], gaps[i + 1]
        if g0 == 0.0:
            candidates = [alphas[i]]
        elif g0 * g1 < 0 and abs(g0) + abs(g1) < math.pi:
            lo, hi, glo = alphas[i], alphas[i + 1], g0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                gm = run(mid)[0]
                if glo * gm <= 0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            candidates = [0.5 * (lo + hi)]
        else:
            continue
        for alpha in candidates:
            gap, _ = run(alpha)
            defect = direction_defect(alpha)
            if abs(gap) < 1e-12 and (best is None or defect < best[0]):
                best = (defect, alpha)
    if best is None or best[0] > 1e-6:
        raise RuntimeError(f"no closed 3-periodic found through phi0={phi0}")
    alpha = best[1]
    phi, ang = phi0, alpha
    pts = [Point(*boundary(phi0))]
    for _ in range(2):
        phi, ang = advance(phi, ang)
        pts.append(Point(*boundary(phi)))
    return Triangle(tuple(pts))
