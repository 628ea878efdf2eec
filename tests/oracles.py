"""Test oracles: independent constructions that the tests compare the
package against.  No command of the package runs them.

- ``three_periodic_orbit`` finds a closed 3-bounce billiard orbit by
  shooting, without the closed forms of ``porism_lab.billiard``.
- ``billiard_ab_forms`` gives the (a, b) forms of the axis ratios that the
  quantity table states in rho form (``report.QUANTITIES``).
- ``conic_from_canonical`` rebuilds a conic matrix from its canonical form,
  and ``tangency_residual`` tests a line against a conic through the dual
  conic.
- ``fsum_circumconic`` solves the centered circumconic with each 3x3 minor
  summed by ``math.fsum`` (``_det3``), the reference for the Laplace minors
  that both twins of ``conics`` take from their rank filter.
"""

from __future__ import annotations

import math

import numpy as np

from porism_lab.billiard import BilliardConfig
from porism_lab.errors import DegenerateConic
from porism_lab.geom import CanonicalConic, ConicKind, ConicMatrix, Line, Point, Triangle


def three_periodic_orbit(cfg: BilliardConfig, phi0: float) -> Triangle:
    """Closed 3-bounce orbit through the boundary point at eccentric angle
    phi0, found by bisecting the launch angle until the orbit returns to its
    start.

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


def billiard_ab_forms(cfg: BilliardConfig) -> list[tuple[str, float]]:
    """The (a, b) form of each axis ratio shared by the billiard with axes
    ``cfg`` and the poristic family of the same rho, as pairs
    (quantity name in ``report.QUANTITIES``, value)."""
    a, b, delta = cfg.a, cfg.b, cfg.delta
    # I3x, the excentral inconic centered at X3, and E1, the circumconic
    # centered at X1, share the aspect ratio (R + d) / (R - d).
    bicentric = math.sqrt(2 * delta * (delta + a * a - b * b) - a * a * b * b) / (b * b)
    return [
        ("ratio_i3x", bicentric),
        ("ratio_e1", bicentric),
        # I5x, the excentral MacBeath inconic, in two symmetric forms.
        ("ratio_i5x", (b * b + delta) * math.sqrt(delta + a * a - b * b) / (2 * b * a * a)),
        ("ratio_i5x", (a * a + delta) * math.sqrt(delta + b * b - a * a) / (2 * a * b * b)),
    ]


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
    """adj(M): column i holds the cofactors of row i, the cross product of
    the other two rows."""
    return np.stack([np.cross(m[1], m[2]), np.cross(m[2], m[0]), np.cross(m[0], m[1])], axis=1)


# The columns of the 3x4 system each minor keeps: all but column ``skip``.
_KEPT_COLUMNS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _det3(rows, skip: int) -> float:
    """Signed 3x3 minor of a 3x4 row system with one column removed,
    accumulated with compensated summation."""
    j, k, l = _KEPT_COLUMNS[skip]
    r0, r1, r2 = rows
    a, b, c = r0[j], r0[k], r0[l]
    d, e, f = r1[j], r1[k], r1[l]
    g, h, i = r2[j], r2[k], r2[l]
    return math.fsum((a * e * i, -a * f * h, -b * d * i, b * f * g, c * d * h, -c * e * g))


def fsum_circumconic(t: Triangle, center: Point) -> tuple[float, float, float, float]:
    """(A, B, C, F) of ``conics._centered_circumconic`` from the same float
    incidence rows, with each minor summed by ``math.fsum``; no checks."""
    rows = [(u * u, 2 * u * v, v * v, 1.0)
            for u, v in ((p.x - center.x, p.y - center.y) for p in t.v)]
    vec = (_det3(rows, 0), -_det3(rows, 1), _det3(rows, 2), -_det3(rows, 3))
    top = max(abs(x) for x in vec)
    return tuple(x / top for x in vec)
