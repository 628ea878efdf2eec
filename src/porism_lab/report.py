"""Sweep and verification harness.

``run_verify`` evaluates every family invariant over a dense t-sweep and
reports one verdict row per quantity; ``run_sweep`` dumps raw per-sample
quantities.  Both read one table, ``QUANTITIES``, and one measurement pass
whose stages run on arrays over all t, through the ``_batch`` twins of the
scalar kernel, and only when a requested quantity needs them.  The first
check that fails, in the order the requested quantities are computed,
raises its ``GeometryError`` subclass for the lowest failing t.

A quantity is "invariant" when its relative spread over the
sweep stays below tolerance; residual-style quantities (which should be
numerically zero) pass when their maximum stays below tolerance; a few
quantities (perimeter, billiard-view inradius and circumradius) must be
detected as varying.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import billiard as _billiard
from . import centers as _centers
from . import conics as _conics
from . import poristic as _poristic
from .errors import ConfigError, DegenerateConic, GeometryError, PassLog, UnknownQuantity
# canonicalize, conic_eval and foci stay importable from this module: the
# benchmark's tracer self-test (perfbench/test_perfbench.py) resolves them here.
from .geom import (  # noqa: F401
    Point,
    canonicalize,
    canonicalize_batch,
    conic_eval,
    conic_eval_batch,
    distance_batch,
    foci,
    foci_batch,
    line_intersection_batch,
    line_through_batch,
    max_condition_batch,
    perimeter_batch,
    power_of_point,
    side_lines_batch,
    signed_area_batch,
    triangle_batch,
)

SCHEMA_VERSION = 1
MAX_T_SAMPLES = 10**6  # a verify holds about 3 KB per sample: at most about 3 GB
# Beyond this range of R the family's loci underflow or overflow unchecked.
_R_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class LabConfig:
    """Configuration for sweeps, verification and figures."""

    R: float = 1.0
    r: float = 0.36266
    t_samples: int = 720
    tolerance: float = 1e-9
    angle_tolerance: float = 1e-8
    seed: int = 0
    output_dir: str = "."
    perturb: float = 0.0  # vertex perturbation injected into one sample

    def __post_init__(self):
        """Refuse an invalid configuration, the circle pair last, with ConfigError."""
        lo, hi = _R_RANGE
        if not lo <= self.R <= hi:
            raise ConfigError(f"R must be in [{lo:g}, {hi:g}], got {self.R}")
        if self.t_samples < 3:
            raise ConfigError(f"t_samples must be >= 3, got {self.t_samples}")
        if self.t_samples > MAX_T_SAMPLES:
            raise ConfigError(f"t_samples must be <= {MAX_T_SAMPLES}, got {self.t_samples}")
        if not 0 < self.tolerance <= 1e-3:
            raise ConfigError(f"tolerance must be in (0, 1e-3], got {self.tolerance}")
        if not 0 < self.angle_tolerance <= 1e-3:
            raise ConfigError(f"angle tolerance must be in (0, 1e-3], got {self.angle_tolerance}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.perturb):
            raise ConfigError(f"perturb must be finite, got {self.perturb}")
        self.poristic()

    def poristic(self) -> _poristic.PoristicConfig:
        try:
            return _poristic.config_from_rR(self.R, self.r)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "output_dir"}


@dataclass
class SweepReport:
    """Aggregate of one swept quantity with its invariance verdict."""

    quantity: str
    samples: int
    min: float
    max: float
    mean: float
    spread_rel: float
    verdict: str            # "invariant" | "varying" | "skipped"
    tolerance: float
    check: str              # "spread" | "residual" | "varying"
    expected: float | None = None
    expected_verdict: str = "invariant"
    status: str = "pass"

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerifyResult:
    config: LabConfig
    reports: list[SweepReport]
    skipped: list[dict]
    max_condition: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(r.status == "pass" for r in self.reports)

    def as_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "passed": self.passed,
            "max_circumconic_condition": self.max_condition,
            "reports": [r.as_dict() for r in self.reports],
            "skipped": self.skipped,
        }


def _angle_gap(x: np.ndarray, y: np.ndarray, period: float) -> np.ndarray:
    """Circular distance between two axis directions modulo period."""
    g = np.fmod(x - y, period)
    return np.abs(np.where(g > period / 2, g - period, np.where(g < -period / 2, g + period, g)))


#: The circumconics whose condition numbers the verify report carries.
_CIRCUMCONIC_TAGS = ("E1", "E9", "E10", "E5x", "E6x")


class _Pass:
    """The measurement pass at t = 2 pi k / n, all k at once.  Its stages
    are lazy: each runs at most once, when a quantity first needs it (keyed
    ones memoize per key).  Their checks go to ``log``, where the first one
    that fails raises (see ``PassLog``).  A partial stage also returns its
    gate: the mask of the samples it holds and the (mask, reason) pairs that
    explain the others.  ``perturb`` shifts the first vertex of sample n // 3
    along x."""

    def __init__(self, cfg: _poristic.PoristicConfig, n: int, seed: int, perturb: float = 0.0):
        self.cfg, self.seed, self.perturb = cfg, seed, perturb
        self.t = 2 * math.pi * np.arange(n) / n
        self.log = PassLog(self.t)
        self._x, self._conic, self._can = {}, {}, {}

    @functools.cached_property
    def fam(self) -> _poristic.FamilyBatch:
        fam = _poristic.sample_batch(self.cfg, self.t, self.log)
        if self.perturb != 0.0:
            v = fam.triangle.copy()
            v[len(self.t) // 3, 0, 0] += self.perturb
            tri = triangle_batch(v, self.log)
            fam = _poristic.FamilyBatch(self.t, tri, _centers.excentral_batch(tri, self.log),
                                        fam.omega, perimeter_batch(tri))
        return fam

    @functools.cached_property
    def s(self) -> np.ndarray:
        return _centers.side_lengths_batch(self.fam.triangle, self.log)

    def x(self, k: int) -> np.ndarray:
        if k not in self._x:
            self._x[k] = _centers.center_batch(self.fam.triangle, k, self.log, self.s)
        return self._x[k]

    def conic(self, tag: str):
        if tag not in self._conic:
            self._conic[tag] = _poristic.named_conic_batch(self.fam, tag, self.x, self.log)
        return self._conic[tag]

    def can(self, tag: str):
        if tag not in self._can:
            self._can[tag] = canonicalize_batch(self.conic(tag), self.log)
        return self._can[tag]

    def ratio(self, tag: str) -> np.ndarray:
        """Axis ratio of conic ``tag``; not kept, each feeds one row."""
        can = self.can(tag)
        self.log.check(can.semi_minor == 0.0, DegenerateConic,
                       f"ratio_{tag.lower()}: conic {tag} has a zero semi-minor axis")
        return can.semi_major / can.semi_minor

    @functools.cached_property
    def loci(self):
        """X9 locus, antiorthic axis, and the Weaver power gaps at P0, the axis
        on the x-axis, per sample (all at infinity for d = 0)."""
        cfg = self.cfg
        locus = _poristic.mittenpunkt_locus_circle(cfg)
        axis = _poristic.antiorthic_axis(cfg)
        w_inc, w_circ = _poristic.weaver_circles(cfg)
        p0 = Point(-axis.c / axis.a, 0.0)
        pairs = ((w_inc, cfg.incircle), (w_circ, cfg.circumcircle), (w_circ, cfg.excentral_circle))
        gaps = [abs(power_of_point(p0, w) - power_of_point(p0, c)) for w, c in pairs]
        return locus, axis, [np.full(len(self.t), gap) for gap in gaps]

    @functools.cached_property
    def antiorthic(self):
        """Side-line intersections; t = 0, pi have a bisector parallel to a side."""
        pts, meets = line_intersection_batch(side_lines_batch(self.fam.triangle),
                                             side_lines_batch(self.fam.excentral))
        has_axis = np.count_nonzero(meets, axis=1) >= 2
        return pts, meets, (has_axis, [(~has_axis, "isosceles member: bisector parallel to side")])

    @functools.cached_property
    def i3x_tangent(self) -> np.ndarray:
        """I3x from the tangent-line coefficients of the excentral sides."""
        return _conics.inconic_from_tangents_batch(
            *_poristic.excentral_side_lines_batch(self.cfg, self.t), self.log).m

    @functools.cached_property
    def x100(self):
        """X100, partial: the family is isosceles at t = 0 and pi, excluded
        with a fixed parameter radius.  The distance of t to the nearer one
        is exactly |math.remainder(t, pi)|: fmod is exact, and so is pi - r
        for r >= pi/2 (Sterbenz)."""
        r = np.fmod(self.t, math.pi)
        near = np.minimum(r, math.pi - r) < _poristic.ISOSCELES_T_RADIUS
        isosceles = ~near & ~_centers.scalene_batch(self.s)
        has_x100 = ~(near | isosceles)
        x100 = _centers.center_batch(self.fam.triangle, 100, self.log.where(has_x100), self.s)
        return x100, (has_x100, [(near, "isosceles member: X100 undefined"),
                                 (isosceles, "X_100 is ill-conditioned on isosceles input")])

    @functools.cached_property
    def billiard(self):
        """Billiard semi-axes, normalized members, their inradius, circumradius."""
        a9, b9, _c9 = _billiard.cb_axes_normalized(self.cfg.rho)
        norm = _billiard.normalize_sample_batch(self.cfg, self.fam, self.log)
        ns = _centers.side_lengths_batch(norm, self.log)
        n_area = signed_area_batch(norm)
        return (a9, b9, norm, 2.0 * n_area / (ns[:, 0] + ns[:, 1] + ns[:, 2]),
                ns[:, 0] * ns[:, 1] * ns[:, 2] / (4.0 * n_area))

    @functools.cached_property
    def hyperbolas(self):
        """Focal lengths of the Feuerbach and Jerabek circumhyperbolas, on the
        samples of X100's gate."""
        x100, (has_x100, _) = self.x100
        hyp_log = self.log.where(has_x100)
        return (_conics.hyperbola_focal_length_batch(self.fam.triangle, self.x(11), hyp_log),
                _conics.hyperbola_focal_length_batch(self.fam.excentral, x100, hyp_log))

    @functools.cached_property
    def equivariance(self) -> np.ndarray:
        """Similarity equivariance of the center registry (seeded transform)."""
        sigmas = np.random.default_rng(self.seed).uniform(  # rows (angle, scale, tx, ty)
            [0.0, 0.5, -3.0, -3.0], [2 * math.pi, 2.0, 3.0, 3.0], size=(len(self.t), 4))
        ang, scale, tx, ty = (a[:, None] for a in sigmas.T)
        ca, sa = np.cos(ang), np.sin(ang)

        def apply_sigma(p: np.ndarray) -> np.ndarray:
            return np.stack([scale * (ca * p[..., 0] - sa * p[..., 1]) + tx,
                             scale * (sa * p[..., 0] + ca * p[..., 1]) + ty], axis=-1)

        tri_sigma = triangle_batch(apply_sigma(self.fam.triangle), self.log)
        s_sigma = _centers.side_lengths_batch(tri_sigma, self.log)
        gap = np.zeros(len(self.t))
        for k in (1, 9, 10, 11):
            direct = _centers.center_batch(tri_sigma, k, self.log, s_sigma)
            mapped = apply_sigma(self.x(k)[:, None, :])[:, 0]
            gap = np.maximum(gap, distance_batch(direct, mapped) / (scale[:, 0] * self.cfg.R))
        return gap

    def measure(self, rows) -> dict[str, np.ndarray]:
        """The columns of ``rows``, computed in their order from the stages
        they need.  The first failing check raises; no kept value is
        non-finite."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            columns = {q.name: q.compute(self) for q in rows}
        for q in rows:
            bad = ~np.isfinite(columns[q.name]) & (q.partial(self)[0] if q.partial else True)
            if bad.any():
                t = float(self.t[np.argmax(bad)])
                raise GeometryError(f"{q.name} is not finite at t = {t!r}")
        return columns

    def skipped(self, rows) -> list[dict]:
        """Skip log of ``rows``: per sample, the reasons of the rows' gates in
        the order the rows first use them, each for the rows it explains."""
        users: dict[str, tuple[np.ndarray, list]] = {}  # reason -> (mask, row names)
        for q in (q for q in rows if q.partial):
            for mask, reason in q.partial(self)[1]:
                users.setdefault(reason, (mask, []))[1].append(q.name)
        return [{"t": float(self.t[i]), "reason": f"{name}: {reason}"}
                for i in np.flatnonzero(np.any([mask for mask, _ in users.values()], axis=0))
                for reason, (mask, names) in users.items() if mask[i] for name in names]


# --- The quantity table ------------------------------------------------------

@dataclass(frozen=True)
class Quantity:
    """One quantity: ``compute`` gives its column over all t from the pass's
    stages, and ``partial``, for a column that skips samples, the gate
    (mask, skips) its partial stage returns.  A row with a ``check``
    ("residual" | "spread" | "varying") is a verify row: ``tol`` is a number
    or the ``LabConfig`` field holding it, ``expected`` a spread row's closed
    form.  ``sweep`` is the column's position in ``SWEEP_QUANTITIES``."""

    name: str
    compute: Callable[[_Pass], np.ndarray]
    check: str | None = None
    expected: Callable[[_poristic.PoristicConfig], float] | None = None
    sweep: int | None = None
    tol: float | str = "tolerance"
    partial: Callable[[_Pass], tuple] | None = None


def _incircle_residual(p: _Pass) -> np.ndarray:
    sides, x1 = side_lines_batch(p.fam.triangle), np.array([2 * p.cfg.d, 0.0])
    return np.abs(np.abs(sides[..., 0] * x1[0] + sides[..., 1] * x1[1] + sides[..., 2])
                  - p.cfg.r).max(axis=1)


def _i5x_foci_gap(p: _Pass) -> np.ndarray:
    """Foci of the stationary excentral caustic against X40 and X1."""
    f1, f2 = foci_batch(p.can("I5x"))
    x40, x1 = np.zeros(2), np.array([2 * p.cfg.d, 0.0])
    return np.minimum(np.maximum(distance_batch(f1, x40), distance_batch(f2, x1)),
                      np.maximum(distance_batch(f2, x40), distance_batch(f1, x1)))


def _antiorthic_axis_gap(p: _Pass) -> np.ndarray:
    axis = p.loci[1]
    pts, meets, _ = p.antiorthic
    return np.where(meets, np.abs(axis.a * pts[..., 0] + axis.b * pts[..., 1] + axis.c),
                    0.0).max(axis=1)


def _antiorthic_intercept(p: _Pass) -> np.ndarray:
    pts, meets, _ = p.antiorthic
    q = np.take_along_axis(pts, np.argsort(~meets, axis=1, kind="stable")[:, :2, None], axis=1)
    constructed = line_through_batch(q[:, 0], q[:, 1])
    return -constructed[:, 2] / constructed[:, 0]


def _cb_foci_circle_gap(p: _Pass) -> np.ndarray:
    """Circumbilliard foci against the circle they are predicted on."""
    center, radius = _billiard.foci_locus_check(p.cfg)
    return np.maximum(*(np.abs(distance_batch(f, center.as_array()) - radius)
                        for f in foci_batch(p.can("E9"))))


def _parallel_axes_gap(p: _Pass) -> np.ndarray:
    axes = [p.can(tag).angle for tag in ("E9", "E10", "E5x", "E6x", "I3x")]
    return np.max([_angle_gap(a, b, math.pi / 2)
                   for i, a in enumerate(axes) for b in axes[i + 1:]], axis=0)


def _sign_free_gap(m: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest entry gap between matrix stacks, up to the sign of ``ref``."""
    return np.minimum(np.abs(m - ref).max(axis=(1, 2)), np.abs(m + ref).max(axis=(1, 2)))


_ATOL = "angle_tolerance"

#: Every quantity.  ``run_verify`` reports the rows with a check, in this
#: order; ``porism-lab sweep`` offers the rows with a sweep position.
QUANTITIES = (
    Quantity("circumcircle_residual", lambda p: np.abs(
        distance_batch(p.fam.triangle, np.array([p.cfg.d, 0.0])) - p.cfg.R).max(axis=1),
        "residual", sweep=32, tol=1e-10),
    Quantity("incircle_residual", _incircle_residual, "residual", sweep=33, tol=1e-10),
    Quantity("i5x_stationarity", lambda p: _sign_free_gap(p.conic("I5x").m, p.conic("I5x").m[0]),
             "residual", tol=1e-10),
    Quantity("i5x_center_gap", lambda p: distance_batch(p.can("I5x").center,
                                                        np.array([p.cfg.d, 0.0])), "residual"),
    Quantity("i5x_foci_gap", _i5x_foci_gap, "residual"),
    Quantity("antiorthic_axis_gap", _antiorthic_axis_gap, "residual",
             partial=lambda p: p.antiorthic[2]),
    Quantity("weaver_incircle_power_gap", lambda p: p.loci[2][0], "residual", tol=1e-10),
    Quantity("weaver_circumcircle_power_gap", lambda p: p.loci[2][1], "residual", tol=1e-10),
    Quantity("weaver_excentral_power_gap", lambda p: p.loci[2][2], "residual", tol=1e-10),
    Quantity("perimeter_closed_rel_err", lambda p: np.abs(
        _poristic.perimeter_closed_form_batch(p.cfg, p.t) - p.fam.perimeter) / p.fam.perimeter,
        "residual", tol=1e-12),
    Quantity("x9_closed_gap", lambda p: distance_batch(
        _poristic.x9_closed_form_batch(p.cfg, p.t), p.x(9)), "residual"),
    Quantity("theta_closed_gap", lambda p: _angle_gap(
        _poristic.theta_closed_form_batch(p.cfg, p.t), p.can("E9").angle, math.pi),
        "residual", tol=_ATOL),
    Quantity("x9_locus_gap", lambda p: np.abs(
        distance_batch(p.x(9), p.loci[0].center.as_array()) - p.loci[0].radius), "residual"),
    Quantity("e1_x100_eval", lambda p: np.abs(conic_eval_batch(p.conic("E1"), p.x100[0])),
             "residual", partial=lambda p: p.x100[1]),
    Quantity("e9_x100_eval", lambda p: np.abs(conic_eval_batch(p.conic("E9"), p.x100[0])),
             "residual", partial=lambda p: p.x100[1]),
    Quantity("i3x_x100_eval", lambda p: np.abs(conic_eval_batch(p.conic("I3x"), p.x100[0])),
             "residual", partial=lambda p: p.x100[1]),
    Quantity("i3x_implicit_gap", lambda p: _sign_free_gap(
        p.i3x_tangent, _poristic.i3x_implicit_matrix_batch(p.cfg, p.t).m), "residual"),
    Quantity("billiard_ellipse_residual", lambda p: np.abs(
        (p.billiard[2][..., 0] / p.billiard[0]) ** 2
        + (p.billiard[2][..., 1] / p.billiard[1]) ** 2 - 1.0).max(axis=1),
        "residual", sweep=34, tol=1e-8),
    Quantity("reflection_law_gap", lambda p: _billiard.reflection_law_residual_batch(
        p.billiard[2], p.billiard[0], p.billiard[1]), "residual", sweep=35, tol=_ATOL),
    Quantity("cb_foci_circle_gap", _cb_foci_circle_gap, "residual"),
    Quantity("e6x_e9_center_gap", lambda p: distance_batch(p.can("E6x").center,
                                                           p.can("E9").center), "residual"),
    Quantity("e6x_e9_axis_gap", lambda p: _angle_gap(p.can("E6x").angle, p.can("E9").angle,
                                                     math.pi / 2), "residual", tol=_ATOL),
    Quantity("e1_i3x_axis_gap", lambda p: np.abs(_angle_gap(
        p.can("E1").angle, p.can("I3x").angle, math.pi) - math.pi / 2), "residual", tol=_ATOL),
    Quantity("parallel_axes_gap", _parallel_axes_gap, "residual", tol=_ATOL),
    Quantity("center_equivariance_gap", lambda p: p.equivariance, "residual"),

    Quantity("antiorthic_intercept", _antiorthic_intercept, "spread",
             lambda c: (3 * c.R * c.R + c.d * c.d) / (2 * c.d), sweep=28, tol=1e-10,
             partial=lambda p: p.antiorthic[2]),
    Quantity("ratio_i5x", lambda p: p.ratio("I5x"), "spread",
             lambda c: 1.0 / math.sqrt(2.0 * c.rho), 17),
    Quantity("eta_i5x", lambda p: p.can("I5x").semi_major, "spread", lambda c: c.R, 9),
    Quantity("zeta_i5x", lambda p: p.can("I5x").semi_minor, "spread",
             lambda c: math.sqrt(c.R * c.R - c.d * c.d), 10),
    Quantity("ratio_i3x", lambda p: p.ratio("I3x"), "spread",
             lambda c: (c.R + c.d) / (c.R - c.d), 16),
    Quantity("eta_i3x", lambda p: p.can("I3x").semi_major, "spread", lambda c: c.R + c.d, 7),
    Quantity("zeta_i3x", lambda p: p.can("I3x").semi_minor, "spread", lambda c: c.R - c.d, 8),
    Quantity("ratio_e1", lambda p: p.ratio("E1"), "spread",
             lambda c: (c.R + c.d) / (c.R - c.d), 11),
    Quantity("eta_e1", lambda p: p.can("E1").semi_major, "spread", lambda c: c.R + c.d, 5),
    Quantity("zeta_e1", lambda p: p.can("E1").semi_minor, "spread", lambda c: c.R - c.d, 6),
    Quantity("ratio_e10", lambda p: p.ratio("E10"), "spread",
             lambda c: math.sqrt((c.R + c.d) / (c.R - c.d)), 13),
    Quantity("ratio_e5x", lambda p: p.ratio("E5x"), "spread",
             lambda c: math.sqrt((c.R + c.d) / (c.R - c.d)), 14),
    Quantity("ratio_e6x", lambda p: p.ratio("E6x"), "spread", lambda c: math.sqrt(
        (c.R + c.d) * (3 * c.R + c.d) / ((3 * c.R - c.d) * (c.R - c.d))), 15),
    Quantity("ratio_e9", lambda p: p.ratio("E9"), "spread", lambda c: math.sqrt(
        (c.R + c.d) * (3 * c.R - c.d) / ((c.R - c.d) * (3 * c.R + c.d))), 12),
    Quantity("ratio_i9", lambda p: p.ratio("I9"), "spread", sweep=18),
    Quantity("gamma_ratio", lambda p: p.hyperbolas[1] / p.hyperbolas[0], "spread",
             lambda c: math.sqrt(2.0 / c.rho), sweep=27, tol=1e-7,
             partial=lambda p: p.x100[1]),
    # Inradius and circumradius of the normalized member vary over the
    # billiard-view family; their ratio does not.
    Quantity("rho_billiard", lambda p: p.billiard[3] / p.billiard[4], "spread",
             lambda c: c.rho, 29),
    Quantity("perimeter", lambda p: p.fam.perimeter, "varying", sweep=0),
    Quantity("r_billiard", lambda p: p.billiard[3], "varying", sweep=30),
    Quantity("R_billiard", lambda p: p.billiard[4], "varying", sweep=31),

    # Sweep-only columns.
    Quantity("omega", lambda p: p.fam.omega, sweep=1),
    Quantity("x9_x", lambda p: p.x(9)[:, 0], sweep=2),
    Quantity("x9_y", lambda p: p.x(9)[:, 1], sweep=3),
    Quantity("theta", lambda p: p.can("E9").angle, sweep=4),
    Quantity("angle_e1", lambda p: p.can("E1").angle, sweep=19),
    Quantity("angle_e9", lambda p: p.can("E9").angle, sweep=20),
    Quantity("angle_i3x", lambda p: p.can("I3x").angle, sweep=21),
    Quantity("angle_e10", lambda p: p.can("E10").angle, sweep=22),
    Quantity("angle_e5x", lambda p: p.can("E5x").angle, sweep=23),
    Quantity("angle_e6x", lambda p: p.can("E6x").angle, sweep=24),
    Quantity("gamma_feuerbach", lambda p: p.hyperbolas[0], sweep=25,
             partial=lambda p: p.x100[1]),
    Quantity("gamma_jerabek", lambda p: p.hyperbolas[1], sweep=26,
             partial=lambda p: p.x100[1]),
)

_BY_NAME = {q.name: q for q in QUANTITIES}
_VERIFY_ROWS = tuple(q for q in QUANTITIES if q.check)
#: Quantities exposed by ``porism-lab sweep``, in their column order.
SWEEP_QUANTITIES = tuple(q.name for q in sorted((q for q in QUANTITIES if q.sweep is not None),
                                                key=lambda q: q.sweep))


def run_verify(lab: LabConfig) -> VerifyResult:
    cfg = lab.poristic()
    p = _Pass(cfg, lab.t_samples, lab.seed, lab.perturb)
    columns = p.measure(_VERIFY_ROWS)
    reports = [_aggregate(q.name, columns[q.name][q.partial(p)[0]] if q.partial else
                          columns[q.name], q.check,
                          getattr(lab, q.tol) if isinstance(q.tol, str) else q.tol,
                          q.expected(cfg) if q.expected else None) for q in _VERIFY_ROWS]
    circum = [p.conic(tag) for tag in _CIRCUMCONIC_TAGS]
    return VerifyResult(lab, reports, p.skipped(_VERIFY_ROWS),
                        max_condition_batch([c.rows for c in circum], [c.kappa for c in circum]))


def _aggregate(name: str, vals: np.ndarray, check: str, tol: float,
               expected: float | None) -> SweepReport:
    if not len(vals):
        return SweepReport(name, 0, math.nan, math.nan, math.nan, math.nan,
                           "skipped", tol, check, expected, status="fail")
    lo, hi = float(vals.min()), float(vals.max())
    mean = sum(vals.tolist()) / len(vals)
    spread = (hi - lo) / abs(mean) if mean != 0.0 else math.inf
    if check == "residual":
        verdict = "invariant" if float(np.abs(vals).max()) < tol else "varying"
        ok = verdict == "invariant"
    elif check == "varying":
        verdict = "invariant" if spread < tol else "varying"
        ok = verdict == "varying"
    elif expected is not None:
        # Every sample must sit within tol of the predicted constant; values
        # within tol of one constant have spread at most 2 tol, which is the
        # spread tolerance the verdict uses.
        verdict = "invariant" if spread < 2 * tol else "varying"
        ok = (max(abs(lo - expected), abs(hi - expected)) <= tol * max(1.0, abs(expected))
              and verdict == "invariant")
    else:
        verdict = "invariant" if spread < tol else "varying"
        ok = verdict == "invariant"
    return SweepReport(name, len(vals), lo, hi, mean, spread, verdict, tol, check, expected,
                       "varying" if check == "varying" else "invariant", "pass" if ok else "fail")


# --- Raw sweeps ------------------------------------------------------------

def run_sweep(lab: LabConfig, quantities: list[str]) -> tuple[list[str], list[list], list[dict]]:
    """Per-sample values: returns (header, rows, skip log); a skipped cell
    is None.  Only the stages the requested columns need run."""
    for q in quantities:
        if q not in SWEEP_QUANTITIES:
            raise UnknownQuantity(
                f"unknown quantity {q!r}; valid names: {', '.join(SWEEP_QUANTITIES)}")
    p = _Pass(lab.poristic(), lab.t_samples, lab.seed)
    rows = [_BY_NAME[q] for q in quantities]
    measured = p.measure(rows)
    columns = [np.where(q.partial(p)[0], measured[q.name], None).tolist() if q.partial
               else measured[q.name].tolist() for q in rows]
    table = [[t, *cells] for t, *cells in zip(p.t.tolist(), *columns)]
    return ["t"] + list(quantities), table, p.skipped(rows)


def format_csv(header: list[str], rows: list[list]) -> str:
    """CSV text: a str cell as it is, None (a skip) as an empty field, and
    every number with 17 significant digits."""
    lines = [",".join(header)]
    lines += [",".join([v if isinstance(v, str) else "" if v is None else "%.17g" % v
                        for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def verify_report_csv(result: VerifyResult) -> str:
    header = ["quantity", "samples", "min", "max", "mean", "spread_rel",
              "tolerance", "check", "expected", "verdict", "expected_verdict", "status"]
    return format_csv(header, [[getattr(r, k) for k in header] for r in result.reports])


def _finite_or_none(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(v) for v in value]
    return value


def verify_report_json(result: VerifyResult) -> str:
    """The report as strict JSON (RFC 8259): a non-finite value is null."""
    return json.dumps(_finite_or_none(result.as_dict()), indent=2, allow_nan=False) + "\n"
