"""Sweep and verification harness.

``run_verify`` evaluates every family invariant over a dense t-sweep and
reports one verdict row per quantity; ``run_sweep`` dumps raw per-sample
quantities.  Both read one table, ``QUANTITIES``, and one measurement pass
whose stages run on arrays over all t, through the ``_batch`` twins of the
scalar kernel, and only when a requested quantity needs them.  The rows of
a named conic that recur for several conics (axis ratio and semi-axes,
value at X100, axis angle) come from one row maker per family, which
derives each row's name, column and declared conic from the conic's tag.

The first check that fails raises its ``GeometryError`` subclass for the
lowest failing t.  The checks run in the order the requested quantities
first need their stages; within the conic stage, which builds every named
conic the requested quantities declare at once, in the order of
``poristic.named_conics_batch``.  A check of a stacked stage (the conic
stage, the hyperbola stage) names the block that fails.

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
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import billiard as _billiard
from . import centers as _centers
from . import conics as _conics
from . import poristic as _poristic
from .errors import ConfigError, DegenerateConic, GeometryError, PassLog, UnknownQuantity, _named
# canonicalize, conic_eval and foci stay importable from this module: the
# benchmark's tracer self-test (perfbench/test_perfbench.py) resolves them here.
from .geom import (  # noqa: F401
    CanonicalBatch,
    ConicBatch,
    Point,
    _angle_gap,
    canonicalize,
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
        if not isinstance(self.t_samples, numbers.Integral):
            raise ConfigError(f"t_samples must be an integer, got {self.t_samples!r}")
        if self.t_samples < 3:
            raise ConfigError(f"t_samples must be >= 3, got {self.t_samples}")
        if self.t_samples > MAX_T_SAMPLES:
            raise ConfigError(f"t_samples must be <= {MAX_T_SAMPLES}, got {self.t_samples}")
        if not 0 < self.tolerance <= 1e-3:
            raise ConfigError(f"tolerance must be in (0, 1e-3], got {self.tolerance}")
        if not 0 < self.angle_tolerance <= 1e-3:
            raise ConfigError(f"angle tolerance must be in (0, 1e-3], got {self.angle_tolerance}")
        if not isinstance(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.perturb):
            raise ConfigError(f"perturb must be finite, got {self.perturb}")
        self.poristic()

    @property
    def t(self) -> np.ndarray:
        """The uniform grid of the sweep, t = 2 pi k / t_samples."""
        return 2 * math.pi * np.arange(self.t_samples) / self.t_samples

    def poristic(self) -> _poristic.PoristicConfig:
        try:
            return _poristic.PoristicConfig(self.R, self.r)
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


class _Pass:
    """The measurement pass of ``rows`` over the parameters ``t``, all at
    once; no stage reads how ``t`` is laid out.  Its stages are lazy: each
    runs at most once, when a row first needs it (``x`` memoizes per
    center).  Their checks go to ``log``, where the first one that fails
    raises (see ``PassLog``); the conic stage runs its checks in the order
    of ``poristic.named_conics_batch``.  A partial stage also returns its
    gate: the mask of the samples it holds and the (mask, reason) pairs
    that explain the others.  ``perturb`` shifts the first vertex of sample
    ``len(t) // 3`` along x.

    The named conics the rows declare are the pass's ``tags``; the conic
    stage builds exactly those, and reading any other raises
    ``LookupError``."""

    def __init__(self, cfg: _poristic.PoristicConfig, t: np.ndarray, rows, seed: int,
                 perturb: float = 0.0):
        self.cfg, self.t, self.rows, self.seed, self.perturb = cfg, t, rows, seed, perturb
        self.log = PassLog(t)
        self.tags = frozenset(tag for q in rows for tag in q.conics)
        self._x = {}

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

    @functools.cached_property
    def conics(self) -> dict[str, tuple[ConicBatch, CanonicalBatch]]:
        """The conic stage: each declared named conic and its canonical
        form, built as one stack."""
        return _poristic.named_conics_batch(self.fam, self.tags, self.x, self.log)

    def conic(self, tag: str) -> ConicBatch:
        return self._declared(tag)[0]

    def can(self, tag: str) -> CanonicalBatch:
        return self._declared(tag)[1]

    def _declared(self, tag: str) -> tuple[ConicBatch, CanonicalBatch]:
        if tag not in self.tags:
            raise LookupError(f"conic {tag} is read but no measured row declares it")
        return self.conics[tag]

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
            *_poristic.excentral_side_lines_batch(self.cfg, self.t), self.log).c

    @functools.cached_property
    def x100(self):
        """X100, partial: held on the members that pass the side-length test
        of its scalar twin ``centers.center(tri, 100)``, the scalene ones."""
        has_x100 = _centers.scalene_batch(self.s)
        x100 = _centers.center_batch(self.fam.triangle, 100, self.log.where(has_x100), self.s)
        return x100, (has_x100, [(~has_x100, "isosceles member: X100 undefined")])

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
        samples of X100's gate, as one stack of both systems: each check runs
        on the Feuerbach block, then on the Jerabek one, and names the block
        that fails."""
        x100, (has_x100, _) = self.x100
        return np.split(_conics.hyperbola_focal_length_batch(
            np.concatenate([self.fam.triangle, self.fam.excentral]),
            np.concatenate([self.x(11), x100]),
            _named(self.log.where(has_x100), ("Feuerbach", "Jerabek"))), 2)

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

    def measure(self) -> dict[str, np.ndarray]:
        """The columns of the rows, computed in their order from the stages
        they need.  The first failing check raises; no kept value is
        non-finite."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            columns = {q.name: q.compute(self) for q in self.rows}
        for q in self.rows:
            bad = ~np.isfinite(columns[q.name]) & (q.partial(self)[0] if q.partial else True)
            if bad.any():
                t = float(self.t[np.argmax(bad)])
                raise GeometryError(f"{q.name} is not finite at t = {t!r}")
        return columns

    def skipped(self) -> list[dict]:
        """Skip log of the rows: per sample, the reasons of the rows' gates in
        the order the rows first use them, each for the rows it explains."""
        users: dict[str, tuple[np.ndarray, list]] = {}  # reason -> (mask, row names)
        for q in (q for q in self.rows if q.partial):
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
    (mask, skips) its partial stage returns (``_x100_gate`` or
    ``_antiorthic_gate``).  A row with a ``check`` ("residual" | "spread" |
    "varying") is a verify row: ``tol`` is a number or the ``LabConfig``
    field holding it, ``expected`` a spread row's closed form.  ``conics``
    names the named conics ``compute`` reads; the row makers ``_axis_rows``,
    ``_x100_eval_row`` and ``_angle_row`` set it from their tag, and only
    rows that read other or several conics declare it by hand.  The rows
    that are sweep columns are listed, in column order, by
    ``SWEEP_QUANTITIES``."""

    name: str
    compute: Callable[[_Pass], np.ndarray]
    check: str | None = None
    expected: Callable[[_poristic.PoristicConfig], float] | None = None
    tol: float | str = "tolerance"
    partial: Callable[[_Pass], tuple] | None = None
    conics: tuple[str, ...] = ()


def _incircle_residual(p: _Pass) -> np.ndarray:
    sides, x1 = side_lines_batch(p.fam.triangle), p.cfg.incircle.center
    return np.abs(np.abs(sides[..., 0] * x1.x + sides[..., 1] * x1.y + sides[..., 2])
                  - p.cfg.r).max(axis=1)


def _i5x_foci_gap(p: _Pass) -> np.ndarray:
    """Foci of the stationary excentral caustic against X40 and X1."""
    f1, f2 = foci_batch(p.can("I5x"))
    x40, x1 = p.cfg.excentral_circle.center.as_array(), p.cfg.incircle.center.as_array()
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


_PARALLEL_AXES = ("E9", "E10", "E5x", "E6x", "I3x")


def _parallel_axes_gap(p: _Pass) -> np.ndarray:
    axes = [p.can(tag).angle for tag in _PARALLEL_AXES]
    return np.max([_angle_gap(a, b, math.pi / 2)
                   for i, a in enumerate(axes) for b in axes[i + 1:]], axis=0)


def _sign_free_gap(c: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest coefficient gap between conics given as coefficient rows
    (``ConicBatch.c``), which is their largest matrix entry gap, up to the
    sign of ``ref``."""
    return np.minimum(np.abs(c - ref).max(axis=0), np.abs(c + ref).max(axis=0))


def _x100_gate(p: _Pass) -> tuple:
    """The gate of the rows that read X100: its scalene members."""
    return p.x100[1]


def _antiorthic_gate(p: _Pass) -> tuple:
    """The gate of the rows that read the side-line intersections."""
    return p.antiorthic[2]


#: Closed forms of the axis ratio and the semi-axes of I3x and of E1.
_BICENTRIC = (lambda c: (c.R + c.d) / (c.R - c.d), lambda c: c.R + c.d, lambda c: c.R - c.d)


def _root_bicentric_ratio(c: _poristic.PoristicConfig) -> float:
    """The axis ratio of E10 and of E5x: the square root of that of I3x."""
    return math.sqrt(_BICENTRIC[0](c))


# --- Conic-row families: each derives its rows' names, columns and declared
# conics from the conic's tag.

def _axis_rows(tag: str, *closed_forms) -> tuple[Quantity, ...]:
    """Spread rows of conic ``tag``: ``ratio_<tag>``, its axis ratio, then
    ``eta_<tag>`` and ``zeta_<tag>``, its semi-axes, one row per closed form
    in ``closed_forms``, in that order.  With none, the ratio row alone,
    with no closed form (I9)."""
    t = tag.lower()
    reads = {f"ratio_{t}": lambda p: p.ratio(tag), f"eta_{t}": lambda p: p.can(tag).semi_major,
             f"zeta_{t}": lambda p: p.can(tag).semi_minor}
    return tuple(Quantity(name, read, "spread", expected, conics=(tag,))
                 for (name, read), expected in zip(reads.items(), closed_forms or (None,)))


def _x100_eval_row(tag: str) -> Quantity:
    """``<tag>_x100_eval``: conic ``tag`` evaluated at X100, on its gate."""
    return Quantity(f"{tag.lower()}_x100_eval",
                    lambda p: np.abs(conic_eval_batch(p.conic(tag), p.x100[0])), "residual",
                    partial=_x100_gate, conics=(tag,))


def _angle_row(tag: str, name: str | None = None) -> Quantity:
    """``angle_<tag>``, or ``name``: the axis angle of conic ``tag``."""
    return Quantity(name or f"angle_{tag.lower()}", lambda p: p.can(tag).angle, conics=(tag,))


_ATOL = "angle_tolerance"

#: Every quantity.  ``run_verify`` reports the rows with a check, in this
#: order; ``porism-lab sweep`` offers the rows ``SWEEP_QUANTITIES`` names.
QUANTITIES = (
    Quantity("circumcircle_residual", lambda p: np.abs(distance_batch(
        p.fam.triangle, p.cfg.circumcircle.center.as_array()) - p.cfg.R).max(axis=1),
        "residual", tol=1e-10),
    Quantity("incircle_residual", _incircle_residual, "residual", tol=1e-10),
    Quantity("i5x_stationarity", lambda p: _sign_free_gap(p.conic("I5x").c,
                                                          p.conic("I5x").c[:, :1]),
             "residual", tol=1e-10, conics=("I5x",)),
    Quantity("i5x_center_gap", lambda p: distance_batch(
        p.can("I5x").center, p.cfg.circumcircle.center.as_array()), "residual",
             conics=("I5x",)),
    Quantity("i5x_foci_gap", _i5x_foci_gap, "residual", conics=("I5x",)),
    Quantity("antiorthic_axis_gap", _antiorthic_axis_gap, "residual", partial=_antiorthic_gate),
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
        "residual", tol=_ATOL, conics=("E9",)),
    Quantity("x9_locus_gap", lambda p: np.abs(
        distance_batch(p.x(9), p.loci[0].center.as_array()) - p.loci[0].radius), "residual"),
    *map(_x100_eval_row, ("E1", "E9", "I3x")),
    Quantity("i3x_implicit_gap", lambda p: _sign_free_gap(
        p.i3x_tangent, _poristic.i3x_implicit_matrix_batch(p.cfg, p.t).c), "residual"),
    Quantity("billiard_ellipse_residual", lambda p: np.abs(
        (p.billiard[2][..., 0] / p.billiard[0]) ** 2
        + (p.billiard[2][..., 1] / p.billiard[1]) ** 2 - 1.0).max(axis=1),
        "residual", tol=1e-8),
    Quantity("reflection_law_gap", lambda p: _billiard.reflection_law_residual_batch(
        p.billiard[2], p.billiard[0], p.billiard[1]), "residual", tol=_ATOL),
    Quantity("cb_foci_circle_gap", _cb_foci_circle_gap, "residual", conics=("E9",)),
    Quantity("e6x_e9_center_gap", lambda p: distance_batch(p.can("E6x").center,
                                                           p.can("E9").center), "residual",
             conics=("E6x", "E9")),
    Quantity("e6x_e9_axis_gap", lambda p: _angle_gap(p.can("E6x").angle, p.can("E9").angle,
                                                     math.pi / 2), "residual", tol=_ATOL,
             conics=("E6x", "E9")),
    Quantity("e1_i3x_axis_gap", lambda p: np.abs(_angle_gap(
        p.can("E1").angle, p.can("I3x").angle, math.pi) - math.pi / 2), "residual", tol=_ATOL,
             conics=("E1", "I3x")),
    Quantity("parallel_axes_gap", _parallel_axes_gap, "residual", tol=_ATOL,
             conics=_PARALLEL_AXES),
    Quantity("center_equivariance_gap", lambda p: p.equivariance, "residual"),

    Quantity("antiorthic_intercept", _antiorthic_intercept, "spread",
             lambda c: -_poristic.antiorthic_axis(c).c, tol=1e-10, partial=_antiorthic_gate),
    *_axis_rows("I5x", lambda c: 1.0 / math.sqrt(2.0 * c.rho), lambda c: c.R,
                lambda c: math.sqrt(c.R * c.R - c.d * c.d)),
    *_axis_rows("I3x", *_BICENTRIC),
    *_axis_rows("E1", *_BICENTRIC),
    *_axis_rows("E10", _root_bicentric_ratio),
    *_axis_rows("E5x", _root_bicentric_ratio),
    *_axis_rows("E6x", lambda c: math.sqrt(
        (c.R + c.d) * (3 * c.R + c.d) / ((3 * c.R - c.d) * (c.R - c.d)))),
    *_axis_rows("E9", lambda c: math.sqrt(
        (c.R + c.d) * (3 * c.R - c.d) / ((c.R - c.d) * (3 * c.R + c.d)))),
    *_axis_rows("I9"),
    Quantity("gamma_ratio", lambda p: p.hyperbolas[1] / p.hyperbolas[0], "spread",
             lambda c: math.sqrt(2.0 / c.rho), tol=1e-7, partial=_x100_gate),
    # Inradius and circumradius of the normalized member vary over the
    # billiard-view family; their ratio does not.
    Quantity("rho_billiard", lambda p: p.billiard[3] / p.billiard[4], "spread", lambda c: c.rho),
    Quantity("perimeter", lambda p: p.fam.perimeter, "varying"),
    Quantity("r_billiard", lambda p: p.billiard[3], "varying"),
    Quantity("R_billiard", lambda p: p.billiard[4], "varying"),

    # Sweep-only columns.
    Quantity("omega", lambda p: p.fam.omega),
    Quantity("x9_x", lambda p: p.x(9)[:, 0]),
    Quantity("x9_y", lambda p: p.x(9)[:, 1]),
    _angle_row("E9", "theta"),
    *map(_angle_row, ("E1", "E9", "I3x", "E10", "E5x", "E6x")),
    Quantity("gamma_feuerbach", lambda p: p.hyperbolas[0], partial=_x100_gate),
    Quantity("gamma_jerabek", lambda p: p.hyperbolas[1], partial=_x100_gate),
)

_BY_NAME = {q.name: q for q in QUANTITIES}
_VERIFY_ROWS = tuple(q for q in QUANTITIES if q.check)
#: Quantities exposed by ``porism-lab sweep``, in their column order.
SWEEP_QUANTITIES = (
    "perimeter", "omega", "x9_x", "x9_y", "theta",
    "eta_e1", "zeta_e1", "eta_i3x", "zeta_i3x", "eta_i5x", "zeta_i5x",
    "ratio_e1", "ratio_e9", "ratio_e10", "ratio_e5x", "ratio_e6x", "ratio_i3x", "ratio_i5x",
    "ratio_i9",
    "angle_e1", "angle_e9", "angle_i3x", "angle_e10", "angle_e5x", "angle_e6x",
    "gamma_feuerbach", "gamma_jerabek", "gamma_ratio", "antiorthic_intercept",
    "rho_billiard", "r_billiard", "R_billiard",
    "circumcircle_residual", "incircle_residual", "billiard_ellipse_residual",
    "reflection_law_gap",
)


def run_verify(lab: LabConfig) -> VerifyResult:
    cfg = lab.poristic()
    p = _Pass(cfg, lab.t, _VERIFY_ROWS, lab.seed, lab.perturb)
    columns = p.measure()
    reports = [_aggregate(q.name, columns[q.name][q.partial(p)[0]] if q.partial else
                          columns[q.name], q.check,
                          getattr(lab, q.tol) if isinstance(q.tol, str) else q.tol,
                          q.expected(cfg) if q.expected else None) for q in _VERIFY_ROWS]
    # The circumconics of the conic stage: its views with incidence rows.
    circum = [c for c, _ in p.conics.values() if c.rows is not None]
    return VerifyResult(lab, reports, p.skipped(),
                        max_condition_batch([c.rows for c in circum], [c.kappa for c in circum]))


def _aggregate(name: str, vals: np.ndarray, check: str, tol: float,
               expected: float | None) -> SweepReport:
    if not len(vals):
        return SweepReport(name, 0, math.nan, math.nan, math.nan, math.nan,
                           "skipped", tol, check, expected, status="fail")
    lo, hi = float(vals.min()), float(vals.max())
    # Summed left to right on every Python (``sum`` of floats is compensated
    # from 3.12); ``+ 0.0`` makes an all -0.0 sum 0.0, as ``sum`` does.
    mean = float(np.cumsum(vals)[-1] + 0.0) / len(vals)
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
    p = _Pass(lab.poristic(), lab.t, [_BY_NAME[q] for q in quantities], lab.seed, lab.perturb)
    measured = p.measure()
    columns = [np.where(q.partial(p)[0], measured[q.name], None).tolist() if q.partial
               else measured[q.name].tolist() for q in p.rows]
    table = [[t, *cells] for t, *cells in zip(p.t.tolist(), *columns)]
    return ["t"] + list(quantities), table, p.skipped()


def format_csv(header: list[str], rows: list[list]) -> str:
    """CSV text: a str cell as it is, None (a skip) as an empty field, and
    every number with 17 significant digits.  A row of numbers only is
    formatted with one format string."""
    numeric = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    for row in rows:
        try:
            lines.append(numeric % tuple(row))
        except TypeError:  # a None or str cell
            lines.append(",".join([v if isinstance(v, str) else "" if v is None else "%.17g" % v
                                   for v in row]))
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
