"""Sweep and verification harness.

``run_verify`` evaluates every family invariant over a dense t-sweep and
reports one verdict row per quantity; ``run_sweep`` returns raw
per-sample quantities as one float table and the mask of the cells it
holds, which ``format_csv`` prints, a skipped cell as an empty field.
Both read one table, ``QUANTITIES``, and one measurement pass whose
stages run on arrays over all t, through the ``_batch`` twins of the
scalar kernel, and only when a requested quantity needs them.  The rows of
a named conic that recur for several conics (axis ratio and semi-axes,
value at X100, axis angle) come from one row maker per family, which
derives each row's name, column and declared conic from the conic's tag.

The first check that fails raises its ``GeometryError`` subclass for the
lowest failing t.  The family's checks run first, when ``_family`` builds
the stack the pass measures; the pass's run in the order the requested
quantities first need their stages; within the conic stage, which builds
every named conic the requested quantities declare at once, in the order
of ``poristic.named_conics_batch``.  A check of a stacked stage (the conic
stage, the hyperbola stage) names the block that fails.

The pass runs at R = 1, on the ``poristic.config_from_rho(rho)`` that
``_family`` gives it: no stage, rank test or tolerance sees the scale, so
a family gets one verdict at every R.  User units are applied once, to the
reported values: each row's ``dim`` is its length power, and
``run_verify`` and ``run_sweep`` multiply its values by ``R ** dim``.  A
residual row is reported in units of R, the unit of its tolerance.

A spread quantity passes when every sample stays within tolerance of its
closed form, so that its relative spread over the sweep stays below twice
the tolerance ("invariant"); residual-style quantities (which should be
numerically zero) pass when their maximum stays below tolerance; a few
quantities (perimeter, billiard-view inradius and circumradius) must be
detected as varying.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import billiard as _billiard
from . import centers as _centers
from . import conics as _conics
from . import digits as _digits
from . import poristic as _poristic
from .errors import ConfigError, DegenerateConic, GeometryError, PassLog, UnknownQuantity
# canonicalize, conic_eval and foci stay importable from this module: the
# benchmark's tracer self-test (perfbench/test_perfbench.py) resolves them here.
from .geom import (  # noqa: F401
    CanonicalBatch,
    Circle,
    ConicBatch,
    Line,
    Point,
    _angle_gap,
    _first_read,
    _stacked,
    canonicalize,
    conic_eval,
    conic_eval_batch,
    distance_batch,
    foci,
    foci_batch,
    line_intersection_batch,
    line_through_batch,
    power_of_point,
    side_lines_batch,
    signed_area_batch,
    triangle_batch,
)

SCHEMA_VERSION = 1
# A verify's resident memory grows by about 2.1 KB per sample (measured at
# 100,000 samples; README): at most about 2.1 GB.
MAX_T_SAMPLES = 10**6
# Beyond this range of R the family's loci underflow or overflow unchecked.
_R_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class LabConfig:
    """Configuration for sweeps, verification and figures."""

    R: float = 1.0
    r: float = 0.36266
    t_samples: int = 720
    seed: int = 0
    perturb: float = 0.0  # vertex perturbation injected into one sample, in units of R

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
        return asdict(self)


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


class Loci(NamedTuple):
    """The pass's stationary loci: the X9 locus, the antiorthic axis and
    the Weaver power gaps at its point P0 on the x-axis (incircle,
    circumcircle, excentral circle), each a column over the samples."""

    mittenpunkt: Circle
    axis: Line
    weaver_gaps: list[np.ndarray]


class Antiorthic(NamedTuple):
    """Meets of the reference and excentral side lines, the mask of the
    pairs that meet, and the stage's gate."""

    points: np.ndarray
    meets: np.ndarray
    gate: tuple[np.ndarray, str]


class X100(NamedTuple):
    """X100 on the samples its gate keeps (NaN elsewhere), and the gate."""

    point: np.ndarray
    gate: tuple[np.ndarray, str]


class Billiard(NamedTuple):
    """Circumbilliard semi-axes in units of the perimeter, the normalized
    members, and their inradius and circumradius."""

    a9: float
    b9: float
    members: np.ndarray
    inradius: np.ndarray
    circumradius: np.ndarray


class Hyperbolas(NamedTuple):
    """Focal lengths of the Feuerbach and Jerabek circumhyperbolas."""

    feuerbach: np.ndarray
    jerabek: np.ndarray


class ClosedForms(NamedTuple):
    """X9 and the circumbilliard axis angle theta at every t, in closed form."""

    x9: np.ndarray
    theta: np.ndarray


class _Pass:
    """The measurement pass of ``rows`` over the family stack ``fam``, a
    ``poristic.FamilyBatch``, against the R = 1 config ``cfg``, all at once;
    the pass's ``t`` is ``fam.t``, and no stage reads how it is laid out or
    how the stack was made (``_family`` samples it).  Its stages are lazy:
    each runs at most once, when a row first needs it (``x`` memoizes per
    center), and returns a named tuple or an array.  Their checks go to
    ``log``, where the first one that fails raises (see ``PassLog``); the
    conic stage runs its checks in the order of
    ``poristic.named_conics_batch``.  A partial stage's result has a
    ``gate``: the mask of the samples it holds and the reason it skips the
    others.

    The named conics the rows declare are the pass's ``tags``; the conic
    stage builds exactly those, and reading any other raises
    ``LookupError``.  A pass with ``condition`` (a verify's) also takes the
    largest condition number of the stack's circumconic systems, as
    ``max_condition``; it is None otherwise, and when no row declares a
    circumconic."""

    def __init__(self, cfg: _poristic.PoristicConfig, fam: _poristic.FamilyBatch, rows,
                 seed: int, condition: bool = False):
        self.cfg, self.fam, self.t, self.rows, self.seed = cfg, fam, fam.t, rows, seed
        self.condition, self.max_condition = condition, None
        self.log = PassLog(self.t)
        self.tags = frozenset(tag for q in rows for tag in q.conics)
        self._x = {}

    def x(self, k: int) -> np.ndarray:
        """The reference triangle's center X_k (``centers.center_batch``),
        computed once.  X40 is 2 X3 - X1, as ``centers.center`` forms it,
        of the X3 and X1 the pass holds (X3, then X1, computed if not yet
        held)."""
        if k not in self._x:
            self._x[k] = (2 * self.x(3) - self.x(1) if k == 40 else
                          _centers.center_batch(self.fam.triangle, k, self.log, self.fam.sides))
        return self._x[k]

    @_first_read
    def conics(self) -> dict[str, tuple[ConicBatch, CanonicalBatch]]:
        """The conic stage: one stack of the declared named conics, as each
        tag's view, the conic and its canonical form.  The stack's
        ``max_condition`` (a verify's) is kept as the pass's."""
        stack, views = _poristic.named_conics_batch(self.fam, self.tags, self.x, self.log,
                                                    self.condition)
        self.max_condition = stack.max_condition
        return views

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

    @_first_read
    def loci(self) -> Loci:
        """X9 locus, antiorthic axis, and the Weaver power gaps at P0, the axis
        on the x-axis, per sample (all at infinity for d = 0)."""
        cfg = self.cfg
        locus = _poristic.mittenpunkt_locus_circle(cfg)
        axis = _poristic.antiorthic_axis(cfg)
        w_inc, w_circ = _poristic.weaver_circles(cfg)
        p0 = Point(-axis.c / axis.a, 0.0)
        pairs = ((w_inc, cfg.incircle), (w_circ, cfg.circumcircle), (w_circ, cfg.excentral_circle))
        gaps = [abs(power_of_point(p0, w) - power_of_point(p0, c)) for w, c in pairs]
        return Loci(locus, axis, [np.full(len(self.t), gap) for gap in gaps])

    @_first_read
    def side_lines(self) -> np.ndarray:
        """Lines of the family's sides (``side_lines_batch``), built once
        for the incircle row and the antiorthic stage."""
        return side_lines_batch(self.fam.triangle)

    @_first_read
    def antiorthic(self) -> Antiorthic:
        """Side-line intersections; t = 0, pi have a bisector parallel to a side."""
        pts, meets = line_intersection_batch(self.side_lines, side_lines_batch(self.fam.excentral))
        has_axis = np.count_nonzero(meets, axis=1) >= 2
        return Antiorthic(pts, meets, (has_axis, "isosceles member: bisector parallel to side"))

    @_first_read
    def x100(self) -> X100:
        """X100, partial: held on the members that pass the side-length test
        of its scalar twin ``centers.center(tri, 100)``, the scalene ones."""
        fam = self.fam
        has_x100 = _centers.scalene_batch(fam.sides)
        x100 = _centers.center_batch(fam.triangle, 100, self.log.where(has_x100), fam.sides)
        return X100(x100, (has_x100, "isosceles member: X100 undefined"))

    @_first_read
    def closed(self) -> ClosedForms:
        """X9 and theta in closed form, computed once for the billiard stage
        and the rows that compare them."""
        return ClosedForms(_poristic.x9_closed_form_batch(self.cfg, self.t),
                           _poristic.theta_closed_form_batch(self.cfg, self.t))

    @_first_read
    def billiard(self) -> Billiard:
        """Billiard semi-axes, normalized members, their inradius, circumradius."""
        a9, b9, _c9 = _billiard.cb_axes_normalized(self.cfg.rho)
        norm, ns = _billiard.normalize_sample_batch(self.fam, *self.closed, self.log)
        n_area = signed_area_batch(norm)
        return Billiard(a9, b9, norm, 2.0 * n_area / (ns[:, 0] + ns[:, 1] + ns[:, 2]),
                        ns[:, 0] * ns[:, 1] * ns[:, 2] / (4.0 * n_area))

    @_first_read
    def hyperbolas(self) -> Hyperbolas:
        """Focal lengths of the Feuerbach and Jerabek circumhyperbolas, on the
        samples of X100's gate, as one stack of both systems: each check runs
        on the Feuerbach block, then on the Jerabek one, and names the block
        that fails."""
        x100 = self.x100
        return Hyperbolas(*np.split(_conics.hyperbola_focal_length_batch(
            [(self.fam.triangle, self.x(11)), (self.fam.excentral, x100.point)],
            PassLog(self.t, x100.gate[0], ("Feuerbach", "Jerabek"))), 2))

    @_first_read
    def equivariance(self) -> np.ndarray:
        """Similarity equivariance of the center registry (seeded transform)."""
        sigmas = np.random.default_rng(self.seed).uniform(  # rows (angle, scale, tx, ty)
            [0.0, 0.5, -3.0, -3.0], [2 * math.pi, 2.0, 3.0, 3.0], size=(len(self.t), 4))
        ang, scale, tx, ty = (a[:, None] for a in sigmas.T)
        ca, sa = np.cos(ang), np.sin(ang)

        def apply_sigma(p: np.ndarray) -> np.ndarray:
            return _stacked(scale * (ca * p[..., 0] - sa * p[..., 1]) + tx,
                            scale * (sa * p[..., 0] + ca * p[..., 1]) + ty)

        tri_sigma, s_sigma = triangle_batch(apply_sigma(self.fam.triangle), self.log)
        gap = np.zeros(len(self.t))
        for k in (1, 9, 10, 11):
            direct = _centers.center_batch(tri_sigma, k, self.log, s_sigma)
            mapped = apply_sigma(self.x(k)[:, None, :])[:, 0]
            gap = np.maximum(gap, distance_batch(direct, mapped) / scale[:, 0])
        return gap

    def measure(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' results, two (rows, samples) stacks in row order:
        ``values``, computed in row order from the stages the rows need, and
        ``held``, the samples each row's gate keeps (all, for a full row).
        Each gate is read once, here; ``reasons`` keeps each row's skip
        reason (None for a full row).  The first failing check raises; no
        held value is non-finite.

        A stage's result is kept while rows read it.  The conic stage, the
        largest (its stack's coefficient rows and canonical forms, about
        0.8 KB per sample for a verify's eight conics), is dropped after the
        last row that declares a conic, so the stages that later rows first
        need (for a verify, the hyperbola stage), the stacking of the values
        and the verify's reduction run without it; a later read of it would
        build it again.  The other stages are kept until the pass is
        dropped.  The values are stacked after the last row: a stack made
        first would be held through every stage."""
        last_conic_row = max((i for i, q in enumerate(self.rows) if q.conics), default=-1)
        columns = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i, q in enumerate(self.rows):
                columns.append(q.compute(self))
                if i == last_conic_row:
                    self.__dict__.pop("conics", None)
        values = np.array(columns).reshape(len(self.rows), len(self.t))
        del columns
        held = np.ones(values.shape, bool)
        self.reasons = [None] * len(self.rows)
        for i, q in enumerate(self.rows):
            if q.partial:
                held[i], self.reasons[i] = getattr(self, q.partial).gate
        bad = ~np.isfinite(values) & held
        if bad.any():
            i, k = divmod(int(np.argmax(bad)), len(self.t))
            raise GeometryError(f"{self.rows[i].name} is not finite at t = {float(self.t[k])!r}")
        return values, held

    def skipped(self, held: np.ndarray) -> list[dict]:
        """Skip log of ``measure``'s ``held``: per skipped sample, the reasons
        of the rows' gates in the order the rows first use them, each for the
        rows it skips there."""
        users: dict[str, tuple[np.ndarray, list]] = {}  # reason -> (held mask, row names)
        for q, mask, reason in zip(self.rows, held, self.reasons):
            if reason is not None:
                users.setdefault(reason, (mask, []))[1].append(q.name)
        return [{"t": float(self.t[i]), "reason": f"{name}: {reason}"}
                for i in np.flatnonzero(~held.all(axis=0))
                for reason, (mask, names) in users.items() if not mask[i] for name in names]


# --- The quantity table ------------------------------------------------------

@dataclass(frozen=True)
class Quantity:
    """One quantity: ``compute`` gives its column over all t from the pass's
    stages, and ``partial``, for a column that skips samples, names the
    partial stage whose gate it takes (``"x100"`` or ``"antiorthic"``).  A
    row with a ``check`` ("residual" | "spread" | "varying") is a verify
    row: ``tol`` is its fixed tolerance, ``expected`` a spread row's closed
    form, of the pass's R = 1 config.  ``dim`` is the row's length power, 1
    for a length and 0 for every other row, residuals included: its
    reported values are the R = 1 ones times ``R ** dim``.  ``conics`` names
    the named conics ``compute`` reads; the row makers ``_axis_rows``,
    ``_x100_eval_row`` and ``_angle_row`` set it from their tag, and only
    rows that read other or several conics declare it by hand.  The rows
    that are sweep columns are listed, in column order, by
    ``SWEEP_QUANTITIES``."""

    name: str
    compute: Callable[[_Pass], np.ndarray]
    check: str | None = None
    expected: Callable[[_poristic.PoristicConfig], float] | None = None
    tol: float = 1e-9
    partial: str | None = None
    conics: tuple[str, ...] = ()
    dim: int = 0


def _incircle_residual(p: _Pass) -> np.ndarray:
    sides, x1 = p.side_lines, p.cfg.incircle.center
    return np.abs(np.abs(sides[..., 0] * x1.x + sides[..., 1] * x1.y + sides[..., 2])
                  - p.cfg.r).max(axis=1)


def _i5x_foci_gap(p: _Pass) -> np.ndarray:
    """Foci of the stationary excentral caustic against X40 and X1."""
    f1, f2 = foci_batch(p.can("I5x"))
    x40, x1 = p.cfg.excentral_circle.center.as_array(), p.cfg.incircle.center.as_array()
    return np.minimum(np.maximum(distance_batch(f1, x40), distance_batch(f2, x1)),
                      np.maximum(distance_batch(f2, x40), distance_batch(f1, x1)))


def _antiorthic_axis_gap(p: _Pass) -> np.ndarray:
    axis = p.loci.axis
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
    """The largest axis gap over every pair of ``_PARALLEL_AXES``, taken
    pair by pair, so that no (pairs, samples) stack is made."""
    axes = [p.can(tag).angle for tag in _PARALLEL_AXES]
    gap = np.zeros(len(p.t))
    for a, b in itertools.combinations(axes, 2):
        np.maximum(gap, _angle_gap(a, b, math.pi / 2), out=gap)
    return gap


def _sign_free_gap(c: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest coefficient gap between conics given as coefficient rows
    (``ConicBatch.c``), which is their largest matrix entry gap, up to the
    sign of ``ref``."""
    return np.minimum(np.abs(c - ref).max(axis=0), np.abs(c + ref).max(axis=0))


#: Closed forms of the axis ratio and the semi-axes of I3x and of E1.
_BICENTRIC = (lambda c: (c.R + c.d) / (c.R - c.d), lambda c: c.R + c.d, lambda c: c.R - c.d)


def _root_bicentric_ratio(c: _poristic.PoristicConfig) -> float:
    """The axis ratio of E10 and of E5x: the square root of that of I3x."""
    return math.sqrt(_BICENTRIC[0](c))


def _caustic_ratio(c: _poristic.PoristicConfig) -> float:
    """The axis ratio of I9, the Mandart inellipse: the confocal caustic of
    the circumbilliard (Reznik, Garcia and Koiller, 2020)."""
    a9, b9, _c9 = _billiard.cb_axes_normalized(c.rho)
    ac, bc = _billiard.caustic_axes(_billiard.BilliardConfig(a9, b9))
    return ac / bc


# --- Conic-row families: each derives its rows' names, columns and declared
# conics from the conic's tag.

def _axis_rows(tag: str, *closed_forms) -> tuple[Quantity, ...]:
    """Spread rows of conic ``tag``: ``ratio_<tag>``, its axis ratio, then
    ``eta_<tag>`` and ``zeta_<tag>``, its semi-axes, lengths of ``dim`` 1,
    one row per closed form in ``closed_forms``, in that order."""
    t = tag.lower()
    reads = {f"ratio_{t}": lambda p: p.ratio(tag), f"eta_{t}": lambda p: p.can(tag).semi_major,
             f"zeta_{t}": lambda p: p.can(tag).semi_minor}
    return tuple(Quantity(name, read, "spread", expected, conics=(tag,), dim=int(i > 0))
                 for i, ((name, read), expected) in enumerate(zip(reads.items(), closed_forms)))


def _x100_eval_row(tag: str) -> Quantity:
    """``<tag>_x100_eval``: conic ``tag`` evaluated at X100, on its gate."""
    return Quantity(f"{tag.lower()}_x100_eval",
                    lambda p: np.abs(conic_eval_batch(p.conic(tag), p.x100.point)), "residual",
                    partial="x100", conics=(tag,))


def _angle_row(tag: str, name: str | None = None) -> Quantity:
    """``angle_<tag>``, or ``name``: the axis angle of conic ``tag``."""
    return Quantity(name or f"angle_{tag.lower()}", lambda p: p.can(tag).angle, conics=(tag,))


_ATOL = 1e-8  # of the angle and reflection rows

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
    Quantity("antiorthic_axis_gap", _antiorthic_axis_gap, "residual", partial="antiorthic"),
    Quantity("weaver_incircle_power_gap", lambda p: p.loci.weaver_gaps[0], "residual",
             tol=1e-10),
    Quantity("weaver_circumcircle_power_gap", lambda p: p.loci.weaver_gaps[1], "residual",
             tol=1e-10),
    Quantity("weaver_excentral_power_gap", lambda p: p.loci.weaver_gaps[2], "residual",
             tol=1e-10),
    Quantity("perimeter_closed_rel_err", lambda p: np.abs(
        _poristic.perimeter_closed_form_batch(p.cfg, p.t) - p.fam.perimeter) / p.fam.perimeter,
        "residual", tol=1e-12),
    Quantity("x9_closed_gap", lambda p: distance_batch(p.closed.x9, p.x(9)), "residual"),
    Quantity("theta_closed_gap", lambda p: _angle_gap(p.closed.theta, p.can("E9").angle, math.pi),
             "residual", tol=_ATOL, conics=("E9",)),
    Quantity("x9_locus_gap", lambda p: np.abs(distance_batch(
        p.x(9), p.loci.mittenpunkt.center.as_array()) - p.loci.mittenpunkt.radius), "residual"),
    *map(_x100_eval_row, ("E1", "E9", "I3x")),
    Quantity("i3x_implicit_gap", lambda p: _sign_free_gap(
        p.conic("I3x").c, _poristic.i3x_implicit_matrix_batch(p.cfg, p.t).c), "residual",
             conics=("I3x",)),
    Quantity("billiard_ellipse_residual", lambda p: np.abs(
        (p.billiard.members[..., 0] / p.billiard.a9) ** 2
        + (p.billiard.members[..., 1] / p.billiard.b9) ** 2 - 1.0).max(axis=1),
        "residual", tol=1e-8),
    Quantity("reflection_law_gap", lambda p: _billiard.reflection_law_residual_batch(
        p.billiard.members, p.billiard.a9, p.billiard.b9), "residual", tol=_ATOL),
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
             lambda c: -_poristic.antiorthic_axis(c).c, tol=1e-10, partial="antiorthic", dim=1),
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
    *_axis_rows("I9", _caustic_ratio),
    Quantity("gamma_ratio", lambda p: p.hyperbolas.jerabek / p.hyperbolas.feuerbach, "spread",
             lambda c: math.sqrt(2.0 / c.rho), tol=1e-7, partial="x100"),
    # Inradius and circumradius of the normalized member vary over the
    # billiard-view family; their ratio does not.
    Quantity("rho_billiard", lambda p: p.billiard.inradius / p.billiard.circumradius, "spread",
             lambda c: c.rho),
    Quantity("perimeter", lambda p: p.fam.perimeter, "varying", dim=1),
    Quantity("r_billiard", lambda p: p.billiard.inradius, "varying"),
    Quantity("R_billiard", lambda p: p.billiard.circumradius, "varying"),

    # Sweep-only columns.
    Quantity("omega", lambda p: p.fam.omega, dim=1),
    Quantity("x9_x", lambda p: p.x(9)[:, 0], dim=1),
    Quantity("x9_y", lambda p: p.x(9)[:, 1], dim=1),
    _angle_row("E9", "theta"),
    *map(_angle_row, ("E1", "E9", "I3x", "E10", "E5x", "E6x")),
    Quantity("gamma_feuerbach", lambda p: p.hyperbolas.feuerbach, partial="x100", dim=1),
    Quantity("gamma_jerabek", lambda p: p.hyperbolas.jerabek, partial="x100", dim=1),
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


def _family(lab: LabConfig) -> tuple[_poristic.PoristicConfig, _poristic.FamilyBatch]:
    """The R = 1 config of ``lab``'s family and its members on ``lab.t``,
    the stack a pass of ``run_verify`` or ``run_sweep`` measures.  With
    ``lab.perturb`` set, the first vertex of sample ``len(t) // 3`` is
    shifted along x, in units of R, in the vertex stack, before the
    family's one build checks it; a clockwise swap never moves vertex 0.
    It runs under the floating-point error state of ``_Pass.measure``."""
    cfg, t = _poristic.config_from_rho(lab.poristic().rho), lab.t
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v, omega = _poristic._vertex_stack(cfg, t)
        if lab.perturb != 0.0:
            v[len(t) // 3, 0, 0] += lab.perturb
        return cfg, _poristic._family_batch(t, v, omega, PassLog(t))


def run_verify(lab: LabConfig) -> VerifyResult:
    """Every verify row, judged at R = 1 and reported in units of ``lab.R``,
    measured by one pass over ``_family(lab)``."""
    p = _Pass(*_family(lab), _VERIFY_ROWS, lab.seed, condition=True)
    values, held = p.measure()
    reports = [_judge(q.name, *stats, q.check, q.tol, q.expected(p.cfg) if q.expected else None,
                      lab.R ** q.dim) for q, *stats in zip(_VERIFY_ROWS, *_reduce(values, held))]
    return VerifyResult(lab, reports, p.skipped(held), p.max_condition)


def _reduce(values: np.ndarray, held: np.ndarray) -> tuple[list, ...]:
    """Per row of ``values``, over the samples ``held`` keeps: the count,
    minimum, maximum, sum and largest magnitude, each a list over the rows.
    The sum is taken left to right on every Python (``sum`` of floats is
    compensated from 3.12), each cell not held adding 0.0, which moves only
    the sign of a zero sum; ``+ 0.0`` makes every zero sum 0.0, as ``sum``
    does.  It is one running sum, in place, in one copy of ``values``.  The
    largest magnitude is the larger of the maximum and minus the minimum,
    and 0.0 for a row that holds nothing."""
    lo = np.min(values, axis=1, where=held, initial=math.inf).tolist()
    hi = np.max(values, axis=1, where=held, initial=-math.inf).tolist()
    total = np.where(held, values, 0.0)
    np.cumsum(total, axis=1, out=total)
    return (np.count_nonzero(held, axis=1).tolist(), lo, hi, (total[:, -1] + 0.0).tolist(),
            [max(0.0, h, -low) for low, h in zip(lo, hi)])


def _judge(name: str, n: int, lo: float, hi: float, total: float, peak: float, check: str,
           tol: float, expected: float | None, unit: float) -> SweepReport:
    """The row of n values of minimum ``lo``, maximum ``hi``, sum ``total``
    and largest magnitude ``peak``, with its values (not its relative
    spread) reported times ``unit``."""
    shown = None if expected is None else expected * unit
    if not n:
        return SweepReport(name, 0, math.nan, math.nan, math.nan, math.nan,
                           "skipped", tol, check, shown, status="fail")
    mean = total / n
    spread = (hi - lo) / abs(mean) if mean != 0.0 else math.inf
    if check == "residual":
        verdict = "invariant" if peak < tol else "varying"
        ok = verdict == "invariant"
    elif check == "varying":
        verdict = "invariant" if spread < tol else "varying"
        ok = verdict == "varying"
    else:
        # A spread row: every sample must sit within tol of its closed form;
        # values within tol of one constant have spread at most 2 tol, which
        # is the spread tolerance the verdict uses.
        verdict = "invariant" if spread < 2 * tol else "varying"
        ok = (max(abs(lo - expected), abs(hi - expected)) <= tol * max(1.0, abs(expected))
              and verdict == "invariant")
    return SweepReport(name, n, lo * unit, hi * unit, mean * unit, spread, verdict, tol,
                       check, shown, "varying" if check == "varying" else "invariant",
                       "pass" if ok else "fail")


# --- Raw sweeps ------------------------------------------------------------

def run_sweep(lab: LabConfig, quantities: list[str]
              ) -> tuple[list[str], np.ndarray, np.ndarray, list[dict]]:
    """Per-sample values in units of ``lab.R``, measured by one pass over
    ``_family(lab)``: returns (header, table, held, skip log), the float
    table (samples, 1 + columns) with t first and the bool mask ``held``
    of its shape false at the skipped cells.  Only the stages the
    requested columns need run."""
    for q in quantities:
        if q not in SWEEP_QUANTITIES:
            raise UnknownQuantity(
                f"unknown quantity {q!r}; valid names: {', '.join(SWEEP_QUANTITIES)}")
    p = _Pass(*_family(lab), [_BY_NAME[q] for q in quantities], lab.seed)
    values, held = p.measure()
    values *= np.array([lab.R ** q.dim for q in p.rows])[:, None]
    table = np.empty((len(p.t), len(quantities) + 1))
    table[:, 0] = p.t
    table[:, 1:] = values.T
    held_table = np.ones(table.shape, bool)
    held_table[:, 1:] = held.T
    return ["t"] + list(quantities), table, held_table, p.skipped(held)


def format_csv(header: list[str], table, held: np.ndarray | None = None) -> str:
    """CSV text: the header, then a line per row of the 2-D ``table``,
    each cell ``'%.17g' % float(cell)``, or an empty field where the bool
    mask ``held`` is False.  ``digits.csv_cells`` prints the cells in one
    pass, byte for byte as ``%``; a table of no columns prints an empty
    line per row."""
    table = np.asarray(table, dtype=float)
    head = ",".join(header) + "\n"
    if not table.shape[1]:  # no cell to end a row with
        return head + "\n" * len(table)
    ends = np.zeros(table.shape, bool)
    ends[:, -1] = True
    skip = None if held is None else ~held.ravel()
    return "".join([head, *_digits.csv_cells(table.ravel(), ends.ravel(), skip)])


def verify_report_csv(result: VerifyResult) -> str:
    """The verify rows as CSV: a str cell as it is, None as an empty field,
    a number as ``'%.17g'``."""
    header = ["quantity", "samples", "min", "max", "mean", "spread_rel",
              "tolerance", "check", "expected", "verdict", "expected_verdict", "status"]
    rows = [header, *([getattr(r, k) for k in header] for r in result.reports)]
    return "".join(",".join(c if isinstance(c, str) else "" if c is None else "%.17g" % c
                            for c in row) + "\n" for row in rows)


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
