"""Sweep and verification harness.

``run_verify`` evaluates every family invariant over a dense t-sweep and
reports one verdict row per quantity; ``run_sweep`` dumps raw per-sample
quantities.  Both rest on one measurement pass that evaluates each stage on
arrays over all t at once, through the ``_batch`` twins of the scalar
kernel; a sample where the scalar kernel would raise makes the pass raise
the same ``GeometryError`` subclass, for the first such t.

A quantity is "invariant" when its relative spread over the
sweep stays below tolerance; residual-style quantities (which should be
numerically zero) pass when their maximum stays below tolerance; a few
quantities (perimeter, billiard-view inradius and circumradius) must be
detected as varying.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

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
    perimeter_batch,
    power_of_point,
    side_lines_batch,
    signed_area_batch,
    triangle_batch,
)

SCHEMA_VERSION = 1


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

    def validated(self) -> "LabConfig":
        if self.t_samples < 3:
            raise ConfigError(f"t_samples must be >= 3, got {self.t_samples}")
        if not 0 < self.tolerance <= 1e-3:
            raise ConfigError(f"tolerance must be in (0, 1e-3], got {self.tolerance}")
        if not 0 < self.angle_tolerance <= 1e-3:
            raise ConfigError(f"angle tolerance must be in (0, 1e-3], got {self.angle_tolerance}")
        return self

    def poristic(self) -> _poristic.PoristicConfig:
        try:
            return _poristic.config_from_rR(self.R, self.r)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        return {
            "R": self.R,
            "r": self.r,
            "t_samples": self.t_samples,
            "tolerance": self.tolerance,
            "angle_tolerance": self.angle_tolerance,
            "seed": self.seed,
            "perturb": self.perturb,
        }


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
        return {
            "quantity": self.quantity,
            "samples": self.samples,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "spread_rel": self.spread_rel,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "check": self.check,
            "expected": self.expected,
            "expected_verdict": self.expected_verdict,
            "status": self.status,
        }


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


def _xy(p: Point) -> np.ndarray:
    return np.array([p.x, p.y])


#: Named conics the pass builds, in the order their checks are made; the
#: first five are circumconics, whose condition numbers the report carries.
_MEASURED_TAGS = ("E1", "E9", "E10", "E5x", "E6x", "I3x", "I5x", "I9")
_CIRCUM_TAGS = _MEASURED_TAGS[:5]
_X100_ROWS = ("e1_x100_eval", "e9_x100_eval", "i3x_x100_eval")


@dataclass
class _Measured:
    """One batched pass: every quantity as a column over all t.  ``valid``
    marks the samples holding a value in the partial columns; ``skips``
    lists (quantity, samples, reason) in the order a skipped sample reports
    them."""

    t: np.ndarray
    columns: dict[str, np.ndarray]
    valid: dict[str, np.ndarray]
    skips: list[tuple[str, np.ndarray, str]]
    max_condition: float

    def values(self, name: str) -> np.ndarray:
        ok = self.valid.get(name)
        return self.columns[name] if ok is None else self.columns[name][ok]

    def skipped(self) -> list[dict]:
        out = []
        for i in np.flatnonzero(np.any([mask for _, mask, _ in self.skips], axis=0)):
            for name, mask, reason in self.skips:
                if mask[i]:
                    out.append({"t": float(self.t[i]), "reason": f"{name}: {reason}"})
        return out

    def skip_reason(self, name: str, i: int) -> str:
        for q, mask, reason in self.skips:
            if q == name and mask[i]:
                return reason
        return "not computed"


def _measure(cfg: _poristic.PoristicConfig, n: int, sigmas: np.ndarray,
             perturb: float = 0.0, want_hyperbolas: bool = True) -> _Measured:
    """Every per-sample verification quantity at t = 2 pi k / n, all k at
    once.

    Stages and checks run in the order of a sample-by-sample pass, so the
    pass raises what the first failing sample raises (see ``PassLog``).
    ``perturb`` shifts the first vertex of sample n // 3 along x.
    """
    R, r, d = cfg.R, cfg.r, cfg.d
    t = 2 * math.pi * np.arange(n) / n
    log = PassLog(t)
    col: dict[str, np.ndarray] = {}
    valid: dict[str, np.ndarray] = {}
    skips: list[tuple[str, np.ndarray, str]] = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fam = _poristic.sample_batch(cfg, t, log)
        if perturb != 0.0:
            v = fam.triangle.copy()
            v[n // 3, 0, 0] += perturb
            tri = triangle_batch(v, log)
            fam = _poristic.FamilyBatch(t, tri, _centers.excentral_batch(tri, log),
                                        fam.omega, perimeter_batch(tri))
        tri, exc = fam.triangle, fam.excentral
        x3_pt, x1_pt, x40_pt = np.array([d, 0.0]), np.array([2 * d, 0.0]), np.zeros(2)

        # --- Poncelet closure residuals.
        col["circumcircle_residual"] = np.abs(distance_batch(tri, x3_pt) - R).max(axis=1)
        sides = side_lines_batch(tri)
        col["incircle_residual"] = np.abs(np.abs(
            sides[..., 0] * x1_pt[0] + sides[..., 1] * x1_pt[1] + sides[..., 2]) - r).max(axis=1)

        # --- Named conics and canonical forms.
        s = _centers.side_lengths_batch(tri, log)
        x = {k: _centers.center_batch(tri, k, log, s) for k in (9, 1, 3, 40, 10)}
        conics = {tag: _poristic.named_conic_batch(fam, tag, x, log) for tag in _MEASURED_TAGS}
        max_cond = max(float(conics[tag].cond.max()) for tag in _CIRCUM_TAGS)
        can = {tag: canonicalize_batch(conics[tag], log) for tag in _MEASURED_TAGS}

        col["perimeter"] = fam.perimeter
        col["omega"] = fam.omega
        col["x9_x"], col["x9_y"] = x[9][:, 0], x[9][:, 1]
        col["theta"] = can["E9"].angle
        for tag in _MEASURED_TAGS:
            name = f"ratio_{tag.lower()}"
            log.check(can[tag].semi_minor == 0.0, DegenerateConic,
                      f"{name}: conic {tag} has a zero semi-minor axis")
            col[name] = can[tag].semi_major / can[tag].semi_minor
        for tag in ("E1", "I3x", "I5x"):
            col[f"eta_{tag.lower()}"] = can[tag].semi_major
            col[f"zeta_{tag.lower()}"] = can[tag].semi_minor
        for tag in ("E1", "E9", "I3x", "E10", "E5x", "E6x"):
            col[f"angle_{tag.lower()}"] = can[tag].angle

        # --- Stationary excentral caustic: center X3, foci X40 and X1.
        col["i5x_center_gap"] = distance_batch(can["I5x"].center, x3_pt)
        f1, f2 = foci_batch(can["I5x"])
        col["i5x_foci_gap"] = np.minimum(
            np.maximum(distance_batch(f1, x40_pt), distance_batch(f2, x1_pt)),
            np.maximum(distance_batch(f2, x40_pt), distance_batch(f1, x1_pt)))
        m5 = conics["I5x"].m
        col["i5x_stationarity"] = np.minimum(np.abs(m5 - m5[0]).max(axis=(1, 2)),
                                             np.abs(m5 + m5[0]).max(axis=(1, 2)))

        # --- Closed forms vs constructive values.
        col["perimeter_closed_rel_err"] = (
            np.abs(_poristic.perimeter_closed_form_batch(cfg, t) - fam.perimeter) / fam.perimeter)
        col["x9_closed_gap"] = distance_batch(_poristic.x9_closed_form_batch(cfg, t), x[9])
        col["theta_closed_gap"] = _angle_gap(_poristic.theta_closed_form_batch(cfg, t),
                                             can["E9"].angle, math.pi)
        locus = log.call(_poristic.mittenpunkt_locus_circle, cfg)
        col["x9_locus_gap"] = np.abs(distance_batch(x[9], _xy(locus.center)) - locus.radius)

        # --- Weaver power identities (P0 = antiorthic axis on the x-axis);
        # per-configuration values, one per sample as in every column.
        axis = log.call(_poristic.antiorthic_axis, cfg)
        p0 = Point(-axis.c / axis.a, 0.0)
        w_inc, w_circ = log.call(_poristic.weaver_circles, cfg)
        for name, circle, other in (("weaver_incircle_power_gap", w_inc, cfg.incircle),
                                    ("weaver_circumcircle_power_gap", w_circ, cfg.circumcircle),
                                    ("weaver_excentral_power_gap", w_circ, cfg.excentral_circle)):
            col[name] = np.full(n, abs(power_of_point(p0, circle) - power_of_point(p0, other)))

        # --- Antiorthic axis from side-line intersections (degenerate at
        # t = 0, pi where an external bisector parallels its opposite side).
        pts, meets = line_intersection_batch(sides, side_lines_batch(exc))
        has_axis = np.count_nonzero(meets, axis=1) >= 2
        for name in ("antiorthic_axis_gap", "antiorthic_intercept"):
            skips.append((name, ~has_axis, "isosceles member: bisector parallel to side"))
            valid[name] = has_axis
        col["antiorthic_axis_gap"] = np.where(
            meets, np.abs(axis.a * pts[..., 0] + axis.b * pts[..., 1] + axis.c), 0.0).max(axis=1)
        first_two = np.argsort(~meets, axis=1, kind="stable")[:, :2, None]
        q = np.take_along_axis(pts, first_two, axis=1)
        constructed = line_through_batch(q[:, 0], q[:, 1])
        col["antiorthic_intercept"] = -constructed[:, 2] / constructed[:, 0]

        # --- Excentral-inconic dual route: tangent-line coefficients vs the
        # implicit closed form.
        m_lemma = _conics.inconic_from_tangents_batch(
            *_poristic.excentral_side_lines_batch(cfg, t), log).m
        m_impl = _poristic.i3x_implicit_matrix_batch(cfg, t).m
        col["i3x_implicit_gap"] = np.minimum(np.abs(m_lemma - m_impl).max(axis=(1, 2)),
                                             np.abs(m_lemma + m_impl).max(axis=(1, 2)))

        # --- X100 incidences (scalene members only; the family is isosceles
        # at t = 0 and pi, excluded with a fixed parameter radius).
        # math.remainder is exact (numpy has no IEEE remainder), so the radius
        # test decides exactly as the scalar pass does.
        near = np.array([abs(math.remainder(ti, math.pi)) < _poristic.ISOSCELES_T_RADIUS
                         for ti in t.tolist()])
        isosceles = ~near & ~_centers.scalene_batch(s)
        has_x100 = ~(near | isosceles)
        skips += [(name, near, "isosceles member: X100 undefined") for name in _X100_ROWS]
        skips += [(name, isosceles, "X_100 is ill-conditioned on isosceles input")
                  for name in _X100_ROWS]
        x100 = _centers.center_batch(tri, 100, log.where(has_x100), s)
        for name, tag in zip(_X100_ROWS, ("E1", "E9", "I3x")):
            col[name] = np.abs(conic_eval_batch(conics[tag], x100))
            valid[name] = has_x100

        # --- Similarity normalization onto the fixed billiard.
        a9, b9, _c9 = log.call(_billiard.cb_axes_normalized, cfg.rho)
        norm = _billiard.normalize_sample_batch(cfg, fam, log)
        col["billiard_ellipse_residual"] = np.abs(
            (norm[..., 0] / a9) ** 2 + (norm[..., 1] / b9) ** 2 - 1.0).max(axis=1)
        col["reflection_law_gap"] = _billiard.reflection_law_residual_batch(norm, a9, b9)
        # Inradius/circumradius of the normalized member, recomputed from its
        # geometry: both vary over the billiard-view family, their ratio does not.
        ns = _centers.side_lengths_batch(norm, log)
        n_area = signed_area_batch(norm)
        r_norm = 2.0 * n_area / (ns[:, 0] + ns[:, 1] + ns[:, 2])
        R_norm = ns[:, 0] * ns[:, 1] * ns[:, 2] / (4.0 * n_area)
        col["r_billiard"], col["R_billiard"], col["rho_billiard"] = r_norm, R_norm, r_norm / R_norm

        # --- Circumbilliard foci on the predicted circle.
        fc_center, fc_radius = _billiard.foci_locus_check(cfg)
        g1, g2 = foci_batch(can["E9"])
        col["cb_foci_circle_gap"] = np.maximum(
            np.abs(distance_batch(g1, _xy(fc_center)) - fc_radius),
            np.abs(distance_batch(g2, _xy(fc_center)) - fc_radius))

        # --- Axis relations.
        col["e6x_e9_center_gap"] = distance_batch(can["E6x"].center, can["E9"].center)
        col["e6x_e9_axis_gap"] = _angle_gap(can["E6x"].angle, can["E9"].angle, math.pi / 2)
        col["e1_i3x_axis_gap"] = np.abs(
            _angle_gap(can["E1"].angle, can["I3x"].angle, math.pi) - math.pi / 2)
        fam_axes = [can[tag].angle for tag in ("E9", "E10", "E5x", "E6x", "I3x")]
        col["parallel_axes_gap"] = np.max([_angle_gap(a, b, math.pi / 2)
                                           for i, a in enumerate(fam_axes)
                                           for b in fam_axes[i + 1:]], axis=0)

        # --- Focal-length ratio of the two circumhyperbolas.
        if want_hyperbolas:
            skips.append(("gamma_ratio", ~has_x100, "isosceles-degenerate X100"))
            hyp_log = log.where(has_x100)
            x11 = _centers.center_batch(tri, 11, hyp_log, s)
            g_feu = _conics.hyperbola_focal_length_batch(tri, x11, hyp_log)
            g_jer = _conics.hyperbola_focal_length_batch(exc, x100, hyp_log)
            col["gamma_feuerbach"], col["gamma_jerabek"] = g_feu, g_jer
            col["gamma_ratio"] = g_jer / g_feu
            for name in ("gamma_feuerbach", "gamma_jerabek", "gamma_ratio"):
                valid[name] = has_x100

        # --- Similarity equivariance of the center registry (seeded transform).
        ang, scale, tx, ty = (a[:, None] for a in sigmas.T)
        ca, sa = np.cos(ang), np.sin(ang)

        def apply_sigma(p: np.ndarray) -> np.ndarray:
            return np.stack([scale * (ca * p[..., 0] - sa * p[..., 1]) + tx,
                             scale * (sa * p[..., 0] + ca * p[..., 1]) + ty], axis=-1)

        tri_sigma = triangle_batch(apply_sigma(tri), log)
        s_sigma = _centers.side_lengths_batch(tri_sigma, log)
        gap = np.zeros(n)
        for k in (1, 9, 10, 11):
            direct = _centers.center_batch(tri_sigma, k, log, s_sigma)
            here = x[k] if k in x else _centers.center_batch(tri, k, log, s)
            mapped = apply_sigma(here[:, None, :])[:, 0]
            gap = np.maximum(gap, distance_batch(direct, mapped) / (scale[:, 0] * R))
        col["center_equivariance_gap"] = gap

    if log.fallbacks:
        warnings.warn(f"closed-form inconic D disagreed with the tangency-solved D in "
                      f"{log.fallbacks} cases; the solved values were used",
                      _conics.InconicCoefficientWarning)
    log.raise_first()
    for name, values in col.items():
        bad = ~np.isfinite(values)
        if name in valid:
            bad &= valid[name]
        if bad.any():
            raise GeometryError(f"{name} is not finite at t = {float(t[np.argmax(bad)])!r}")
    return _Measured(t, col, valid, skips, max_cond)


def _row_defs(cfg: _poristic.PoristicConfig, lab: LabConfig) -> list[dict]:
    """Verification rows: (name, check kind, tolerance, expected value)."""
    R, r, d, rho = cfg.R, cfg.r, cfg.d, cfg.rho
    tol = lab.tolerance
    atol = lab.angle_tolerance
    rows: list[dict] = []

    def residual(name, tolerance):
        rows.append({"name": name, "check": "residual", "tol": tolerance})

    def invariant(name, expected=None, tolerance=tol):
        rows.append({"name": name, "check": "spread", "tol": tolerance, "expected": expected})

    def varying(name):
        rows.append({"name": name, "check": "varying", "tol": tol})

    residual("circumcircle_residual", 1e-10)
    residual("incircle_residual", 1e-10)
    residual("i5x_stationarity", 1e-10)
    residual("i5x_center_gap", tol)
    residual("i5x_foci_gap", tol)
    residual("antiorthic_axis_gap", tol)
    residual("weaver_incircle_power_gap", 1e-10)
    residual("weaver_circumcircle_power_gap", 1e-10)
    residual("weaver_excentral_power_gap", 1e-10)
    residual("perimeter_closed_rel_err", 1e-12)
    residual("x9_closed_gap", tol)
    residual("theta_closed_gap", atol)
    residual("x9_locus_gap", tol)
    residual("e1_x100_eval", tol)
    residual("e9_x100_eval", tol)
    residual("i3x_x100_eval", tol)
    residual("i3x_implicit_gap", tol)
    residual("billiard_ellipse_residual", 1e-8)
    residual("reflection_law_gap", atol)
    residual("cb_foci_circle_gap", tol)
    residual("e6x_e9_center_gap", tol)
    residual("e6x_e9_axis_gap", atol)
    residual("e1_i3x_axis_gap", atol)
    residual("parallel_axes_gap", atol)
    residual("center_equivariance_gap", tol)

    ratio_13 = (R + d) / (R - d)
    ratio_sqrt = math.sqrt((R + d) / (R - d))
    invariant("antiorthic_intercept", (3 * R * R + d * d) / (2 * d), tolerance=1e-10)
    invariant("ratio_i5x", 1.0 / math.sqrt(2.0 * rho))
    invariant("eta_i5x", R)
    invariant("zeta_i5x", math.sqrt(R * R - d * d))
    invariant("ratio_i3x", ratio_13)
    invariant("eta_i3x", R + d)
    invariant("zeta_i3x", R - d)
    invariant("ratio_e1", ratio_13)
    invariant("eta_e1", R + d)
    invariant("zeta_e1", R - d)
    invariant("ratio_e10", ratio_sqrt)
    invariant("ratio_e5x", ratio_sqrt)
    invariant("ratio_e6x",
              math.sqrt((R + d) * (3 * R + d) / ((3 * R - d) * (R - d))))
    invariant("ratio_e9",
              math.sqrt((R + d) * (3 * R - d) / ((R - d) * (3 * R + d))))
    invariant("ratio_i9")
    invariant("gamma_ratio", math.sqrt(2.0 / rho), tolerance=1e-7)
    invariant("rho_billiard", rho)

    varying("perimeter")
    varying("r_billiard")
    varying("R_billiard")
    return rows


def _sigma_stream(seed: int, n: int) -> np.ndarray:
    """Seeded similarity per sample: rows (angle, scale, tx, ty)."""
    rng = np.random.default_rng(seed)
    return rng.uniform([0.0, 0.5, -3.0, -3.0], [2 * math.pi, 2.0, 3.0, 3.0], size=(n, 4))


def run_verify(lab: LabConfig) -> VerifyResult:
    lab = lab.validated()
    cfg = lab.poristic()
    n = lab.t_samples
    measured = _measure(cfg, n, _sigma_stream(lab.seed, n), perturb=lab.perturb)
    reports = [_aggregate(spec["name"], measured.values(spec["name"]), spec)
               for spec in _row_defs(cfg, lab)]
    return VerifyResult(lab, reports, measured.skipped(), measured.max_condition)


def _aggregate(name: str, vals: np.ndarray, spec: dict) -> SweepReport:
    tol = spec["tol"]
    check = spec["check"]
    expected = spec.get("expected")
    if not len(vals):
        return SweepReport(name, 0, math.nan, math.nan, math.nan, math.nan,
                           "skipped", tol, check, expected,
                           expected_verdict="invariant", status="fail")
    lo, hi = float(vals.min()), float(vals.max())
    mean = sum(vals.tolist()) / len(vals)
    spread = (hi - lo) / abs(mean) if mean != 0.0 else math.inf

    if check == "residual":
        worst = float(np.abs(vals).max())
        verdict = "invariant" if worst < tol else "varying"
        status = "pass" if verdict == "invariant" else "fail"
        return SweepReport(name, len(vals), lo, hi, mean, spread, verdict,
                           tol, check, None, "invariant", status)

    if check == "varying":
        verdict = "invariant" if spread < tol else "varying"
        status = "pass" if verdict == "varying" else "fail"
        return SweepReport(name, len(vals), lo, hi, mean, spread, verdict,
                           tol, check, None, "varying", status)

    if expected is not None:
        # Every sample must sit within tol of the predicted constant; values
        # within tol of one constant have spread at most 2 tol, which is the
        # spread tolerance the verdict uses.
        dev_ok = max(abs(lo - expected), abs(hi - expected)) <= tol * max(1.0, abs(expected))
        verdict = "invariant" if spread < 2 * tol else "varying"
        ok = dev_ok and verdict == "invariant"
    else:
        verdict = "invariant" if spread < tol else "varying"
        ok = verdict == "invariant"
    return SweepReport(name, len(vals), lo, hi, mean, spread, verdict,
                       tol, check, expected, "invariant",
                       "pass" if ok else "fail")


# --- Raw sweeps ------------------------------------------------------------

#: Quantities exposed by ``porism-lab sweep``; all are keys produced by the
#: per-sample measurement pass.
SWEEP_QUANTITIES = (
    "perimeter", "omega", "x9_x", "x9_y", "theta",
    "eta_e1", "zeta_e1", "eta_i3x", "zeta_i3x", "eta_i5x", "zeta_i5x",
    "ratio_e1", "ratio_e9", "ratio_e10", "ratio_e5x", "ratio_e6x",
    "ratio_i3x", "ratio_i5x", "ratio_i9",
    "angle_e1", "angle_e9", "angle_i3x", "angle_e10", "angle_e5x", "angle_e6x",
    "gamma_feuerbach", "gamma_jerabek", "gamma_ratio",
    "antiorthic_intercept",
    "rho_billiard", "r_billiard", "R_billiard",
    "circumcircle_residual", "incircle_residual",
    "billiard_ellipse_residual", "reflection_law_gap",
)


def run_sweep(lab: LabConfig, quantities: list[str]) -> tuple[list[str], list[list], list[dict]]:
    """Per-sample values: returns (header, rows, skip log); a skipped cell
    is None."""
    lab = lab.validated()
    for q in quantities:
        if q not in SWEEP_QUANTITIES:
            raise UnknownQuantity(
                f"unknown quantity {q!r}; valid names: {', '.join(SWEEP_QUANTITIES)}")
    cfg = lab.poristic()
    n = lab.t_samples
    measured = _measure(cfg, n, _sigma_stream(lab.seed, n),
                        want_hyperbolas=any(q.startswith("gamma") for q in quantities))
    columns = []
    for q in quantities:
        values = measured.columns[q].tolist()
        ok = measured.valid.get(q)
        columns.append(values if ok is None else
                       [v if keep else None for v, keep in zip(values, ok.tolist())])
    rows = [[t, *cells] for t, *cells in zip(measured.t.tolist(), *columns)]
    skip_log = [{"t": row[0], "reason": f"{q}: {measured.skip_reason(q, i)}"}
                for i, row in enumerate(rows)
                for q, cell in zip(quantities, row[1:]) if cell is None]
    return ["t"] + list(quantities), rows, skip_log


def format_csv(header: list[str], rows: list[list]) -> str:
    """CSV text with 17 significant digits and empty fields for skips."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append("" if v is None else f"{v:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def verify_report_csv(result: VerifyResult) -> str:
    header = ["quantity", "samples", "min", "max", "mean", "spread_rel",
              "tolerance", "check", "expected", "verdict", "expected_verdict", "status"]
    lines = [",".join(header)]
    for r in result.reports:
        cells = [r.quantity, str(r.samples)]
        for v in (r.min, r.max, r.mean, r.spread_rel, r.tolerance):
            cells.append(f"{v:.17g}")
        cells.append(r.check)
        cells.append("" if r.expected is None else f"{r.expected:.17g}")
        cells.extend([r.verdict, r.expected_verdict, r.status])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def verify_report_json(result: VerifyResult) -> str:
    return json.dumps(result.as_dict(), indent=2) + "\n"
