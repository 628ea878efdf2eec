"""The three benchmark workloads: inputs made from a seed, one op each, and
the check of every op's output.

Each workload has a ``call`` (the timed op: only the program's own work)
and a ``judge`` (the untimed check of what the call returned).  An op has
failed when it raised, when the program reported a FAIL row or a nonzero
exit code, or when its output disagrees with the check.  The last case
without the first two is a silent wrong answer, and only that makes a run
incorrect: the FAIL rows of the ``R = 1000`` verify configs are failures
the program itself reports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import porism_lab as pl
from porism_lab import billiard, centers, cli, figures, poristic, report

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

T_SAMPLES = 720
#: A quarter of the verify grid (still holding t = 0 and t = pi), so that a
#: run holds enough sweep ops for a steady median.
SWEEP_T_SAMPLES = 180
GRID_RHO = (0.05, 0.2, 0.36266, 0.49)
GRID_R = (1.0, 1000.0)
SWEEP_COLUMNS = (("perimeter",), ("ratio_i3x", "ratio_e9"), ("gamma_ratio",),
                 tuple(report.SWEEP_QUANTITIES))

#: Verify rows whose value is a length: their mean scales with R, every other
#: non-residual row is scale-free.
LENGTH_ROWS = frozenset({"perimeter", "antiorthic_intercept", "eta_i5x", "zeta_i5x",
                         "eta_i3x", "zeta_i3x", "eta_e1", "zeta_e1"})
MEAN_RTOL = 1e-13
TOL = 1e-9  # LabConfig default tolerance


@dataclass
class Outcome:
    samples: int          # family members processed by an op that returned, else 0
    failed: bool
    wrong: bool = False   # returned success, but the output check disagrees
    detail: str = ""
    skipped: int = 0      # skipped samples or cells the program reported
    bytes_written: int = 0


# --- verify-grid -------------------------------------------------------------

def verify_rows(result) -> list[dict]:
    return [{"quantity": r.quantity, "check": r.check, "status": r.status,
             "verdict": r.verdict, "samples": r.samples, "mean": r.mean,
             "spread_rel": r.spread_rel} for r in result.reports]


def check_verify(rows: list[dict], ref_rows: list[dict], R: float) -> str:
    """Empty when the rows match the R = 1 reference scaled to R."""
    if [r["quantity"] for r in rows] != [r["quantity"] for r in ref_rows]:
        return "row set differs from the reference"
    for row, ref in zip(rows, ref_rows):
        for key in ("status", "verdict", "samples"):
            if row[key] != ref[key]:
                return f"{row['quantity']}: {key} {row[key]!r} != {ref[key]!r}"
        if ref["check"] == "residual":
            continue
        want = ref["mean"] * (R if row["quantity"] in LENGTH_ROWS else 1.0)
        rtol = max(MEAN_RTOL, ref["spread_rel"])
        if not abs(row["mean"] - want) <= rtol * abs(want):
            return f"{row['quantity']}: mean {row['mean']!r} != {want!r}"
    return ""


def verify_call(spec):
    lab, _rho = spec
    try:
        return report.run_verify(lab)
    except Exception as exc:  # the op's failure is the measurement
        return exc


def verify_judge(spec, raw, reference: dict) -> Outcome:
    lab, rho = spec
    where = f"verify R={lab.R:g} rho={rho:g}"
    if isinstance(raw, Exception):
        return Outcome(0, True, False, f"{where}: raised {type(raw).__name__}: {raw}")
    rows = verify_rows(raw)
    mismatch = check_verify(rows, reference[repr(rho)], lab.R)
    fails = [r["quantity"] for r in rows if r["status"] != "pass"]
    return Outcome(lab.t_samples, bool(fails or mismatch), bool(mismatch and not fails),
                   f"{where}: FAIL rows {fails}" if fails else f"{where}: {mismatch}",
                   skipped=len(raw.skipped))


def verify_round(rng: np.random.Generator) -> list:
    """Every grid config once, in a seeded order, each with a seeded
    ``LabConfig.seed``."""
    configs = [(R, rho) for R in GRID_R for rho in GRID_RHO]
    ops = []
    for i in rng.permutation(len(configs)):
        R, rho = configs[i]
        lab = report.LabConfig(R=R, r=rho * R, t_samples=T_SAMPLES,
                               seed=int(rng.integers(2 ** 31)))
        ops.append((lab, rho))
    return ops


# --- sweep-columns -----------------------------------------------------------

def sweep_expectations(cfg) -> dict[str, tuple[float, float]]:
    """Closed-form value and relative tolerance of each constant column."""
    R, d, rho = cfg.R, cfg.d, cfg.rho
    ratio_13 = (R + d) / (R - d)
    ratio_sqrt = math.sqrt(ratio_13)
    return {
        "ratio_i3x": (ratio_13, TOL), "ratio_e1": (ratio_13, TOL),
        "eta_e1": (R + d, TOL), "zeta_e1": (R - d, TOL),
        "eta_i3x": (R + d, TOL), "zeta_i3x": (R - d, TOL),
        "eta_i5x": (R, TOL), "zeta_i5x": (math.sqrt(R * R - d * d), TOL),
        "ratio_i5x": (1.0 / math.sqrt(2.0 * rho), TOL),
        "ratio_e10": (ratio_sqrt, TOL), "ratio_e5x": (ratio_sqrt, TOL),
        "ratio_e6x": (math.sqrt((R + d) * (3 * R + d) / ((3 * R - d) * (R - d))), TOL),
        "ratio_e9": (math.sqrt((R + d) * (3 * R - d) / ((R - d) * (3 * R + d))), TOL),
        "gamma_ratio": (math.sqrt(2.0 / rho), 1e-7),
        "antiorthic_intercept": ((3 * R * R + d * d) / (2 * d), 1e-10),
        "rho_billiard": (rho, TOL),
    }


#: Columns that must stay below an absolute bound (the verify gates).
SWEEP_RESIDUALS = {"circumcircle_residual": 1e-10, "incircle_residual": 1e-10,
                   "billiard_ellipse_residual": 1e-8, "reflection_law_gap": 1e-8}


def check_sweep(text: str, columns: tuple[str, ...], lab: report.LabConfig) -> str:
    """Empty when the CSV has one row per grid point and every cell matches
    its closed form; empty cells are allowed only at t = 0 and t = pi.
    Columns without a closed form must be finite."""
    cfg = lab.poristic()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["t", *columns]:
        return f"header {rows[:1]}"
    if len(rows) != lab.t_samples + 1:
        return f"{len(rows) - 1} rows"
    expect = sweep_expectations(cfg)
    for k, row in enumerate(rows[1:]):
        t = float(row[0])
        if t != 2 * math.pi * k / lab.t_samples:
            return f"row {k}: t = {row[0]}"
        for name, cell in zip(columns, row[1:]):
            if cell == "":
                if abs(math.remainder(t, math.pi)) > poristic.ISOSCELES_T_RADIUS:
                    return f"{name} skipped at t = {t!r}"
                continue
            v = float(cell)
            if name == "perimeter":
                want, rtol = poristic.perimeter_closed_form(cfg, t), 1e-12
            elif name in expect:
                want, rtol = expect[name]
            elif name in SWEEP_RESIDUALS:
                want, rtol = 0.0, SWEEP_RESIDUALS[name]
            else:
                want, rtol = v, 0.0
            if not (math.isfinite(v) and abs(v - want) <= rtol * max(1.0, abs(want))):
                return f"{name} = {cell} at t = {t!r}, expected {want!r}"
    return ""


def sweep_call(spec, scratch: Path):
    lab, columns = spec
    out = tempfile.mkdtemp(dir=scratch)
    argv = ["sweep", "--R", repr(lab.R), "--r", repr(lab.r),
            "--t-samples", str(lab.t_samples), "--seed", str(lab.seed),
            "--quantities", ",".join(columns), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, Path(out), err.getvalue().strip()


def sweep_judge(spec, raw) -> Outcome:
    lab, columns = spec
    code, out, err = raw
    where = f"sweep rho={lab.r:g} columns={','.join(columns) if len(columns) < 3 else 'all'}"
    try:
        if code != 0:
            return Outcome(0, True, False, f"{where}: exit code {code}: {err}")
        text = (out / "sweep.csv").read_text()
        skips = out / "sweep_skips.txt"
        n_skips = len(skips.read_text().splitlines()) if skips.exists() else 0
        written = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)
    mismatch = check_sweep(text, columns, lab)
    return Outcome(lab.t_samples, bool(mismatch), bool(mismatch), f"{where}: {mismatch}",
                   n_skips, written)


def sweep_round(rng: np.random.Generator) -> list:
    """Every column set once, in a seeded order, each at a seeded grid
    ratio with R = 1."""
    ops = []
    for i in rng.permutation(len(SWEEP_COLUMNS)):
        rho = GRID_RHO[int(rng.integers(len(GRID_RHO)))]
        lab = report.LabConfig(R=1.0, r=rho, t_samples=SWEEP_T_SAMPLES,
                               seed=int(rng.integers(2 ** 31)))
        ops.append((lab, SWEEP_COLUMNS[i]))
    return ops


# --- member-scalar -----------------------------------------------------------

def figure_digests() -> dict[str, str]:
    """SHA-256 of every figure rendered at the default configuration."""
    lab = report.LabConfig()
    return {fid: hashlib.sha256(figures.render_figure(fid, lab).encode()).hexdigest()
            for fid in figures.FIGURE_IDS}


def member_call(spec):
    R, rho, t, figure_id = spec
    try:
        lab = report.LabConfig(R=R, r=rho * R)
        cfg = lab.poristic()
        s = poristic.sample(cfg, t)
        cans = {tag: pl.canonicalize(poristic.named_conic(cfg, t, tag, s))
                for tag in poristic.CONIC_TAGS}
        for k in sorted(centers.SUPPORTED_CENTERS):
            centers.center(s.triangle, k)
        tri = billiard.normalize_sample(cfg, s)
        a9, b9, _ = billiard.cb_axes_normalized(cfg.rho)
        reflection = billiard.reflection_law_residual(tri, a9, b9)
        svg = figures.render_figure(figure_id, lab)
    except Exception as exc:  # the op's failure is the measurement
        return exc
    return cfg, cans, tri, (a9, b9), reflection, svg


def check_member(raw) -> str:
    cfg, cans, tri, (a9, b9), reflection, svg = raw
    R, d = cfg.R, cfg.d
    axes = {"I3x": (R + d, R - d), "E1": (R + d, R - d),
            "I5x": (R, math.sqrt(R * R - d * d))}
    for tag, (major, minor) in axes.items():
        c = cans[tag]
        if max(abs(c.semi_major - major), abs(c.semi_minor - minor)) > TOL * R:
            return f"{tag} semi-axes ({c.semi_major!r}, {c.semi_minor!r})"
    ellipse = max(abs((p.x / a9) ** 2 + (p.y / b9) ** 2 - 1.0) for p in tri.v)
    if ellipse > 1e-8 or reflection > 1e-8:
        return f"normalized member off the billiard: {ellipse:.2e}, {reflection:.2e}"
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return f"SVG root is {root.tag}"
    return ""


def member_judge(spec, raw) -> Outcome:
    where = "member R={:.6g} rho={:.6g} t={:.6g} figure={}".format(*spec)
    if isinstance(raw, Exception):
        return Outcome(0, True, False, f"{where}: raised {type(raw).__name__}: {raw}")
    mismatch = check_member(raw)
    return Outcome(1, bool(mismatch), bool(mismatch), f"{where}: {mismatch}")


def member_round(rng: np.random.Generator) -> list:
    """One seeded member per figure id, ids in their fixed order:
    log10 R in [-3, 3], rho in [0.02, 0.49], t uniform."""
    return [(float(10.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(0.02, 0.49)),
             float(rng.uniform(0.0, 2.0 * math.pi)), fid) for fid in figures.FIGURE_IDS]


# --- registry ----------------------------------------------------------------

@dataclass
class Workload:
    """Seeded op rounds, the timed call, its check and the fixed warm-up op."""

    name: str
    round: Callable[[np.random.Generator], list]
    call: Callable[[Any], Any]
    judge: Callable[[Any, Any], Outcome]
    warmup: Any           # the untimed first op; the same for every seed
    trace_rounds: int     # rounds in the traced pass


WORKLOADS = ("verify-grid", "sweep-columns", "member-scalar")


def make(name: str, scratch: Path) -> Workload:
    """The named workload; sweep ops write into temporary directories under
    ``scratch``."""
    if name == "verify-grid":
        reference = json.loads((REFERENCE_DIR / "verify.json").read_text())
        return Workload(name, verify_round, verify_call,
                        lambda spec, raw: verify_judge(spec, raw, reference),
                        (report.LabConfig(t_samples=T_SAMPLES), 0.36266), 1)
    if name == "sweep-columns":
        warmup = (report.LabConfig(t_samples=SWEEP_T_SAMPLES), SWEEP_COLUMNS[0])
        return Workload(name, sweep_round, lambda spec: sweep_call(spec, scratch),
                        sweep_judge, warmup, 4)
    if name == "member-scalar":
        return Workload(name, member_round, member_call, member_judge,
                        (1.0, 0.36266, 1.3, "inconics"), 32)
    raise ValueError(f"unknown workload {name!r}")
