"""The batched measurement pass against its oracle, the scalar API.

Every ``_batch`` kernel is compared with its scalar twin on a subgrid of the
acceptance sweep; ``run_verify`` is compared with the committed benchmark
reference; aborts and warnings are checked against what a sample-by-sample
pass produces.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from porism_lab.billiard import normalize_sample, normalize_sample_batch
from conftest import random_triangle
from porism_lab.centers import BATCH_CENTERS, center, center_batch, side_lengths_batch
from porism_lab.cli import main
from porism_lab.conics import (
    InconicCoefficientWarning,
    _det3,
    _det3_batch,
    _dot2,
    hyperbola_focal_length,
    hyperbola_focal_length_batch,
)
from porism_lab.errors import DegenerateConic, GeometryError, NotCentral, PassLog
from porism_lab.geom import Point, Triangle, canonicalize, canonicalize_batch
from porism_lab.poristic import (
    ISOSCELES_T_RADIUS,
    config_from_rR,
    named_conic,
    named_conic_batch,
    sample,
    sample_batch,
)
from porism_lab.report import LabConfig, run_verify

RHO_GRID = (0.05, 0.2, 0.36266, 0.49)
R_AGREE = 3.5
T_SAMPLES = 720
STRIDE = 9
TAGS = ("E1", "E9", "E10", "E5x", "E6x", "I3x", "I5x", "I9")
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "verify.json"


def _batched(cfg):
    """Batched quantities over the full sweep, as the measurement pass
    builds them."""
    ts = 2 * math.pi * np.arange(T_SAMPLES) / T_SAMPLES
    log = PassLog(ts)
    scalene_log = log.where(np.abs(np.remainder(ts + 1.0, math.pi) - 1.0) >= 1e-3)
    fam = sample_batch(cfg, ts, log)
    s = side_lengths_batch(fam.triangle, log)
    x = {k: center_batch(fam.triangle, k, log, s) for k in (1, 3, 9, 10, 11, 40)}
    with np.errstate(divide="ignore", invalid="ignore"):  # X100 at t = 0, pi
        x[100] = center_batch(fam.triangle, 100, scalene_log, s)
        gammas = (hyperbola_focal_length_batch(fam.triangle, x[11], scalene_log),
                  hyperbola_focal_length_batch(fam.excentral, x[100], scalene_log))
    conics = {tag: named_conic_batch(fam, tag, x, log) for tag in TAGS}
    can = {tag: canonicalize_batch(conics[tag], log) for tag in TAGS}
    return ts, log, fam, x, conics, can, gammas, normalize_sample_batch(cfg, fam, log)


@pytest.mark.parametrize("rho", RHO_GRID)
def test_batched_kernels_match_scalar_oracle(rho):
    cfg = config_from_rR(R_AGREE, rho * R_AGREE)
    R = cfg.R
    ts, log, fam, x, conics, can, gammas, norm = _batched(cfg)
    checked = 0

    def close_length(got, want, what, tol=1e-12):
        assert abs(got - want) <= tol * R, (what, got, want)

    def close_rel(got, want, what):
        assert abs(got - want) <= 1e-12 * abs(want), (what, got, want)

    for i in range(0, T_SAMPLES, STRIDE):
        t = float(ts[i])
        s = sample(cfg, t)
        tri = s.triangle
        scalene = abs(math.remainder(t, math.pi)) >= ISOSCELES_T_RADIUS
        for j, p in enumerate(tri.v):
            close_length(fam.triangle[i, j, 0], p.x, ("vertex", t))
            close_length(fam.triangle[i, j, 1], p.y, ("vertex", t))
        for k in (1, 3, 9, 10, 11, 40) + ((100,) if scalene else ()):
            p = center(tri, k)
            close_length(x[k][i, 0], p.x, (f"X{k}", t))
            close_length(x[k][i, 1], p.y, (f"X{k}", t))
        for tag in TAGS:
            conic = named_conic(cfg, t, tag, s)
            c = canonicalize(conic)
            # I9 is ill-conditioned at rho = 0.05 (condition numbers up to 2e7):
            # an ulp of difference in one matrix entry moves its canonical
            # form by ~1e-12 R.
            tol = 1e-9 if (tag == "I9" and rho == 0.05) else 1e-12
            close_length(can[tag].center[i, 0], c.center.x, (tag, "center", t), tol)
            close_length(can[tag].center[i, 1], c.center.y, (tag, "center", t), tol)
            close_length(can[tag].semi_major[i], c.semi_major, (tag, "major", t), tol)
            close_length(can[tag].semi_minor[i], c.semi_minor, (tag, "minor", t), tol)
            assert abs(math.remainder(can[tag].angle[i] - c.angle, math.pi)) <= 1e-12, (tag, t)
            if conic.cond is not None:
                close_rel(conics[tag].cond[i], conic.cond, (tag, "cond", t))
        if scalene:
            close_length(gammas[0][i], hyperbola_focal_length(tri, center(tri, 11)), ("feu", t))
            close_length(gammas[1][i], hyperbola_focal_length(s.excentral, center(tri, 100)),
                         ("jer", t))
        for j, p in enumerate(normalize_sample(cfg, s).v):
            # The normalized member has perimeter 1: its lengths are already scale-free.
            assert abs(norm[i, j, 0] - p.x) <= 1e-12 and abs(norm[i, j, 1] - p.y) <= 1e-12, t
        checked += 1
    assert checked == T_SAMPLES // STRIDE
    log.raise_first()  # no sample of the acceptance grid aborts


@pytest.mark.parametrize("rho", RHO_GRID)
def test_verify_rows_match_benchmark_reference(rho):
    """The benchmark's correctness rule: statuses, verdicts and samples
    equal; non-residual means within max(1e-13, recorded spread)."""
    reference = json.loads(REFERENCE.read_text())[repr(rho)]
    result = run_verify(LabConfig(R=1.0, r=rho, t_samples=T_SAMPLES))
    assert [r.quantity for r in result.reports] == [r["quantity"] for r in reference]
    for row, ref in zip(result.reports, reference):
        assert (row.status, row.verdict, row.samples) == (ref["status"], ref["verdict"],
                                                          ref["samples"]), row.quantity
        if ref["check"] != "residual":
            tol = max(1e-13, ref["spread_rel"])
            assert abs(row.mean - ref["mean"]) <= tol * abs(ref["mean"]), row.quantity


def test_center_batch_matches_center_on_random_triangles(rng):
    tris = [random_triangle(rng) for _ in range(40)]
    tris.append(Triangle((Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, math.sqrt(3.0)))))
    v = np.array([[[p.x, p.y] for p in tri.v] for tri in tris])
    log = PassLog(np.arange(len(tris), dtype=float))
    scale = 10.0  # coordinates lie within [-9, 9]
    for k in sorted(BATCH_CENTERS - {100}):
        got = center_batch(v, k, log)
        for i, tri in enumerate(tris):
            want = center(tri, k)
            assert max(abs(got[i, 0] - want.x), abs(got[i, 1] - want.y)) <= 1e-12 * scale, (k, i)
    log.raise_first()


def _first_zero_i9_minor(cfg, n):
    """Oracle for the abort: the first grid sample whose scalar I9 has a
    zero semi-minor axis."""
    for k in range(n):
        t = 2 * math.pi * k / n
        if canonicalize(named_conic(cfg, t, "I9")).semi_minor == 0.0:
            return t
    return None


def test_zero_semi_minor_raises_degenerate_conic_at_first_t():
    lab = LabConfig(R=1000.0, r=50.0)
    t = _first_zero_i9_minor(lab.poristic(), lab.t_samples)
    assert t is not None
    with pytest.raises(DegenerateConic, match=r"ratio_i9: conic I9") as info:
        run_verify(lab)
    assert str(info.value).endswith(f"at t = {t!r}")


@pytest.mark.parametrize("R, r", [(1000.0, 50.0), (1.0, 0.002), (1.0, 1e-6), (1.0, 0.5)])
def test_verify_outcome_is_report_or_geometry_error(tmp_path, capsys, R, r):
    try:
        run_verify(LabConfig(R=R, r=r))
        raised = False
    except GeometryError:
        raised = True
    code = main(["verify", "--R", repr(R), "--r", repr(r), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert (code == 2) == raised
    if raised:
        assert err.startswith("error: ") and "Traceback" not in err


def test_pass_log_raises_first_check_at_lowest_sample():
    log = PassLog([0.0, 0.5, 1.0, 1.5])
    log.check(np.array([False, False, True, False]), NotCentral, "late sample")
    log.check(np.array([False, True, False, False]), DegenerateConic, "later check")
    log.where(np.array([True, False, False, False])).check(
        np.array([False, True, False, False]), NotCentral, "outside the rows")
    with pytest.raises(DegenerateConic, match=r"later check at t = 0\.5"):
        log.raise_first()


def test_dot2_minors_are_compensated():
    x = np.array([[1e16, 1.0, -1e16, 3.0]])
    y = np.array([[1.0, 1.0, 1.0, 1e-16]])
    assert _dot2(x, y)[0] == 1.0 + 3e-16
    rows = np.random.default_rng(7).normal(size=(50, 3, 4))
    minors = _det3_batch(rows)
    for i in range(50):
        for skip in range(4):
            want = _det3(rows[i].tolist(), skip)
            assert abs(minors[i, skip] - want) <= 4e-16 * np.abs(rows[i]).max() ** 3


def test_one_fallback_warning_per_pass():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_verify(LabConfig(R=1.0, r=0.005))
    fallbacks = [w for w in caught if issubclass(w.category, InconicCoefficientWarning)]
    assert len(fallbacks) == 1
    # A sample-by-sample pass warns 249 times here; decisions at the 1e-9
    # threshold may flip with an ulp of difference in the line coefficients.
    count = int(re.search(r"in (\d+) cases", str(fallbacks[0].message)).group(1))
    assert 240 <= count <= 4 * 720
