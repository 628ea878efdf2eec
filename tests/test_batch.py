"""The batched measurement pass against its oracle, the scalar API.

Every ``_batch`` kernel, as the measurement pass runs it, is compared with
its scalar twin on a subgrid of the acceptance sweep; ``run_verify`` is
compared with the committed benchmark reference; an abort raises at once,
for the lowest failing t of its check, and a stacked stage names the block
that failed; and the batched inconic D is checked against a 60-digit closed
form.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from porism_lab import report
from porism_lab.billiard import (
    cb_axes_normalized,
    normalize_sample,
    reflection_law_residual,
    reflection_law_residual_batch,
)
from conftest import random_triangle
from porism_lab.centers import BATCH_CENTERS, center, center_batch
from porism_lab.cli import main
from porism_lab.conics import (
    _centered_circumconic,
    _centered_circumconic_batch,
    _det3,
    centered_conics_batch,
    hyperbola_focal_length,
    inconic_from_tangents_batch,
)
from porism_lab.errors import (
    AxisAtInfinity,
    DegenerateConic,
    GeometryError,
    IsoscelesDegeneracy,
    NotAHyperbola,
    NotCentral,
    ParallelTangents,
    PassLog,
    _named,
)
from porism_lab.geom import (
    _KAPPA_ERROR,
    Point,
    Triangle,
    canonicalize,
    foci,
    foci_batch,
    line_through_batch,
    rank_test_batch,
    singular_values_batch,
)
from porism_lab.poristic import (
    config_from_rR,
    named_conic,
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


@pytest.mark.parametrize("rho", RHO_GRID)
def test_batched_kernels_match_scalar_oracle(rho):
    cfg = config_from_rR(R_AGREE, rho * R_AGREE)
    R = cfg.R
    # A verify runs every stage used below, under the pass's own np.errstate.
    p = report._Pass(cfg, LabConfig(t_samples=T_SAMPLES).t, report._VERIFY_ROWS, 0)
    columns = p.measure()
    ts, fam, norm = p.t, p.fam, p.billiard[2]
    x100, (has_x100, _) = p.x100
    a9, b9, _c9 = cb_axes_normalized(cfg.rho)
    # Off the billiard ellipse the reflection residual is of order one, not noise.
    off_ellipse = reflection_law_residual_batch(fam.triangle, a9, b9)
    checked = 0

    def close_length(got, want, what, tol=1e-12):
        assert abs(got - want) <= tol * R, (what, got, want)

    def close_rel(got, want, what):
        assert abs(got - want) <= 1e-12 * abs(want), (what, got, want)

    def close_point(got, want, what, tol=1e-12):
        close_length(got[0], want.x, what, tol)
        close_length(got[1], want.y, what, tol)

    for i in range(0, T_SAMPLES, STRIDE):
        t = float(ts[i])
        s = sample(cfg, t)
        tri = s.triangle
        try:
            want_x100 = center(tri, 100)
        except IsoscelesDegeneracy:
            want_x100 = None
        assert has_x100[i] == (want_x100 is not None), t
        for j in range(3):
            close_point(fam.triangle[i, j], tri.v[j], ("vertex", t))
            close_point(fam.excentral[i, j], s.excentral.v[j], ("excentral vertex", t))
        close_length(fam.perimeter[i], s.perimeter, ("perimeter", t))
        for k in (1, 3, 9, 10, 11, 40):
            close_point(p.x(k)[i], center(tri, k), (f"X{k}", t))
        if want_x100 is not None:
            close_point(x100[i], want_x100, ("X100", t))
        for tag in TAGS:
            conic = named_conic(cfg, t, tag, s)
            c = canonicalize(conic)
            can = p.can(tag)
            # I9 is ill-conditioned at rho = 0.05 (condition numbers up to 2e7):
            # an ulp of difference in one matrix entry moves its canonical
            # form by ~1e-12 R.
            tol = 1e-9 if (tag == "I9" and rho == 0.05) else 1e-12
            close_point(can.center[i], c.center, (tag, "center", t), tol)
            close_length(can.semi_major[i], c.semi_major, (tag, "major", t), tol)
            close_length(can.semi_minor[i], c.semi_minor, (tag, "minor", t), tol)
            assert abs(math.remainder(can.angle[i] - c.angle, math.pi)) <= 1e-12, (tag, t)
            # The axis angles may differ by pi, which swaps the two foci.
            (f1, f2), (g1, g2) = (f[i] for f in foci_batch(can)), (g.as_array() for g in foci(c))
            close_length(min(max(np.abs(f1 - g1).max(), np.abs(f2 - g2).max()),
                             max(np.abs(f1 - g2).max(), np.abs(f2 - g1).max())), 0.0,
                         (tag, "foci", t), tol)
            if conic.cond is not None:
                # The batched stack carries its incidence rows and condition
                # estimates; the scalar twin takes the ratio from its SVD.
                batch = p.conic(tag)
                sv = singular_values_batch(batch.rows[i:i + 1])[0]
                ratio = sv[0] / sv[-1]
                close_rel(ratio, conic.cond, (tag, "cond", t))
                # The estimate is certified here, within the relative error
                # the candidate margin of max_condition_batch relies on: 2^-12
                # for the estimate and 101 u (kappa + 1) for the SVD.
                svd_error = 101 * 2.0 ** -53 * (ratio + 1)
                assert abs(batch.kappa[i] - ratio) <= (_KAPPA_ERROR + svd_error) * ratio, (
                    tag, "kappa", t)
        if want_x100 is not None:
            close_length(p.hyperbolas[0][i], hyperbola_focal_length(tri, center(tri, 11)),
                         ("feu", t))
            close_length(p.hyperbolas[1][i], hyperbola_focal_length(s.excentral, want_x100),
                         ("jer", t))
        # The normalized member has perimeter 1: its lengths are already scale-free.
        scalar_norm = normalize_sample(cfg, s)
        for j in range(3):
            assert abs(norm[i, j, 0] - scalar_norm.v[j].x) <= 1e-12, t
            assert abs(norm[i, j, 1] - scalar_norm.v[j].y) <= 1e-12, t
        assert abs(columns["reflection_law_gap"][i]
                   - reflection_law_residual(scalar_norm, a9, b9)) <= 1e-12, t
        assert abs(off_ellipse[i] - reflection_law_residual(tri, a9, b9)) <= 1e-12, t
        checked += 1
    assert checked == T_SAMPLES // STRIDE


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
    # X100 is undefined on the equilateral row: the pass computes it on the
    # scalene rows only, under its np.errstate.
    with np.errstate(divide="ignore", invalid="ignore"):
        got = center_batch(v, 100, log.where(np.arange(len(tris)) < 40))
    for i, tri in enumerate(tris[:40]):
        want = center(tri, 100)
        dx, dy = abs(got[i, 0] - want.x), abs(got[i, 1] - want.y)
        assert dx <= 1e-12 * scale and dy <= 1e-12 * scale, i
    with pytest.raises(IsoscelesDegeneracy):
        center(tris[-1], 100)
    with pytest.raises(IsoscelesDegeneracy, match="X_100 is ill-conditioned on isosceles input"):
        center_batch(v, 100, log)


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


def test_pass_log_check_raises_at_once_at_lowest_sample_of_its_mask():
    log = PassLog([0.0, 0.5, 1.0, 1.5])
    log.where(np.array([True, False, False, False])).check(
        np.array([False, True, False, False]), NotCentral, "outside the rows")
    reached = False
    with pytest.raises(NotCentral) as info:
        log.check(np.array([False, False, True, True]), NotCentral, "failing check")
        reached = True
        log.check(np.array([True, True, True, True]), DegenerateConic, "later check")
    assert str(info.value) == "failing check at t = 1.0"
    assert not reached


# Scan configs (R, rho, n) whose verify and full sweep fail in the conic
# stage, in its first block, E1 (tools/outcome_scan.py).
E1_FAILURES = [
    (531.301135117963, 0.0008721345473919408, 56,
     "centered circumconic degenerates for this center at t = 0.1121997376282069"),
    (443.42723656811853, 0.00030711518020094445, 8,
     "centered circumconic degenerates for this center at t = 0.7853981633974483"),
    (0.0035544998420920294, 0.00016270897742024518, 60,
     "centered circumconic is not unique for this center at t = 0.0"),
]


@pytest.mark.parametrize("R, rho, n, message", E1_FAILURES,
                         ids=[f"R={R:.4g}" for R, *_ in E1_FAILURES])
def test_stacked_conic_check_names_its_block(R, rho, n, message):
    lab = LabConfig(R=R, r=rho * R, t_samples=n)
    for run in (lambda: run_verify(lab), lambda: report.run_sweep(lab, ["ratio_e1", "ratio_e9"])):
        with pytest.raises(DegenerateConic) as info:
            run()
        assert str(info.value) == f"E1: {message}"
    # A stack of one block keeps the message as it is.
    with pytest.raises(DegenerateConic) as info:
        report.run_sweep(lab, ["ratio_e1"])
    assert str(info.value) == message


def test_named_log_names_the_failing_block():
    log = _named(PassLog([0.0, 0.5]), ("A", "B"))
    log.check(np.array([[False, False], [False, False]]), NotCentral, "passing check")
    with pytest.raises(NotCentral) as info:
        log.check(np.array([[False, False], [False, True]]), NotCentral, "failing check")
    assert str(info.value) == "B: failing check at t = 0.5"
    # The inconic checks of a conic stack name the inconic blocks: a
    # collinear triangle has parallel tangent lines.
    v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    center = np.array([[1.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ParallelTangents) as info:
        centered_conics_batch(v, center, 1, _named(PassLog([0.0]), ("E1", "I3x")))
    assert str(info.value) == "I3x: tangent lines are (nearly) parallel at t = 0.0"


def test_hyperbola_stage_names_its_block():
    # Centered on the centroid, a circumconic is the Steiner ellipse: put it
    # in place of X100, then of X11, and the stage names that block.
    lab = LabConfig(t_samples=12)
    for block in ("Jerabek", "Feuerbach"):
        p = report._Pass(lab.poristic(), lab.t, (), lab.seed)
        if block == "Jerabek":
            with np.errstate(divide="ignore", invalid="ignore"):  # as the pass reads X100
                p.__dict__["x100"] = p.fam.excentral.mean(axis=1), p.x100[1]
        else:
            p._x[11] = p.fam.triangle.mean(axis=1)
        with pytest.raises(NotAHyperbola) as info, np.errstate(divide="ignore", invalid="ignore"):
            p.hyperbolas
        assert str(info.value).startswith(f"{block}: centered circumconic is an ellipse at t = ")


@pytest.mark.parametrize("rho", RHO_GRID)
def test_max_condition_is_the_largest_of_all_circumconic_rows(rho):
    """On a real verify, ``max_circumconic_condition`` is, bit for bit, the
    largest sigma_max / sigma_min of one SVD of all its circumconic
    incidence rows."""
    lab = LabConfig(R=1.0, r=rho, t_samples=T_SAMPLES)
    p = report._Pass(lab.poristic(), lab.t, report._VERIFY_ROWS, lab.seed)
    p.measure()
    rows = np.concatenate([c.rows for c, _ in p.conics.values() if c.rows is not None])
    assert rows.shape == (5 * T_SAMPLES, 3, 4)
    sv = singular_values_batch(rows)
    want = np.max(sv[:, 0] / sv[:, -1])
    assert np.float64(run_verify(lab).max_condition).tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", (*RHO_GRID, 0.5))
def test_a_pass_reads_its_samples_not_their_layout(rho):
    """Over the grid reversed, shuffled and every 7th sample, a pass gives
    at each t the verify rows and skips of the grid pass, bit for bit,
    except two rows that are positional by design: the equivariance draws
    are seeded per position, and I5x's stationarity is measured against the
    pass's first sample.  In every pass X100's gate is the scalar twin's
    decision.  The equilateral family (rho = 0.5) has no verify, as its X9
    is stationary: there only the gates are compared."""
    lab = LabConfig(R=1.0, r=rho, t_samples=240)
    cfg, grid = lab.poristic(), lab.t
    rows = () if rho == 0.5 else report._VERIFY_ROWS
    scalene = []
    for t in grid:
        try:
            center(sample(cfg, float(t)).triangle, 100)
        except IsoscelesDegeneracy:
            scalene.append(False)
        else:
            scalene.append(True)
    full = report._Pass(cfg, grid, rows, lab.seed)
    want = full.measure()
    positional = {"center_equivariance_gap", "i5x_stationarity"}
    n = len(grid)
    for k in (np.arange(n), np.arange(n)[::-1], np.random.default_rng(7).permutation(n),
              np.arange(0, n, 7)):
        p = report._Pass(cfg, grid[k], rows, lab.seed)
        got = p.measure()
        with np.errstate(divide="ignore", invalid="ignore"):  # as the pass reads X100
            assert p.x100[1][0].tolist() == [scalene[i] for i in k]
        for q in rows:
            if q.name not in positional:
                assert got[q.name].tobytes() == want[q.name][k].tobytes(), q.name
        at = set(grid[k].tolist())
        assert sorted((s["t"], s["reason"]) for s in p.skipped()) == sorted(
            (s["t"], s["reason"]) for s in full.skipped() if s["t"] in at)
    if rho == 0.5:
        assert not any(scalene)


def test_config_level_error_names_no_sample():
    with pytest.raises(AxisAtInfinity) as info:
        run_verify(LabConfig(R=1.0, r=0.5))
    assert str(info.value) == "equilateral family: X9 is stationary"


def test_filter_minors_match_the_scalar_minors():
    rows = np.random.default_rng(7).normal(size=(50, 3, 4))
    _, minors, _ = rank_test_batch(rows.reshape(50, 12).T)
    for i in range(50):
        for skip in range(4):
            want = _det3(rows[i].tolist(), skip)
            # Filter minor k keeps columns (012, 013, 023, 123)[k].
            assert abs(minors[3 - skip, i] - want) <= 4e-16 * np.abs(rows[i]).max() ** 3


def _exact_circumconic(mp, rows):
    """(A, B, C, F) of ``_centered_circumconic`` from 80-digit minors of the
    same float rows, with mpmath's context ``mp``."""
    with mp.workdps(80):
        m = [[mp.mpf(x) for x in row] for row in rows]
        vec = []
        for skip in range(4):
            (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in range(4) if j != skip] for row in m)
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            vec.append(-det if skip % 2 else det)
        top = max(abs(x) for x in vec)
        return [float(x / top) for x in vec]


def test_batched_circumconics_are_as_accurate_as_the_scalar_fsum_route():
    """The batched (A, B, C, F) of the five verified circumconics and the two
    circumhyperbolas, against an 80-digit null vector of the same float rows:
    at each rho, its worst error is at most twice that of the scalar route,
    whose minors sum the rounded products with math.fsum."""
    mp = pytest.importorskip("mpmath").mp
    ts = 2 * math.pi * (np.arange(24) + 0.5) / 24
    log = PassLog(ts)
    for rho in (0.005, 0.05, 0.2):
        worst = {"batched": 0.0, "scalar": 0.0}
        fam = sample_batch(config_from_rR(1.0, rho), ts, log)
        systems = [(fam.triangle, center_batch(fam.triangle, k, log)) for k in (1, 9, 10, 11)]
        systems += [(fam.excentral, center_batch(fam.triangle, k, log)) for k in (3, 9)]
        systems.append((fam.excentral, center_batch(fam.triangle, 100, log)))
        for v, c in systems:
            batched, rows, _ = _centered_circumconic_batch(v, c, log)
            for i in range(len(ts)):
                exact = _exact_circumconic(mp, rows[i])
                tri = Triangle(tuple(Point(*map(float, p)) for p in v[i]))
                scalar = _centered_circumconic(tri, Point(*map(float, c[i])))[:4]
                for name, got in (("batched", batched[:, i]), ("scalar", scalar)):
                    worst[name] = max(worst[name], *(abs(g - e) for g, e in zip(got, exact)))
        assert 0.0 < worst["batched"] <= 2.0 * worst["scalar"], (rho, worst)


def test_verify_emits_no_warning():
    # The inconic D has one definition, so a pass has nothing to warn about
    # even where I9 is ill-conditioned.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_verify(LabConfig(R=1.0, r=0.005))
    assert [str(w.message) for w in caught] == []


def _exact_inconic_d_ratio(mp, lines):
    """D / max(|A|, |B|, |C|) of ``conics._tangent_form`` for three float
    lines (a_i, b_i, c_i), in 60-digit arithmetic with mpmath's context
    ``mp``."""
    with mp.workdps(60):
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = ([mp.mpf(float(x)) for x in ln]
                                                    for ln in lines)
        d12, d13, d23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        A = a2 * a3 * c1 ** 2 * d23 - a1 * a3 * c2 ** 2 * d13 + a1 * a2 * c3 ** 2 * d12
        B = ((a2 * b3 + a3 * b2) * c1 ** 2 * d23 - (a1 * b3 + a3 * b1) * c2 ** 2 * d13
             + (a1 * b2 + a2 * b1) * c3 ** 2 * d12) / 2
        C = b2 * b3 * c1 ** 2 * d23 - b1 * b3 * c2 ** 2 * d13 + b1 * b2 * c3 ** 2 * d12
        D = ((d23 * c1 + d13 * c2 - d12 * c3) * (d23 * c1 - d13 * c2 - d12 * c3)
             * (d23 * c1 - d13 * c2 + d12 * c3) * (d23 * c1 + d13 * c2 + d12 * c3)
             / (4 * d12 * d13 * d23))
        return D / max(abs(A), abs(B), abs(C))


def test_batched_inconic_d_matches_the_exact_closed_form():
    """On the I9 lines of a pass at rho = 0.005, where I9 is ill-conditioned,
    the batched D / max(|A|, |B|, |C|) is within 1e-10 relative of the
    60-digit closed form of the same float lines."""
    mp = pytest.importorskip("mpmath").mp
    lab = LabConfig(R=1.0, r=0.005, t_samples=120)
    p = report._Pass(lab.poristic(), lab.t, (), 0)
    s = p.fam.triangle - p.x(9)[:, None, :]
    lines = [line_through_batch(s[:, j], s[:, k]) for j, k in ((1, 2), (0, 2), (0, 1))]
    m = inconic_from_tangents_batch(*lines, p.log).m
    got = m[:, 2, 2] / np.abs(m[:, [0, 0, 1], [0, 1, 1]]).max(axis=1)
    worst = 0.0
    for i in range(len(p.t)):
        exact = _exact_inconic_d_ratio(mp, [ln[i] for ln in lines])
        worst = max(worst, float(abs((got[i] - exact) / exact)))
    assert worst <= 1e-10, worst
