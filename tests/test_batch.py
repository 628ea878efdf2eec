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
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porism_lab import conics, rank, report
from porism_lab.billiard import (
    cb_axes_normalized,
    normalize_sample,
    reflection_law_residual,
    reflection_law_residual_batch,
)
from conftest import random_triangle
from oracles import _det3, fsum_circumconic
from porism_lab.centers import (
    BATCH_CENTERS,
    ISOSCELES_EPS,
    _equilateral_fallback,
    _isosceles,
    center,
    center_batch,
)
from porism_lab.cli import main
from porism_lab.conics import (
    _centered_circumconic,
    _centered_circumconic_batch,
    _centered_inconic_batch,
    _cross_terms,
    _entries,
    _offsets,
    centered_conics_batch,
    circumconic_centered,
    hyperbola_focal_length,
)
from porism_lab.errors import (
    AxisAtInfinity,
    DegenerateConic,
    DegenerateTriangle,
    GeometryError,
    IsoscelesDegeneracy,
    NotAHyperbola,
    NotCentral,
    ParallelTangents,
    PassLog,
)
from porism_lab.geom import (
    _MATH,
    Point,
    Triangle,
    _axes,
    _not_a_triangle,
    _thin,
    _wrap_half_pi,
    canonicalize,
    foci,
    foci_batch,
    line_through_batch,
    triangle_batch,
)
from porism_lab.poristic import (
    _STACK_ORDER,
    _TAG_TABLE,
    FamilyBatch,
    config_from_rho,
    config_from_rR,
    named_conic,
    sample,
    sample_batch,
)
from porism_lab.rank import _KAPPA_ERROR, rank_test_batch, singular_values_batch
from porism_lab.report import SWEEP_QUANTITIES, LabConfig, run_sweep, run_verify

RHO_GRID = (0.05, 0.2, 0.36266, 0.49)
# Each R of the scalar API that the pass at R = 1 is compared with, and
# the bound on lengths in units of R.  At a power of two, R times an R = 1
# value is exact.  At 3.5 the scalar's inputs round differently from R
# times the pass's, and the canonical forms and the hyperbola focal lengths
# amplify that rounding by their conditioning: the worst gap is 3.3e-12,
# the Jerabek focal length at rho = 0.05.
R_AGREE = {4.0: 1e-12, 3.5: 1e-11}
T_SAMPLES = 720
STRIDE = 9
TAGS = ("E1", "E9", "E10", "E5x", "E6x", "I3x", "I5x", "I9")
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "verify.json"


@pytest.mark.parametrize("R_user", R_AGREE)
@pytest.mark.parametrize("rho", RHO_GRID)
def test_batched_kernels_match_scalar_oracle(rho, R_user):
    """The pass, which runs at R = 1, against the scalar API at ``R_user``,
    with lengths compared in units of R."""
    cfg = config_from_rR(R_user, rho * R_user)
    length_tol = R_AGREE[R_user]
    R = cfg.R
    # A verify runs every stage used below, under the pass's own np.errstate.
    p = report._Pass(*report._family(LabConfig(R=cfg.R, r=cfg.r, t_samples=T_SAMPLES)),
                     report._VERIFY_ROWS, 0)
    columns = dict(zip([q.name for q in report._VERIFY_ROWS], p.measure()[0]))
    ts, fam, norm = p.t, p.fam, p.billiard.members
    x100, (has_x100, _) = p.x100
    a9, b9, _c9 = cb_axes_normalized(cfg.rho)
    # Off the billiard ellipse the reflection residual is of order one, not noise.
    off_ellipse = reflection_law_residual_batch(fam.triangle * R, a9, b9)
    # Each circumconic's incidence rows, as the conic stack builds them from
    # the pass's triangles and centers, and the condition estimates of the
    # norms their rank filter computes.
    entries, kappa = {}, {}
    for tag in TAGS:
        on_excentral, is_circum, center_id = _TAG_TABLE[tag]
        if is_circum:
            entries[tag] = _entries(*_offsets(
                [(fam.excentral if on_excentral else fam.triangle, p.x(center_id))]))
            _, minors2, _, F, D = rank._filter(entries[tag], 4, tier=True)
            kappa[tag] = rank._condition_estimate(
                F, rank._compound_norm(entries[tag], 4, minors2), D)
    checked = 0

    def close_length(got, want, what, tol=length_tol):
        assert abs(got - want / R) <= tol, (what, got, want)

    def close_rel(got, want, what):
        assert abs(got - want) <= 1e-12 * abs(want), (what, got, want)

    def close_point(got, want, what, tol=length_tol):
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
            tol = 1e-9 if (tag == "I9" and rho == 0.05) else length_tol
            close_point(can.center[i], c.center, (tag, "center", t), tol)
            close_length(can.semi_major[i], c.semi_major, (tag, "major", t), tol)
            close_length(can.semi_minor[i], c.semi_minor, (tag, "minor", t), tol)
            assert abs(math.remainder(can.angle[i] - c.angle, math.pi)) <= 1e-12, (tag, t)
            # The axis angles may differ by pi, which swaps the two foci.
            (f1, f2), (g1, g2) = (f[i] for f in foci_batch(can)), (g.as_array() / R
                                                                   for g in foci(c))
            close_length(min(max(np.abs(f1 - g1).max(), np.abs(f2 - g2).max()),
                             max(np.abs(f1 - g2).max(), np.abs(f2 - g1).max())), 0.0,
                         (tag, "foci", t), tol)
            on_excentral, is_circum, center_id = _TAG_TABLE[tag]
            if is_circum:
                # The oracle of the stack's incidence rows and condition
                # estimates is the SVD of the scalar incidence rows
                # (u^2, 2uv, v^2, 1) of the vertices about the center.
                ctr = center(tri, center_id)
                rows = np.array([[u * u, 2 * u * v, v * v, 1.0] for u, v in
                                 (((q.x - ctr.x) / R, (q.y - ctr.y) / R)
                                  for q in (s.excentral if on_excentral else tri).v)])
                oracle = np.linalg.svd(rows, compute_uv=False)
                sv = singular_values_batch(entries[tag][:, i].reshape(1, 3, 4))[0]
                ratio = sv[0] / sv[-1]
                close_rel(ratio, oracle[0] / oracle[-1], (tag, "cond", t))
                # The estimate is certified here, within the relative error
                # the candidate margin of rank._max_condition relies on: 2^-12
                # for the estimate and 101 u (kappa + 1) for the SVD.
                svd_error = 101 * 2.0 ** -53 * (ratio + 1)
                assert abs(kappa[tag][i] - ratio) <= (_KAPPA_ERROR + svd_error) * ratio, (
                    tag, "kappa", t)
        if want_x100 is not None:
            close_length(p.hyperbolas.feuerbach[i],
                         hyperbola_focal_length(tri, center(tri, 11)), ("feu", t))
            close_length(p.hyperbolas.jerabek[i], hyperbola_focal_length(s.excentral, want_x100),
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
    log = PassLog(np.arange(len(tris), dtype=float))
    v, s = triangle_batch(np.array([[[p.x, p.y] for p in tri.v] for tri in tris]), log)
    scale = 10.0  # coordinates lie within [-9, 9]
    for k in sorted(BATCH_CENTERS - {100}):
        got = center_batch(v, k, log, s)
        for i, tri in enumerate(tris):
            want = center(tri, k)
            assert max(abs(got[i, 0] - want.x), abs(got[i, 1] - want.y)) <= 1e-12 * scale, (k, i)
    # X100 is undefined on the equilateral row: the pass computes it on the
    # scalene rows only, under its np.errstate.
    with np.errstate(divide="ignore", invalid="ignore"):
        got = center_batch(v, 100, log.where(np.arange(len(tris)) < 40), s)
    for i, tri in enumerate(tris[:40]):
        want = center(tri, 100)
        dx, dy = abs(got[i, 0] - want.x), abs(got[i, 1] - want.y)
        assert dx <= 1e-12 * scale and dy <= 1e-12 * scale, i
    with pytest.raises(IsoscelesDegeneracy):
        center(tris[-1], 100)
    with pytest.raises(IsoscelesDegeneracy, match="X_100 is ill-conditioned on isosceles input"):
        center_batch(v, 100, log, s)


def _first_zero_i9_minor(cfg, n):
    """Oracle for the abort: the first grid sample whose scalar I9 has a
    zero semi-minor axis."""
    for k in range(n):
        t = 2 * math.pi * k / n
        if canonicalize(named_conic(cfg, t, "I9")).semi_minor == 0.0:
            return t
    return None


def test_zero_semi_minor_raises_degenerate_conic_at_first_t():
    lab = LabConfig(R=1.0, r=0.002)
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


def test_stacked_conic_check_names_its_block():
    # At rho = 1e-6, n = 60 the verify and the sweeps stop in the conic
    # stage, in its first block, E1, on its first check.
    lab = LabConfig(R=1.0, r=1e-6, t_samples=60)
    message = "E1: centered circumconic is not unique for this center at t = 0.0"
    for columns in (None, ["ratio_e1", "ratio_e9"], ["ratio_e1"]):  # a stack of one block too
        with pytest.raises(DegenerateConic) as info:
            run_verify(lab) if columns is None else report.run_sweep(lab, columns)
        assert str(info.value) == message


def test_degenerate_circumconic_check_names_its_block():
    # A sweep of E1 alone at rho = 2e-6, n = 56 stops on the last check of
    # the stack (with E9 in it, E9's "not unique" stops it first).
    lab = LabConfig(R=1.0, r=2e-6, t_samples=56)
    with pytest.raises(DegenerateConic) as info:
        report.run_sweep(lab, ["ratio_e1"])
    assert str(info.value) == ("E1: centered circumconic degenerates for this center"
                               " at t = 0.1121997376282069")
    # A center on a side line, as in the scalar twin's test, in the second block.
    v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]] * 2)
    center = np.array([[1.0, 1.0], [1.5, 0.0]])
    with pytest.raises(DegenerateConic) as info:
        centered_conics_batch([(v, center)], [], PassLog([0.0], names=("E1", "E9")))
    assert str(info.value) == "E9: centered circumconic degenerates for this center at t = 0.0"


def test_named_log_names_the_failing_block():
    log = PassLog([0.0, 0.5], names=("A", "B"))
    log.check(np.array([[False, False], [False, False]]), NotCentral, "passing check")
    with pytest.raises(NotCentral) as info:
        log.check(np.array([[False, False], [False, True]]), NotCentral, "failing check")
    assert str(info.value) == "B: failing check at t = 0.5"
    # The inconic checks of a conic stack name the inconic blocks: a
    # collinear triangle has parallel tangent lines.
    v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    center = np.array([[1.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ParallelTangents) as info:
        centered_conics_batch([(v[:1], center[:1])], [(v[1:], center[1:])],
                              PassLog([0.0], names=("E1", "I3x")))
    assert str(info.value) == "I3x: tangent lines are (nearly) parallel at t = 0.0"


def test_hyperbola_stage_names_its_block():
    # Centered on the centroid, a circumconic is the Steiner ellipse: put it
    # in place of X100, then of X11, and the stage names that block.
    lab = LabConfig(t_samples=12)
    for block in ("Jerabek", "Feuerbach"):
        p = report._Pass(*report._family(lab), (), lab.seed)
        if block == "Jerabek":
            with np.errstate(divide="ignore", invalid="ignore"):  # as the pass reads X100
                p.__dict__["x100"] = p.x100._replace(point=p.fam.excentral.mean(axis=1))
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
    p = report._Pass(*report._family(lab), report._VERIFY_ROWS, lab.seed)
    order = [tag for tag in _STACK_ORDER if tag in p.tags and _TAG_TABLE[tag][1]]
    systems = [(p.fam.excentral if _TAG_TABLE[tag][0] else p.fam.triangle,
                p.x(_TAG_TABLE[tag][2])) for tag in order]
    rows = _entries(*_offsets(systems)).T.reshape(-1, 3, 4)
    assert rows.shape == (5 * T_SAMPLES, 3, 4)
    sv = singular_values_batch(rows)
    want = np.max(sv[:, 0] / sv[:, -1])
    assert np.float64(run_verify(lab).max_condition).tobytes() == want.tobytes()


def test_only_a_verify_estimates_condition_numbers(monkeypatch):
    """``rank._condition_estimate`` runs never in an all-column sweep and
    once in a verify, over all its circumconic rows."""
    estimate, calls = rank._condition_estimate, []

    def spy(F, P, D):
        calls.append(len(F))
        return estimate(F, P, D)

    monkeypatch.setattr(rank, "_condition_estimate", spy)
    lab = LabConfig(t_samples=48)
    run_sweep(lab, list(SWEEP_QUANTITIES))
    assert calls == []
    run_verify(lab)
    assert calls == [5 * lab.t_samples]


def test_a_verify_builds_its_inconics_once(monkeypatch):
    """``conics._tangent_form`` runs once in a verify, over the conic
    stack's three inconics (I9, I3x and I5x): ``i3x_implicit_gap`` reads
    the stack's I3x and builds no second one."""
    form, calls = conics._tangent_form, []

    def spy(lines, d12, d13, d23):
        calls.append(len(d12))
        return form(lines, d12, d13, d23)

    monkeypatch.setattr(conics, "_tangent_form", spy)
    lab = LabConfig(t_samples=48)
    run_verify(lab)
    assert calls == [3 * lab.t_samples]


@pytest.mark.parametrize("rho", (*RHO_GRID, 0.5))
def test_a_pass_reads_its_samples_not_their_layout(rho):
    """Over the grid's family stack reversed, shuffled and every 7th
    member, a pass gives at each t the verify rows and skips of the grid
    pass, bit for bit, except two rows that are positional by design: the
    equivariance draws are seeded per position, and I5x's stationarity is
    measured against the pass's first sample.  In every pass X100's gate is the scalar twin's
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
    pass_cfg, fam = report._family(lab)
    full = report._Pass(pass_cfg, fam, rows, lab.seed)
    want, want_held = full.measure()
    positional = {"center_equivariance_gap", "i5x_stationarity"}
    n = len(grid)
    for k in (np.arange(n), np.arange(n)[::-1], np.random.default_rng(7).permutation(n),
              np.arange(0, n, 7)):
        members = FamilyBatch(*(getattr(fam, f.name)[k] for f in fields(FamilyBatch)))
        p = report._Pass(pass_cfg, members, rows, lab.seed)
        got, held = p.measure()
        with np.errstate(divide="ignore", invalid="ignore"):  # as the pass reads X100
            assert p.x100.gate[0].tolist() == [scalene[i] for i in k]
        for i, q in enumerate(rows):
            if q.name not in positional:
                assert got[i].tobytes() == want[i][k].tobytes(), q.name
        assert held.tolist() == want_held[:, k].tolist()
        at = set(grid[k].tolist())
        assert sorted((s["t"], s["reason"]) for s in p.skipped(held)) == sorted(
            (s["t"], s["reason"]) for s in full.skipped(want_held) if s["t"] in at)
    if rho == 0.5:
        assert not any(scalene)


def test_config_level_error_names_no_sample():
    with pytest.raises(AxisAtInfinity) as info:
        run_verify(LabConfig(R=1.0, r=0.5))
    assert str(info.value) == "equilateral family: X9 is stationary"


@pytest.mark.parametrize("k", [3, 4])
def test_filter_minors_match_the_scalar_minors(k):
    """The batched filter's minors are the scalar filter's, bit for bit,
    non-finite rows included, and within rounding of the fsum minors of
    ``tests/oracles.py``."""
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(50, 3, k))
    bad = np.arange(50) % 10 == 3
    rows[bad, rng.integers(0, 3, bad.sum()), rng.integers(0, k, bad.sum())] = (
        rng.choice([np.nan, np.inf, -np.inf], bad.sum()))
    stack = rows.reshape(50, 3 * k).T
    _, minors, _ = rank_test_batch(k, 50, lambda cols: np.ascontiguousarray(stack[:, cols]))
    for i in range(50):
        scalar = rank.rank_test(rows[i].ravel().tolist(), k)[1]
        assert [x.hex() for x in scalar] == [float(x).hex() for x in minors[:, i]], i
        if bad[i]:
            continue
        # A 3x3 matrix is the 3x4 system with a zero column 3 left out.
        system = rows[i].tolist() if k == 4 else [row + [0.0] for row in rows[i].tolist()]
        for j in range(len(minors)):
            # Filter minor j keeps columns (012, 013, 023, 123)[j].
            want = _det3(system, 3 - j)
            assert abs(minors[j, i] - want) <= 4e-16 * np.abs(rows[i]).max() ** 3


class TestCircumconicTwins:
    """``circumconic_centered`` equals the batched column of
    ``centered_conics_batch``, and ``_centered_circumconic`` (which
    ``hyperbola_focal_length`` reads) equals ``_centered_circumconic_batch``,
    by ``float.hex``, for the same triangles and centers: both take the null
    vector from the same rank-filter minors.  Where one twin raises, the
    other raises the same message."""

    @staticmethod
    def _check(tris, centers):
        v = np.array([[(p.x, p.y) for p in tri.v] for tri in tris])
        centers = np.asarray(centers, dtype=float)
        log = PassLog(np.arange(len(tris), dtype=float))
        stack = centered_conics_batch([(v, centers)], [], log).c
        coeffs = _centered_circumconic_batch([(v, centers)], log)[0]
        for i, tri in enumerate(tris):
            center = Point(*map(float, centers[i]))
            assert [x.hex() for x in circumconic_centered(tri, center).c] == [
                float(x).hex() for x in stack[:, i]], i
            assert [x.hex() for x in _centered_circumconic(tri, center)] == [
                float(x).hex() for x in coeffs[:, i]], i

    @given(st.floats(-3.0, math.log10(0.5)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_family_members(self, log_rho, seed):
        """E1, E9, E10 on the family's triangles and E5x, E6x on its excentral
        triangles, at 24 random t."""
        ts = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 24)
        log = PassLog(ts)
        fam = sample_batch(config_from_rho(10.0 ** log_rho), ts, log)
        for v, k in ((fam.triangle, 1), (fam.triangle, 9), (fam.triangle, 10),
                     (fam.excentral, 3), (fam.excentral, 9)):
            tris = [Triangle(tuple(Point(*map(float, p)) for p in row)) for row in v]
            self._check(tris, center_batch(fam.triangle, k, log, fam.sides))

    coord = st.floats(-10.0, 10.0)

    @given(st.tuples(*[st.tuples(coord, coord)] * 3), st.tuples(coord, coord))
    @settings(max_examples=300, deadline=None)
    def test_random_triangles_and_centers(self, vertices, center):
        try:
            tri = Triangle(tuple(Point(*p) for p in vertices))
        except DegenerateTriangle:
            return
        try:
            circumconic_centered(tri, Point(*center))
        except DegenerateConic as exc:
            with pytest.raises(DegenerateConic) as info:
                self._check([tri], [center])
            assert str(info.value) == f"{exc} at t = 0.0"
            return
        self._check([tri], [center])


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
    """The (A, B, C, F) of both twins, for the five verified circumconics
    and the two circumhyperbolas, against an 80-digit null vector of the
    same float rows: at each rho, the worst error of each is at most twice
    that of the fsum route of ``tests/oracles.py``, whose minors sum the
    rounded products with math.fsum."""
    mp = pytest.importorskip("mpmath").mp
    ts = 2 * math.pi * (np.arange(24) + 0.5) / 24
    log = PassLog(ts)
    for rho in (0.005, 0.05, 0.2):
        worst = {"batched": 0.0, "scalar": 0.0, "fsum": 0.0}
        fam = sample_batch(config_from_rR(1.0, rho), ts, log)
        x = {k: center_batch(fam.triangle, k, log, fam.sides) for k in (1, 3, 9, 10, 11, 100)}
        systems = [(fam.triangle, x[k]) for k in (1, 9, 10, 11)]
        systems += [(fam.excentral, x[k]) for k in (3, 9, 100)]
        for v, c in systems:
            batched, _ = _centered_circumconic_batch([(v, c)], log)
            rows = _entries(*_offsets([(v, c)])).T.reshape(-1, 3, 4)
            for i in range(len(ts)):
                exact = _exact_circumconic(mp, rows[i])
                tri = Triangle(tuple(Point(*map(float, p)) for p in v[i]))
                center = Point(*map(float, c[i]))
                for name, got in (("batched", batched[:, i]),
                                  ("scalar", _centered_circumconic(tri, center)),
                                  ("fsum", fsum_circumconic(tri, center))):
                    worst[name] = max(worst[name], *(abs(g - e) for g, e in zip(got, exact)))
        assert 0.0 < worst["batched"] <= 2.0 * worst["fsum"], (rho, worst)
        assert 0.0 < worst["scalar"] <= 2.0 * worst["fsum"], (rho, worst)


def test_verify_emits_no_warning():
    # The inconic D has one definition, so a pass has nothing to warn about
    # even where I9 is ill-conditioned.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_verify(LabConfig(R=1.0, r=0.005))
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("t_samples", [720, 2880])
def test_a_verify_peaks_below_2_2_kb_per_sample(t_samples):
    """The traced peak of a verify (rho 0.2, R 1) stays within 2.2 KB
    (2.2 KiB) per sample: the pass keeps each stage's result only while
    rows read it and bounds its kernels' temporaries.  A pass that kept
    the conic stage through the hyperbola stage, or the stack's incidence
    rows and their norms, peaks at about 3.2 KB per sample."""
    lab = LabConfig(R=1.0, r=0.2, t_samples=t_samples)
    run_verify(lab)  # warm-up: first-call allocations are not the pass's
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_verify(lab)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak / 1024 / t_samples <= 2.2, peak / 1024 / t_samples


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
    p = report._Pass(*report._family(lab), (), 0)
    s = p.fam.triangle - p.x(9)[:, None, :]
    lines = [line_through_batch(s[:, j], s[:, k]) for j, k in ((1, 2), (0, 2), (0, 1))]
    A, B, C, F = _centered_inconic_batch([(p.fam.triangle, p.x(9))], p.log)
    got = F / np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
    worst = 0.0
    for i in range(len(p.t)):
        exact = _exact_inconic_d_ratio(mp, [ln[i] for ln in lines])
        worst = max(worst, float(abs((got[i] - exact) / exact)))
    assert worst <= 1e-10, worst


# Finite inputs only: ``min`` and ``np.minimum`` differ on NaN.  Each
# strategy mixes in the boundaries of its core.
_ANGLE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10 ** 6, 10 ** 6).map(lambda k: (2 * k + 1) * math.pi / 2))
_SIDE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 1.0 + 3 * ISOSCELES_EPS,
                                   1.0 - 3 * ISOSCELES_EPS]))
_ENTRY = st.one_of(st.floats(-1e150, 1e150), st.sampled_from([0.0, 1.0, -1.0, 1e-12, 2.0]))


def _bits(x) -> list[str]:
    """The float.hex of a float or bool, or of each item of a tuple of them;
    a 1-element array counts as its element."""
    if isinstance(x, tuple):
        return [b for item in x for b in _bits(item)]
    x = np.asarray(x).reshape(-1)[0] if isinstance(x, np.ndarray) else x
    return [float(x).hex()]


def _agree(core, *args):
    """``core`` gives the same bits with ``_MATH`` on floats as with numpy on
    1-element arrays."""
    with np.errstate(all="ignore"):
        batched = core(*(np.array([a]) for a in args), np)
    assert _bits(core(*args, _MATH)) == _bits(batched), args


@given(_ANGLE, st.tuples(_SIDE, _SIDE, _SIDE), st.tuples(_SIDE, _SIDE, _SIDE),
       st.tuples(*[_ENTRY] * 6), st.tuples(*[_ENTRY] * 5))
@settings(max_examples=200, deadline=None)
def test_exact_cores_agree_across_namespaces(angle, s, f, ab, axes):
    """The exact cores, whose arithmetic both namespaces round alike: the
    half-pi wrap, the isosceles gap, X11's equilateral fallback, the
    triangle-inequality, thin-triangle and parallel-tangent predicates, and
    the conic's classification and semi-axes (its angle goes through
    atan2, which numpy and math may round differently)."""
    _agree(_wrap_half_pi, angle)
    _agree(_isosceles, *s)
    _agree(_not_a_triangle, *s)
    _agree(lambda f1, f2, f3, xp: _equilateral_fallback((f1, f2, f3), xp), *f)
    _agree(_thin, ab[0], *s)
    _agree(lambda a1, b1, a2, b2, a3, b3, xp: _cross_terms(
        [(a1, b1, 0.0), (a2, b2, 0.0), (a3, b3, 0.0)], xp), *ab)
    f0, v1x, v1y = axes[0], axes[3], axes[4]
    # canonicalize raises on a singular block before it divides by lam.
    lam1, lam2 = (x if x != 0.0 else 1.0 for x in axes[1:3])
    _agree(lambda f0, lam1, lam2, xp: _axes(f0, lam1, lam2, v1x, v1y, xp)[:4], f0, lam1, lam2)
