"""The quantity table and the demand-driven measurement pass.

A sweep runs only the stages its columns need, so a narrow sweep must give
exactly the cells and skips of the same column in a full sweep, must not
build what it does not need, and may abort only on the stages it runs.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porism_lab import cli, conics, poristic, report
from porism_lab.errors import DegenerateConic, GeometryError, PassLog
from porism_lab.geom import ConicMatrix, Point, Triangle, canonicalize
from porism_lab.report import QUANTITIES, SWEEP_QUANTITIES, LabConfig, run_sweep

RHO_GRID = (0.05, 0.2, 0.36266, 0.49)


def test_each_name_is_one_row_and_each_sweep_name_is_listed_once():
    names = [q.name for q in QUANTITIES]
    assert len(names) == len(set(names))
    assert len(SWEEP_QUANTITIES) == len(set(SWEEP_QUANTITIES))
    assert set(SWEEP_QUANTITIES) <= set(names)
    assert {q.check for q in QUANTITIES} == {None, "residual", "spread", "varying"}
    assert all(q.expected is None for q in QUANTITIES if q.check != "spread")
    assert all(q.expected is not None for q in QUANTITIES if q.check == "spread")


@pytest.mark.parametrize("rho", RHO_GRID)
def test_narrow_column_equals_full_column(rho):
    lab = LabConfig(R=1.0, r=rho, t_samples=60, seed=5)
    header, table, held, skips = run_sweep(lab, list(SWEEP_QUANTITIES))
    assert header == ["t", *SWEEP_QUANTITIES]
    assert skips and not [s for s in skips if s["reason"].endswith("not computed")]
    for j, name in enumerate(SWEEP_QUANTITIES, start=1):
        narrow_header, narrow_table, narrow_held, narrow_skips = run_sweep(lab, [name])
        assert narrow_header == ["t", name]
        assert narrow_table.tobytes() == table[:, [0, j]].tobytes(), name
        assert narrow_held.tolist() == held[:, [0, j]].tolist(), name
        assert narrow_skips == [s for s in skips if s["reason"].startswith(f"{name}: ")], name
    # A verify row on a pass built for it alone, whose conic stage holds only
    # the conics the row declares, equals its column in the full verify bit
    # for bit; a row reading a conic it does not declare raises here.
    family = report._family(lab)
    full, held = report._Pass(*family, report._VERIFY_ROWS, lab.seed).measure()
    for i, q in enumerate(report._VERIFY_ROWS):
        narrow, narrow_held = report._Pass(*family, [q], lab.seed).measure()
        assert narrow[0].tobytes() == full[i].tobytes(), q.name
        assert narrow_held[0].tolist() == held[i].tolist(), q.name
    p = report._Pass(*family, [report._BY_NAME["perimeter"]], lab.seed)
    p.measure()
    with pytest.raises(LookupError, match="conic E9 is read but no measured row declares it"):
        p.can("E9")


def test_perimeter_sweep_builds_no_conic_and_no_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a perimeter sweep must not reach this stage")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(poristic, "named_conics_batch", forbidden)
    lab = LabConfig(t_samples=36)
    _, table, held, skips = run_sweep(lab, ["perimeter"])
    cfg = lab.poristic()
    assert skips == [] and held.all()
    for t, perimeter in table.tolist():
        assert perimeter == pytest.approx(poristic.perimeter_closed_form(cfg, t), rel=1e-12)


def _sweep(capsys, tmp_path, *args):
    code = cli.main(["sweep", *args, "--t-samples", "24", "--out", str(tmp_path)])
    return code, capsys.readouterr().err


def test_equilateral_family_sweeps_perimeter(tmp_path, capsys):
    code, err = _sweep(capsys, tmp_path, "--rho", "0.5", "--quantities", "perimeter")
    assert code == 0 and err == ""
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 25 and all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_rank_deficient_i9_aborts_only_its_own_columns(tmp_path, capsys):
    code, err = _sweep(capsys, tmp_path, "--R", "1", "--r", "0.002", "--quantities", "perimeter")
    assert code == 0 and err == ""
    code = cli.main(["sweep", "--R", "1", "--r", "0.002", "--quantities", "ratio_i9",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ratio_i9: conic I9 has a zero semi-minor axis at t = ")


@pytest.mark.parametrize("name", SWEEP_QUANTITIES)
def test_every_column_alone_on_the_equilateral_family(tmp_path, capsys, name):
    code, err = _sweep(capsys, tmp_path, "--rho", "0.5", "--quantities", name)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert err == "" if code == 0 else err.startswith("error: ")


def _counted_svd(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_scalar_circumconic_runs_no_svd(monkeypatch):
    # The certified filter decides the rank tests of a well-conditioned
    # member: the incidence system's, and the conic's, which canonicalize
    # shares with circumconic_centered (ConicMatrix.rank_test).
    cfg = poristic.config_from_rR(1.0, 0.2)
    s = poristic.sample(cfg, 1.3)
    calls = _counted_svd(monkeypatch)
    conic = poristic.named_conic(cfg, 1.3, "E9", s)
    can = canonicalize(conic)
    assert calls == []
    assert can.semi_major > can.semi_minor > 0


def test_verify_runs_the_svd_only_for_the_reported_condition_numbers(monkeypatch):
    # The rank tests of the batched pass are decided by the certified
    # filter; at the default config no row is close enough to the threshold
    # to need the SVD.  The largest circumconic condition number needs one
    # SVD, of the rows whose estimate can hold it (26 of 3600).
    calls = _counted_svd(monkeypatch)
    report.run_verify(LabConfig())
    assert len(calls) == 1
    n, *shape = calls[0]
    assert shape == [3, 4] and n <= 64


def test_sweep_of_every_column_runs_no_svd(monkeypatch):
    calls = _counted_svd(monkeypatch)
    report.run_sweep(LabConfig(), list(SWEEP_QUANTITIES))
    assert calls == []


def test_scalar_rank_tests_keep_their_messages():
    tri = Triangle((Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0)))
    with pytest.raises(DegenerateConic) as info:
        conics.circumconic_centered(tri, Point(1.5, 0.0))  # center on a side line
    assert str(info.value) == "centered circumconic degenerates for this center"
    with pytest.raises(DegenerateConic) as info:
        canonicalize(ConicMatrix.from_coeffs(1, 0, 0, 0, 0, 0))  # x^2 = 0
    assert str(info.value) == "conic of rank < 3"


def test_cli_parser_is_built_once(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        assert cli.main(["sweep", "--quantities", "perimeter", "--t-samples", "8",
                         "--out", str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", "--t-samples", "many"])
        assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert [n for n in SWEEP_QUANTITIES if n not in out] == [], out


@pytest.mark.parametrize("columns, at_zero", [
    (["gamma_ratio", "antiorthic_intercept", "gamma_feuerbach"],
     ["gamma_ratio", "gamma_feuerbach", "antiorthic_intercept"]),
    (["antiorthic_intercept", "gamma_jerabek", "perimeter", "gamma_ratio"],
     ["antiorthic_intercept", "gamma_jerabek", "gamma_ratio"]),
])
def test_skip_reasons_follow_the_first_use_of_their_stage(columns, at_zero):
    # Every member of the equilateral family is isosceles: both gates skip.
    *_, skips = run_sweep(LabConfig(R=1.0, r=0.5, t_samples=4), columns)
    assert [s["reason"].split(":")[0] for s in skips if s["t"] == 0.0] == at_zero


def test_a_stage_outlives_a_dropped_pass():
    lab = LabConfig(t_samples=24)
    x = report._Pass(*report._family(lab), (), 0).x
    assert x(9).shape == (24, 2)


def test_measure_names_the_first_non_finite_row_and_its_t():
    lab = LabConfig(t_samples=6)

    def nan_at(i):
        return lambda p: np.where(np.arange(len(p.t)) == i, np.nan, 1.0)

    rows = [report.Quantity("fine", nan_at(-1)), report.Quantity("late", nan_at(4)),
            report.Quantity("early", nan_at(1))]
    with pytest.raises(GeometryError) as info:
        report._Pass(*report._family(lab), rows, 0).measure()
    assert str(info.value) == f"late is not finite at t = {float(lab.t[4])!r}"


def test_a_pass_is_freed_as_soon_as_it_is_dropped():
    # Its memoized stages must not form a reference cycle with the pass, or
    # every pass would wait for the cycle collector with all its arrays.
    gc.disable()
    try:
        lab = LabConfig(t_samples=24)
        p = report._Pass(*report._family(lab), report._VERIFY_ROWS, 0)
        p.measure()
        freed = weakref.ref(p)
        del p
        assert freed() is None
    finally:
        gc.enable()


def test_measure_keeps_the_conic_stage_only_while_rows_read_it():
    """The conic stage is built by the first row that declares a conic and
    dropped after the last one, before the hyperbola stage runs; a
    verify's pass keeps the stack's condition number, a sweep's takes
    none.  A later read builds the stage again, the same."""
    lab = LabConfig(t_samples=24)
    rows = report._VERIFY_ROWS
    last = max(i for i, q in enumerate(rows) if q.conics)
    first_hyperbola = min(i for i, q in enumerate(rows) if q.name == "gamma_ratio")
    assert last < first_hyperbola
    seen = []

    class Spy(report._Pass):
        @property
        def hyperbolas(self):
            seen.append("conics" in self.__dict__)
            return report._Pass.hyperbolas.__get__(self)

    p = Spy(*report._family(lab), rows, 0, condition=True)
    p.measure()
    assert seen and not any(seen) and "conics" not in p.__dict__
    assert p.max_condition == report.run_verify(lab).max_condition > 1.0
    angle = p.can("E9").angle  # built again
    q = report._Pass(*report._family(lab), rows, 0)
    q.measure()
    assert q.max_condition is None
    assert q.can("E9").angle.tobytes() == angle.tobytes()


# --- The pass measures the stack it is given ----------------------------------

def test_a_stack_perturbed_by_hand_measures_as_the_perturbed_run(monkeypatch):
    """``_family`` applies ``perturb`` before the family's one build: the
    unperturbed stack with vertex 0 of sample ``len(t) // 3`` shifted by
    hand, then built again, gives the same values, gates, skips and
    condition number, bit for bit.  A perturbed verify builds one family."""
    lab = LabConfig(t_samples=96, perturb=1e-6)
    cfg, fam = report._family(LabConfig(t_samples=96))
    v = fam.triangle.copy()
    v[len(fam.t) // 3, 0, 0] += lab.perturb
    by_hand = poristic._family_batch(fam.t, v, fam.omega, PassLog(fam.t))
    got = report._Pass(cfg, by_hand, report._VERIFY_ROWS, lab.seed, condition=True)
    want = report._Pass(*report._family(lab), report._VERIFY_ROWS, lab.seed, condition=True)
    (values, held), (want_values, want_held) = got.measure(), want.measure()
    assert values.tobytes() == want_values.tobytes()
    assert held.tolist() == want_held.tolist()
    assert got.skipped(held) == want.skipped(want_held)
    assert got.max_condition == want.max_condition
    builds = []
    build = poristic._family_batch
    monkeypatch.setattr(poristic, "_family_batch", lambda *a: builds.append(1) or build(*a))
    assert not report.run_verify(lab).passed
    assert len(builds) == 1


@pytest.mark.parametrize("rho", RHO_GRID)
def test_every_verify_row_measures_a_non_poristic_stack(rho):
    """The family with each vertex jittered by about 1e-3 is a stack of
    valid triangles off the porism.  A pass of each verify row alone, as a
    verify builds it, measures it to ``(values, held)`` or raises a
    ``GeometryError``, never another exception, and has a condition
    number only if the row declares a circumconic; the circumcircle row
    sees the jitter."""
    lab = LabConfig(r=rho, t_samples=48)
    cfg, fam = report._family(lab)
    v = fam.triangle + np.random.default_rng(23).normal(0.0, 1e-3, fam.triangle.shape)
    stack = poristic._family_batch(fam.t, v, fam.omega, PassLog(fam.t))
    measured = {}
    for q in report._VERIFY_ROWS:
        p = report._Pass(cfg, stack, [q], lab.seed, condition=True)
        try:
            values, held = p.measure()
        except GeometryError:
            continue
        assert values.shape == held.shape == (1, lab.t_samples), q.name
        circum = any(poristic._TAG_TABLE[tag][1] for tag in q.conics)
        assert (p.max_condition is not None) == circum, q.name
        measured[q.name] = values[0]
    assert measured["circumcircle_residual"].min() > 1e-5


# --- One unit: the pass runs at R = 1 ------------------------------------------

def test_lengths_are_the_rows_of_dim_one():
    assert {q.name for q in QUANTITIES if q.dim} == {
        "eta_i5x", "zeta_i5x", "eta_i3x", "zeta_i3x", "eta_e1", "zeta_e1",
        "antiorthic_intercept", "perimeter", "omega", "x9_x", "x9_y",
        "gamma_feuerbach", "gamma_jerabek"}
    assert {q.dim for q in QUANTITIES} == {0, 1}


def _outcome(run):
    try:
        return run()
    except GeometryError as exc:
        return exc


def _same(a, b) -> bool:
    """Equal bit for bit, NaN to any NaN, None to None."""
    if a is None or b is None:
        return a is b
    return (a != a and b != b) or float(a).hex() == float(b).hex()


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-4, 0.5, exclude_max=True), st.integers(-10, 10), st.integers(3, 24))
@example(0.05, 10, 720)  # aborted with a zero semi-minor axis of I9 when the pass saw R
def test_a_family_gets_one_outcome_at_every_scale(rho, log2_R, n):
    """At R = 2^k, r = rho R, verify and a sweep of every column give the
    R = 1 outcome: the same GeometryError, or the same verdicts, samples,
    relative spreads, skips and ``max_circumconic_condition``, with every
    value R ** dim times the R = 1 value, bit for bit."""
    R = 2.0 ** log2_R
    unit, lab = (LabConfig(R=scale, r=rho * scale, t_samples=n) for scale in (1.0, R))
    want, got = (_outcome(lambda: report.run_verify(c)) for c in (unit, lab))
    if isinstance(want, GeometryError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got.skipped == want.skipped and _same(got.max_condition, want.max_condition)
        for a, b in zip(want.reports, got.reports, strict=True):
            scale = R ** report._BY_NAME[a.quantity].dim
            assert (b.quantity, b.status, b.verdict, b.samples) == (
                a.quantity, a.status, a.verdict, a.samples)
            assert _same(b.spread_rel, a.spread_rel), a.quantity
            for key in ("min", "max", "mean", "expected"):
                value = getattr(a, key)
                assert _same(getattr(b, key), None if value is None else value * scale), (
                    a.quantity, key)
    want, got = (_outcome(lambda: run_sweep(c, list(SWEEP_QUANTITIES))) for c in (unit, lab))
    if isinstance(want, GeometryError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert got[3] == want[3]
    assert got[2].tolist() == want[2].tolist()
    scales = [1.0] + [R ** report._BY_NAME[name].dim for name in SWEEP_QUANTITIES]
    for a, b, held in zip(want[1].tolist(), got[1].tolist(), want[2].tolist(), strict=True):
        assert all(_same(y, x * k) for x, y, k, h in zip(a, b, scales, held) if h)


@pytest.mark.parametrize("R", [1000.0, 1024.0])
@pytest.mark.parametrize("rho", RHO_GRID)
def test_every_row_passes_far_from_unit_scale(R, rho):
    result = report.run_verify(LabConfig(R=R, r=rho * R))
    assert [r.quantity for r in result.reports if r.status != "pass"] == []
    assert result.passed
