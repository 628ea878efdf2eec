"""The quantity table and the demand-driven measurement pass.

A sweep runs only the stages its columns need, so a narrow sweep must give
exactly the cells and skips of the same column in a full sweep, must not
build what it does not need, and may abort only on the stages it runs.
"""

import gc
import weakref

import numpy as np
import pytest

from porism_lab import cli, conics, poristic, report
from porism_lab.errors import DegenerateConic
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


@pytest.mark.parametrize("rho", RHO_GRID)
def test_narrow_column_equals_full_column(rho):
    lab = LabConfig(R=1.0, r=rho, t_samples=60, seed=5)
    header, rows, skips = run_sweep(lab, list(SWEEP_QUANTITIES))
    assert header == ["t", *SWEEP_QUANTITIES]
    assert skips and not [s for s in skips if s["reason"].endswith("not computed")]
    for j, name in enumerate(SWEEP_QUANTITIES, start=1):
        narrow_header, narrow_rows, narrow_skips = run_sweep(lab, [name])
        assert narrow_header == ["t", name]
        assert narrow_rows == [[row[0], row[j]] for row in rows], name
        assert narrow_skips == [s for s in skips if s["reason"].startswith(f"{name}: ")], name
    # A verify row on a pass built for it alone, whose conic stage holds only
    # the conics the row declares, equals its column in the full verify bit
    # for bit; a row reading a conic it does not declare raises here.
    cfg = lab.poristic()
    full = report._Pass(cfg, lab.t, report._VERIFY_ROWS, lab.seed).measure()
    for q in report._VERIFY_ROWS:
        narrow = report._Pass(cfg, lab.t, [q], lab.seed).measure()[q.name]
        assert narrow.tobytes() == full[q.name].tobytes(), q.name
    p = report._Pass(cfg, lab.t, [report._BY_NAME["perimeter"]], lab.seed)
    p.measure()
    with pytest.raises(LookupError, match="conic E9 is read but no measured row declares it"):
        p.can("E9")


def test_perimeter_sweep_builds_no_conic_and_no_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a perimeter sweep must not reach this stage")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(poristic, "named_conics_batch", forbidden)
    lab = LabConfig(t_samples=36)
    _, rows, skips = run_sweep(lab, ["perimeter"])
    cfg = lab.poristic()
    assert skips == []
    for t, perimeter in rows:
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
    code, err = _sweep(capsys, tmp_path, "--R", "1000", "--r", "50", "--quantities", "perimeter")
    assert code == 0 and err == ""
    code = cli.main(["sweep", "--R", "1000", "--r", "50", "--quantities", "ratio_i9",
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


def test_scalar_circumconic_shares_one_svd_with_canonicalize(monkeypatch):
    cfg = poristic.config_from_rR(1.0, 0.2)
    s = poristic.sample(cfg, 1.3)
    calls = _counted_svd(monkeypatch)
    conic = poristic.named_conic(cfg, 1.3, "E9", s)
    can = canonicalize(conic)
    assert calls == [(3, 4), (3, 3)]
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
    assert str(info.value) == "conic of rank < 3 (singular values [1. 0. 0.])"


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
    _, _, skips = run_sweep(LabConfig(R=1.0, r=0.5, t_samples=4), columns)
    assert [s["reason"].split(":")[0] for s in skips if s["t"] == 0.0] == at_zero


def test_a_stage_outlives_a_dropped_pass():
    lab = LabConfig(t_samples=24)
    x = report._Pass(lab.poristic(), lab.t, (), 0).x
    assert x(9).shape == (24, 2)


def test_a_pass_is_freed_as_soon_as_it_is_dropped():
    # Its memoized stages must not form a reference cycle with the pass, or
    # every pass would wait for the cycle collector with all its arrays.
    gc.disable()
    try:
        lab = LabConfig(t_samples=24)
        p = report._Pass(lab.poristic(), lab.t, report._VERIFY_ROWS, 0)
        p.measure()
        freed = weakref.ref(p)
        del p
        assert freed() is None
    finally:
        gc.enable()
