import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porism_lab import figures, report
from porism_lab.cli import _OPTIONS, main
from porism_lab.errors import ConfigError, GeometryError, UnknownQuantity
from porism_lab.figures import FIGURE_IDS, render_figure
from porism_lab.geom import CanonicalConic, ConicKind, Point
from porism_lab.poristic import perimeter_closed_form
from porism_lab.report import (
    MAX_T_SAMPLES,
    LabConfig,
    format_csv,
    run_sweep,
    run_verify,
    verify_report_csv,
    verify_report_json,
)

FIGURE_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
                    / "figures.json")


def _judged(values, held=None) -> report.SweepReport:
    """The residual row of ``values``, reduced over the samples ``held``
    keeps (every one by default) and judged."""
    held = np.ones(len(values), bool) if held is None else np.array(held)
    stats = [stat[0] for stat in report._reduce(np.array([values]), held[None])]
    return report._judge("x", *stats, "residual", 1e-9, None, 1.0)


#: Held values: +-0.0, or magnitudes from 1e-300 to 1e300 of either sign.
_HELD = st.one_of(st.sampled_from((0.0, -0.0)), st.builds(
    lambda sign, m, e: sign * m * 10.0 ** e,
    st.sampled_from((-1.0, 1.0)), st.floats(1.0, 9.99), st.integers(-300, 299)))


@st.composite
def _masked_stacks(draw):
    """A (rows, n) stack of values and a random held mask over it.  A row
    may hold nothing, or -0.0 only; a cell not held may be NaN or inf."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    values, held = np.empty((rows, n)), np.zeros((rows, n), bool)
    for i in range(rows):
        kind = draw(st.sampled_from(("mixed", "negative zeros", "none held")))
        for j in range(n):
            held[i, j] = kind != "none held" and draw(st.booleans())
            values[i, j] = draw(
                (st.just(-0.0) if kind == "negative zeros" else _HELD) if held[i, j]
                else st.one_of(st.sampled_from((math.nan, math.inf, -math.inf)), _HELD))
    return values, held


class TestVerifySuite:
    @pytest.mark.parametrize("rho", (0.05, 0.2, 0.36266, 0.49))
    def test_all_rows_pass(self, rho):
        result = run_verify(LabConfig(R=1.0, r=rho, t_samples=96))
        failing = [r.quantity for r in result.reports if r.status != "pass"]
        assert result.passed, failing

    def test_scale_invariance_of_suite(self):
        # Same family at a different absolute scale: every verdict holds.
        result = run_verify(LabConfig(R=3.5, r=0.7, t_samples=48))
        failing = [r.quantity for r in result.reports if r.status != "pass"]
        assert result.passed, failing

    @pytest.mark.parametrize("rho", (0.02, 0.499))
    def test_extreme_ratio_boundaries(self, rho):
        result = run_verify(LabConfig(R=1.0, r=rho, t_samples=48))
        failing = [r.quantity for r in result.reports if r.status != "pass"]
        assert result.passed, failing

    def test_expected_varying_rows_detected(self):
        result = run_verify(LabConfig(t_samples=96))
        rows = {r.quantity: r for r in result.reports}
        for name in ("perimeter", "r_billiard", "R_billiard"):
            assert rows[name].verdict == "varying"
            assert rows[name].status == "pass"

    def test_skips_are_recorded_for_isosceles_members(self):
        result = run_verify(LabConfig(t_samples=96))
        reasons = {entry["reason"].split(":")[0] for entry in result.skipped}
        assert "gamma_ratio" in reasons

    def test_deterministic_reports(self):
        a = run_verify(LabConfig(t_samples=48, seed=11))
        b = run_verify(LabConfig(t_samples=48, seed=11))
        assert verify_report_json(a) == verify_report_json(b)
        assert verify_report_csv(a) == verify_report_csv(b)

    def test_report_csv_reads_back(self):
        # Every number parses back to the report's float bit for bit, NaN
        # reads as "nan", None as an empty field and a str as it is.
        empty = report.SweepReport("x", 0, math.nan, math.nan, math.nan, math.inf, "skipped",
                                   1e-9, "residual", None, status="fail")
        for result in (run_verify(LabConfig(t_samples=24)),
                       report.VerifyResult(LabConfig(), [empty], [], 0.0)):
            header, *lines = verify_report_csv(result).split("\n")[:-1]
            keys = header.split(",")
            assert keys[0] == "quantity" and len(keys) == 12
            for line, row in zip(lines, result.reports, strict=True):
                for key, cell in zip(keys, line.split(","), strict=True):
                    value = getattr(row, key)
                    if value is None or isinstance(value, str):
                        assert cell == (value or ""), key
                    elif math.isnan(value):
                        assert cell == "nan", key
                    else:
                        assert float(cell).hex() == float(value).hex(), key

    def test_perturbation_flips_verdicts(self):
        result = run_verify(LabConfig(t_samples=96, perturb=1e-6))
        assert not result.passed
        rows = {r.quantity: r for r in result.reports}
        assert rows["circumcircle_residual"].status == "fail"
        assert rows["i3x_implicit_gap"].status == "fail"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_verify(LabConfig(t_samples=2))
        with pytest.raises(ConfigError):
            run_verify(LabConfig(seed=-1))
        with pytest.raises(ConfigError):
            run_verify(LabConfig(t_samples=MAX_T_SAMPLES + 1))
        with pytest.raises(ConfigError):
            LabConfig(R=1.0, r=0.7).poristic()

    @pytest.mark.parametrize("kwargs, message", [
        (dict(t_samples=2), "t_samples must be >= 3, got 2"),
        (dict(R=1e200, r=2e199), "R must be in [1e-100, 1e+100], got 1e+200"),
        (dict(r=0.6), "r = 0.6 outside (0, R/2] for R = 1.0"),
        (dict(t_samples=24.5), "t_samples must be an integer, got 24.5"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(R=1e100, r=1e-300), "rho = 0.0 outside (0, 1/2]"),
    ], ids=["t_samples", "R_range", "circle_pair", "t_samples_integer", "seed_integer",
            "rho_underflow"])
    def test_invalid_config_cannot_be_constructed(self, kwargs, message):
        # Refused when built, so no caller (render_figure included) sees it.
        with pytest.raises(ConfigError) as exc:
            LabConfig(**kwargs)
        assert str(exc.value) == message

    @given(st.floats(-100, 100), st.floats(math.log10(1e-12), math.log10(0.5)),
           st.integers(3, 24))
    @settings(max_examples=100, deadline=None)
    def test_every_accepted_scale_gives_a_report_or_a_geometry_error(self, log_R, log_rho, n):
        R = 10.0 ** log_R
        try:
            run_verify(LabConfig(R=R, r=10.0 ** log_rho * R, t_samples=n))
        except GeometryError:
            pass

    def test_every_row_reports_its_fixed_tolerance(self):
        # No option sets a tolerance: each is the verify table's own number.
        fixed = {"circumcircle_residual", "incircle_residual", "i5x_stationarity",
                 "weaver_incircle_power_gap", "weaver_circumcircle_power_gap",
                 "weaver_excentral_power_gap", "antiorthic_intercept"}
        angle = {"theta_closed_gap", "reflection_law_gap", "e6x_e9_axis_gap",
                 "e1_i3x_axis_gap", "parallel_axes_gap"}
        want = {**dict.fromkeys(fixed, 1e-10), **dict.fromkeys(angle, 1e-8),
                "perimeter_closed_rel_err": 1e-12, "billiard_ellipse_residual": 1e-8,
                "gamma_ratio": 1e-7}
        reports = run_verify(LabConfig(t_samples=24)).reports
        assert len(reports) == 45
        assert sum(name not in want for name in (r.quantity for r in reports)) == 30
        assert {r.quantity: r.tolerance for r in reports} == {
            r.quantity: want.get(r.quantity, 1e-9) for r in reports}

    def test_json_schema_fields(self):
        result = run_verify(LabConfig(t_samples=48))
        doc = json.loads(verify_report_json(result))
        assert set(doc) == {"version", "config", "passed",
                            "max_circumconic_condition", "reports", "skipped"}
        row = doc["reports"][0]
        for key in ("quantity", "samples", "min", "max", "mean", "spread_rel",
                    "verdict", "tolerance"):
            assert key in row

    def test_json_writes_non_finite_values_as_null(self):
        def strict(token):
            raise ValueError(f"not RFC 8259 JSON: {token}")

        # Every sample of this row is exactly 0, so its spread is infinite.
        result = run_verify(LabConfig(R=1.0, r=0.05, t_samples=72))
        rows = {r["quantity"]: r for r in json.loads(verify_report_json(result),
                                                     parse_constant=strict)["reports"]}
        assert rows["weaver_excentral_power_gap"]["mean"] == 0.0
        assert rows["weaver_excentral_power_gap"]["spread_rel"] is None
        # A row with no samples has no statistics.
        empty = _judged([math.nan, math.inf, -math.inf], [False] * 3)
        assert (empty.samples, empty.verdict, empty.status) == (0, "skipped", "fail")
        result.reports.append(empty)
        row = json.loads(verify_report_json(result), parse_constant=strict)["reports"][-1]
        assert [row[k] for k in ("samples", "min", "max", "mean", "spread_rel")] == [
            0, None, None, None, None]

    def test_mean_is_summed_left_to_right_on_every_python(self):
        # A compensated sum (Python's sum from 3.12) would give 2 / 4.
        assert _judged([1.0, 1e100, 1.0, -1e100]).mean == 0.0
        assert math.copysign(1.0, _judged([-0.0, -0.0]).mean) == 1.0

    @given(_masked_stacks())
    # Left to right this row sums to 1.0; numpy's pairwise sum gives 0.0.
    @example((np.array([[1e100, 1.0, -1e100, 1.0, 0.0, 0.0, 0.0, 0.0, math.nan]]),
              np.arange(9)[None] < 8))
    @settings(max_examples=300, deadline=None)
    def test_each_row_reduces_as_its_held_values_alone(self, stack):
        # Each row of one masked reduction against numpy's 1-D reductions of
        # the row's held values, float.hex for float.hex; min and max only up
        # to the sign of a zero, which the two order differently (no verify
        # row holds a -0.0).  A cell not held may be anything, NaN included.
        values, held = stack
        for vals, (n, lo, hi, total, peak) in zip(
                (row[mask] for row, mask in zip(values, held)),
                zip(*report._reduce(values, held))):
            assert n == len(vals)
            if n:
                assert (lo + 0.0).hex() == (vals.min() + 0.0).item().hex()
                assert (hi + 0.0).hex() == (vals.max() + 0.0).item().hex()
                assert total.hex() == (np.cumsum(vals)[-1] + 0.0).item().hex()
                assert peak.hex() == np.abs(vals).max().item().hex()


class TestSweep:
    def test_perimeter_extrema_at_symmetric_members(self):
        lab = LabConfig(t_samples=720)
        header, table, held, _ = run_sweep(lab, ["perimeter"])
        assert header == ["t", "perimeter"] and held.all()
        assert table.shape == (720, 2)
        values = dict(table.tolist())
        # Dense-scan oracle: extrema of the closed form over the same grid.
        cfg = lab.poristic()
        closed = {t: perimeter_closed_form(cfg, t) for t in values}
        assert min(values, key=values.get) == min(closed, key=closed.get)
        assert max(values, key=values.get) == max(closed, key=closed.get)
        assert min(closed, key=closed.get) in (0.0, math.pi)
        assert max(closed, key=closed.get) in (0.0, math.pi)

    def test_constant_ratio_column(self):
        lab = LabConfig(t_samples=60)
        cfg = lab.poristic()
        _, table, held, _ = run_sweep(lab, ["ratio_i3x"])
        expected = (cfg.R + cfg.d) / (cfg.R - cfg.d)
        assert held.all()
        assert table[:, 1].tolist() == pytest.approx([expected] * 60, rel=1e-9)

    def test_skipped_cells_are_not_held_with_log(self):
        _, table, held, skips = run_sweep(LabConfig(t_samples=8), ["gamma_ratio"])
        assert held[:, 0].all()
        assert table[~held[:, 1], 0].tolist() == [0.0, math.pi]
        assert [s["t"] for s in skips] == [0.0, math.pi]

    def test_sweep_honours_perturbation(self):
        # Sample n // 3 = 4 is moved off the circumcircle by ``_family``, in
        # the sweep's stack as in the verify's.
        lab = LabConfig(t_samples=12, perturb=1e-6)
        _, table, _, _ = run_sweep(lab, ["circumcircle_residual"])
        q = report._BY_NAME["circumcircle_residual"]
        column = report._Pass(*report._family(lab), [q], lab.seed).measure()[0][0]
        assert table[:, 1].tolist() == column.tolist()
        assert table[4, 1] > 5e-7

    def test_unknown_quantity(self):
        with pytest.raises(UnknownQuantity):
            run_sweep(LabConfig(t_samples=8), ["nope"])

    def test_csv_formatting(self):
        text = format_csv(["t", "q"], np.array([[0.5, 1.0 / 3.0], [1.0, 2.0]]),
                          np.array([[True, True], [True, False]]))
        lines = text.splitlines()
        assert lines[0] == "t,q"
        assert lines[1] == "0.5,0.33333333333333331"
        assert lines[2] == "1,"

    def test_csv_cells_equal_the_format_spec_form(self):
        header, table, held, _ = run_sweep(LabConfig(r=0.2, t_samples=24),
                                           ["perimeter", "gamma_ratio"])
        table = np.vstack([table, [[-0.0, 1e-320, 1e-5], [math.inf, -math.inf, 1e17],
                                   [math.nan, 2.0 ** 60, 5e-324]]])
        held = np.vstack([held, np.ones((3, 3), bool)])
        want = "".join(",".join(f"{v:.17g}" if h else "" for v, h in zip(row, mask)) + "\n"
                       for row, mask in zip(table.tolist(), held.tolist()))
        assert not held.all()
        assert format_csv(header, table, held) == "t,perimeter,gamma_ratio\n" + want


class TestCli:
    def test_verify_pass(self, tmp_path, capsys):
        code = main(["verify", "--rho", "0.36266", "--t-samples", "96",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_summary_counts_skipped_cells_and_samples(self, tmp_path, capsys):
        # The four rows that read X100 skip the isosceles members t = 0, pi.
        assert main(["verify", "--out", str(tmp_path)]) == 0
        assert "45/45 checks passed (8 skipped cells at 2 samples, " in capsys.readouterr().out

    @pytest.mark.parametrize("argv, config", [
        (["--tol", "1e-3"], None),
        (["--angle-tol", "1e-3"], None),
        ([], "tol = 1e-3\n"),
    ], ids=["tol_flag", "angle_tol_flag", "tol_config_key"])
    def test_no_option_sets_a_tolerance(self, tmp_path, capsys, argv, config):
        """The tolerances are the rows' own: the retired options exit 2, and
        ratio_i9 at rho = 0.005, which no option may loosen, stays a FAIL."""
        verify = ["verify", "--rho", "0.005", "--out", str(tmp_path / "o")]
        if config is not None:
            cfg_file = tmp_path / "lab.cfg"
            cfg_file.write_text(config)
            argv = ["--config", str(cfg_file)]
        try:
            code = main(verify + argv)
        except SystemExit as exc:  # argparse refuses an unknown flag
            code = exc.code
        assert code == 2
        if config is not None:
            assert capsys.readouterr().err == "error: unknown config key 'tol'\n"
        assert not (tmp_path / "o").exists()
        assert main(verify) == 1
        assert "[FAIL] ratio_i9: " in capsys.readouterr().out

    def test_verify_mutation_exit_one(self, tmp_path):
        code = main(["verify", "--rho", "0.36266", "--t-samples", "96",
                     "--inject-perturbation", "1e-6", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_perturbation_exit_two(self, tmp_path, capsys, value):
        # Refused by validation, not blamed on a conic of the pass.
        assert main(["verify", "--R", "1", "--r", "0.2", "--t-samples", "8",
                     "--inject-perturbation", value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: perturb must be finite, got {value}\n"

    def test_invalid_rho_exit_two(self, tmp_path):
        assert main(["verify", "--rho", "0.6", "--out", str(tmp_path)]) == 2

    def test_bad_t_samples_exit_two(self, tmp_path):
        assert main(["verify", "--rho", "0.2", "--t-samples", "2",
                     "--out", str(tmp_path)]) == 2

    def test_t_samples_above_cap_exit_two_before_any_pass(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("validation must reject the grid before a pass allocates it")

        monkeypatch.setattr(report, "_Pass", forbidden)
        monkeypatch.setattr(report, "_family", forbidden)
        assert main(["sweep", "--quantities", "perimeter", "--t-samples",
                     str(MAX_T_SAMPLES + 1), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"error: t_samples must be <= {MAX_T_SAMPLES}, "
                                           f"got {MAX_T_SAMPLES + 1}\n")

    @pytest.mark.parametrize("R, r", (("1e-110", "2e-111"), ("1e155", "2e154")))
    @pytest.mark.parametrize("command", ("verify", "sweep"))
    def test_R_outside_range_exit_two(self, tmp_path, capsys, command, R, r):
        # Beyond these scales the loci stage underflows or overflows.
        assert main([command, "--R", R, "--r", r, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: R must be in [1e-100, 1e+100], got {float(R)}\n"
        assert not (tmp_path / "o").exists()

    def test_rho_and_rR_conflict(self, tmp_path):
        assert main(["verify", "--rho", "0.2", "--R", "1", "--r", "0.2",
                     "--out", str(tmp_path)]) == 2

    def test_sweep_csv_and_skip_log(self, tmp_path):
        code = main(["sweep", "--quantities", "perimeter,gamma_ratio",
                     "--t-samples", "8", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "t,perimeter,gamma_ratio"
        assert len(lines) == 9
        assert (tmp_path / "sweep_skips.txt").exists()

    def test_two_sweeps_into_one_directory_keep_no_stale_skip_log(self, tmp_path):
        out = ["--t-samples", "8", "--out", str(tmp_path)]
        log = tmp_path / "sweep_skips.txt"
        for quantities, logged in [("gamma_ratio", True), ("perimeter", False),
                                   ("gamma_ratio", True), ("", False)]:
            assert main(["sweep", "--quantities", quantities, *out]) == 0
            assert log.exists() == logged
        assert main(["sweep", "--quantities", "perimeter,gamma_ratio", *out]) == 0
        lab = LabConfig(t_samples=8)
        header, table, held, skips = run_sweep(lab, ["perimeter", "gamma_ratio"])
        assert (tmp_path / "sweep.csv").read_text() == format_csv(header, table, held)
        assert log.read_text().splitlines() == [f"t={s['t']:.17g}: {s['reason']}" for s in skips]

    def test_sweep_empty_quantities(self, tmp_path):
        code = main(["sweep", "--quantities", "", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").read_text() == "t\n"

    def test_sweep_unknown_quantity(self, tmp_path):
        assert main(["sweep", "--quantities", "bogus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, error", [
        (["--R", "1", "--r", "0.002", "--quantities", "ratio_i9"],
         "error: ratio_i9: conic I9 has a zero semi-minor axis at t = "),
        (["--quantities", "bogus"], "error: unknown quantity 'bogus'; valid names: "),
    ], ids=["geometry_error", "unknown_quantity"])
    def test_failed_sweep_leaves_no_output_dir(self, tmp_path, capsys, argv, error):
        out = tmp_path / "o"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1, err
        assert not out.exists()

    def test_figures_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["figure", "--figure", "inconics", "--rho", "0.3627",
                         "--out", str(out)]) == 0
        data1 = (out1 / "inconics.svg").read_bytes()
        assert data1 == (out2 / "inconics.svg").read_bytes()
        root = ET.fromstring(data1)
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        # Two fixed circles plus the sampled conic outlines and triangles.
        assert len(root.findall("svg:circle", ns)) >= 2
        outlines = root.findall("svg:polyline", ns) + root.findall("svg:polygon", ns)
        assert len(outlines) >= 7

    def test_all_figures_render(self, tmp_path):
        for fig in ("obtuse", "odehnal", "inconics", "circumX10",
                    "cb-focus-locus", "cb-poristic", "cb-plots", "circumhyps"):
            assert main(["figure", "--figure", fig, "--out", str(tmp_path)]) == 0
            assert (tmp_path / f"{fig}.svg").stat().st_size > 500

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figure_bytes_match_benchmark_reference(self, figure_id):
        reference = json.loads(FIGURE_REFERENCE.read_text())
        svg = render_figure(figure_id, LabConfig())
        assert hashlib.sha256(svg.encode()).hexdigest() == reference[figure_id]

    @pytest.mark.parametrize("R", (1e-100, 1e-6, 1e6, 1e100))
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figures_do_not_depend_on_R(self, tmp_path, capsys, figure_id, R):
        # A figure draws the R = 1 family: at any R it exits, prints and
        # writes exactly what it does at R = 1 with the same rho, and it
        # exits 0 with an SVG or 2 with an error line, never a traceback.
        for rho in (0.05, 0.2, 0.36266):
            unit = LabConfig(R=R, r=rho * R).poristic().rho
            runs = []
            for name, argv in (("R", ["--R", repr(R), "--r", repr(rho * R)]),
                               ("unit", ["--R", "1", "--r", repr(unit)])):
                out = tmp_path / f"{rho}-{name}"
                code = main(["figure", "--figure", figure_id, *argv, "--out", str(out)])
                svg = out / f"{figure_id}.svg"
                runs.append((code, capsys.readouterr().err,
                             svg.read_bytes() if svg.exists() else None))
            assert runs[0] == runs[1], (rho, runs[0][:2], runs[1][:2])
            code, err, svg = runs[0]
            assert code in (0, 2) and "Traceback" not in err, (rho, err)
            assert (err == "" and svg is not None if code == 0
                    else err.startswith("error: ") and svg is None), (rho, err)

    @pytest.mark.parametrize("argv, message", (
        (["--rho", "1e-12"], "closed form not defined at t = 0.0 ("),
        (["--rho", "1e-9"], "closed form not defined at t = 0.0 ("),
        (["--R", "1e-5", "--r", "1e-13"], "area 0.000e+00 below threshold"),
        (["--R", "1.7355213187560022e77", "--r", "3.778250150383396e66"],
         "closed form not defined at t = 0.0 (")))
    def test_figure_where_the_closed_form_cancels_exit_two(self, tmp_path, capsys, argv,
                                                           message):
        # At t = 0 the vertices' denominator R^2 - 2dR + d^2 cancels to 0, or
        # the square root's argument to below 0; at rho = 1e-8 the member's
        # area rounds to 0 first.
        assert main(["figure", "--figure", "obtuse", *argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("figure_id, tag, kind", (
        ("odehnal", "I5x", ConicKind.EMPTY),
        ("cb-poristic", "E9", ConicKind.DEGENERATE_LINES),
        ("circumhyps", "Feuerbach", ConicKind.EMPTY)))
    def test_figure_refuses_a_conic_it_cannot_draw(self, tmp_path, capsys, monkeypatch,
                                                   figure_id, tag, kind):
        # A conic whose canonical form is neither an ellipse nor a hyperbola
        # has no outline, so the figure names it and writes no file.
        monkeypatch.setattr(figures, "canonicalize",
                            lambda conic: CanonicalConic(Point(0.0, 0.0), 0.0, 0.0, 0.0, kind))
        out = tmp_path / "o"
        assert main(["figure", "--figure", figure_id, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {tag}: canonical form is {kind.value}; the figure cannot draw it\n")
        assert not out.exists()

    def test_every_figure_renders_or_raises_a_geometry_error(self):
        pairs = ((1, 1e-12), (1, 1e-9), (1e-5, 1e-13),
                 (1.7355213187560022e77, 3.778250150383396e66),
                 (1e-100, 2e-101), (1e100, 2e99), (1, 0.5), (1, 0.2))
        for R, r in pairs:
            for figure_id in FIGURE_IDS:
                try:
                    svg = render_figure(figure_id, LabConfig(R=R, r=r))
                except GeometryError:
                    continue
                root = ET.fromstring(svg)
                assert root.tag == "{http://www.w3.org/2000/svg}svg", (R, r, figure_id)

    def test_unknown_figure(self, tmp_path):
        assert main(["figure", "--figure", "nope", "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rho = 0.2\nt_samples = 48\nseed = 3\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_file), "--t-samples", "96",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["t_samples"] == 96  # flag wins
        assert doc["config"]["r"] == 0.2         # file value used
        assert doc["config"]["seed"] == 3

    def test_config_file_repeated_key_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rho=0.2\nrho=0.3\n")
        assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"error: config key 'rho' given twice in "
                                           f"{str(cfg_file)!r}\n")
        assert not (tmp_path / "report.json").exists()

    def test_config_file_bad_key(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("wat = 1\n")
        assert main(["verify", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) == 2

    def test_config_file_bad_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("seed = abc\n")
        assert main(["verify", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: bad value for config key 'seed': 'abc'\n"

    def test_config_file_not_utf8_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_bytes(b"seed=1\n\xff\xfe=2\n")
        assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config file {str(cfg_file)!r} is not UTF-8: "
                       f"invalid start byte at byte 7\n")

    @staticmethod
    def _verify_config(tmp_path, file_text, argv, out):
        """Exit code and report.json config of a verify given this config file."""
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text(file_text)
        code = main(["verify", "--config", str(cfg_file), *argv])
        return code, json.loads((out / "report.json").read_text())["config"]

    @pytest.mark.parametrize("file_text, argv, R, r", [
        ("R = 2\nr = 0.5\n", ["--rho", "0.3"], 1.0, 0.3),
        ("rho = 0.3\n", ["--R", "2", "--r", "0.5"], 2.0, 0.5),
        ("R = 2\nr = 0.5\n", ["--R", "3"], 3.0, 0.5),
    ], ids=["rho_flag_over_file_pair", "pair_flags_over_file_rho", "R_flag_over_file_R"])
    def test_circle_pair_flags_override_the_file(self, tmp_path, file_text, argv, R, r):
        out = tmp_path / "o"
        code, config = self._verify_config(tmp_path, file_text,
                                           [*argv, "--t-samples", "24", "--out", str(out)], out)
        assert code in (0, 1)
        assert (config["R"], config["r"]) == (R, r)

    @pytest.mark.parametrize("file_text", ["rho = 0.3\nR = 2\nr = 0.5\n", "rho = 0.3\nr = 0.5\n"])
    def test_circle_pair_conflict_in_the_file_exit_two(self, tmp_path, capsys, file_text):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text(file_text)
        assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: give either --rho or the --R/--r pair, not both\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", list(_OPTIONS))
    def test_config_file_key_acts_as_its_flag(self, tmp_path, key):
        by_file, by_flag = tmp_path / "by_file", tmp_path / "by_flag"
        value = {"rho": "0.3", "R": "2", "r": "0.25", "t_samples": "16", "seed": "7",
                 "out": str(by_file)}[key]
        argv = {"R": ["--r", "0.5"], "r": ["--R", "1"]}.get(key, [])
        argv += [] if key == "t_samples" else ["--t-samples", "24"]
        # The "out" key is checked by where each report lands.
        flag = [] if key == "out" else ["--" + key.replace("_", "-"), value]
        out = [] if key == "out" else ["--out", str(by_file)]
        file_run = self._verify_config(tmp_path, f"{key} = {value}\n", argv + out, by_file)
        flag_run = self._verify_config(tmp_path, "", argv + flag + ["--out", str(by_flag)],
                                       by_flag)
        assert file_run == flag_run
