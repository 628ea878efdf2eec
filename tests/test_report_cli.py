import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porism_lab import report
from porism_lab.cli import _OPTIONS, main
from porism_lab.errors import ConfigError, GeometryError, UnknownQuantity
from porism_lab.figures import FIGURE_IDS, render_figure
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

    def test_perturbation_flips_verdicts(self):
        result = run_verify(LabConfig(t_samples=96, perturb=1e-6))
        assert not result.passed
        rows = {r.quantity: r for r in result.reports}
        assert rows["circumcircle_residual"].status == "fail"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_verify(LabConfig(t_samples=2))
        with pytest.raises(ConfigError):
            run_verify(LabConfig(tolerance=0.1))
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
        empty = report._aggregate("empty", np.array([]), "residual", 1e-9, None)
        result.reports.append(empty)
        row = json.loads(verify_report_json(result), parse_constant=strict)["reports"][-1]
        assert [row[k] for k in ("samples", "min", "max", "mean", "spread_rel")] == [
            0, None, None, None, None]

    def test_mean_is_summed_left_to_right_on_every_python(self):
        # A compensated sum (Python's sum from 3.12) would give 2 / 4.
        row = report._aggregate("x", np.array([1.0, 1e100, 1.0, -1e100]), "residual", 1e-9, None)
        assert row.mean == 0.0
        row = report._aggregate("x", np.array([-0.0, -0.0]), "residual", 1e-9, None)
        assert math.copysign(1.0, row.mean) == 1.0


class TestSweep:
    def test_perimeter_extrema_at_symmetric_members(self):
        lab = LabConfig(t_samples=720)
        header, rows, _ = run_sweep(lab, ["perimeter"])
        assert header == ["t", "perimeter"]
        assert len(rows) == 720
        values = {row[0]: row[1] for row in rows}
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
        _, rows, _ = run_sweep(lab, ["ratio_i3x"])
        expected = (cfg.R + cfg.d) / (cfg.R - cfg.d)
        for row in rows:
            assert row[1] == pytest.approx(expected, rel=1e-9)

    def test_skipped_cells_are_none_with_log(self):
        _, rows, skips = run_sweep(LabConfig(t_samples=8), ["gamma_ratio"])
        none_ts = [row[0] for row in rows if row[1] is None]
        assert none_ts == [0.0, math.pi]
        assert len(skips) == 2

    def test_sweep_honours_perturbation(self):
        # Sample n // 3 = 4 is moved off the circumcircle, in the sweep as in
        # the verify's pass.
        lab = LabConfig(t_samples=12, perturb=1e-6)
        _, rows, _ = run_sweep(lab, ["circumcircle_residual"])
        q = report._BY_NAME["circumcircle_residual"]
        column = report._Pass(lab.poristic(), lab.t, [q], lab.seed, lab.perturb).measure()[q.name]
        assert [row[1] for row in rows] == column.tolist()
        assert rows[4][1] > 5e-7

    def test_unknown_quantity(self):
        with pytest.raises(UnknownQuantity):
            run_sweep(LabConfig(t_samples=8), ["nope"])

    def test_csv_formatting(self):
        text = format_csv(["t", "q"], [[0.5, 1.0 / 3.0], [1.0, None]])
        lines = text.splitlines()
        assert lines[0] == "t,q"
        assert lines[1] == "0.5,0.33333333333333331"
        assert lines[2] == "1,"

    def test_csv_cells_equal_the_format_spec_form(self):
        header, rows, _ = run_sweep(LabConfig(r=0.2, t_samples=24), ["perimeter", "gamma_ratio"])
        rows += [[-0.0, 1e-320], [math.inf, -math.inf], [math.nan, 2.0 ** 60]]
        want = "".join(",".join("" if v is None else f"{v:.17g}" for v in row) + "\n"
                       for row in rows)
        assert format_csv(header, rows) == "t,perimeter,gamma_ratio\n" + want


class TestCli:
    def test_verify_pass(self, tmp_path, capsys):
        code = main(["verify", "--rho", "0.36266", "--t-samples", "96",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

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

    def test_sweep_empty_quantities(self, tmp_path):
        code = main(["sweep", "--quantities", "", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").read_text() == "t\n"

    def test_sweep_unknown_quantity(self, tmp_path):
        assert main(["sweep", "--quantities", "bogus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, error", [
        (["--R", "1000", "--r", "50", "--quantities", "ratio_i9"],
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

    @pytest.mark.parametrize("R", (1e30, 1e60, 1e100))
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figures_at_extreme_scale_exit_cleanly(self, tmp_path, capsys, figure_id, R):
        code = main(["figure", "--figure", figure_id, "--R", repr(R), "--r", repr(0.2 * R),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        assert err == "" if code == 0 else err.startswith("error: ")

    @pytest.mark.parametrize("argv", (
        ["--rho", "1e-12"], ["--rho", "1e-9"], ["--R", "1e-5", "--r", "1e-13"],
        ["--R", "1.7355213187560022e77", "--r", "3.778250150383396e66"]))
    def test_figure_where_the_closed_form_cancels_exit_two(self, tmp_path, capsys, argv):
        # At t = 0 the vertices' denominator R^2 - 2dR + d^2 cancels to 0, or
        # the square root's argument to below 0.
        assert main(["figure", "--figure", "obtuse", *argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: closed form not defined at t = 0.0 (")
        assert not (tmp_path / "o").exists()

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
        value = {"rho": "0.3", "R": "2", "r": "0.25", "t_samples": "16", "tol": "1e-08",
                 "angle_tol": "1e-07", "seed": "7", "out": str(by_file)}[key]
        argv = {"R": ["--r", "0.5"], "r": ["--R", "1"]}.get(key, [])
        argv += [] if key == "t_samples" else ["--t-samples", "24"]
        # The "out" key is checked by where each report lands.
        flag = [] if key == "out" else ["--" + key.replace("_", "-"), value]
        out = [] if key == "out" else ["--out", str(by_file)]
        file_run = self._verify_config(tmp_path, f"{key} = {value}\n", argv + out, by_file)
        flag_run = self._verify_config(tmp_path, "", argv + flag + ["--out", str(by_flag)],
                                       by_flag)
        assert file_run == flag_run
