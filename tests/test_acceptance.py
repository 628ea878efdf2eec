"""Acceptance suite: every family-level claim at its stated tolerance.

Default grid: rho in {0.05, 0.2, 0.36266, 0.49} with 720 t-samples per
family; each criterion prints one PASS line when it holds.
"""

import math

import pytest

from conftest import random_triangle
from oracles import billiard_ab_forms
from porism_lab.billiard import BilliardConfig, billiard_rho, cb_axes_normalized
from porism_lab.centers import center, side_lengths
from porism_lab.conics import brianchon_point, circumconic_centered
from porism_lab.geom import Point, canonicalize, distance
from porism_lab.poristic import config_from_rho, perimeter_closed_form, sample
from porism_lab.report import _BY_NAME, LabConfig, run_verify

RHO_GRID = (0.05, 0.2, 0.36266, 0.49)
T_SAMPLES = 720


@pytest.fixture(scope="module")
def verify_results():
    return {rho: run_verify(LabConfig(R=1.0, r=rho, t_samples=T_SAMPLES))
            for rho in RHO_GRID}


def _rows(verify_results, rho):
    return {r.quantity: r for r in verify_results[rho].reports}


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_criterion_01_poncelet_closure(verify_results):
    worst = 0.0
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        for q in ("circumcircle_residual", "incircle_residual"):
            assert rows[q].samples == T_SAMPLES
            assert rows[q].max < 1e-10, (rho, q)
            worst = max(worst, rows[q].max)
    _report("criterion 1 (poncelet closure)",
            f"max residual {worst:.3e} < 1e-10 on {len(RHO_GRID)}x{T_SAMPLES} samples")


def test_criterion_02_excentral_caustic_stationary(verify_results):
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        rows = _rows(verify_results, rho)
        assert rows["i5x_stationarity"].max < 1e-10
        assert rows["i5x_center_gap"].max < 1e-9
        assert abs(rows["eta_i5x"].mean - cfg.R) < 1e-9
        assert abs(rows["zeta_i5x"].mean - math.sqrt(cfg.R ** 2 - cfg.d ** 2)) < 1e-9
        assert rows["eta_i5x"].spread_rel < 1e-9
        assert rows["zeta_i5x"].spread_rel < 1e-9
        assert rows["i5x_foci_gap"].max < 1e-9
    _report("criterion 2 (stationary excentral caustic)",
            "center (d,0), semi-axes (R, sqrt(R^2-d^2)), foci at X40 and X1 within 1e-9")


def test_criterion_03_excentral_inconic_axes(verify_results):
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        rows = _rows(verify_results, rho)
        for name, expected in (("eta_i3x", cfg.R + cfg.d), ("zeta_i3x", cfg.R - cfg.d)):
            assert abs(rows[name].min - expected) < 1e-9
            assert abs(rows[name].max - expected) < 1e-9
        assert rows["i3x_implicit_gap"].max < 1e-9
    _report("criterion 3 (excentral inconic)",
            "semi-axes (R+d, R-d) for all t; the pass's I3x matches the implicit form < 1e-9")


def test_criterion_04_incenter_circumconic(verify_results):
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        rows = _rows(verify_results, rho)
        for name, expected in (("eta_e1", cfg.R + cfg.d), ("zeta_e1", cfg.R - cfg.d)):
            assert abs(rows[name].min - expected) < 1e-9
            assert abs(rows[name].max - expected) < 1e-9
        assert rows["e1_i3x_axis_gap"].max < 1e-8
        assert rows["e1_x100_eval"].max < 1e-9
    _report("criterion 4 (incenter circumconic)",
            "semi-axes (R+d, R-d); axes a quarter-turn from the excentral inconic; passes through X100")


def test_criterion_05_sqrt_aspect_pair(verify_results):
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        expected = math.sqrt((cfg.R + cfg.d) / (cfg.R - cfg.d))
        rows = _rows(verify_results, rho)
        for name in ("ratio_e10", "ratio_e5x"):
            assert rows[name].spread_rel < 1e-9
            assert abs(rows[name].mean - expected) < 1e-9 * expected
    _report("criterion 5 (spieker and excentral-X5 circumconics)",
            "aspect ratios invariant and equal to sqrt((R+d)/(R-d)) within 1e-9")


def test_criterion_06_similarity_bridge(verify_results):
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        assert rows["billiard_ellipse_residual"].max < 1e-8
        assert rows["reflection_law_gap"].max < 1e-8
    # Normalized circumbilliard semi-axes agree with the closed form.
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        a9, b9, _ = cb_axes_normalized(rho)
        for k in range(16):
            t = 2 * math.pi * (k + 0.37) / 16
            s = sample(cfg, t)
            can = canonicalize(circumconic_centered(s.triangle, center(s.triangle, 9)))
            assert abs(can.semi_major / s.perimeter - a9) < 1e-8
            assert abs(can.semi_minor / s.perimeter - b9) < 1e-8
    # Endpoints of the normalized-axes map.
    a_half, b_half, _ = cb_axes_normalized(0.5)
    assert abs(a_half - math.sqrt(3) / 9) < 1e-15
    assert abs(b_half - math.sqrt(3) / 9) < 1e-15
    a_small = [cb_axes_normalized(r)[0] for r in (0.05, 0.02, 0.01)]
    b_small = [cb_axes_normalized(r)[1] for r in (0.05, 0.02, 0.01)]
    assert a_small[0] < a_small[1] < a_small[2] < 0.25
    assert b_small[0] > b_small[1] > b_small[2] > 0.0
    _report("criterion 6 (similarity bridge)",
            "normalized members sit on the fixed billiard (1e-8) and obey the "
            "reflection law (1e-8 rad); endpoints sqrt(3)/9 and (1/4, 0)")


def test_criterion_07_circumbilliard_foci_circle(verify_results):
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        assert rows["cb_foci_circle_gap"].samples == T_SAMPLES
        assert rows["cb_foci_circle_gap"].max < 1e-9
    _report("criterion 7 (circumbilliard focus locus)",
            "foci stay on the predicted circle within 1e-9")


def test_criterion_08_excentral_symmedian_circumconic(verify_results):
    for rho in RHO_GRID:
        cfg = config_from_rho(rho)
        R, d = cfg.R, cfg.d
        expected = math.sqrt((R + d) * (3 * R + d) / ((3 * R - d) * (R - d)))
        rows = _rows(verify_results, rho)
        assert rows["ratio_e6x"].spread_rel < 1e-9
        assert abs(rows["ratio_e6x"].mean - expected) < 1e-9 * expected
        assert rows["e6x_e9_center_gap"].max < 1e-9
        assert rows["e6x_e9_axis_gap"].max < 1e-8
    _report("criterion 8 (excentral symmedian circumconic)",
            "aspect sqrt((R+d)(3R+d)/((3R-d)(R-d))), concentric and axis-parallel "
            "with the circumbilliard")


def test_criterion_09_focal_length_ratio(verify_results):
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        expected = math.sqrt(2.0 / rho)
        row = rows["gamma_ratio"]
        assert abs(row.min - expected) < 1e-7 * expected
        assert abs(row.max - expected) < 1e-7 * expected
        assert row.samples == T_SAMPLES - 2  # t = 0, pi excluded
    _report("criterion 9 (circumhyperbola focal lengths)",
            "ratio equals sqrt(2/rho) within 1e-7 at every sample, "
            "isosceles members excluded")


def test_criterion_10_antiorthic_axis_and_weaver(verify_results):
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        spread_abs = rows["antiorthic_intercept"].max - rows["antiorthic_intercept"].min
        assert spread_abs < 1e-10 * abs(rows["antiorthic_intercept"].mean)
        assert rows["antiorthic_axis_gap"].max < 1e-9
        for name in ("weaver_incircle_power_gap", "weaver_circumcircle_power_gap",
                     "weaver_excentral_power_gap"):
            assert rows[name].max < 1e-10
    _report("criterion 10 (antiorthic axis and equal-power circles)",
            "stationary axis matches the side-line construction < 1e-9; "
            "both power identities hold < 1e-10")


def test_criterion_11_perimeter_closed_form(verify_results):
    for rho in RHO_GRID:
        rows = _rows(verify_results, rho)
        assert rows["perimeter_closed_rel_err"].max < 1e-12
    _report("criterion 11 (perimeter closed form)",
            "relative error vs the vertex sum < 1e-12 everywhere sampled")


def test_criterion_12_billiard_cross_checks():
    rho = billiard_rho(BilliardConfig(1.5, 1.0))
    assert 0.36265 <= rho <= 0.36267
    for axes in ((1.5, 1.0), (2.0, 1.0), (1.1, 1.0)):
        cfg = BilliardConfig(*axes)
        family = config_from_rho(billiard_rho(cfg))
        for name, ab_form in billiard_ab_forms(cfg):
            rho_form = _BY_NAME[name].expected(family)
            assert abs(ab_form - rho_form) < 1e-12 * rho_form, (axes, name)
    _report("criterion 12 (billiard-side cross checks)",
            f"rho(1.5, 1) = {rho:.6f}; (a, b) forms of ratio_i3x, ratio_e1 and ratio_i5x "
            "within 1e-12 of the table's closed forms at three axis pairs")


def test_criterion_13_brianchon_gergonne(rng):
    worst = 0.0
    for _ in range(100):
        t = random_triangle(rng)
        s = side_lengths(t).as_tuple()
        w = (1 / (s[1] + s[2] - s[0]), 1 / (s[2] + s[0] - s[1]), 1 / (s[0] + s[1] - s[2]))
        total = sum(w)
        gergonne = Point(sum(wi * p.x for wi, p in zip(w, t.v)) / total,
                         sum(wi * p.y for wi, p in zip(w, t.v)) / total)
        bp = brianchon_point(t, lambda s1, s2, s3: s2 * s3)
        worst = max(worst, distance(bp, gergonne))
        assert worst < 1e-10
    _report("criterion 13 (brianchon perspector)",
            f"incircle selector maps to the Gergonne point; worst gap {worst:.3e} < 1e-10")


def test_criterion_14_mutation_sanity(tmp_path):
    from porism_lab.cli import main

    code = main(["verify", "--rho", "0.36266", "--t-samples", str(T_SAMPLES),
                 "--inject-perturbation", "1e-6", "--out", str(tmp_path)])
    assert code == 1
    clean = main(["verify", "--rho", "0.36266", "--t-samples", str(T_SAMPLES),
                  "--out", str(tmp_path)])
    assert clean == 0
    _report("criterion 14 (mutation sanity)",
            "a 1e-6 vertex perturbation flips the verify exit status to 1")
