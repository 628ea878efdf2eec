import math

import pytest

from oracles import (
    billiard_ab_forms,
    conic_from_canonical,
    tangency_residual,
    three_periodic_orbit,
)
from porism_lab.billiard import (
    BilliardConfig,
    billiard_rho,
    caustic_axes,
    cb_axes_normalized,
    foci_locus_check,
    normalize_sample,
    reflection_law_residual,
)
from porism_lab.centers import center
from porism_lab.conics import circumconic_centered
from porism_lab.errors import CircularBilliard, InvalidRatio
from porism_lab.geom import CanonicalConic, ConicKind, Point, canonicalize, distance, foci
from porism_lab.poristic import (
    config_from_rR,
    config_from_rho,
    named_conic,
    sample,
    theta_closed_form,
    x9_closed_form,
)
from porism_lab.report import _BY_NAME

EB_15 = BilliardConfig(1.5, 1.0)
RHO_GRID = (0.05, 0.2, 0.36266, 0.49)


class TestRhoMap:
    def test_circular_limit(self):
        assert billiard_rho(BilliardConfig(1.0, 1.0)) == 0.5

    def test_reference_axes(self):
        rho = billiard_rho(EB_15)
        assert rho == pytest.approx(0.3626596629429206, rel=1e-14)
        assert 0.36265 < rho < 0.36267

    def test_two_one(self):
        # Direct evaluation: delta = sqrt(13), c^4 = (a^2 - b^2)^2 = 9.
        delta = math.sqrt(13.0)
        cfg = BilliardConfig(2.0, 1.0)
        assert billiard_rho(cfg) == pytest.approx(2 * (delta - 1) * (4 - delta) / 9, rel=1e-14)

    def test_rho_aspect_round_trip(self):
        for a, b in ((1.5, 1.0), (2.0, 1.0), (1.1, 1.0)):
            rho = billiard_rho(BilliardConfig(a, b))
            a9, b9, _ = cb_axes_normalized(rho)
            assert a9 / b9 == pytest.approx(a / b, rel=1e-10)


class TestCaustic:
    def test_reference_values(self):
        ac, bc = caustic_axes(EB_15)
        assert ac == pytest.approx(1.1430749, abs=1e-7)
        assert bc == pytest.approx(0.2379501, abs=1e-7)

    def test_interior(self):
        ac, bc = caustic_axes(EB_15)
        assert 0 < bc < 1.0 and bc < ac < 1.5

    def test_circular_raises(self):
        with pytest.raises(CircularBilliard):
            caustic_axes(BilliardConfig(1.0, 1.0))

    @pytest.mark.parametrize("phi0", (0.3, 1.1, 2.5, 4.0))
    def test_reflective_orbit_tangent_to_caustic(self, phi0):
        orbit = three_periodic_orbit(EB_15, phi0)
        # Vertices on the billiard, sides tangent to the confocal caustic.
        for p in orbit.v:
            assert abs((p.x / 1.5) ** 2 + p.y ** 2 - 1) < 1e-11
        ac, bc = caustic_axes(EB_15)
        caustic = conic_from_canonical(
            CanonicalConic(Point(0, 0), 0.0, ac, bc, ConicKind.ELLIPSE))
        for i in range(3):
            assert abs(tangency_residual(caustic, orbit.side_line(i))) < 1e-9

    def test_orbit_satisfies_reflection_law(self):
        orbit = three_periodic_orbit(EB_15, 0.8)
        assert reflection_law_residual(orbit, 1.5, 1.0) < 1e-9


class TestNormalizedAxes:
    def test_equilateral_endpoint(self):
        a9, b9, c9 = cb_axes_normalized(0.5)
        assert a9 == pytest.approx(math.sqrt(3) / 9, rel=1e-14)
        assert b9 == pytest.approx(math.sqrt(3) / 9, rel=1e-14)
        assert c9 == 0.0

    def test_flat_trend(self):
        # a9 -> 1/4 and b9 -> 0 monotonically as rho -> 0.
        rhos = (0.05, 0.02, 0.01, 0.005)
        avals = [cb_axes_normalized(r)[0] for r in rhos]
        bvals = [cb_axes_normalized(r)[1] for r in rhos]
        assert all(x < y < 0.25 for x, y in zip(avals, avals[1:]))
        assert all(x > y > 0.0 for x, y in zip(bvals, bvals[1:]))

    def test_aspect_matches_circle_pair_form(self):
        cfg = config_from_rR(1.0, 0.36266)
        a9, b9, _ = cb_axes_normalized(cfg.rho)
        R, d = cfg.R, cfg.d
        expected = math.sqrt((R + d) * (3 * R - d) / ((R - d) * (3 * R + d)))
        assert a9 / b9 == pytest.approx(expected, rel=1e-12)

    def test_c9_consistent(self):
        for rho in RHO_GRID:
            a9, b9, c9 = cb_axes_normalized(rho)
            assert c9 == pytest.approx(math.sqrt(a9 ** 2 - b9 ** 2), rel=1e-12)

    @pytest.mark.parametrize("rho", (1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.49, 0.5))
    def test_axes_to_1e_15_relative(self, rho):
        # Against the closed forms at 50 digits: b9/L's rho + 1 - sqrt(1 - 2 rho)
        # cancels for small rho unless it is taken without the difference.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            r = mp.mpf(rho)
            s, den = mp.sqrt(1 - 2 * r), 2 * r + 8
            want = (mp.sqrt(2) * mp.sqrt(r + 1 + s) / den,
                    mp.sqrt(2) * mp.sqrt(r + 1 - s) / den, 2 * mp.sqrt(s) / den)
            for got, exact, name in zip(cb_axes_normalized(rho), want, ("a9", "b9", "c9")):
                assert abs(got - exact) <= 1e-15 * abs(exact), (name, got, exact)

    def test_invalid_rho(self):
        for rho in (0.0, -0.2, 0.51):
            with pytest.raises(InvalidRatio):
                cb_axes_normalized(rho)


class TestNormalization:
    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_samples_land_on_fixed_ellipse(self, rho):
        cfg = config_from_rho(rho)
        a9, b9, _ = cb_axes_normalized(rho)
        worst = 0.0
        for k in range(90):
            t = 2 * math.pi * k / 90
            tri = normalize_sample(cfg, sample(cfg, t))
            for p in tri.v:
                worst = max(worst, abs((p.x / a9) ** 2 + (p.y / b9) ** 2 - 1))
        assert worst < 1e-8

    def test_reflection_law(self):
        cfg = config_from_rho(0.2)
        a9, b9, _ = cb_axes_normalized(0.2)
        for k in range(45):
            t = 2 * math.pi * k / 45
            tri = normalize_sample(cfg, sample(cfg, t))
            assert reflection_law_residual(tri, a9, b9) < 1e-8

    def test_unit_perimeter(self):
        cfg = config_from_rho(0.36266)
        tri = normalize_sample(cfg, sample(cfg, 2.2))
        assert tri.perimeter() == pytest.approx(1.0, rel=1e-12)

    def test_closed_forms_reassemble_sample(self):
        # Dilating by the perimeter, rotating by theta(t) and translating to
        # X9(t) carries the normalized member back onto the sample.
        cfg = config_from_rho(0.2)
        s = sample(cfg, 1.7)
        angle, x9 = theta_closed_form(cfg, s.t), x9_closed_form(cfg, s.t)
        tri = normalize_sample(cfg, s)
        ca, sa = math.cos(angle), math.sin(angle)
        for u, p in zip(tri.v, s.triangle.v):
            x = s.perimeter * (ca * u.x - sa * u.y) + x9.x
            y = s.perimeter * (sa * u.x + ca * u.y) + x9.y
            assert distance(Point(x, y), p) < 1e-12

    def test_billiard_config_derives_its_constants(self):
        # The bits of sqrt(a**4 - a*a*b*b + b**4) and a*a - b*b.
        for a, b, delta, c2 in [
            (1.5, 1.0, "0x1.f3db2174e7468p+0", "0x1.4000000000000p+0"),
            (2.0, 1.0, "0x1.cd82b446159f3p+1", "0x1.8000000000000p+1"),
            (1.0, 1.0, "0x1.0000000000000p+0", "0x0.0p+0"),
            (3.7e40, 2.9e-12, "0x1.7177516974f67p+269", "0x1.7177516974f66p+269"),
            (7.3e-5, 7.2e-5, "0x1.6953b58e515dcp-28", "0x1.3edbbe4560320p-33"),
        ]:
            cfg = BilliardConfig(a, b)
            assert (cfg.delta.hex(), cfg.c2.hex()) == (delta, c2), (a, b)


class TestFociLocus:
    def test_degenerate_point_at_equilateral(self):
        cfg = config_from_rR(1.0, 0.5)
        ctr, radius = foci_locus_check(cfg)
        assert radius == 0.0
        assert distance(ctr, Point(0, 0)) == 0.0

    def test_center_on_axis(self):
        ctr, _ = foci_locus_check(config_from_rho(0.2))
        assert ctr.y == 0.0

    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_circumbilliard_foci_on_circle(self, rho):
        cfg = config_from_rho(rho)
        ctr, radius = foci_locus_check(cfg)
        worst = 0.0
        for k in range(90):
            t = 2 * math.pi * k / 90
            s = sample(cfg, t)
            can = canonicalize(circumconic_centered(s.triangle, center(s.triangle, 9)))
            for f in foci(can):
                worst = max(worst, abs(distance(f, ctr) - radius))
        assert worst < 1e-9


class TestCrossChecks:
    """Each (a, b) form of ``oracles.billiard_ab_forms`` against the closed
    form of its row in the quantity table, at the rho of the same axes."""

    @pytest.mark.parametrize("axes", ((1.5, 1.0), (2.0, 1.0), (1.1, 1.0)))
    def test_dual_forms_agree(self, axes):
        cfg = BilliardConfig(*axes)
        family = config_from_rho(billiard_rho(cfg))
        for name, ab_form in billiard_ab_forms(cfg):
            rho_form = _BY_NAME[name].expected(family)
            assert abs(ab_form - rho_form) < 1e-12 * rho_form, name

    def test_circular_limit_forms(self):
        cfg = BilliardConfig(1.0, 1.0)
        family = config_from_rho(billiard_rho(cfg))
        for name, ab_form in billiard_ab_forms(cfg):
            assert ab_form == pytest.approx(1.0, rel=1e-12), name
            assert _BY_NAME[name].expected(family) == pytest.approx(1.0, rel=1e-12), name

    def test_x3_aspect_equals_poristic_ratio(self):
        # The (a, b) form is the axis ratio of the family's I3x, measured on
        # its members.
        cfg = config_from_rho(billiard_rho(EB_15))
        ab_form = dict(billiard_ab_forms(EB_15))["ratio_i3x"]
        for t in (0.4, 2.1, 4.5):
            can = canonicalize(named_conic(cfg, t, "I3x"))
            assert can.semi_major / can.semi_minor == pytest.approx(ab_form, rel=1e-12)


class TestCancellationFree:
    """``billiard_rho`` and ``caustic_axes`` against their textbook forms
    evaluated at 60 digits, from thin billiards to nearly circular ones."""

    @pytest.mark.parametrize("a", (1 + 1e-8, 1.0001, 10.0, 1e2, 1e4, 1e6, 1e8))
    def test_against_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        cfg = BilliardConfig(a, 1.0)
        got = (billiard_rho(cfg), *caustic_axes(cfg))
        with mpmath.workdps(60):
            a2 = mpmath.mpf(a) ** 2
            delta = mpmath.sqrt(a2 * a2 - a2 + 1)
            c2 = a2 - 1
            want = (2 * (delta - 1) * (a2 - delta) / (c2 * c2),
                    mpmath.mpf(a) * (delta - 1) / c2, (a2 - delta) / c2)
            for name, g, w in zip(("rho", "a_c", "b_c"), got, want):
                assert abs(g - w) <= 1e-15 * w, name
