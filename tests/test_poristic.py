import math
from types import SimpleNamespace

import numpy as np
import pytest

from porism_lab.billiard import normalize_sample
from porism_lab.centers import center, side_lengths
from porism_lab.conics import inconic_from_tangents
from porism_lab.errors import AxisAtInfinity, GeometryError, InvalidRatio
from porism_lab.geom import (
    _MATH,
    ConicMatrix,
    Point,
    _canonical,
    _focal_step,
    _singular_block,
    _unit_line,
    canonicalize,
    conic_eval,
    distance,
    foci,
    power_of_point,
)
from porism_lab.poristic import (
    CONIC_TAGS,
    _excentral_lines,
    _i3x_coeffs,
    _perimeter,
    _theta,
    _vertices,
    _x9,
    FamilyAngleClass,
    antiorthic_axis,
    config_from_rR,
    config_from_rho,
    excentral_side_lines,
    i3x_implicit_matrix,
    is_obtuse,
    mittenpunkt_locus_circle,
    named_conic,
    obtuse_class,
    perimeter_closed_form,
    sample,
    theta_closed_form,
    weaver_circles,
    x9_closed_form,
)

CFG = config_from_rR(1.0, 0.36266)
RHO_GRID = (0.05, 0.2, 0.36266, 0.49)


class TestConfig:
    def test_equilateral_limit(self):
        cfg = config_from_rR(1.0, 0.5)
        assert cfg.d == 0.0
        assert cfg.rho == 0.5

    def test_reference_value(self):
        assert CFG.d == pytest.approx(0.5240992, abs=1e-7)

    def test_large_circle(self):
        cfg = config_from_rR(2.0, 0.1)
        assert cfg.d == pytest.approx(1.8973666, abs=1e-7)

    @pytest.mark.parametrize("R,r", [(1.0, 0.6), (1.0, 0.0), (1.0, -0.1), (0.0, 0.1)])
    def test_invalid_ratio(self, R, r):
        with pytest.raises(InvalidRatio):
            config_from_rR(R, r)


class TestSample:
    def test_t0_is_isosceles_about_x_axis(self):
        s = sample(CFG, 0.0)
        ys = sorted(p.y for p in s.triangle.v)
        assert ys[1] == 0.0
        assert ys[0] == pytest.approx(-ys[2], rel=1e-14)

    def test_poncelet_closure_random(self, rng):
        for _ in range(50):
            rho = rng.uniform(0.02, 0.5)
            cfg = config_from_rho(float(rho))
            t = float(rng.uniform(0, 2 * math.pi))
            s = sample(cfg, t)
            for p in s.triangle.v:
                assert abs(distance(p, Point(cfg.d, 0)) - cfg.R) < 1e-10
            x1 = Point(2 * cfg.d, 0)
            for i in range(3):
                assert abs(abs(s.triangle.side_line(i).eval(x1)) - cfg.r) < 1e-10

    def test_recomputed_radii_match_config(self, rng):
        for _ in range(20):
            cfg = config_from_rho(float(rng.uniform(0.05, 0.49)))
            s = sample(cfg, float(rng.uniform(0, 2 * math.pi)))
            sl = side_lengths(s.triangle).as_tuple()
            area = s.triangle.signed_area
            assert 2 * area / sum(sl) == pytest.approx(cfg.r, abs=1e-10)
            assert sl[0] * sl[1] * sl[2] / (4 * area) == pytest.approx(cfg.R, abs=1e-10)

    def test_omega_positive(self, rng):
        for _ in range(50):
            cfg = config_from_rho(float(rng.uniform(0.02, 0.5)))
            s = sample(cfg, float(rng.uniform(0, 2 * math.pi)))
            assert s.omega > 0


class TestClosedForms:
    def test_perimeter_equilateral_family_constant(self):
        cfg = config_from_rR(1.0, 0.5)
        for t in (0.0, 0.7, 2.9):
            assert perimeter_closed_form(cfg, t) == pytest.approx(3 * math.sqrt(3), rel=1e-14)

    def test_perimeter_matches_vertex_sum_bulk(self, rng):
        for _ in range(1000):
            cfg = config_from_rho(float(rng.uniform(0.02, 0.5)))
            t = float(rng.uniform(0, 2 * math.pi))
            s = sample(cfg, t)
            closed = perimeter_closed_form(cfg, t)
            assert abs(closed - s.perimeter) / s.perimeter < 1e-12

    def test_x9_closed_form_against_constructive(self):
        for rho in RHO_GRID:
            cfg = config_from_rho(rho)
            for k in range(100):
                t = 2 * math.pi * k / 100
                s = sample(cfg, t)
                assert distance(x9_closed_form(cfg, t), center(s.triangle, 9)) < 1e-9

    def test_theta_zero_at_symmetric_member(self):
        assert theta_closed_form(CFG, 0.0) == 0.0

    def test_theta_matches_circumbilliard_axis(self):
        from porism_lab.conics import circumconic_centered

        for rho in (0.2, 0.36266):
            cfg = config_from_rho(rho)
            for k in range(1, 60):
                t = 2 * math.pi * k / 60
                s = sample(cfg, t)
                can = canonicalize(circumconic_centered(s.triangle, center(s.triangle, 9)))
                gap = abs(math.remainder(theta_closed_form(cfg, t) - can.angle, math.pi))
                assert gap < 1e-8

    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("rho", [0.0021, 0.2])
    @pytest.mark.parametrize("R", [2e-82, 1e-100, 1.76e64, 1e100])
    def test_closed_forms_at_extreme_scale_raise_only_geometry_errors(self, R, rho, t):
        # With X9 and I3x evaluated in units of R none of them raises here;
        # one that did would have to raise a GeometryError.
        cfg = config_from_rR(R, rho * R)
        forms = (sample, perimeter_closed_form, x9_closed_form, theta_closed_form,
                 excentral_side_lines, i3x_implicit_matrix,
                 lambda cfg, t: normalize_sample(cfg, sample(cfg, t)))
        for form in forms:
            try:
                form(cfg, t)
            except GeometryError:
                pass

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("rho", [0.0021, 0.2])
    def test_x9_and_i3x_scale_with_R(self, rho, t):
        # X9 is a length, so it is R times the R = 1 point.  The I3x conic at
        # R is the R = 1 conic in units of R: its constant term carries R^2
        # against its quadratic part.  Both agree to 1e-13 of their largest
        # component at every decade of R that LabConfig accepts.
        unit = config_from_rho(rho)
        x9, m = x9_closed_form(unit, t).as_array(), i3x_implicit_matrix(unit, t).m
        for k in range(-100, 101):
            R = 10.0 ** k
            cfg = config_from_rR(R, rho * R)
            got = x9_closed_form(cfg, t).as_array()
            assert np.isfinite(got).all(), R
            assert np.abs(got - x9 * R).max() <= 1e-13 * np.abs(x9 * R).max(), R
            scaled = m.copy()
            scaled[2, 2] *= R * R
            scaled /= np.abs(scaled).max()
            got = i3x_implicit_matrix(cfg, t).m
            assert np.isfinite(got).all(), R
            assert np.abs(got - scaled).max() <= 1e-13, R

    def test_x9_locus_circle(self):
        for rho in RHO_GRID:
            cfg = config_from_rho(rho)
            locus = mittenpunkt_locus_circle(cfg)
            for k in range(100):
                t = 2 * math.pi * k / 100
                x9 = x9_closed_form(cfg, t)
                assert abs(distance(x9, locus.center) - locus.radius) < 1e-9


class TestAntiorthicAxis:
    def test_closed_form_intercept(self):
        axis = antiorthic_axis(CFG)
        expected = (3 * CFG.R ** 2 + CFG.d ** 2) / (2 * CFG.d)
        assert -axis.c / axis.a == pytest.approx(expected, rel=1e-14)
        assert axis.b == 0.0

    def test_constructive_collinearity(self):
        from porism_lab.errors import ParallelLines
        from porism_lab.geom import line_intersection

        axis = antiorthic_axis(CFG)
        for k in range(200):
            t = 2 * math.pi * (k + 0.5) / 200
            s = sample(CFG, t)
            for i in range(3):
                try:
                    q = line_intersection(s.triangle.side_line(i), s.excentral.side_line(i))
                except ParallelLines:
                    continue
                assert abs(axis.eval(q)) < 1e-9

    def test_x1155_on_axis(self):
        axis = antiorthic_axis(CFG)
        p = center(sample(CFG, 1.1).triangle, 1155)
        assert abs(axis.eval(p)) < 1e-9
        assert abs(p.y) < 1e-9

    def test_equilateral_family_axis_at_infinity(self):
        with pytest.raises(AxisAtInfinity):
            antiorthic_axis(config_from_rR(1.0, 0.5))


class TestWeaverCircles:
    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_power_identities(self, rho):
        cfg = config_from_rho(rho)
        axis = antiorthic_axis(cfg)
        p0 = Point(-axis.c / axis.a, 0.0)
        w_inc, w_circ = weaver_circles(cfg)
        assert power_of_point(p0, w_inc) == pytest.approx(
            power_of_point(p0, cfg.incircle), rel=1e-12)
        assert power_of_point(p0, w_circ) == pytest.approx(
            power_of_point(p0, cfg.circumcircle), rel=1e-12)
        assert power_of_point(p0, w_circ) == pytest.approx(
            power_of_point(p0, cfg.excentral_circle), rel=1e-12)

    def test_near_equilateral_domain_restriction(self):
        # Radii stay finite down to d = 1e-6 R; the closed forms blow up
        # like 1/sqrt(d) but remain well-defined.
        d = 1e-6
        r = (1 - d * d) / 2
        cfg = config_from_rR(1.0, r)
        w_inc, w_circ = weaver_circles(cfg)
        assert math.isfinite(w_inc.radius) and w_inc.radius > 0
        assert math.isfinite(w_circ.radius) and w_circ.radius > 0


class TestNamedConics:
    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            named_conic(CFG, 0.5, "E42")

    @pytest.mark.parametrize("t", (0.4, 1.7, 3.9))
    def test_i5x_stationary_ellipse(self, t):
        can = canonicalize(named_conic(CFG, t, "I5x"))
        assert distance(can.center, Point(CFG.d, 0)) < 1e-9
        assert can.semi_major == pytest.approx(CFG.R, abs=1e-9)
        assert can.semi_minor == pytest.approx(math.sqrt(CFG.R ** 2 - CFG.d ** 2), abs=1e-9)
        assert abs(can.angle) < 1e-8
        f1, f2 = foci(can)
        lo, hi = sorted([f1, f2], key=lambda p: p.x)
        assert distance(lo, Point(0, 0)) < 1e-9
        assert distance(hi, Point(2 * CFG.d, 0)) < 1e-9

    @pytest.mark.parametrize("t", (0.4, 1.7, 3.9))
    def test_e1_i3x_twins(self, t):
        e1 = canonicalize(named_conic(CFG, t, "E1"))
        i3 = canonicalize(named_conic(CFG, t, "I3x"))
        for can in (e1, i3):
            assert can.semi_major == pytest.approx(CFG.R + CFG.d, abs=1e-9)
            assert can.semi_minor == pytest.approx(CFG.R - CFG.d, abs=1e-9)
        gap = abs(math.remainder(e1.angle - i3.angle, math.pi))
        assert abs(gap - math.pi / 2) < 1e-8

    def test_x100_memberships(self):
        s = sample(CFG, 1.3)
        x100 = center(s.triangle, 100)
        for tag in ("E1", "E9", "I3x"):
            conic = named_conic(CFG, 1.3, tag, s)
            assert abs(conic_eval(conic, x100)) < 1e-9

    def test_e3x_is_excentral_circumcircle(self):
        can = canonicalize(named_conic(CFG, 2.1, "E3x"))
        assert distance(can.center, Point(0, 0)) < 1e-9
        assert can.semi_major == pytest.approx(2 * CFG.R, abs=1e-9)
        assert can.semi_minor == pytest.approx(2 * CFG.R, abs=1e-9)

    def test_aspect_ratio_invariants(self):
        R, d = CFG.R, CFG.d
        expected = {
            "I5x": 1 / math.sqrt(2 * CFG.rho),
            "I3x": (R + d) / (R - d),
            "E1": (R + d) / (R - d),
            "E10": math.sqrt((R + d) / (R - d)),
            "E5x": math.sqrt((R + d) / (R - d)),
            "E6x": math.sqrt((R + d) * (3 * R + d) / ((3 * R - d) * (R - d))),
            "E9": math.sqrt((R + d) * (3 * R - d) / ((R - d) * (3 * R + d))),
        }
        ratios = {tag: [] for tag in expected}
        ratios["I9"] = []
        for k in range(48):
            t = 2 * math.pi * (k + 0.31) / 48
            s = sample(CFG, t)
            for tag in ratios:
                can = canonicalize(named_conic(CFG, t, tag, s))
                ratios[tag].append(can.semi_major / can.semi_minor)
        for tag, vals in ratios.items():
            spread = (max(vals) - min(vals)) / (sum(vals) / len(vals))
            assert spread < 1e-9, tag
            if tag in expected:
                assert vals[0] == pytest.approx(expected[tag], rel=1e-9), tag

    def test_axes_mutually_parallel_mod_half_pi(self):
        for k in range(24):
            t = 2 * math.pi * (k + 0.5) / 24
            s = sample(CFG, t)
            angles = []
            for tag in ("E9", "E10", "E5x", "E6x", "I3x"):
                angles.append(canonicalize(named_conic(CFG, t, tag, s)).angle)
            for i, a in enumerate(angles):
                for b in angles[i + 1:]:
                    gap = abs(math.remainder(a - b, math.pi / 2))
                    assert gap < 1e-8

    def test_all_tags_construct(self):
        s = sample(CFG, 0.77)
        for tag in CONIC_TAGS:
            named_conic(CFG, 0.77, tag, s)


class TestDualRoute:
    def test_lemma_vs_implicit_matrix(self):
        # I3x from the tangent lines against its closed-form matrix, up to
        # sign, at 24 shifted t for each rho of RHO_GRID and three small rho.
        grid = [(rho, 2 * math.pi * (k + 0.2) / 24)
                for rho in (*RHO_GRID, 1e-2, 1e-3, 1e-4) for k in range(24)]
        for rho, t in grid:
            cfg = config_from_rho(rho)
            m1 = inconic_from_tangents(*excentral_side_lines(cfg, t)).m
            m2 = i3x_implicit_matrix(cfg, t).m
            assert min(np.abs(m1 - m2).max(), np.abs(m1 + m2).max()) < 1e-9, (rho, t)

    def test_implicit_matrix_canonical_axes(self):
        can = canonicalize(i3x_implicit_matrix(CFG, 5.0))
        assert can.semi_major == pytest.approx(CFG.R + CFG.d, rel=1e-12)
        assert can.semi_minor == pytest.approx(CFG.R - CFG.d, rel=1e-12)


class TestObtuseness:
    def test_right_family(self):
        cfg = config_from_rho(math.sqrt(2) - 1)
        assert obtuse_class(cfg) is FamilyAngleClass.CONTAINS_RIGHT

    def test_acute_family(self):
        assert obtuse_class(config_from_rho(0.45)) is FamilyAngleClass.ALL_ACUTE

    def test_obtuse_family(self):
        assert obtuse_class(config_from_rho(0.2)) is FamilyAngleClass.CONTAINS_OBTUSE

    def test_member_classification_consistent_with_family(self):
        acute_cfg = config_from_rho(0.45)
        assert not any(is_obtuse(sample(acute_cfg, 2 * math.pi * k / 64)) for k in range(64))
        mixed_cfg = config_from_rho(0.2)
        flags = {is_obtuse(sample(mixed_cfg, 2 * math.pi * k / 64)) for k in range(64)}
        assert flags == {True, False}


@pytest.mark.parametrize("R", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("rho", [0.005, 0.2, 0.49])
def test_float_cores_match_50_digits(mp_math, rho, R):
    """Each core of the closed forms, evaluated in floats (``geom._MATH``),
    against the same core in 50-digit mpmath on the same R and r, with d
    from them in mpmath; the line and focus cores of ``geom`` on float
    inputs; and the canonical-form core of ``geom`` on the I3x coefficients
    of each side.  The forward error of every result (a point, a line, a
    conic, a number) is at most 1e-12 of its largest component, the axis
    angle's next to t = 0 as well."""
    mpf = pytest.importorskip("mpmath").mpf
    cfg = config_from_rR(R, rho * R)
    mp_R, mp_r = mpf(cfg.R), mpf(cfg.r)
    mp_cfg = SimpleNamespace(R=mp_R, r=mp_r, d=mp_math.sqrt(mp_R * (mp_R - 2 * mp_r)),
                             rho=mp_r / mp_R)

    failed = []

    def check(name, got, want):
        got, want = _flat(got), _flat(want)
        bound = 1e-12 * max(abs(w) for w in want)  # in mpmath, which cannot overflow
        if not all(abs(g - w) <= bound for g, w in zip(got, want, strict=True)):
            failed.append(name)

    for t in (0.5, 2.0):
        for core in (_vertices, _perimeter, _x9, _theta, _excentral_lines, _i3x_coeffs):
            got, want = core(cfg, t, _MATH), core(mp_cfg, mpf(t), mp_math)
            # _vertices gives omega and three points, _excentral_lines three lines.
            split = core in (_vertices, _excentral_lines)
            for i, (g, w) in enumerate(zip(got, want) if split else [(got, want)]):
                check((core.__name__, i, t), g, w)
        for i, abc in enumerate(_excentral_lines(cfg, t, _MATH)):
            check(("_unit_line", i, t), _unit_line(*abc, _MATH),
                  _unit_line(*map(mpf, abc), mp_math))
        # The I3x axes R + d and R - d along the circumbilliard angle, as an
        # ellipse and as a hyperbola.
        axes = (cfg.R + cfg.d, cfg.R - cfg.d, _theta(cfg, t, _MATH))
        for hyperbola in (False, True):
            check(("_focal_step", hyperbola, t), _focal_step(*axes, hyperbola, _MATH),
                  _focal_step(*map(mpf, axes), hyperbola, mp_math))
        # The canonical form of I3x, its coefficients normalized as
        # ConicMatrix normalizes them, where its float block is not singular
        # (at R = 1e100 it underflows to det2 = 0).  Not at rho = 0.005,
        # where it reads 3.3e-12: I3x's axis ratio of about 400 puts it on
        # the eps q^2 floor of the float conic (ROADMAP item 11).
        coeffs = ConicMatrix.from_coeffs(*_i3x_coeffs(cfg, t, _MATH)).c
        det2, singular = _singular_block(*coeffs[:3], _MATH)
        if not singular and rho != 0.005:
            exact = _i3x_coeffs(mp_cfg, mpf(t), mp_math)
            top = max(map(abs, exact))
            exact = [c / top for c in exact]
            check(("_canonical", t), _canonical(*coeffs, det2, _MATH),
                  _canonical(*exact, _singular_block(*exact[:3], mp_math)[0], mp_math))
    # The axis angle next to the isosceles member, where both atan2
    # arguments vanish with t.
    for t in (1e-6, 1e-7):
        check(("_theta", t), _theta(cfg, t, _MATH), _theta(mp_cfg, mpf(t), mp_math))
    assert not failed


def _flat(x):
    return [y for item in x for y in _flat(item)] if isinstance(x, tuple) else [x]
