import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_triangle
from oracles import tangency_residual
from porism_lab.centers import center, excentral, side_lengths
from porism_lab.conics import (
    brianchon_point,
    centered_conics_batch,
    circumconic_centered,
    hyperbola_focal_length,
    inconic_centered,
    inconic_from_tangents,
)
from porism_lab.errors import (
    DegenerateConic,
    NotAHyperbola,
    ParallelTangents,
    PassLog,
    PerspectorAtInfinity,
)
from porism_lab.geom import (
    ConicKind,
    Line,
    Point,
    Triangle,
    canonicalize,
    canonicalize_batch,
    conic_eval,
    distance,
    line_through,
)
from porism_lab.poristic import (
    config_from_rR,
    excentral_side_lines,
    i3x_implicit_matrix,
    sample,
)

EQUILATERAL = Triangle((Point(0, 0), Point(2, 0), Point(1, math.sqrt(3))))
RIGHT_345 = Triangle((Point(0, 0), Point(3, 0), Point(0, 4)))


def circle_tangent(phi: float) -> Line:
    """Tangent of the unit circle at angle phi."""
    return Line(math.cos(phi), math.sin(phi), -1.0)


class TestCircumconic:
    def test_equilateral_centroid_gives_circumcircle(self):
        c = center(EQUILATERAL, 3)
        can = canonicalize(circumconic_centered(EQUILATERAL, c))
        assert can.kind is ConicKind.ELLIPSE
        radius = 2 / math.sqrt(3)
        assert can.semi_major == pytest.approx(radius, rel=1e-12)
        assert can.semi_minor == pytest.approx(radius, rel=1e-12)

    def test_incidence_and_center_random(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            # Centroid-shaded interior point keeps the conic an ellipse.
            w = rng.dirichlet([3, 3, 3])
            ctr = Point(sum(wi * p.x for wi, p in zip(w, t.v)),
                        sum(wi * p.y for wi, p in zip(w, t.v)))
            conic = circumconic_centered(t, ctr)
            for p in t.v:
                assert abs(conic_eval(conic, p)) < 1e-10
            can = canonicalize(conic)
            scale = max(side_lengths(t).as_tuple())
            assert distance(can.center, ctr) < 1e-10 * scale

    def test_family_circumbilliard_through_vertices(self):
        cfg = config_from_rR(1.0, 0.36266)
        s = sample(cfg, 1.1)
        conic = circumconic_centered(s.triangle, center(s.triangle, 9))
        assert max(abs(conic_eval(conic, p)) for p in s.triangle.v) < 1e-12

    def test_family_incenter_circumconic_axes(self):
        # Frozen family invariant: semi-axes R +/- d at every t.
        cfg = config_from_rR(1.0, 0.36266)
        s = sample(cfg, 0.9)
        can = canonicalize(circumconic_centered(s.triangle, center(s.triangle, 1)))
        assert can.semi_major == pytest.approx(cfg.R + cfg.d, abs=1e-9)
        assert can.semi_minor == pytest.approx(cfg.R - cfg.d, abs=1e-9)

    def test_center_on_side_line_degenerates(self):
        t = RIGHT_345
        on_side = Point(1.5, 0.0)
        with pytest.raises(DegenerateConic):
            circumconic_centered(t, on_side)


class TestInconicFromTangents:
    def test_symmetric_tangents_of_unit_circle(self):
        A, B, C, _, _, D = inconic_from_tangents(circle_tangent(math.pi / 2),
                                                 circle_tangent(math.pi * 7 / 6),
                                                 circle_tangent(math.pi * 11 / 6)).c
        assert A == pytest.approx(C, rel=1e-12)
        assert B == pytest.approx(0, abs=1e-12 * abs(A))
        assert D / A == pytest.approx(-1, rel=1e-12)

    def test_rotated_tangents_keep_axes(self):
        # Rotate tangents of an axis-aligned ellipse; the canonical semi-axes
        # must survive and the cross term must appear.
        phis = (0.3, 2.0, 4.4)

        def ellipse_tangent(phi):
            return Line(math.cos(phi) / 2.0, math.sin(phi), -1.0)

        base = inconic_from_tangents(*[ellipse_tangent(p) for p in phis])
        can0 = canonicalize(base)
        rot = 0.7
        ca, sa = math.cos(rot), math.sin(rot)

        def rotated_tangent(phi):
            a, b, c = math.cos(phi) / 2.0, math.sin(phi), -1.0
            return Line(ca * a - sa * b, sa * a + ca * b, c)

        turned = inconic_from_tangents(*[rotated_tangent(p) for p in phis])
        assert abs(turned.c[1]) > 1e-6 * abs(turned.c[0])
        can1 = canonicalize(turned)
        assert can1.semi_major == pytest.approx(can0.semi_major, rel=1e-10)
        assert can1.semi_minor == pytest.approx(can0.semi_minor, rel=1e-10)

    def test_lines_are_tangent_to_result(self):
        lines = [circle_tangent(p) for p in (0.5, 2.4, 4.0)]
        conic = inconic_from_tangents(*lines)
        for line in lines:
            assert abs(tangency_residual(conic, line)) < 1e-12

    def test_excentral_lines_match_implicit_form(self):
        for r in (0.1, 0.36266, 0.45):
            cfg = config_from_rR(1.0, r)
            for t in (0.3, 1.2, 2.8, 5.0):
                m1 = inconic_from_tangents(*excentral_side_lines(cfg, t)).m
                m2 = i3x_implicit_matrix(cfg, t).m
                gap = min(np.abs(m1 - m2).max(), np.abs(m1 + m2).max())
                assert gap < 1e-9

    def test_parallel_tangents_raise(self):
        with pytest.raises(ParallelTangents):
            inconic_from_tangents(Line(1, 0, -1), Line(1, 0, 1), Line(0, 1, -1))

    def test_tangents_through_the_center_raise(self):
        # Lines through the origin (c = 0) leave no quadratic part.
        with pytest.raises(DegenerateConic, match="quadratic part vanishes"):
            inconic_from_tangents(Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0))

    def test_degenerate_center_fails_canonicalization(self):
        # A center on a medial line makes the tangent conic degenerate: its
        # D is roundoff around zero and the conic has no canonical form.
        conic = inconic_centered(RIGHT_345, Point(1.5, -0.5))
        with pytest.raises(DegenerateConic):
            canonicalize(conic)

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_coefficients_do_not_depend_on_line_orientation(self, coeffs):
        # ``Line`` stores one orientation, so the lines here are plain
        # (a, b, c) records: the scalar twin reads only those.  Float
        # equality is bitwise equality here, except that it lets a zero D
        # keep the sign of the product of its four factors.
        try:
            want = inconic_from_tangents(*(SimpleNamespace(a=a, b=b, c=c)
                                           for a, b, c in coeffs)).c
        except (ParallelTangents, DegenerateConic):
            return
        for signs in itertools.product((1.0, -1.0), repeat=3):
            got = inconic_from_tangents(*(SimpleNamespace(a=s * a, b=s * b, c=s * c)
                                          for s, (a, b, c) in zip(signs, coeffs)))
            assert got.c == want, signs

    @given(st.tuples(st.floats(0.1, 1.5), st.floats(2.2, 3.6), st.floats(4.2, 5.8)),
           st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_tangency_discriminant_identity(self, phis, sx, sy):
        # Tangents of an axis-aligned ellipse: x cos(p)/sx + y sin(p)/sy = 1.
        lines = [Line(math.cos(p) / sx, math.sin(p) / sy, -1.0) for p in phis]
        A, B, C, _, _, D = inconic_from_tangents(*lines).c
        norm = max(abs(A), abs(B), abs(C), abs(D))
        det2 = A * C - B * B
        for line in lines:
            a, b, c = line.a, line.b, line.c
            resid = det2 * c * c + (A * b * b - 2 * B * a * b + C * a * a) * D
            assert abs(resid) < 1e-10 * norm * norm


class TestInconicCentered:
    def test_incenter_gives_incircle(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            x1 = center(t, 1)
            can = canonicalize(inconic_centered(t, x1))
            s = side_lengths(t).as_tuple()
            inradius = 2 * t.signed_area / sum(s)
            assert can.semi_major == pytest.approx(inradius, abs=1e-10 * inradius)
            assert can.semi_minor == pytest.approx(inradius, abs=1e-10 * inradius)

    def test_sides_tangent(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            conic = inconic_centered(t, center(t, 1))
            for i in range(3):
                assert abs(tangency_residual(conic, t.side_line(i))) < 1e-10

    def test_excentral_macbeath_is_stationary_caustic(self):
        cfg = config_from_rR(1.0, 0.36266)
        for t in (0.4, 1.9, 4.2):
            s = sample(cfg, t)
            can = canonicalize(inconic_centered(s.excentral, center(s.triangle, 3)))
            assert distance(can.center, Point(cfg.d, 0)) < 1e-10
            assert can.semi_major == pytest.approx(cfg.R, abs=1e-10)
            assert can.semi_minor == pytest.approx(math.sqrt(cfg.R ** 2 - cfg.d ** 2), abs=1e-10)

    def test_excentral_bevan_inconic_axes(self):
        cfg = config_from_rR(1.0, 0.36266)
        for t in (0.4, 1.9, 4.2):
            s = sample(cfg, t)
            can = canonicalize(inconic_centered(s.excentral, Point(0, 0)))
            assert can.semi_major == pytest.approx(cfg.R + cfg.d, abs=1e-10)
            assert can.semi_minor == pytest.approx(cfg.R - cfg.d, abs=1e-10)

    def test_center_outside_ellipse_regions_yields_hyperbola_not_error(self):
        can = canonicalize(inconic_centered(RIGHT_345, Point(1.4, 2.5)))
        assert can.kind is ConicKind.HYPERBOLA
        # Still tangent to all three side lines.
        conic = inconic_centered(RIGHT_345, Point(1.4, 2.5))
        for i in range(3):
            assert abs(tangency_residual(conic, RIGHT_345.side_line(i))) < 1e-10


#: Width of the bands left out of the region rule, in normalized
#: barycentrics: |(1 - 2u)(1 - 2v)(1 - 2w)| below it (the midlines, where the
#: conic turns into a parabola) and min(|u|, |v|, |w|) below it (the side
#: lines, where both conics degenerate into line pairs).  Fixed, not fitted:
#: it is nine orders of magnitude above the kernel's 1e-12 classification
#: thresholds, so outside it no decision is left to rounding.
REGION_BAND = 1e-3


class TestRegionRule:
    """PAPER.md: an inconic, like a circumconic, is an ellipse if its center
    is interior to the four ellipse regions of the midline arrangement, and a
    hyperbola otherwise.  For the center's normalized barycentrics (u, v, w)
    that reads: an ellipse iff (1 - 2u)(1 - 2v)(1 - 2w) > 0.  Both twins'
    classification is held to it outside ``REGION_BAND``."""

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
    @example(0, 1 / 3, 1 / 3)       # centroid, in the medial triangle: ellipse
    @example(1, 0.8, 0.8)           # u, v > 1/2, an outer ellipse region
    @example(2, 0.6, 0.3)           # in the triangle, off the medial one: hyperbola
    @example(3, 2.0, -0.5)          # beyond vertex A: hyperbola
    @settings(max_examples=300, deadline=None)
    def test_ellipse_iff_the_midline_product_is_positive(self, seed, u, v):
        w = 1.0 - u - v
        product = (1 - 2 * u) * (1 - 2 * v) * (1 - 2 * w)
        assume(abs(product) >= REGION_BAND and min(abs(u), abs(v), abs(w)) >= REGION_BAND)
        t = random_triangle(np.random.default_rng(seed))
        (ax, ay), (bx, by), (cx, cy) = ((p.x, p.y) for p in t.v)
        c = Point(u * ax + v * bx + w * cx, u * ay + v * by + w * cy)
        ellipse = product > 0
        for build in (circumconic_centered, inconic_centered):
            assert (canonicalize(build(t, c)).kind is ConicKind.ELLIPSE) == ellipse, build

        system = [(np.array([[[ax, ay], [bx, by], [cx, cy]]]), np.array([[c.x, c.y]]))]
        log = PassLog([0.0])
        can = canonicalize_batch(centered_conics_batch(system, system, log), log)
        assert list(~can.hyperbola & (can.semi_major > 0)) == [ellipse, ellipse]


class TestBrianchon:
    def test_incircle_maps_to_gergonne(self, rng):
        # 100 random triangles; oracle is the explicit Gergonne barycentrics.
        for _ in range(100):
            t = random_triangle(rng)
            s = side_lengths(t).as_tuple()
            w = (1 / (s[1] + s[2] - s[0]), 1 / (s[2] + s[0] - s[1]), 1 / (s[0] + s[1] - s[2]))
            total = sum(w)
            gergonne = Point(sum(wi * p.x for wi, p in zip(w, t.v)) / total,
                             sum(wi * p.y for wi, p in zip(w, t.v)) / total)
            bp = brianchon_point(t, lambda s1, s2, s3: s2 * s3)
            assert distance(bp, gergonne) < 1e-10

    def test_equilateral_gives_centroid(self):
        bp = brianchon_point(EQUILATERAL, lambda s1, s2, s3: s2 * s3 + 0.5 * s1 * s1)
        assert distance(bp, Point(1, 1 / math.sqrt(3))) < 1e-12

    def test_cevians_hit_incircle_contact_points(self):
        t = RIGHT_345
        bp = brianchon_point(t, lambda s1, s2, s3: s2 * s3)
        x1 = center(t, 1)
        for i in range(3):
            side = t.side_line(i)
            contact = Point(x1.x - side.a * side.eval(x1), x1.y - side.b * side.eval(x1))
            assert abs(side.eval(contact)) < 1e-14
            cevian = line_through(t.v[i], contact)
            assert abs(cevian.eval(bp)) < 1e-9

    def test_mandart_maps_to_nagel(self, rng):
        # Second known pair: X9-centered inconic has perspector X8.
        for _ in range(20):
            t = random_triangle(rng)
            s = side_lengths(t).as_tuple()
            w = (s[1] + s[2] - s[0], s[2] + s[0] - s[1], s[0] + s[1] - s[2])
            total = sum(w)
            nagel = Point(sum(wi * p.x for wi, p in zip(w, t.v)) / total,
                          sum(wi * p.y for wi, p in zip(w, t.v)) / total)
            bp = brianchon_point(t, lambda s1, s2, s3: 1.0 / (s1 * (s2 + s3 - s1)))
            assert distance(bp, nagel) < 1e-10

    def test_perspector_at_infinity(self):
        # Craft center barycentrics u = (2, 1, 1): then u2 + u3 - u1 = 0 and
        # the first perspector coordinate escapes to infinity.
        with pytest.raises(PerspectorAtInfinity):
            brianchon_point(RIGHT_345, lambda s1, s2, s3: 0.5 if s1 == 5.0 else 1.0)


class TestHyperbolaFocalLength:
    def test_feuerbach_circumconic_is_hyperbola(self):
        cfg = config_from_rR(1.0, 0.36266)
        for t in (0.4, 2.1, 5.2):
            s = sample(cfg, t)
            gamma = hyperbola_focal_length(s.triangle, center(s.triangle, 11))
            assert gamma > 0

    def test_focal_length_ratio_matches_rho_form(self):
        cfg = config_from_rR(1.0, 0.36266)
        expected = math.sqrt(2.0 / cfg.rho)
        assert expected == pytest.approx(2.34837, abs=1e-5)
        for t in (0.9, 2.2):
            s = sample(cfg, t)
            g_feu = hyperbola_focal_length(s.triangle, center(s.triangle, 11))
            g_jer = hyperbola_focal_length(s.excentral, center(s.triangle, 100))
            assert g_jer / g_feu == pytest.approx(expected, rel=1e-9)

    def test_half_ratio_endpoint(self):
        assert math.sqrt(2.0 / 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_ellipse_raises(self):
        with pytest.raises(NotAHyperbola):
            hyperbola_focal_length(RIGHT_345, center(RIGHT_345, 1))
