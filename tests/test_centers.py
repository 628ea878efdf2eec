import collections
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_triangle
from porism_lab import centers
from porism_lab.centers import (
    SUPPORTED_CENTERS,
    SideLengths,
    antiorthic_axis_of,
    center,
    excentral,
    medial,
    side_lengths,
    trilinear_to_point,
)
from porism_lab.errors import (
    DegenerateTriangle,
    IsoscelesDegeneracy,
    PassLog,
    UnsupportedCenter,
)
from porism_lab.geom import (
    Point,
    Triangle,
    distance,
    distance_batch,
    line_through,
    perimeter_batch,
    signed_area_batch,
    triangle_batch,
)
from porism_lab.poristic import CONIC_TAGS, config_from_rR, named_conic, sample, x9_closed_form

RIGHT_345 = Triangle((Point(0, 0), Point(3, 0), Point(0, 4)))
EQUILATERAL = Triangle((Point(0, 0), Point(2, 0), Point(1, math.sqrt(3))))


def centroid(t: Triangle) -> Point:
    p1, p2, p3 = t.v
    return Point((p1.x + p2.x + p3.x) / 3, (p1.y + p2.y + p3.y) / 3)


class TestSideLengths:
    def test_equilateral(self):
        s = side_lengths(EQUILATERAL)
        assert s.as_tuple() == pytest.approx((2, 2, 2))

    def test_right_triangle(self):
        assert side_lengths(RIGHT_345).as_tuple() == pytest.approx((5, 4, 3))

    def test_poristic_t0_isosceles(self):
        cfg = config_from_rR(1.0, 0.36266)
        s = side_lengths(sample(cfg, 0.0).triangle)
        assert s.s2 == pytest.approx(s.s3, rel=1e-14)
        assert s.s1 != pytest.approx(s.s2, rel=1e-3)

    def test_invalid_side_lengths_raise(self):
        with pytest.raises(DegenerateTriangle):
            SideLengths(1.0, 2.0, 3.5)


class TestTrilinears:
    def test_incenter_of_345(self):
        # Classic: the 3-4-5 right triangle at the origin has inradius 1 and
        # incenter (1, 1).
        p = trilinear_to_point(RIGHT_345, (1.0, 1.0, 1.0))
        assert distance(p, Point(1, 1)) < 1e-14

    def test_equilateral_everything_is_centroid(self):
        c = centroid(EQUILATERAL)
        for k in sorted(SUPPORTED_CENTERS - {100, 1155}):
            assert distance(center(EQUILATERAL, k), c) < 1e-12, f"X_{k}"

    def test_x100_on_circumcircle_345(self):
        p = center(RIGHT_345, 100)
        x3 = center(RIGHT_345, 3)
        assert distance(p, x3) == pytest.approx(2.5, rel=1e-12)

    def test_point_at_infinity_weight_sum(self):
        from porism_lab.errors import PointAtInfinity

        s = (5.0, 4.0, 3.0)
        # Weights (f_i s_i) = (1, 1, -2): the sum vanishes.
        with pytest.raises(PointAtInfinity):
            trilinear_to_point(RIGHT_345, (1 / s[0], 1 / s[1], -2 / s[2]))

    def test_point_at_infinity_all_weights_zero(self):
        # The relative zero-sum test alone reads 0 < 0 here.
        from porism_lab.centers import _barycentric_batch
        from porism_lab.errors import PassLog, PointAtInfinity

        with pytest.raises(PointAtInfinity):
            trilinear_to_point(RIGHT_345, (0.0, 0.0, 0.0))
        v = np.array([[[p.x, p.y] for p in RIGHT_345.v]])
        with pytest.raises(PointAtInfinity):
            _barycentric_batch(v, (np.zeros(1), np.zeros(1), np.zeros(1)), PassLog([0.0]))


class TestRegistry:
    def test_unsupported_center(self):
        with pytest.raises(UnsupportedCenter):
            center(RIGHT_345, 2)

    def test_isosceles_degeneracy_x100(self):
        iso = Triangle((Point(0, 0), Point(2, 0), Point(1, 1.7)))
        with pytest.raises(IsoscelesDegeneracy):
            center(iso, 100)

    def test_x40_is_reflection_of_x1_about_x3(self, rng):
        for _ in range(30):
            t = random_triangle(rng)
            x1, x3, x40 = center(t, 1), center(t, 3), center(t, 40)
            mirror = Point(2 * x3.x - x1.x, 2 * x3.y - x1.y)
            assert distance(x40, mirror) < 1e-12

    def test_x40_is_excentral_circumcenter(self, rng):
        # Independent oracle for the Bevan point.
        for _ in range(30):
            t = random_triangle(rng)
            assert distance(center(t, 40), center(excentral(t), 3)) < 1e-10

    def test_x5_is_circumcenter_of_medial(self, rng):
        # The nine-point circle is the medial circumcircle.
        for _ in range(30):
            t = random_triangle(rng)
            assert distance(center(t, 5), center(medial(t), 3)) < 1e-10

    def test_x4_on_altitudes(self, rng):
        for _ in range(30):
            t = random_triangle(rng)
            x4 = center(t, 4)
            for i in range(3):
                side = t.side_line(i)
                # Altitude through vertex i is perpendicular to side i.
                v = t.v[i]
                along = (x4.x - v.x) * side.b - (x4.y - v.y) * side.a
                proj = (x4.x - v.x) * side.a + (x4.y - v.y) * side.b
                assert abs(along) < 1e-9 or abs(proj) < 1e-9

    def test_x9_matches_closed_form_on_family(self):
        cfg = config_from_rR(1.0, 0.36266)
        for k in range(500):
            t = 2 * math.pi * k / 500
            s = sample(cfg, t)
            assert distance(center(s.triangle, 9), x9_closed_form(cfg, t)) < 1e-9

    def test_x1155_on_family_is_stationary_axis_point(self):
        cfg = config_from_rR(1.0, 0.36266)
        expected = Point((3 * cfg.R ** 2 + cfg.d ** 2) / (2 * cfg.d), 0.0)
        for t in (0.4, 1.7, 2.9, 5.1):
            p = center(sample(cfg, t).triangle, 1155)
            assert distance(p, expected) < 1e-9

    def test_incenter_x3_x40_x1155_collinear(self, rng):
        for _ in range(20):
            t = random_triangle(rng)
            try:
                pts = [center(t, k) for k in (1, 3, 40, 1155)]
            except IsoscelesDegeneracy:
                continue
            line = line_through(pts[0], pts[1])
            scale = max(distance(pts[0], p) for p in pts[1:])
            for p in pts[2:]:
                assert abs(line.eval(p)) < 1e-10 * max(1.0, scale)

    def test_x100_on_circumcircle_bulk(self, rng):
        hits = 0
        while hits < 1000:
            t = random_triangle(rng)
            try:
                p = center(t, 100)
            except IsoscelesDegeneracy:
                continue
            x3 = center(t, 3)
            radius = distance(x3, t.v[0])
            assert abs(distance(p, x3) - radius) < 1e-9 * radius
            hits += 1

    def test_similarity_equivariance_all_centers(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            ang = rng.uniform(0, 2 * math.pi)
            k_scale = rng.uniform(0.3, 3.0)
            tx, ty = rng.uniform(-4, 4, 2)
            ca, sa = math.cos(ang), math.sin(ang)

            def sigma(p):
                return Point(k_scale * (ca * p.x - sa * p.y) + tx,
                             k_scale * (sa * p.x + ca * p.y) + ty)

            t2 = Triangle(tuple(sigma(p) for p in t.v))
            scale = max(side_lengths(t).as_tuple()) * k_scale
            for k in sorted(SUPPORTED_CENTERS):
                try:
                    direct = center(t2, k)
                    mapped = sigma(center(t, k))
                except IsoscelesDegeneracy:
                    continue
                assert distance(direct, mapped) < 1e-9 * max(1.0, scale), f"X_{k}"


class TestDerivedTriangles:
    def test_medial_of_reference(self):
        t = Triangle((Point(0, 0), Point(2, 0), Point(0, 2)))
        m = medial(t)
        got = {(round(p.x, 12), round(p.y, 12)) for p in m.v}
        assert got == {(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)}

    def test_medial_area_quarter(self, rng):
        for _ in range(10):
            t = random_triangle(rng)
            assert medial(t).signed_area == pytest.approx(t.signed_area / 4, rel=1e-12)

    def test_x10_is_incenter_of_medial(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            assert distance(center(t, 10), center(medial(t), 1)) < 1e-10

    def test_excentral_of_equilateral(self):
        exc = excentral(EQUILATERAL)
        s = side_lengths(exc)
        assert s.as_tuple() == pytest.approx((4, 4, 4), rel=1e-12)
        assert distance(centroid(exc), centroid(EQUILATERAL)) < 1e-12

    def test_excentral_orthocenter_is_incenter(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            assert distance(center(excentral(t), 4), center(t, 1)) < 1e-10

    def test_family_excentral_on_bevan_circle(self):
        cfg = config_from_rR(1.0, 0.36266)
        for t in (0.3, 1.4, 3.8, 5.6):
            s = sample(cfg, t)
            for p in s.excentral.v:
                assert distance(p, Point(0, 0)) == pytest.approx(2.0, abs=1e-10)

    def test_excentral_keeps_vertex_correspondence(self, rng):
        # Excenter i must stay opposite vertex i: it lies on the external
        # bisector, i.e., strictly on the far side of side line i.
        for _ in range(20):
            t = random_triangle(rng)
            exc = excentral(t)
            for i in range(3):
                side = t.side_line(i)
                assert side.eval(exc.v[i]) * side.eval(t.v[i]) < 0

    def test_antiorthic_axis_construction_matches_trilinear_polar(self, rng):
        # The axis cuts line X1-X3 at X1155; cross-check the generic
        # construction against that incidence.
        for _ in range(15):
            t = random_triangle(rng)
            try:
                axis = antiorthic_axis_of(t)
                x1155 = center(t, 1155)
            except IsoscelesDegeneracy:
                continue
            assert abs(axis.eval(x1155)) < 1e-9


class TestMemo:
    """``center`` and ``excentral`` keep each value in the memo of one
    ``Triangle`` instance, and ``side_lengths`` returns the sides it
    measured at construction: a kept value is bit-identical to a fresh one,
    a failure is never kept, and the memo leaves equality and hashing
    alone."""

    KEYS = ("side_lengths", "excentral", *sorted(SUPPORTED_CENTERS))

    @staticmethod
    def outcome(t, key):
        """The float.hex of every coordinate of ``key`` on t, or the type
        and message of what it raised."""
        try:
            if key == "side_lengths":
                values = side_lengths(t).as_tuple()
            elif key == "excentral":
                values = [c for p in excentral(t).v for c in (p.x, p.y)]
            else:
                p = center(t, key)
                values = (p.x, p.y)
        except Exception as exc:  # an error is an outcome to compare
            return type(exc).__name__, str(exc)
        return [float.hex(x) for x in values]

    # An isosceles triangle (-1, 0), (1, 0), (0, h), obtuse at its apex for
    # h < 1, with its second base vertex moved by a relative 1e-14 to 1e-2
    # (or not at all), or three points anywhere.
    near_isosceles = st.tuples(
        st.floats(0.05, 5.0),
        st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                          st.sampled_from([1.0, -1.0]), st.floats(-14.0, -2.0))),
    ).map(lambda he: ((-1.0, 0.0), (1.0 + he[1], 0.0), (0.0, he[0])))
    coord = st.floats(-10.0, 10.0)
    anywhere = st.tuples(*[st.tuples(coord, coord)] * 3)

    @given(st.one_of(near_isosceles, anywhere), st.permutations(KEYS))
    @example(((-1.0, 0.0), (1.0, 0.0), (0.0, 1.7)), list(KEYS))
    @example(((-1.0, 0.0), (1.0 + 1e-13, 0.0), (0.0, 0.3)), list(KEYS)[::-1])
    @settings(max_examples=80, deadline=None)
    def test_kept_values_equal_fresh_ones(self, vertices, order):
        def fresh():
            return Triangle(tuple(Point(x, y) for x, y in vertices))

        try:
            used = fresh()
        except DegenerateTriangle:
            assume(False)
        # Every value is first computed in a random order, so a center can
        # find the centers it is built from already kept, or not.
        served = {key: self.outcome(used, key) for key in order}
        for key in self.KEYS:
            assert served[key] == self.outcome(fresh(), key) == self.outcome(used, key), key
        # The memo takes no part in equality, hashing or repr.
        assert used == fresh() and hash(used) == hash(fresh()) and repr(used) == repr(fresh())

    @pytest.mark.parametrize("k, error", [(100, IsoscelesDegeneracy), (1155, IsoscelesDegeneracy),
                                          (2, UnsupportedCenter)])
    def test_a_failure_raises_on_every_call(self, k, error):
        iso = Triangle((Point(0, 0), Point(2, 0), Point(1, 1.7)))
        for _ in range(2):
            with pytest.raises(error):
                center(iso, k)
        assert k not in iso._memo

    def test_named_conics_build_each_reference_center_once(self, monkeypatch):
        builds = collections.Counter()
        build = centers._build_center

        def counted(t, k):
            builds[t, k] += 1
            return build(t, k)

        monkeypatch.setattr(centers, "_build_center", counted)
        cfg = config_from_rR(1.0, 0.36266)
        s = sample(cfg, 1.3)
        for tag in CONIC_TAGS:
            named_conic(cfg, s.t, tag, s)
        assert set(builds.values()) == {1}
        # X10 is X1 of the medial triangle, built once too.
        assert sorted(k for t, k in builds if t == s.triangle) == [1, 3, 9, 10, 40]


class TestSidesMeasuredOnce:
    """A triangle measures its sides once, at construction: ``side_lengths``
    and ``perimeter`` equal, by ``float.hex``, ``distance`` on the final
    vertex order, whether the vertices were given counter-clockwise or
    clockwise."""

    @staticmethod
    def check(t):
        p1, p2, p3 = t.v
        want = (distance(p2, p3), distance(p1, p3), distance(p1, p2))
        assert list(map(float.hex, side_lengths(t).as_tuple())) == list(map(float.hex, want))
        perimeter = distance(p1, p2) + distance(p2, p3) + distance(p3, p1)
        assert float.hex(t.perimeter()) == float.hex(perimeter)

    @given(st.one_of(TestMemo.near_isosceles, TestMemo.anywhere), st.booleans())
    @example(((-1.0, 0.0), (1.0, 0.0), (0.0, 1.7)), True)
    @example(((0.1, 0.3), (1.0 + 1e-12, 0.0), (0.0, 2.0)), False)
    @settings(max_examples=150, deadline=None)
    def test_sides_and_perimeter_are_the_distance_formula(self, vertices, clockwise):
        p1, p2, p3 = (Point(x, y) for x, y in vertices)
        area2 = (p2.x - p1.x) * (p3.y - p1.y) - (p3.x - p1.x) * (p2.y - p1.y)
        if clockwise == (area2 > 0):  # give the vertices clockwise, or not
            p2, p3 = p3, p2
        try:
            t = Triangle((p1, p2, p3))
        except DegenerateTriangle:
            assume(False)
        assert t.v == ((p1, p3, p2) if clockwise else (p1, p2, p3))
        self.check(t)

    def test_random_triangles_given_either_way(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            t = random_triangle(rng)
            self.check(t)
            self.check(Triangle(t.v[::-1]))


class TestBatchSidesMeasuredOnce:
    """The batched twin of ``TestSidesMeasuredOnce``: ``triangle_batch``
    returns the final vertex stack of ``Triangle`` of each row and its sides
    opposite each final vertex, which with ``perimeter_batch`` equal, by
    ``float.hex``, ``distance_batch`` on the final vertices, summed as
    ``Triangle.perimeter`` sums; a stack with no clockwise row comes back as
    it is.  The scalar twin measures with ``math.hypot``, which differs from
    numpy's in the last bit for about one pair in 500, so its sides are
    compared to within one unit in the last place."""

    @staticmethod
    def check(stack, any_clockwise):
        v = np.array(stack)
        tri, s = triangle_batch(v, PassLog(np.arange(len(v), dtype=float)))
        clockwise = signed_area_batch(v) < 0
        assert clockwise.any() == any_clockwise
        swapped = np.where(clockwise[:, None, None], v[:, [0, 2, 1]], v)
        assert tri.tobytes() == swapped.tobytes()
        assert (tri is v) == (not any_clockwise)
        hexes = np.vectorize(float.hex)
        p1, p2, p3 = tri[:, 0], tri[:, 1], tri[:, 2]
        d12, d23, d31 = distance_batch(p1, p2), distance_batch(p2, p3), distance_batch(p3, p1)
        assert (hexes(s) == hexes(np.stack([d23, d31, d12], axis=-1))).all()
        assert (hexes(perimeter_batch(s)) == hexes(d12 + d23 + d31)).all()
        for row, final, sides in zip(stack, tri, s):
            t = Triangle(tuple(Point(x, y) for x, y in row))
            assert t.v == tuple(Point(x, y) for x, y in final)
            np.testing.assert_array_max_ulp(sides, side_lengths(t).as_tuple(), 1)

    @given(st.lists(st.tuples(st.one_of(TestMemo.near_isosceles, TestMemo.anywhere),
                              st.booleans()), min_size=1, max_size=8))
    # Area above the thin threshold, but the rounded sides fail the triangle
    # inequality (5.000000000000001 = 1.0 + 4.000000000000001): both twins
    # reject the first row, so only the second reaches the stack.
    @example([(((0.0, 4.0), (0.0, 5.0), (1e-07, 0.0)), False),
              (((-1.0, 0.0), (1.0, 0.0), (0.0, 1.7)), True)])
    @settings(max_examples=150, deadline=None)
    def test_sides_and_perimeter_are_the_distance_formula(self, rows):
        stack, any_clockwise = [], False
        for vertices, clockwise in rows:
            p1, p2, p3 = vertices
            area2 = (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])
            if clockwise == (area2 > 0):  # give the vertices clockwise, or not
                p2, p3 = p3, p2
            try:
                Triangle(tuple(Point(x, y) for x, y in (p1, p2, p3)))
                triangle_batch(np.array([(p1, p2, p3)]), PassLog([0.0]))
            except DegenerateTriangle:
                continue
            stack.append((p1, p2, p3))
            any_clockwise |= clockwise
        assume(stack)
        self.check(stack, any_clockwise)

    def test_random_stacks_given_either_way(self):
        rng = np.random.default_rng(28)
        stack = [[(p.x, p.y) for p in random_triangle(rng).v] for _ in range(200)]
        self.check(stack, False)
        self.check([row[::-1] for row in stack], True)
        self.check([row[::-1] if i % 3 else row for i, row in enumerate(stack)], True)

