import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import conic_from_canonical, tangency_residual
from porism_lab import geom, rank
from porism_lab.conics import centered_conics_batch, circumconic_centered
from porism_lab.errors import (
    DegenerateConic,
    DegenerateTriangle,
    GeometryError,
    NotCentral,
    PassLog,
)
from porism_lab.geom import (
    DEGENERACY_EPS,
    CanonicalConic,
    Circle,
    ConicBatch,
    ConicKind,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    canonicalize,
    canonicalize_batch,
    conic_eval,
    distance,
    foci,
    line_intersection,
    line_through,
    power_of_point,
)
from porism_lab.poristic import config_from_rR, excentral_side_lines, i3x_implicit_matrix
from porism_lab.rank import rank_test_batch, singular_values_batch

UNIT_CIRCLE = ConicMatrix.from_coeffs(1, 0, 1, 0, 0, -1)
# A coefficient of a normalized row: 0 or of magnitude in [1e-30, 1], so
# that where the quadratic block is not singular, neither the center nor
# the product of the squared semi-axes overflows.
_COEFF = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) >= 1e-30 else 0.0)


class TestConicEval:
    def test_point_on_unit_circle(self):
        assert conic_eval(UNIT_CIRCLE, Point(1, 0)) == pytest.approx(0, abs=1e-15)

    def test_center_of_unit_circle_under_normalization(self):
        # Largest-magnitude entry is already 1, so eval at the center is -1.
        assert conic_eval(UNIT_CIRCLE, Point(0, 0)) == -1.0

    def test_vertex_of_ellipse(self):
        ell = ConicMatrix.from_coeffs(0.25, 0, 1, 0, 0, -1)
        assert conic_eval(ell, Point(2, 0)) == pytest.approx(0, abs=1e-15)


class TestCanonicalize:
    def test_axis_aligned_ellipse(self):
        can = canonicalize(ConicMatrix.from_coeffs(0.25, 0, 1, 0, 0, -1))
        assert can.kind is ConicKind.ELLIPSE
        assert can.center.x == pytest.approx(0, abs=1e-14)
        assert can.angle == pytest.approx(0, abs=1e-14)
        assert can.semi_major == pytest.approx(2, rel=1e-14)
        assert can.semi_minor == pytest.approx(1, rel=1e-14)

    def test_rotated_translated_ellipse_round_trip(self):
        src = CanonicalConic(Point(1, 2), math.pi / 6, 2.0, 1.0, ConicKind.ELLIPSE)
        can = canonicalize(conic_from_canonical(src))
        assert distance(can.center, src.center) < 1e-12
        assert can.angle == pytest.approx(math.pi / 6, abs=1e-12)
        assert can.semi_major == pytest.approx(2, rel=1e-12)
        assert can.semi_minor == pytest.approx(1, rel=1e-12)

    def test_standard_hyperbola(self):
        can = canonicalize(ConicMatrix.from_coeffs(1, 0, -1, 0, 0, -1))
        assert can.kind is ConicKind.HYPERBOLA
        assert can.semi_major == pytest.approx(1, rel=1e-14)
        assert can.angle == pytest.approx(0, abs=1e-14)

    def test_round_trip_random(self, rng):
        # 1000 random central conics, axis ratio within [1.01, 100].
        for _ in range(1000):
            kind = ConicKind.ELLIPSE if rng.random() < 0.5 else ConicKind.HYPERBOLA
            minor = rng.uniform(0.1, 3.0)
            major = minor * rng.uniform(1.01, 100.0)
            if kind is ConicKind.HYPERBOLA and rng.random() < 0.5:
                major, minor = minor, major  # transverse may be the short one
            angle = rng.uniform(-math.pi / 2, math.pi / 2)
            if angle <= -math.pi / 2:
                angle += math.pi
            src = CanonicalConic(Point(*rng.uniform(-10, 10, 2)), angle,
                                 major, minor, kind)
            can = canonicalize(conic_from_canonical(src))
            assert can.kind is kind
            scale = max(major, minor)
            assert distance(can.center, src.center) < 1e-10 * scale
            gap = abs(math.remainder(can.angle - src.angle, math.pi))
            assert gap < 1e-10
            assert can.semi_major == pytest.approx(major, rel=1e-10)
            assert can.semi_minor == pytest.approx(minor, rel=1e-10)

    def test_parabola_raises_not_central(self):
        with pytest.raises(NotCentral):
            canonicalize(ConicMatrix.from_coeffs(1, 0, 0, 0, -0.5, 0))  # y = x^2

    def test_line_pair_classified(self):
        can = canonicalize(ConicMatrix.from_coeffs(0, 0.5, 0, 0, 0, 0))  # xy = 0
        assert can.kind is ConicKind.DEGENERATE_LINES

    def test_rank_one_raises(self):
        with pytest.raises(DegenerateConic):
            canonicalize(ConicMatrix.from_coeffs(1, 0, 0, 0, 0, 0))  # x^2 = 0

    def test_vanishing_quadratic_block_raises(self):
        # 2x = 0: a line, of rank 2, whose quadratic block is zero.
        with pytest.raises(DegenerateConic, match="conic of rank < 3"):
            canonicalize(ConicMatrix.from_coeffs(0, 0, 0, 1, 0, 0))

    def test_vanishing_quadratic_block_raises_in_the_batch(self):
        stack = ConicBatch(np.array([[1.0, 0.0, 1.0, 0.0, 0.0, -1.0], [0, 0, 0, 1, 0, 0]]).T)
        with pytest.raises(DegenerateConic) as info:
            canonicalize_batch(stack, PassLog([0.0, 1.0]))
        assert str(info.value) == "conic of rank < 3 at t = 1.0"

    def test_empty_conic(self):
        can = canonicalize(ConicMatrix.from_coeffs(1, 0, 1, 0, 0, 1))
        assert can.kind is ConicKind.EMPTY

    def test_circle_in_the_batch_without_a_warning(self):
        """A stack that holds the unit circle, whose eigenvector norm is 0,
        canonicalizes outside any errstate with no floating-point warning,
        to the semi-axes (1, 1) that the scalar twin gives."""
        stack = ConicBatch(np.array([[1.0, 0.0, 1.0, 0.0, 0.0, -1.0],
                                     [0.25, 0.0, 1.0, 0.0, 0.0, -1.0]]).T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            can = canonicalize_batch(stack, PassLog([0.0, 1.0]))
        assert (can.semi_major[0], can.semi_minor[0], can.angle[0]) == (1.0, 1.0, 0.0)
        want = canonicalize(UNIT_CIRCLE)
        assert (want.semi_major, want.semi_minor, want.angle) == (1.0, 1.0, 0.0)

    def test_huge_semi_axes_in_the_batch_without_a_warning(self):
        """A normalized row whose squared semi-axes are near 1e200, where
        their product overflows, canonicalizes outside any errstate with no
        floating-point warning and decides as the scalar twin does."""
        conic = ConicMatrix.from_coeffs(0.0, 1.6e-99, 0.0, 1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = canonicalize_batch(ConicBatch(np.array(conic.c)[:, None]), PassLog([0.0]))[0]
        want = canonicalize(conic)
        assert got.hyperbola == (want.kind is ConicKind.HYPERBOLA)
        assert got.semi_major == got.semi_minor == want.semi_major == want.semi_minor == 0.0

    @given(st.one_of(st.tuples(*[st.integers(-2, 2)] * 6), st.tuples(*[_COEFF] * 6)))
    @example((1, 0, 1, 0, 0, -1))  # a circle
    @example((1, 0, 0, 0, -1, 0))  # a parabola
    @example((0, 1, 0, 0, 0, 0))  # a line pair
    @example((1, 0, 1, 0, 0, 1))  # empty
    @settings(max_examples=400, deadline=None)
    def test_twins_decide_alike(self, coeffs):
        """On a normalized coefficient row, both twins raise the same class,
        or make the same decisions (``hyperbola``, and zero semi-axes where
        the scalar kind is neither ellipse nor hyperbola) and give values
        within 1e-14 of the largest component, the angle modulo pi."""
        if not any(coeffs):
            return
        conic = ConicMatrix.from_coeffs(*coeffs)
        stack = ConicBatch(np.array(conic.c)[:, None])
        try:
            want = canonicalize(conic)
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                canonicalize_batch(stack, PassLog([0.0]))
            return
        got = canonicalize_batch(stack, PassLog([0.0]))[0]
        assert got.hyperbola == (want.kind is ConicKind.HYPERBOLA)
        if want.kind not in (ConicKind.ELLIPSE, ConicKind.HYPERBOLA):
            assert got.semi_major == got.semi_minor == 0.0
        values = (want.center.x, want.center.y, want.semi_major, want.semi_minor, want.angle)
        bound = 1e-14 * max(map(abs, values))
        assert abs(math.remainder(got.angle - want.angle, math.pi)) <= bound
        for g, w in zip((*got.center, got.semi_major, got.semi_minor), values):
            assert abs(g - w) <= bound, (g, w)


class TestTangency:
    def test_tangent_line_to_unit_circle(self):
        assert abs(tangency_residual(UNIT_CIRCLE, Line(1, 0, -1))) < 1e-15

    def test_external_line_not_tangent(self):
        assert abs(tangency_residual(UNIT_CIRCLE, Line(1, 0, -2))) > 0.1

    def test_scaling_invariance(self):
        conic_a = ConicMatrix.from_coeffs(0.25, 0, 1, 0, 0, -1)
        conic_b = ConicMatrix(conic_a.m * 7.3)  # renormalized on construction
        line_a = Line(1, 0, -2)
        line_b = Line(-4, 0, 8)
        vals = {tangency_residual(c, l) for c in (conic_a, conic_b) for l in (line_a, line_b)}
        assert max(vals) - min(vals) < 1e-12

    def test_excentral_inconic_tangent_to_excentral_side(self):
        cfg = config_from_rR(1.0, 0.36266)
        conic = i3x_implicit_matrix(cfg, 0.7)
        l1, _, _ = excentral_side_lines(cfg, 0.7)
        assert abs(tangency_residual(conic, l1)) < 1e-9


class TestPowerOfPoint:
    def test_on_circle_and_center(self):
        c = Circle(Point(1, 2), 3.0)
        assert power_of_point(Point(4, 2), c) == pytest.approx(0, abs=1e-14)
        assert power_of_point(Point(1, 2), c) == -9.0

    def test_incircle_power_identity(self):
        # X3-origin frame: incircle centered (d, 0); the power of the point
        # where the antiorthic axis crosses the x-axis has a closed form.
        R, r = 1.0, 0.36266
        d = math.sqrt(R * (R - 2 * r))
        p0 = Point((3 * R * R - d * d) / (2 * d), 0.0)
        expected = (R * R - d * d) ** 2 * (9 * R * R - d * d) / (4 * R * R * d * d)
        assert power_of_point(p0, Circle(Point(d, 0), r)) == pytest.approx(expected, rel=1e-13)

    def test_radical_axis_vertical_for_coaxial_circles(self, rng):
        c1 = Circle(Point(-1.0, 0.0), 2.0)
        c2 = Circle(Point(3.0, 0.0), 1.5)
        # Solve for the equal-power x once, then verify it works for every y.
        x = (c1.radius ** 2 - c2.radius ** 2 + c2.center.x ** 2 - c1.center.x ** 2) \
            / (2 * (c2.center.x - c1.center.x))
        for y in rng.uniform(-5, 5, 20):
            p = Point(x, float(y))
            assert power_of_point(p, c1) == pytest.approx(power_of_point(p, c2), abs=1e-12)


class TestFoci:
    def test_axis_aligned_ellipse(self):
        can = CanonicalConic(Point(0, 0), 0.0, 2.0, 1.0, ConicKind.ELLIPSE)
        f1, f2 = foci(can)
        assert f1.x == pytest.approx(math.sqrt(3), rel=1e-14)
        assert f2.x == pytest.approx(-math.sqrt(3), rel=1e-14)

    def test_circle_returns_center_twice(self):
        can = CanonicalConic(Point(3, -1), 0.0, 2.0, 2.0, ConicKind.ELLIPSE)
        f1, f2 = foci(can)
        assert f1 == f2 == can.center

    def test_excentral_caustic_foci(self):
        # Stationary excentral inconic: semi-axes (R, sqrt(R^2 - d^2)) about
        # (d, 0); its foci are the origin and (2d, 0).
        R, d = 1.0, 0.524099
        can = CanonicalConic(Point(d, 0.0), 0.0, R, math.sqrt(R * R - d * d),
                             ConicKind.ELLIPSE)
        f1, f2 = foci(can)
        assert distance(f1, Point(2 * d, 0)) < 1e-12
        assert distance(f2, Point(0, 0)) < 1e-12


class TestFociTwins:
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-math.pi / 2, math.pi / 2),
           st.floats(1e-3, 1e3), st.floats(0.0, 2.0) | st.just(1.0), st.booleans())
    @example(0.0, -0.0, 0.0, 2.0, 1.0, False)  # a circle
    @example(1.0, 2.0, 0.3, 2.0, 1.0 - 1e-12, False)  # circular within tolerance
    @example(1.0, 2.0, -0.3, 1.0, 3.0, True)  # conjugate semi-axis the larger
    @example(1.0, 2.0, 0.3, 3.0, 0.5, True)  # transverse semi-axis the larger
    @settings(max_examples=300)
    def test_foci_twins_agree_bit_for_bit(self, x, y, angle, major, ratio, hyperbola):
        minor = major * ratio if hyperbola else major * min(ratio, 1.0)
        kind = ConicKind.HYPERBOLA if hyperbola else ConicKind.ELLIPSE
        f1, f2 = foci(CanonicalConic(Point(x, y), angle, major, minor, kind))
        g1, g2 = geom.foci_batch(geom.CanonicalBatch(np.array([[x, y]]), np.array([angle]),
                                                     np.array([major]), np.array([minor]),
                                                     np.array([hyperbola])))
        _assert_twins_agree((f1.x, f1.y, f2.x, f2.y), np.concatenate([g1[0], g2[0]]),
                            [(major, minor)] if hyperbola else [], angle,
                            abs(x) + abs(y) + major + minor)


@given(st.floats() | st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf]),
       st.floats() | st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf]))
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(math.nan, 1.0)
@example(1.0, math.nan)
def test_scalar_extremes_are_the_builtins(x, y):
    """The scalar namespace's maximum and minimum return the very object
    builtin max and min return, for NaN and signed zeros too."""
    assert geom._MATH.maximum(x, y) is max(x, y)
    assert geom._MATH.minimum(x, y) is min(x, y)


# Nonzero floats of moderate size, so that no division of the line core
# overflows.
_NORMAL = st.floats(-1e6, 1e6).filter(lambda v: abs(v) >= 1e-150)


def _assert_twins_agree(scalar, batched, hypots, angle, scale):
    """The values of a scalar twin and of its batched twin agree bit for
    bit where the two arithmetic namespaces agree.  Of their functions only
    hypot can differ: ``math.hypot`` is CPython's own, ``np.hypot`` the C
    library's, and they round about one argument pair in a thousand
    differently.  There the twins agree to rounding, within 1e-15 of
    ``scale``."""
    same = (all(math.hypot(*xy) == np.hypot(*xy) for xy in hypots)
            and math.cos(angle) == np.cos(angle) and math.sin(angle) == np.sin(angle))
    if same:
        assert [x.hex() for x in scalar] == [x.hex() for x in batched.tolist()]
    else:
        assert (np.abs(np.array(scalar) - batched) <= 1e-15 * scale).all()


class TestLinesAndTriangles:
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100)
    def test_line_normalization(self, a, b, c):
        if math.hypot(a, b) < 1e-6:
            return
        line = Line(a, b, c)
        assert math.hypot(line.a, line.b) == pytest.approx(1, rel=1e-12)
        first = line.a if line.a != 0 else line.b
        assert first > 0

    @given(_NORMAL | st.sampled_from([0.0, -0.0]), _NORMAL, st.floats(-1e6, 1e6))
    @example(0.0, -2.0, 3.0)
    @example(-0.0, -2.0, 3.0)
    @example(-1.5, 0.5, -1.0)
    @example(-1.5, -0.0, 1.0)
    @settings(max_examples=300)
    def test_line_twins_agree_bit_for_bit(self, a, b, c):
        line, row = Line(a, b, c), np.array(geom._unit_line(*np.broadcast_arrays(a, b, c), np))
        _assert_twins_agree((line.a, line.b, line.c), row, [(a, b)], 0.0, np.abs(row))

    def test_line_through_and_intersection(self):
        l1 = line_through(Point(0, 0), Point(1, 1))
        l2 = line_through(Point(1, 0), Point(0, 1))
        p = line_intersection(l1, l2)
        assert distance(p, Point(0.5, 0.5)) < 1e-14

    def test_triangle_reorders_to_ccw(self):
        t = Triangle((Point(0, 0), Point(0, 1), Point(1, 0)))  # given clockwise
        assert t.signed_area > 0
        assert t.v[0] == Point(0, 0)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateTriangle):
            Triangle((Point(0, 0), Point(1, 0), Point(2, 1e-14)))

    # Three coincident vertices, and a zero area whose bound (longest side)^2
    # underflows to 0: both read 0 against a bound of 0.
    COINCIDENT = (((0.0, 0.0),) * 3, ((1.5, -2.0),) * 3, ((0.0, 0.0), (0.0, 0.0), (0.0, 1e-200)))

    @pytest.mark.parametrize("vertices", COINCIDENT)
    def test_coincident_vertices_rejected_at_construction(self, vertices):
        with pytest.raises(DegenerateTriangle, match="area 0.000e\\+00 below threshold"):
            Triangle(tuple(Point(x, y) for x, y in vertices))

    @pytest.mark.parametrize("vertices", COINCIDENT)
    def test_coincident_vertices_rejected_by_the_batched_twin(self, vertices):
        v = np.array([((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), vertices])
        with pytest.raises(DegenerateTriangle, match="triangle area below threshold at t = 0.5$"):
            geom.triangle_batch(v, PassLog([0.0, 0.5]))

    # Both products of its doubled area overflow, which is inf - inf = NaN;
    # its sides are finite and pass the triangle inequality.
    OVERFLOWING = ((9e307, 0.0), (9e307 + 2.0 ** 1020, 2.0 ** 1020),
                   (9e307 + 2.0 ** 1020, 2.0 ** 1021))

    def test_an_area_that_overflows_is_thin_in_both_twins(self):
        with pytest.raises(DegenerateTriangle, match="^area nan below threshold$"):
            Triangle(tuple(Point(x, y) for x, y in self.OVERFLOWING))
        v = np.array([((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), self.OVERFLOWING])
        with (pytest.raises(DegenerateTriangle, match="^triangle area below threshold at t = 0.5$"),
              np.errstate(over="ignore", invalid="ignore")):  # as the pass runs
            geom.triangle_batch(v, PassLog([0.0, 0.5]))

    # Its area is above the thin threshold (relative area about 4e-9), but
    # its measured sides round to 5.000000000000001 = 1.0 + 4.000000000000001,
    # so they fail the triangle inequality.
    NEARLY_FLAT = ((0.0, 4.0), (0.0, 5.0), (1e-7, 0.0))

    def test_nearly_flat_triangle_rejected_at_construction(self):
        with pytest.raises(DegenerateTriangle, match="^side lengths violate triangle "
                           r"inequality: 5\.000000000000001, 1\.0, 4\.000000000000001$"):
            Triangle(tuple(Point(x, y) for x, y in self.NEARLY_FLAT))

    def test_nearly_flat_triangle_rejected_by_the_batched_twin(self):
        v = np.array([((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), self.NEARLY_FLAT])
        with pytest.raises(DegenerateTriangle,
                           match="^side lengths violate triangle inequality at t = 0.5$"):
            geom.triangle_batch(v, PassLog([0.0, 0.5]))
        # The thin test runs first, over the whole stack, as in ``Triangle``.
        v = np.array([self.NEARLY_FLAT, self.COINCIDENT[0]])
        with pytest.raises(DegenerateTriangle, match="^triangle area below threshold at t = 0.5$"):
            geom.triangle_batch(v, PassLog([0.0, 0.5]))

    def test_conic_matrix_rejects_zero_and_asymmetric(self):
        with pytest.raises(ValueError):
            ConicMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ConicMatrix(np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, -1.0]]))

    def test_conic_matrix_rejects_non_finite_entries(self):
        with pytest.raises(DegenerateConic, match="conic matrix is not finite"):
            ConicMatrix.from_coeffs(1, 0, 1, 0, 0, math.inf)


def _array_normalized(m):
    """The array formula ``ConicMatrix`` normalized with before it went to
    floats, kept as the oracle of its float path: its outcome, the
    normalized matrix or the exception's type and message."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return ValueError, f"conic matrix must be 3x3, got {m.shape}"
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(m).max()
        if not math.isfinite(top):
            return DegenerateConic, "conic matrix is not finite"
        if top == 0.0:
            return ValueError, "zero conic matrix"
        if np.abs(m - m.T).max() > 1e-9 * top:
            return ValueError, "conic matrix must be symmetric"
        return 0.5 * (m + m.T) / top


def _outcome(build):
    try:
        return build().m
    except (ValueError, DegenerateConic) as exc:
        return type(exc), str(exc)


def _same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    return got == want


_ENTRY = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    -1e-310, 1.0, -1.0, 1.7976931348623157e308]))


class TestConicMatrixFromFloats:
    """``ConicMatrix`` checks and normalizes its entries as Python floats,
    with the outcome of the array formula, bit for bit."""

    @given(st.lists(_ENTRY, min_size=6, max_size=6),
           st.lists(st.floats(-1.5e-9, 1.5e-9), min_size=3, max_size=3), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_the_array_formula_bit_for_bit(self, coeffs, skew, skewed):
        A, B, C, D, E, F = coeffs
        m = np.array([[A, B, D], [B, C, E], [D, E, F]])
        assert _same(_outcome(lambda: ConicMatrix.from_coeffs(*coeffs)), _array_normalized(m))
        if skewed:  # symmetric within about 1e-9 of the largest entry, or not
            top = np.abs(m).max()
            with np.errstate(over="ignore"):
                for (i, j), s in zip(((1, 0), (2, 0), (2, 1)), skew):
                    m[i, j] += s * top
        want = _array_normalized(m)
        assert _same(_outcome(lambda: ConicMatrix(m)), want)
        assert _same(_outcome(lambda: ConicMatrix(m.tolist())), want)
        if isinstance(want, np.ndarray):
            conic = ConicMatrix(m)
            assert not conic.m.flags.writeable
            assert all(type(x) is float for x in conic.c)
            assert np.array(conic.c).tobytes() == want.flat[[0, 1, 4, 2, 5, 8]].tobytes()

    @given(st.lists(_ENTRY, min_size=6, max_size=6), st.booleans(),
           st.permutations(["m", "rank_test", "canonicalize"]))
    @example([1.0, 0.0, 1.0, 0.0, 0.0, -1.0], False, ["rank_test", "canonicalize", "m"])
    @settings(max_examples=200, deadline=None)
    def test_m_is_built_on_first_read_as_the_eager_build(self, coeffs, by_coeffs, order):
        """``m`` is built on first read, before or after ``rank_test`` and
        ``canonicalize``: read-only, kept, and bit for bit the
        normalized matrix that construction built before."""
        A, B, C, D, E, F = coeffs
        want = _array_normalized(np.array([[A, B, D], [B, C, E], [D, E, F]]))
        if not isinstance(want, np.ndarray):
            return
        conic = (ConicMatrix.from_coeffs(*coeffs) if by_coeffs
                 else ConicMatrix(np.array([[A, B, D], [B, C, E], [D, E, F]])))
        for name in order:
            if name == "canonicalize":
                try:
                    canonicalize(conic)
                except (GeometryError, ValueError):  # a huge entry can overflow
                    pass
            else:
                getattr(conic, name)
        assert conic.m is conic.m and not conic.m.flags.writeable
        assert conic.m.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_entry_anywhere_raises(self, value):
        for i in range(9):
            m = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, -1.0]])
            m.flat[i] = value
            with pytest.raises(DegenerateConic) as info:
                ConicMatrix(m)
            assert str(info.value) == "conic matrix is not finite"
        for i in range(6):
            coeffs = [1.0, 0.5, 2.0, 0.0, 0.0, -1.0]
            coeffs[i] = value
            with pytest.raises(DegenerateConic) as info:
                ConicMatrix.from_coeffs(*coeffs)
            assert str(info.value) == "conic matrix is not finite"

    @pytest.mark.parametrize("m, message", [
        (np.zeros((3, 3)), "zero conic matrix"),
        (-np.zeros((3, 3)), "zero conic matrix"),
        ([[1, 0.5, 0], [0, 1, 0], [0, 0, -1.0]], "conic matrix must be symmetric"),
        ([[1.0, 1e308, 0], [-1e308, 1, 0], [0, 0, 1.0]], "conic matrix must be symmetric"),
        (np.zeros((2, 3)), "conic matrix must be 3x3, got (2, 3)"),
        ([1.0] * 9, "conic matrix must be 3x3, got (9,)"),
        (np.ones((3, 3, 1)), "conic matrix must be 3x3, got (3, 3, 1)"),
    ])
    def test_the_same_value_errors(self, m, message):
        with pytest.raises(ValueError) as info:
            ConicMatrix(m)
        assert str(info.value) == message
        assert _array_normalized(m) == (ValueError, message)


def _entries(a):
    """A (n, 3, k) stack entry-major, as ``rank_test_batch`` takes it."""
    return a.reshape(len(a), -1).T


def _batch(x, condition=False):
    """``rank_test_batch`` of the entry-major (3k, n) stack ``x``."""
    return rank_test_batch(len(x) // 3, x.shape[1], lambda cols: np.ascontiguousarray(x[:, cols]),
                           condition)


def _kappa(x):
    """The condition estimate of every matrix of the entry-major stack
    ``x``, from the norms ``rank_test_batch`` with ``condition`` takes it
    from: F and D of the determinant tier, and P of its row-(0, 1) minors
    and the others (``rank._compound_norm``)."""
    x, k = np.ascontiguousarray(x), len(x) // 3
    _, minors2, _, F, D = rank._filter(x, k, tier=True)
    return rank._condition_estimate(F, rank._compound_norm(x, k, minors2), D)


def _svd_rank_test(a):
    sv = singular_values_batch(a)
    return ((sv[:, -1] > DEGENERACY_EPS * sv[:, 0]).astype(np.int8)
            - (sv[:, -1] < DEGENERACY_EPS * sv[:, 0]))


class TestRankFilter:
    """``rank_test_batch`` decides sigma_min > 1e-12 sigma_max as the stacked
    SVD does, with its determinant tier first, whether or not the stack's
    largest condition number is asked for, and runs the SVD only near the
    threshold."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 4]), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_filter_decides_as_the_svd(self, seed, k, exponent):
        rng = np.random.default_rng(seed)
        n = 64
        # U diag(1, s, rho) V^T: sigma_min / sigma_max is rho, log-uniform
        # across the threshold; s >= 0.1 keeps sigma_2 away from rank 1.
        rho = 10.0 ** rng.uniform(-14, -10, n)
        sigma = np.zeros((n, 3, k))
        sigma[:, 0, 0], sigma[:, 1, 1], sigma[:, 2, 2] = 1.0, 10.0 ** rng.uniform(-1, 0, n), rho
        u = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        v = np.linalg.qr(rng.normal(size=(n, k, k)))[0]
        a = np.ldexp(u @ sigma @ np.swapaxes(v, 1, 2), exponent)
        bad = rng.random(n) < 0.1
        a[bad, rng.integers(0, 3), rng.integers(0, k)] = rng.choice([np.nan, np.inf, -np.inf])
        want = _svd_rank_test(a)
        assert not want[bad].any()
        # The band [1e-12/3, 3e-12], widened by the decision margin and the
        # rounding bounds (at most a quarter for these matrices).
        outside = (rho < DEGENERACY_EPS / 3 / 1.25) | (rho > 3 * DEGENERACY_EPS * 1.25)
        for condition in (False, True):
            calls = []

            def recorded(rows):
                calls.append(rows)
                return singular_values_batch(rows)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rank, "singular_values_batch", recorded)
                got = _batch(_entries(a), condition)[0]
            assert got.tolist() == want.tolist()
            # The last SVD of a stack whose condition is asked for is that of
            # its condition candidates.
            sent = {bytes(row) for rows in calls[:len(calls) - condition] for row in rows}
            assert not [i for i in np.flatnonzero(outside & ~bad) if bytes(a[i]) in sent]

    @pytest.mark.parametrize("exponent", [-600, -400, -300, -200, -180, 300, 400, 600])
    def test_far_from_unit_scale_the_svd_decides(self, exponent):
        # Products of entries under- or overflow here, so the rounding
        # bounds no longer hold: such rows must be left to the SVD.  At
        # 2^-200 and 2^-180 the squares summed into D underflow to zero
        # while P's do not, which the filter, deciding, took for rank
        # deficiency.
        rng = np.random.default_rng(exponent % 1000)
        for k in (3, 4):
            a = np.ldexp(rng.normal(size=(50, 3, k)), exponent)
            a[:10, 2] = a[:10, 0] + 1e-14 * a[:10, 1]  # nearly rank 2
            a[10:20, 0, 0] *= 2.0 ** 300  # one entry far above the others
            with np.errstate(over="ignore"):
                want = _svd_rank_test(a)
            for condition in (False, True):
                assert _batch(_entries(a), condition)[0].tolist() == want.tolist()

    def test_a_long_stack_gives_what_its_pieces_give(self, monkeypatch):
        # The filter runs a long stack in several passes: the split changes
        # no decision, minor or norm (as the condition estimate reads them),
        # nor the largest condition number.
        estimate, norms = rank._condition_estimate, []
        monkeypatch.setattr(rank, "_condition_estimate",
                            lambda *fpd: norms.append(np.stack(fpd)) or estimate(*fpd))
        rng = np.random.default_rng(5)
        for k, condition in itertools.product((3, 4), (False, True)):
            x = _entries(rng.normal(size=(5000, 3, k)))
            whole = _batch(x, condition)
            cut = len(norms)
            pieces = [_batch(x[:, i:i + 500], condition) for i in range(0, 5000, 500)]
            assert np.concatenate([p[0] for p in pieces]).tobytes() == whole[0].tobytes()
            assert np.concatenate([p[1] for p in pieces], axis=1).tobytes() == whole[1].tobytes()
            if condition:
                assert whole[2] == max(p[2] for p in pieces)
                assert (np.concatenate(norms[cut:], axis=1).tobytes()
                        == np.concatenate(norms[:cut], axis=1).tobytes())
            else:
                assert whole[2] is None and not norms
            norms.clear()

    def test_non_finite_rows_keep_their_outcome(self):
        # A row outside a partial stage is NaN: the circumconic check does not
        # flag it, and canonicalize_batch sees it as not of full rank.
        v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]] * 3)
        center = np.array([[1.0, 1.0], [np.nan, np.nan], [1.2, 0.9]])
        conic = centered_conics_batch([(v, center)], [], PassLog(np.arange(3.0)))
        assert conic.rank_test.tolist() == [1, 0, 1]
        can = canonicalize_batch(conic, PassLog(np.arange(3.0)))
        assert can.semi_major[1] == 0.0 and can.semi_major[0] > 0.0
        stack = ConicBatch(np.array([[1.0, 0.0, 1.0, 0.0, 0.0, -1.0], [np.nan] * 6]).T)
        assert stack.rank_test.tolist() == [1, 0]

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 4]),
           st.sampled_from([-300, -200, -120, -101, -40, -7, 0, 7, 40, 101, 120, 300]))
    @settings(max_examples=60, deadline=None)
    def test_the_scalar_twin_decides_as_the_svd(self, seed, k, exponent):
        # Symmetric 3x3 matrices (conics) and 3x4 systems (circumconic
        # incidence rows) of chosen singular values: ratios log-uniform
        # across the band, nearly rank 1, non-finite entries, and scales
        # with |M|_F beyond 2^100 or below 2^-100.  Two kinds test the
        # determinant tier: "tight" rows, sigma_1 = sigma_2 with a ratio
        # within a factor 3 of 1e-12, where F^2 / (sqrt 3 P) is near its
        # least value 2 / sqrt 3 and the tier's bound is tightest; and
        # "flat" rows of full rank, sigma_2 / sigma_1 at most 10^-6.5, where
        # F^2 / (sqrt 3 P) is large and the tier must leave the row open.
        rng = np.random.default_rng(seed)
        n = 48
        rho = 10.0 ** rng.uniform(-14, -10, n)
        sigma = np.stack([np.ones(n), 10.0 ** rng.uniform(-1, 0, n), rho], axis=1)
        kind = rng.choice(4, n, p=[0.5, 0.2, 0.15, 0.15])
        thin, tight, flat = kind == 1, kind == 2, kind == 3  # thin: nearly rank 1
        sigma[thin, 1] = 10.0 ** rng.uniform(-16, -6, thin.sum())
        sigma[thin, 2] = sigma[thin, 1] * 10.0 ** rng.uniform(-3, 0, thin.sum())
        sigma[tight, 1] = 1.0
        sigma[tight, 2] = rho[tight] = 10.0 ** rng.uniform(-12.5, -11.5, tight.sum())
        sigma[flat, 1] = 10.0 ** rng.uniform(-9, -6.5, flat.sum())
        sigma[flat, 2] = rho[flat] = sigma[flat, 1] * 10.0 ** rng.uniform(-3, 0, flat.sum())
        if k == 3:
            q = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
            signs = rng.choice([-1.0, 1.0], (n, 3))
            a = (q * (sigma * signs)[:, None, :]) @ np.swapaxes(q, 1, 2)
            a = 0.5 * (a + np.swapaxes(a, 1, 2))
        else:
            a = _stack(rng, sigma)
        a = np.ldexp(a, exponent)
        bad = rng.random(n) < 0.1
        a[bad, rng.integers(0, 3), rng.integers(0, k)] = rng.choice([np.nan, np.inf, -np.inf])
        want = _svd_rank_test(a)
        x = _entries(a)
        full = _batch(x, condition=True)
        assert full[0].tolist() == want.tolist()
        # The batched twin with its determinant tier first, as a stack whose
        # condition no caller asks for is decided: the same signs and minors.
        tiered = _batch(x)
        assert tiered[0].tolist() == want.tolist()
        assert tiered[1].tobytes() == full[1].tobytes() and tiered[2] is None
        assert not rank._filter(np.ascontiguousarray(x), k, tier=True)[0][flat].any()

        opened, filtered = [], []
        svd, decision = np.linalg.svd, rank._rank_decision
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", lambda *args, **kw: opened.append(i) or svd(*args, **kw))
            mp.setattr(rank, "_rank_decision", lambda *args: filtered.append(i) or decision(*args))
            for i in range(n):
                assert rank.rank_test(a[i].ravel().tolist(), k)[0] == want[i], i
        assert set(np.flatnonzero(flat)) <= set(filtered)
        # Away from the band, the scale limits and rank 1, no matrix goes to
        # the SVD (the band widened as in the batched test).
        outside = (rho < DEGENERACY_EPS / 3 / 1.25) | (rho > 3 * DEGENERACY_EPS * 1.25)
        if abs(exponent) <= 40:
            assert not set(np.flatnonzero(outside & ~bad & ~thin & ~flat)) & set(opened)
        assert set(np.flatnonzero(bad)).isdisjoint(opened)
        if k == 3:
            # A conic stack and a conic, each against the SVD of its own
            # matrices: a non-finite entry below the diagonal is not one of
            # the conic's coefficients, and ``ConicMatrix`` normalizes.
            c = a[:, [0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]].T
            stack = c[geom._MATRIX_ENTRIES].T.reshape(n, 3, 3)
            assert ConicBatch(c).rank_test.tolist() == _svd_rank_test(stack).tolist()
            for column in c.T[np.isfinite(c).all(axis=0)]:
                conic = ConicMatrix.from_coeffs(*column)
                assert conic.rank_test == _svd_rank_test(conic.m[None])[0]

    @pytest.mark.parametrize("k", [3, 4])
    def test_one_decision_path_with_and_without_condition(self, k):
        """Over a stack of several passes holding non-finite, nearly rank-1,
        tier-open and threshold columns, ``rank_test_batch`` with
        ``condition`` gives the signs and minors it gives without, byte for
        byte, and as its largest condition number the largest SVD ratio
        over every row.  In both modes every pass runs the determinant tier,
        and the full filter sees exactly the columns the tier left open."""
        rng = np.random.default_rng(41 + k)
        per_pass = rank._FILTER_ENTRIES // rank._MINOR_INDEX[k][0].shape[1]
        n = 3 * per_pass + 7
        sigma = np.stack([np.ones(n), 10.0 ** rng.uniform(-1, 0, n),
                          10.0 ** rng.uniform(-2, -1, n)], axis=1)
        kind = rng.choice(4, n, p=[0.85, 0.05, 0.05, 0.05])
        thin, open_, tight = kind == 1, kind == 2, kind == 3
        sigma[thin, 1:] = 1e-9, 1e-10  # nearly rank 1
        sigma[open_, 1:] = 1e-7, 1e-8  # full rank, but sigma2 sigma3 below the tier's reach
        sigma[tight, 2] = 10.0 ** rng.uniform(-12.2, -11.8, tight.sum())  # at the threshold
        a = _stack(rng, sigma, k)
        bad = rng.random(n) < 0.02
        a[bad, 1, rng.integers(0, k)] = np.nan
        x = _entries(a)
        calls = []

        def spy(x, k, tier=False):
            out = tiered(x, k, tier)
            calls.append((tier, x.copy(), out[0]))
            return out

        tiered = rank._filter
        runs = {}
        for condition in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rank, "_filter", spy)
                runs[condition] = _batch(x, condition)
            tier = [(x, full) for is_tier, x, full in calls if is_tier]
            assert len(tier) == 4 and not any(full.all() for _, full in tier)
            assert [is_tier for is_tier, _, _ in calls] == [True, False] * 4
            assert ([x.tobytes() for is_tier, x, _ in calls if not is_tier]
                    == [x[:, ~full].tobytes() for x, full in tier])
            calls.clear()
        assert runs[True][0].tobytes() == runs[False][0].tobytes()
        assert runs[True][0].tolist() == _svd_rank_test(a).tolist()
        assert runs[True][1].tobytes() == runs[False][1].tobytes()
        assert runs[False][2] is None and np.isnan(runs[True][2])
        finite = _entries(a[~bad])
        sv = singular_values_batch(a[~bad])
        assert _batch(finite, True)[2] == np.max(sv[:, 0] / sv[:, -1])
        assert _batch(finite, True)[1].tobytes() == _batch(finite)[1].tobytes()

    @pytest.mark.parametrize("k", [3, 4])
    def test_the_minors_are_exact_on_exact_numbers(self, k):
        """``_laplace`` and ``_scalar_products``, which form the scalar
        filter's minors, are arithmetic only: on ``Fraction`` entries they
        give every 2x2 and 3x3 minor exactly, against the Leibniz formula."""
        rng = random.Random(18 + k)

        def det(m):
            return sum((-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2))
                       * math.prod(m[r][c] for r, c in enumerate(p))
                       for p in itertools.permutations(range(len(m))))

        for _ in range(200):
            x = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                 for _ in range(3 * k)]
            m = [x[r * k:(r + 1) * k] for r in range(3)]
            minors2, abs2, minors3, terms = rank._laplace(x, k)
            more2, more_abs = rank._scalar_products(x, rank._SCALAR_MINOR_INDEX[k][1])
            minors2, abs2 = minors2 + more2, abs2 + more_abs
            assert minors2 == [det([[m[r][i], m[r][j]], [m[s][i], m[s][j]]])
                               for r, s in ((0, 1), (0, 2), (1, 2))
                               for i, j in itertools.combinations(range(k), 2)]
            assert minors3 == [det([[row[c] for c in cols] for row in m])
                               for cols in itertools.combinations(range(k), 3)]
            assert all(type(v) is Fraction for v in (*minors2, *abs2, *minors3, terms))

    @given(st.lists(st.fractions(-100, 100, max_denominator=1000), min_size=8, max_size=8))
    @example([Fraction(0), Fraction(0), Fraction(4), Fraction(0), Fraction(0), Fraction(3),
              Fraction(1), Fraction(1)])
    def test_the_null_vector_is_exact_on_exact_numbers(self, xs):
        """``null_vector`` of the minors that ``_laplace`` forms of a
        circumconic's 3x4 incidence system, the rows (u^2, 2uv, v^2, 1) of
        ``Fraction`` vertices about a ``Fraction`` center, satisfies all
        three incidences exactly."""
        *vertices, cx, cy = xs
        entries = []
        for x, y in zip(vertices[0::2], vertices[1::2]):
            u, v = x - cx, y - cy
            entries += (u * u, 2 * u * v, v * v, Fraction(1))
        vec = rank.null_vector(rank._laplace(entries, 4)[2])
        assert all(type(c) is Fraction for c in vec)
        for r in range(3):
            assert sum(e * c for e, c in zip(entries[4 * r:4 * r + 4], vec)) == 0, r

    def test_a_well_conditioned_conic_forms_no_second_compound(self, monkeypatch):
        """The determinant tier decides the rank tests of a well-conditioned
        circumconic, its 3x4 incidence system's and its conic's, scalar and
        batched, and of a conic stack, from |det| and |M|_F alone: the
        full filter, which forms every 2x2 minor, never runs, nor its
        decision."""
        def second_compound(*args):
            raise AssertionError("the full filter ran")

        tiered = rank._filter
        monkeypatch.setattr(rank, "_filter", lambda x, k, tier=False: (
            tiered(x, k, tier=True) if tier else second_compound()))
        monkeypatch.setattr(rank, "_rank_decision", second_compound)
        tri = Triangle((Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0)))
        conic = circumconic_centered(tri, Point(1.0, 1.0))
        assert conic.rank_test == 1
        assert canonicalize(conic).kind is ConicKind.ELLIPSE
        assert rank.rank_test([0.25, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0], 3)[0] == 1
        v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]] * 2)
        center = np.array([[1.0, 1.0], [1.2, 0.9]])
        stack = centered_conics_batch([(v, center)], [], PassLog(np.arange(2.0)))
        assert stack.rank_test.tolist() == [1, 1]
        assert stack.c[:, 0].tobytes() == np.array(conic.c).tobytes()
        ellipse = ConicBatch(np.array([[0.25, 0.0, 1.0, 0.0, 0.0, -1.0]] * 3).T)
        assert ellipse.rank_test.tolist() == [1, 1, 1]

    def test_a_conic_shares_its_rank_test(self, monkeypatch):
        conic = ConicMatrix.from_coeffs(1, 0, 1.2e-12, 0, 0, -1)  # undecided by the filter
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        assert conic.rank_test == 1 and conic.rank_test == 1
        assert canonicalize(conic).kind is ConicKind.ELLIPSE
        assert len(calls) == 1
        conic = ConicMatrix.from_coeffs(0.25, 0, 1, 0, 0, -1)
        assert canonicalize(conic).kind is ConicKind.ELLIPSE and conic.rank_test == 1
        assert len(calls) == 1


def _stack(rng, sigma, k=4):
    """3 x k matrices U diag(sigma) [I 0] Q with random orthogonal U, Q, of
    the chosen singular values, one row of ``sigma`` (n, 3) each."""
    u = np.linalg.qr(rng.normal(size=(len(sigma), 3, 3)))[0]
    q = np.linalg.qr(rng.normal(size=(len(sigma), k, k)))[0]
    return (u * sigma[:, None, :]) @ q[:, :3, :]


class TestMaxCondition:
    """``rank_test_batch`` with ``condition`` gives, bit for bit, the
    largest sigma_max / sigma_min of the full stacked SVD, from an SVD of
    its candidate rows only."""

    @staticmethod
    def _check(pieces):
        """Over the one stack of ``pieces``, concatenated: the filtered
        maximum equals the full one bitwise, and every certified estimate
        is within the error the candidate margin relies on.  Returns the
        maximum and the number of rows sent to the SVD of the candidates,
        the last SVD the filter runs (an SVD of the rows no pass decided
        may come before it)."""
        rows = np.concatenate(pieces)
        x = _entries(rows)
        sent = []

        def recorded(rows):
            sent.append(len(rows))
            return singular_values_batch(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rank, "singular_values_batch", recorded)
            got = _batch(x, condition=True)[2]
        sv = singular_values_batch(rows)
        ratio = sv[:, 0] / sv[:, -1]
        want = np.max(ratio)
        assert np.float64(got).tobytes() == want.tobytes(), (got, want)
        kappa = _kappa(x)
        est = np.isfinite(kappa)
        svd_error = 101 * 2.0 ** -53 * (ratio[est] + 1)
        assert (np.abs(kappa[est] - ratio[est])
                <= (rank._KAPPA_ERROR + svd_error) * ratio[est]).all()
        assert len(sent) in (1, 2)
        return got, sent[-1]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_stacks(self, seed, count, exponent):
        rng = np.random.default_rng(seed)
        pieces = []
        for _ in range(count):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                a = rng.normal(size=(n, 3, 4))
            else:
                # Log-uniform singular values: clusters, nearly rank 1 and
                # condition numbers up to 1e11.
                sigma = np.sort(10.0 ** rng.uniform(-11, 0, (n, 3)), axis=1)[:, ::-1]
                a = _stack(rng, sigma)
            pieces.append(np.ldexp(a, exponent))
        self._check(pieces)

    @pytest.mark.parametrize("sigma", [(1.0, 1.0, 1.0), (1.0, 1.0, 1e-3), (1.0, 1e-3, 1e-3),
                                       (1.0, 0.5, 1.2e-11), (1.0, 1.0, 0.9e-11)])
    def test_chosen_singular_values(self, sigma):
        # Every row has the same exact condition number, so the largest
        # computed ratio is decided by the SVD's rounding alone; the second
        # half of the stack is scaled row by row.
        rng = np.random.default_rng(11)
        a = _stack(rng, np.tile(sigma, (40, 1)))
        self._check([a[:20], a[20:] * rng.uniform(0.5, 2.0, (20, 1, 1))])

    def test_exact_ties_within_one_stack(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(30, 3, 4))
        assert self._check([a, a.copy(), a[:5]])[1] >= 3

    def test_non_finite_row_gives_nan(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(20, 3, 4)), rng.normal(size=(20, 3, 4))
        b[7, 1, 2] = np.nan
        for pieces in ([a, b], [b, a]):
            assert math.isnan(self._check(pieces)[0])

    def test_far_scale_rows_are_all_candidates(self):
        # Incidence rows (u^2, 2uw, w^2, 1) at R = 1e100: the norm F is
        # above the filter's range, so no estimate is certified.
        rng = np.random.default_rng(14)
        u, w = 1e100 * rng.uniform(-1.0, 1.0, (2, 25, 3))
        far = np.stack([u * u, 2 * u * w, w * w, np.ones_like(u)], axis=-1)
        near = rng.normal(size=(25, 3, 4))
        assert np.abs(far).max(axis=(1, 2)).min() > rank._FILTER_MAX_NORM  # F exceeds it too
        assert np.isnan(_kappa(_entries(far))).all()
        assert self._check([near, far])[1] >= 25
