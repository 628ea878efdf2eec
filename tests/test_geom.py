import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porism_lab import geom
from porism_lab.conics import centered_conics_batch
from porism_lab.errors import DegenerateConic, DegenerateTriangle, NotCentral, PassLog
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
    condition_estimate_batch,
    conic_from_canonical,
    distance,
    foci,
    line_intersection,
    line_through,
    max_condition_batch,
    power_of_point,
    rank_test_batch,
    singular_values_batch,
    tangency_residual,
)
from porism_lab.poristic import config_from_rR, excentral_side_lines, i3x_implicit_matrix

UNIT_CIRCLE = ConicMatrix.from_coeffs(1, 0, 1, 0, 0, -1)


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

    def test_conic_matrix_rejects_zero_and_asymmetric(self):
        with pytest.raises(ValueError):
            ConicMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ConicMatrix(np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, -1.0]]))

    def test_conic_matrix_rejects_non_finite_entries(self):
        with pytest.raises(DegenerateConic, match="conic matrix is not finite"):
            ConicMatrix.from_coeffs(1, 0, 1, 0, 0, math.inf)


def _entries(a):
    """A (n, 3, k) stack entry-major, as ``rank_test_batch`` takes it."""
    return a.reshape(len(a), -1).T


def _svd_rank_test(a):
    sv = singular_values_batch(a)
    return ((sv[:, -1] > DEGENERACY_EPS * sv[:, 0]).astype(np.int8)
            - (sv[:, -1] < DEGENERACY_EPS * sv[:, 0]))


class TestRankFilter:
    """``rank_test_batch`` decides sigma_min > 1e-12 sigma_max as the stacked
    SVD does, and runs the SVD only near the threshold."""

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

        sent = []

        def recorded(rows):
            sent.extend(bytes(row) for row in rows)
            return singular_values_batch(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geom, "singular_values_batch", recorded)
            got = rank_test_batch(_entries(a))[0]
        assert got.tolist() == want.tolist()
        assert not want[bad].any()
        # The band [1e-12/3, 3e-12], widened by the decision margin and the
        # rounding bounds (at most a quarter for these matrices).
        outside = (rho < DEGENERACY_EPS / 3 / 1.25) | (rho > 3 * DEGENERACY_EPS * 1.25)
        assert not [i for i in np.flatnonzero(outside & ~bad) if bytes(a[i]) in sent]

    @pytest.mark.parametrize("exponent", [-600, -400, -300, 300, 400, 600])
    def test_far_from_unit_scale_the_svd_decides(self, exponent):
        # Products of entries under- or overflow here, so the rounding
        # bounds no longer hold: such rows must be left to the SVD.
        rng = np.random.default_rng(exponent % 1000)
        for k in (3, 4):
            a = np.ldexp(rng.normal(size=(50, 3, k)), exponent)
            a[:10, 2] = a[:10, 0] + 1e-14 * a[:10, 1]  # nearly rank 2
            a[10:20, 0, 0] *= 2.0 ** 300  # one entry far above the others
            with np.errstate(over="ignore"):
                want = _svd_rank_test(a)
            assert rank_test_batch(_entries(a))[0].tolist() == want.tolist()

    def test_a_long_stack_gives_what_its_pieces_give(self):
        # The filter runs a long stack in several passes: the split changes
        # no decision, minor or norm.
        rng = np.random.default_rng(5)
        for k in (3, 4):
            x = _entries(rng.normal(size=(5000, 3, k)))
            whole = rank_test_batch(x)
            pieces = [rank_test_batch(x[:, i:i + 500]) for i in range(0, 5000, 500)]
            assert np.concatenate([p[0] for p in pieces]).tobytes() == whole[0].tobytes()
            assert np.concatenate([p[1] for p in pieces], axis=1).tobytes() == whole[1].tobytes()
            for j in range(3):
                assert (np.concatenate([p[2][j] for p in pieces]).tobytes()
                        == whole[2][j].tobytes())

    def test_non_finite_rows_keep_their_outcome(self):
        # A row outside a partial stage is NaN: the circumconic check does not
        # flag it, and canonicalize_batch sees it as not of full rank.
        v = np.array([[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]] * 3)
        center = np.array([[1.0, 1.0], [np.nan, np.nan], [1.2, 0.9]])
        conic = centered_conics_batch(v, center, 3, PassLog(np.arange(3.0)))
        assert conic.rank_test.tolist() == [1, 0, 1]
        can = canonicalize_batch(conic, PassLog(np.arange(3.0)))
        assert can.semi_major[1] == 0.0 and can.semi_major[0] > 0.0
        stack = ConicBatch(np.array([[1.0, 0.0, 1.0, 0.0, 0.0, -1.0], [np.nan] * 6]).T)
        assert stack.rank_test.tolist() == [1, 0]


def _stack(rng, sigma):
    """Rows U diag(sigma) [I 0] Q with random orthogonal U, Q: matrices of
    the chosen singular values, one row of ``sigma`` (n, 3) each."""
    u = np.linalg.qr(rng.normal(size=(len(sigma), 3, 3)))[0]
    q = np.linalg.qr(rng.normal(size=(len(sigma), 4, 4)))[0]
    return (u * sigma[:, None, :]) @ q[:, :3, :]


class TestMaxCondition:
    """``max_condition_batch`` gives, bit for bit, the largest
    sigma_max / sigma_min of the full stacked SVD, from an SVD of its
    candidate rows only."""

    @staticmethod
    def _check(stacks):
        """The filtered maximum equals the full one bitwise, and every
        certified estimate is within the error the candidate margin
        relies on.  Returns the maximum and the number of rows sent to
        the SVD."""
        kappa = [condition_estimate_batch(*rank_test_batch(_entries(a))[2]) for a in stacks]
        sent = []

        def recorded(rows):
            sent.append(len(rows))
            return singular_values_batch(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geom, "singular_values_batch", recorded)
            got = max_condition_batch(stacks, kappa)
        sv = singular_values_batch(np.concatenate(stacks))
        ratio = sv[:, 0] / sv[:, -1]
        want = np.max(ratio)
        assert np.float64(got).tobytes() == want.tobytes(), (got, want)
        kappa = np.concatenate(kappa)
        est = np.isfinite(kappa)
        svd_error = 101 * 2.0 ** -53 * (ratio[est] + 1)
        assert (np.abs(kappa[est] - ratio[est])
                <= (geom._KAPPA_ERROR + svd_error) * ratio[est]).all()
        assert len(sent) == 1
        return got, sent[0]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_stacks(self, seed, count, exponent):
        rng = np.random.default_rng(seed)
        stacks = []
        for _ in range(count):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                a = rng.normal(size=(n, 3, 4))
            else:
                # Log-uniform singular values: clusters, nearly rank 1 and
                # condition numbers up to 1e11.
                sigma = np.sort(10.0 ** rng.uniform(-11, 0, (n, 3)), axis=1)[:, ::-1]
                a = _stack(rng, sigma)
            stacks.append(np.ldexp(a, exponent))
        self._check(stacks)

    @pytest.mark.parametrize("sigma", [(1.0, 1.0, 1.0), (1.0, 1.0, 1e-3), (1.0, 1e-3, 1e-3),
                                       (1.0, 0.5, 1.2e-11), (1.0, 1.0, 0.9e-11)])
    def test_chosen_singular_values(self, sigma):
        # Every row has the same exact condition number, so the largest
        # computed ratio is decided by the SVD's rounding alone; the second
        # stack is scaled row by row.
        rng = np.random.default_rng(11)
        a = _stack(rng, np.tile(sigma, (40, 1)))
        self._check([a[:20], a[20:] * rng.uniform(0.5, 2.0, (20, 1, 1))])

    def test_exact_ties_across_stacks(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(30, 3, 4))
        assert self._check([a, a.copy(), a[:5]])[1] >= 3

    def test_non_finite_row_gives_nan(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(20, 3, 4)), rng.normal(size=(20, 3, 4))
        b[7, 1, 2] = np.nan
        for stacks in ([a, b], [b, a]):
            assert math.isnan(self._check(stacks)[0])

    def test_far_scale_rows_are_all_candidates(self):
        # Incidence rows (u^2, 2uw, w^2, 1) at R = 1e100: the norm F is
        # above the filter's range, so no estimate is certified.
        rng = np.random.default_rng(14)
        u, w = 1e100 * rng.uniform(-1.0, 1.0, (2, 25, 3))
        far = np.stack([u * u, 2 * u * w, w * w, np.ones_like(u)], axis=-1)
        near = rng.normal(size=(25, 3, 4))
        assert np.abs(far).max(axis=(1, 2)).min() > geom._FILTER_MAX_NORM  # F exceeds it too
        assert np.isnan(condition_estimate_batch(*rank_test_batch(_entries(far))[2])).all()
        assert self._check([near, far])[1] >= 25
