import math

import numpy as np
import pytest

from porism_lab.geom import Point, Triangle


@pytest.fixture
def mp_math():
    """An arithmetic namespace shaped like ``geom._MATH`` that binds mpmath's
    functions, so that a core evaluates in mpmath at 50 digits; the test
    skips without mpmath."""
    mp = pytest.importorskip("mpmath").mp

    class MPMath:
        cos, sin, sqrt, hypot = mp.cos, mp.sin, mp.sqrt, mp.hypot
        arccos, arctan2, fmod = mp.acos, mp.atan2, mp.fmod
        maximum, minimum = max, min

        @staticmethod
        def where(c, x, y):
            return x if c else y

    with mp.workdps(50):
        yield MPMath


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_triangle(rng, min_angle=0.15) -> Triangle:
    """Well-conditioned random triangle: three points on a random circle with
    pairwise angular separation at least min_angle."""
    while True:
        phis = np.sort(rng.uniform(0, 2 * math.pi, 3))
        gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))
        if gaps.min() > min_angle and gaps.max() < 2 * math.pi - 2 * min_angle:
            break
    cx, cy = rng.uniform(-5, 5, 2)
    rad = rng.uniform(0.5, 4.0)
    pts = tuple(Point(cx + rad * math.cos(p), cy + rad * math.sin(p)) for p in phis)
    return Triangle(pts)
