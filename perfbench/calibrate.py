"""Fixed reference work that measures the machine's momentary speed.

The CPU speed of a shared sandbox changes by up to 2x from one second to the
next for identical work, which swamps any change in the program.  The
benchmark therefore runs this kernel between ops, in the same process, and
scales every op time by ``REFERENCE_S / kernel time`` measured around it:
a time then reads as the seconds the op would take on a machine that runs
the kernel in ``REFERENCE_S``.  The kernel uses no porism_lab code, so every
change in the program shows in full; its mix (small frozen dataclasses,
``math`` calls, lists, dicts and 3x3 ``numpy.linalg.svd``) follows the
program's own.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

#: Median kernel time on the machine the baseline was recorded on (Intel
#: Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.0188


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel(n: int = 3000) -> float:
    acc = 0.0
    m = np.eye(3)
    for k in range(n):
        t = 2 * math.pi * k / n
        pts = [_Point(math.cos(t + j), math.sin(t + 2 * j)) for j in range(3)]
        sides = [math.hypot(pts[i].x - pts[i - 1].x, pts[i].y - pts[i - 1].y) for i in range(3)]
        named = {"a": sides[0], "b": sides[1], "c": sides[2]}
        acc += sum(named.values()) / (1.0 + max(sides))
        if k % 8 == 0:
            m[0, 1] = m[1, 0] = acc % 1.0
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
