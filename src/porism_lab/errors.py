"""Exception types raised by the geometry kernel, and the check log of the
batched measurement pass."""

from __future__ import annotations

import numpy as np


class GeometryError(Exception):
    """Base class for all kernel errors."""


class DegenerateTriangle(GeometryError):
    """Triangle area is below the scale-free degeneracy threshold."""


class DegenerateConic(GeometryError):
    """Conic matrix has no usable canonical form (rank too low)."""


class NotCentral(GeometryError):
    """Conic is a parabola: the quadratic block is singular but the full
    matrix is not.  Central-conic machinery does not apply."""


class ParallelLines(GeometryError):
    """Two lines do not meet in an affine point."""


class ParallelTangents(GeometryError):
    """Inconic construction received (nearly) parallel tangent lines."""


class UnsupportedCenter(GeometryError):
    """Requested triangle-center index is outside the registry."""


class IsoscelesDegeneracy(GeometryError):
    """Center is ill-conditioned on (near-)isosceles input."""


class PointAtInfinity(GeometryError):
    """Homogeneous coordinates normalize to a direction, not a point."""


class PerspectorAtInfinity(GeometryError):
    """A perspector denominator sum vanished."""


class NotAHyperbola(GeometryError):
    """Focal-length query on a conic that is not a hyperbola."""


class InvalidRatio(GeometryError):
    """Inradius/circumradius pair violates 0 < r <= R/2."""


class AxisAtInfinity(GeometryError):
    """The requested line escapes to infinity in the d -> 0 limit."""


class CircularBilliard(GeometryError):
    """Billiard with equal semi-axes: the confocal caustic formulas degenerate."""


class UnknownQuantity(GeometryError):
    """Sweep quantity name not in the registry."""


class UnknownFigure(GeometryError):
    """Figure id not in the registry."""


class ConfigError(GeometryError):
    """Invalid lab configuration (maps to CLI exit code 2)."""


class PassLog:
    """Checks of one batched pass over ``ts``.

    A batched kernel evaluates each check on every sample at once; a check
    that fails raises at once, naming the lowest failing sample.  A kernel
    that stacks k systems per sample checks masks of k n entries, block
    after block: such a check raises for the first block that fails, at its
    lowest failing sample, and a log that ``_named`` gives names that block
    ahead of the message.  ``where`` gives a log that checks only the given
    rows (stages that hold some samples only).
    """

    _names: tuple[str, ...] = ()

    def __init__(self, ts, rows: np.ndarray | None = None):
        self.ts = np.asarray(ts, dtype=float)
        self.rows = rows

    def where(self, rows: np.ndarray) -> "PassLog":
        return PassLog(self.ts, rows if self.rows is None else self.rows & rows)

    def check(self, mask: np.ndarray, exc_type: type, message: str) -> None:
        """Raise ``exc_type`` if any sample in ``mask`` fails."""
        mask = np.asarray(mask, dtype=bool).reshape(-1, len(self.ts))
        if self.rows is not None:
            mask = mask & self.rows
        if mask.any():
            block, k = divmod(int(np.argmax(mask)), len(self.ts))
            name = f"{self._names[block]}: " if self._names else ""
            raise exc_type(f"{name}{message} at t = {float(self.ts[k])!r}")


def _named(log: PassLog, names) -> PassLog:
    """``log`` for a stack whose blocks are ``names``, in stack order: a
    check that fails names its block, as ``E1: <message> at t = ...``."""
    named = PassLog(log.ts, log.rows)
    named._names = tuple(names)
    return named
