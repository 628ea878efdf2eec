"""Exception types raised by the geometry kernel, and the check log of the
batched measurement pass."""

from __future__ import annotations

import copy

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
    that fails raises at once, naming the lowest failing sample.  ``where``
    gives a view that checks only the given rows (stages that hold some
    samples only).  Inconic D fallbacks are counted here too, so that a pass
    can report them once.
    """

    def __init__(self, ts):
        self.ts = np.asarray(ts, dtype=float)
        self.rows: np.ndarray | None = None
        self._fallbacks: list[np.ndarray] = []

    def where(self, rows: np.ndarray) -> "PassLog":
        view = copy.copy(self)  # shares the fallback list
        view.rows = rows if self.rows is None else self.rows & rows
        return view

    def _restrict(self, mask: np.ndarray) -> np.ndarray:
        return mask if self.rows is None else mask & self.rows

    def check(self, mask: np.ndarray, exc_type: type, message: str) -> None:
        """Raise ``exc_type`` if any sample in ``mask`` fails."""
        mask = self._restrict(np.asarray(mask, dtype=bool))
        if mask.any():
            raise exc_type(f"{message} at t = {float(self.ts[np.argmax(mask)])!r}")

    def fallback(self, mask: np.ndarray) -> None:
        """Record inconic D fallbacks (see ``conics.inconic_from_tangents``)."""
        self._fallbacks.append(self._restrict(mask))

    @property
    def fallbacks(self) -> int:
        return int(sum(np.count_nonzero(m) for m in self._fallbacks))
