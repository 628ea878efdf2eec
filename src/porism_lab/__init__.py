"""Numerical kernel and verification harness for poristic triangle families,
their named circumconics/inconics, and the similarity bridge to
elliptic-billiard 3-periodics."""

from .billiard import (
    BilliardConfig,
    billiard_rho,
    caustic_axes,
    cb_axes_normalized,
    foci_locus_check,
    normalize_sample,
)
from .centers import (
    SideLengths,
    center,
    excentral,
    medial,
    side_lengths,
    trilinear_to_point,
)
from .conics import (
    brianchon_point,
    circumconic_centered,
    hyperbola_focal_length,
    inconic_centered,
    inconic_from_tangents,
)
from .geom import (
    CanonicalConic,
    Circle,
    ConicKind,
    ConicMatrix,
    Line,
    Point,
    Triangle,
    canonicalize,
    conic_eval,
    foci,
    power_of_point,
)
from .poristic import (
    FamilyAngleClass,
    FamilySample,
    PoristicConfig,
    antiorthic_axis,
    config_from_rR,
    config_from_rho,
    is_obtuse,
    named_conic,
    obtuse_class,
    perimeter_closed_form,
    sample,
    theta_closed_form,
    weaver_circles,
    x9_closed_form,
)
from .report import LabConfig, SweepReport, run_sweep, run_verify

__version__ = "0.1.0"

__all__ = [
    "BilliardConfig", "CanonicalConic", "Circle", "ConicKind", "ConicMatrix",
    "FamilyAngleClass", "FamilySample", "LabConfig", "Line", "Point",
    "PoristicConfig", "SideLengths", "SweepReport", "Triangle",
    "antiorthic_axis", "billiard_rho", "brianchon_point", "canonicalize",
    "caustic_axes", "cb_axes_normalized", "center", "circumconic_centered",
    "config_from_rR", "config_from_rho", "conic_eval", "excentral", "foci",
    "foci_locus_check", "hyperbola_focal_length", "inconic_centered",
    "inconic_from_tangents", "is_obtuse", "medial", "named_conic",
    "normalize_sample", "obtuse_class", "perimeter_closed_form",
    "power_of_point", "run_sweep", "run_verify", "sample", "side_lengths",
    "theta_closed_form", "trilinear_to_point", "weaver_circles",
    "x9_closed_form",
]
