"""Figure generation: each id renders one deterministic SVG scene built from
the family at a fixed configuration.

Figures draw the R = 1 family, as the pass measures it: ``_scene`` takes
the ``poristic.config_from_rho(rho)`` that ``report._family`` gives the
pass, so a figure's SVG depends on its id and rho = r / R alone, and
``render_figure`` at any R gives the R = 1 picture.

Every scene but ``cb-plots`` starts from ``_scene``: the circumcircle, the
incircle and the X1, X3 marks.  Conics are drawn at a fixed stroke width of
1.5; only their color, dash and hyperbola reach vary.  A conic whose
canonical form is neither an ellipse nor a hyperbola is not drawn: the
figure raises ``DegenerateConic`` naming it, so no file misses an outline.

``cb-plots`` plots whole-family curves in units of R and reads nothing of
its configuration, so its SVG is built once per process and then reused."""

from __future__ import annotations

import functools
import math

import numpy as np

from . import billiard as _billiard
from . import centers as _centers
from . import conics as _conics
from . import poristic as _poristic
from .errors import DegenerateConic, UnknownFigure
from .geom import ConicKind, canonicalize, foci
from .report import LabConfig
from .svg import SvgCanvas, ellipse_polyline, hyperbola_polylines

TRIANGLE_BLUE = "#2060c0"
EXCENTRAL_GREEN = "#208040"
INCIRCLE_GREEN = "#30a030"
CIRCUM_PURPLE = "#8040a0"
ORANGE = "#e08020"
RED = "#d03030"
BLACK = "#202020"
PINK = "#d060a0"
LIGHT_BLUE = "#60a0d0"


def render_figure(figure_id: str, lab: LabConfig) -> str:
    try:
        fn = _FIGURES[figure_id]
    except KeyError:
        raise UnknownFigure(
            f"unknown figure {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}") from None
    return fn(lab)


def _draw_triangle(canvas, tri, color, width=1.8, dash=None):
    canvas.polyline([(p.x, p.y) for p in tri.v], stroke=color, width=width,
                    dash=dash, close=True)


def _draw_canonical(canvas, canon, name, color, dash=None, reach=1.6):
    """Draw the canonical form ``canon`` of the conic ``name``; raise
    ``DegenerateConic`` if it is neither an ellipse nor a hyperbola."""
    shape = (canon.center.x, canon.center.y, canon.semi_major, canon.semi_minor, canon.angle)
    if canon.kind is ConicKind.ELLIPSE:
        branches = [ellipse_polyline(*shape)]
    elif canon.kind is ConicKind.HYPERBOLA:
        branches = hyperbola_polylines(*shape, reach)
    else:
        raise DegenerateConic(f"{name}: canonical form is {canon.kind.value}; "
                              "the figure cannot draw it")
    for branch in branches:
        canvas.polyline(branch, stroke=color, width=1.5, dash=dash)


def _draw_circle(canvas, circle, color, width, dash=None):
    canvas.circle(circle.center.x, circle.center.y, circle.radius, stroke=color,
                  width=width, dash=dash)


def _mark(canvas, point, text, color):
    canvas.dot(point.x, point.y, color)
    canvas.label(point.x, point.y, text, color)


def _draw_conic(canvas, cfg, s, tag, color, dash=None):
    """Draw the named conic ``tag`` of the member s; return its canonical
    form."""
    canon = canonicalize(_poristic.named_conic(cfg, s.t, tag, s))
    _draw_canonical(canvas, canon, tag, color, dash)
    return canon


def _scene(lab, scale=90.0):
    """The R = 1 config of ``lab``'s family and a canvas holding its
    circumcircle, incircle, X1 and X3."""
    cfg = _poristic.config_from_rho(lab.poristic().rho)
    canvas = SvgCanvas(scale=scale)
    _draw_circle(canvas, cfg.circumcircle, CIRCUM_PURPLE, 2.0)
    _draw_circle(canvas, cfg.incircle, INCIRCLE_GREEN, 2.0)
    _mark(canvas, cfg.incircle.center, "X1", INCIRCLE_GREEN)
    _mark(canvas, cfg.circumcircle.center, "X3", CIRCUM_PURPLE)
    return cfg, canvas


def _fig_obtuse(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab, 120.0)
    for t, dash in ((0.0, None), (1.9, "6,4"), (3.6, "2,3")):
        s = _poristic.sample(cfg, t)
        color = RED if _poristic.is_obtuse(s) else TRIANGLE_BLUE
        _draw_triangle(canvas, s.triangle, color, dash=dash)
    return canvas.render(f"family angle classes, r/R={cfg.rho:g} ({_poristic.obtuse_class(cfg).value})")


def _fig_odehnal(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab)
    s = _poristic.sample(cfg, 1.1)
    _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE)
    _draw_triangle(canvas, s.excentral, EXCENTRAL_GREEN)
    _draw_circle(canvas, cfg.excentral_circle, ORANGE, 1.5)
    _draw_conic(canvas, cfg, s, "I5x", ORANGE, dash="5,4")
    _mark(canvas, cfg.excentral_circle.center, "X40", BLACK)
    _draw_circle(canvas, _poristic.mittenpunkt_locus_circle(cfg), RED, 1.0, dash="3,3")
    return canvas.render(f"excentral locus and caustic, r/R={cfg.rho:g}")


def _fig_inconics(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab)
    first, second = _poristic.sample(cfg, 0.9), _poristic.sample(cfg, 2.6)
    for s, dash in ((first, None), (second, "6,4")):
        _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE, dash=dash)
        _draw_conic(canvas, cfg, s, "I3x", RED, dash=dash)
        _draw_conic(canvas, cfg, s, "E1", EXCENTRAL_GREEN, dash=dash)
    _draw_conic(canvas, cfg, first, "I5x", INCIRCLE_GREEN, dash="2,3")
    _mark(canvas, cfg.excentral_circle.center, "X40", BLACK)
    return canvas.render(f"rigidly rotating inconics, r/R={cfg.rho:g}")


def _fig_circumX10(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab)
    s = _poristic.sample(cfg, 1.2)
    _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE)
    _draw_triangle(canvas, s.excentral, EXCENTRAL_GREEN, width=1.0)
    _draw_conic(canvas, cfg, s, "E10", PINK)
    _draw_conic(canvas, cfg, s, "E5x", LIGHT_BLUE)
    _mark(canvas, _centers.center(s.triangle, 10), "X10", PINK)
    return canvas.render(f"equal-aspect circumconics, r/R={cfg.rho:g}")


def _fig_cb_focus_locus(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab)
    center, radius = _billiard.foci_locus_check(cfg)
    canvas.circle(center.x, center.y, radius, stroke="#00a0a0", width=1.2, dash="4,3")
    _draw_circle(canvas, _poristic.mittenpunkt_locus_circle(cfg), RED, 1.2)
    for t, dash in ((0.8, None), (2.3, "6,4")):
        s = _poristic.sample(cfg, t)
        _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE, dash=dash)
        cb = _draw_conic(canvas, cfg, s, "E9", BLACK, dash=dash)
        for f in foci(cb):
            canvas.dot(f.x, f.y, "#00a0a0")
    return canvas.render(f"circumbilliard focus locus, r/R={cfg.rho:g}")


def _fig_cb_poristic(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab, 80.0)
    _draw_circle(canvas, cfg.excentral_circle, ORANGE, 1.2)
    for t, dash in ((0.7, None), (2.9, "6,4")):
        s = _poristic.sample(cfg, t)
        _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE, dash=dash)
        _draw_triangle(canvas, s.excentral, EXCENTRAL_GREEN, width=1.0, dash=dash)
        _draw_conic(canvas, cfg, s, "E9", BLACK, dash=dash)
        _draw_conic(canvas, cfg, s, "I3x", RED, dash=dash)
    return canvas.render(f"circumbilliards and excentral inconic, r/R={cfg.rho:g}")


def _fig_cb_plots(lab: LabConfig) -> str:
    """The ``cb-plots`` scene, the same for every ``lab``."""
    return _cb_plots()


@functools.cache
def _cb_plots() -> str:
    """Two data panels: perimeter vs t for several ratios, and the
    normalized circumbilliard semi-axes vs rho.  Both plot whole-family
    curves in units of R, so the scene reads no configuration and is built
    once per process."""
    canvas = SvgCanvas(scale=1.0, pad=40.0)
    x0, y0, w, h = 0.0, 0.0, 320.0, 240.0

    def axes(px, x_label, y_label):
        canvas.polyline([(px, y0), (px + w, y0)], stroke=BLACK, width=1.0)
        canvas.polyline([(px, y0), (px, y0 + h)], stroke=BLACK, width=1.0)
        canvas.label(px + w / 2, y0 - 24, x_label, BLACK)
        canvas.label(px - 10, y0 + h + 8, y_label, BLACK)

    # Left panel: L(t) for several rho, axes [0, 2pi] x [1.5, 6.5].
    axes(x0, "t in [0, 2pi)", "L(t)/R")
    lmin, lmax = 1.5, 6.5
    colors = (TRIANGLE_BLUE, RED, EXCENTRAL_GREEN, ORANGE)
    ts = 2 * math.pi * np.arange(257) / 256
    xs = x0 + w * ts / (2 * math.pi)
    for color, rho in zip(colors, (0.05, 0.2, 0.36266, 0.49)):
        perimeters = _poristic.perimeter_closed_form_batch(_poristic.config_from_rho(rho), ts)
        ys = y0 + h * (perimeters - lmin) / (lmax - lmin)
        canvas.polyline(np.stack([xs, ys], axis=-1), stroke=color, width=1.5)
        canvas.label(x0 + w + 4, float(ys[-1]), f"rho={rho:g}", color, size=11, dx=0, dy=0)
    # Right panel: a9/L, b9/L vs rho with the sqrt(3)/9 endpoint.
    px = x0 + w + 160.0
    axes(px, "rho in (0, 1/2]", "a9/L, b9/L")
    top = 0.3
    rhos = 0.5 * np.arange(1, 257) / 256
    xs = px + w * rhos / 0.5
    a9, b9, _, _ = _billiard._cb_axes(rhos, np)
    canvas.polyline(np.stack([xs, y0 + h * a9 / top], axis=-1), stroke=RED, width=1.5)
    canvas.polyline(np.stack([xs, y0 + h * b9 / top], axis=-1), stroke=EXCENTRAL_GREEN, width=1.5)
    limit = math.sqrt(3.0) / 9.0
    canvas.polyline([(px, y0 + h * limit / top), (px + w, y0 + h * limit / top)],
                    stroke=TRIANGLE_BLUE, width=1.0, dash="5,4")
    canvas.label(px + w, y0 + h * limit / top, "sqrt(3)/9", TRIANGLE_BLUE, size=11)
    return canvas.render("perimeter curves and invariant semi-axis ratios")


def _fig_circumhyps(lab: LabConfig) -> str:
    cfg, canvas = _scene(lab)
    s = _poristic.sample(cfg, 1.0)
    _draw_triangle(canvas, s.triangle, TRIANGLE_BLUE)
    _draw_triangle(canvas, s.excentral, EXCENTRAL_GREEN, width=1.0)
    x11 = _centers.center(s.triangle, 11)
    x100 = _centers.center(s.triangle, 100)
    feu = canonicalize(_conics.circumconic_centered(s.triangle, x11))
    jer = canonicalize(_conics.circumconic_centered(s.excentral, x100))
    _draw_canonical(canvas, feu, "Feuerbach", TRIANGLE_BLUE, dash="5,4", reach=1.3)
    _draw_canonical(canvas, jer, "Jerabek", EXCENTRAL_GREEN, dash="5,4", reach=1.3)
    for canon, color in ((feu, TRIANGLE_BLUE), (jer, EXCENTRAL_GREEN)):
        f1, f2 = foci(canon)
        canvas.dot(f1.x, f1.y, color)
        canvas.dot(f2.x, f2.y, color)
        canvas.polyline([(f1.x, f1.y), (f2.x, f2.y)], stroke=color, width=1.0)
    return canvas.render(f"focal axes of the two circumhyperbolas, r/R={cfg.rho:g}")


_FIGURES = {
    "obtuse": _fig_obtuse,
    "odehnal": _fig_odehnal,
    "inconics": _fig_inconics,
    "circumX10": _fig_circumX10,
    "cb-focus-locus": _fig_cb_focus_locus,
    "cb-poristic": _fig_cb_poristic,
    "cb-plots": _fig_cb_plots,
    "circumhyps": _fig_circumhyps,
}
FIGURE_IDS = tuple(_FIGURES)
