"""The SVG writer against per-point oracles: ``SvgCanvas.polyline`` formats
each coordinate as ``_fmt`` of its scaled value, the same for an (n, 2)
array as for a list of pairs; the array outlines equal the per-sample
``math`` loop bit for bit; and a figure's bytes do not depend on what was
rendered before it, ``cb-plots`` being the same scene at every
configuration.  The bytes of every figure at every configuration of the
outcome scan are pinned in ``tests/outcome_scan.json`` (``tests/test_tools.py``);
at every 16th of those configurations and the four extreme R, the
``figure`` command writes the pinned bytes or refuses with the pinned
message."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porism_lab.cli import main
from porism_lab.errors import GeometryError
from porism_lab.figures import FIGURE_IDS, _cb_plots, render_figure
from porism_lab.report import LabConfig
from porism_lab.svg import _SEGMENTS, SvgCanvas, ellipse_polyline, hyperbola_polylines

ROOT = Path(__file__).resolve().parent.parent
SCANNED = json.loads((ROOT / "tests" / "outcome_scan.json").read_text())["configs"]


def _lab(config):
    return LabConfig(R=config["R"], r=config["rho"] * config["R"])


def _fmt(v):
    if v == 0.0:
        v = 0.0
    return f"{v:.4f}"


def _oracle_points(pts, scale):
    """The points attribute, one ``_fmt`` per coordinate."""
    return " ".join(f"{_fmt(x * scale)},{_fmt(-y * scale)}" for x, y in pts)


def _points(canvas):
    """The points attribute of each polyline of the rendered canvas."""
    return re.findall(r' points="([^"]*)"', canvas.render("t"))


# Finite floats of every magnitude, and the values the format rule is about:
# signed zeros, negatives that round to -0.0000, values on either side of a
# .4f rounding tie, and overflow to and past infinity.
_SPECIAL = st.sampled_from([0.0, -0.0, -1e-9, -4.9e-5, 4.9e-5, -5e-5, 5e-5, 1.00005, -2.50005,
                            0.12345, 1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan])
_TIE = st.integers(-10 ** 9, 10 ** 9).map(lambda k: (k + 0.5) / 10 ** 4)
_COORD = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _SPECIAL, _TIE)
_SCALE = st.one_of(st.sampled_from([1.0, 80.0, 90.0, 120.0]), st.floats(1e-3, 1e3))


@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40), _SCALE)
@example([(0.0, -0.0), (-0.0, 0.0), (-1e-9, 1e-9)], 1.0)
@example([(1e300, -1e300), (math.inf, math.nan)], 120.0)
@settings(max_examples=200, deadline=None)
def test_polyline_matches_per_point_oracle(pts, scale):
    canvas = SvgCanvas(scale=scale)
    canvas.polyline(np.array(pts))
    assert _points(canvas) == [_oracle_points(pts, scale)]


@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
       st.booleans(), st.sampled_from([None, "5,4"]))
@settings(max_examples=100, deadline=None)
def test_pairs_and_array_render_the_same_bytes(pts, close, dash):
    as_pairs, as_array = SvgCanvas(), SvgCanvas()
    as_pairs.polyline(pts, stroke="#202020", width=1.2, dash=dash, close=close)
    as_array.polyline(np.array(pts), stroke="#202020", width=1.2, dash=dash, close=close)
    assert as_array.render("t") == as_pairs.render("t")


def _old_render(canvas, seen, title):
    """The bytes ``render`` gave when the canvas kept every coordinate in two
    lists, in draw order, and took the viewBox from builtin ``min`` and
    ``max`` over them: kept as the oracle of the extents found at render,
    with the elements read from the rendered text after its four head lines."""
    elements = canvas.render(title).split("\n", 4)[4]
    xs, ys = [x for x, _ in seen] or [0.0, 1.0], [y for _, y in seen] or [0.0, 1.0]
    pad = canvas.pad * canvas.scale
    x0 = min(xs) * canvas.scale - pad
    x1 = max(xs) * canvas.scale + pad
    y0 = -max(ys) * canvas.scale - pad
    y1 = -min(ys) * canvas.scale + pad
    w, h = x1 - x0, y1 - y0
    box = " ".join(_fmt(v) for v in (x0, y0, w, h))
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{box}" width="{_fmt(w)}" height="{_fmt(h)}">\n'
            f"<title>{title}</title>\n"
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            'fill="#ffffff"/>\n' + elements)


# The canvases of several polylines.  Values below 1e4, at scales up to
# 1e3, print through the exact pass unless one is a tie; ties where the
# scale is 1 and values on both sides of 1e8 send the whole canvas to the
# ``%`` path, as does a NaN or infinite coordinate in one polyline.
_SMALL = st.one_of(st.floats(-1e4, 1e4), st.sampled_from(
    [0.0, -0.0, -1e-9, -4.9e-5, 5e-5, 0.03125 + 1e-12, 1.00005, 9999.99996]))
_FINITE = st.one_of(_SMALL, st.floats(-2e8, 2e8), _TIE, st.sampled_from(
    [0.03125, -0.03125, 99999999.99994, 99999999.99995, np.nextafter(1e8, 0), 1e8, -1e8,
     1.5e8]))
_LINES = st.one_of(*(st.lists(st.lists(st.tuples(c, c), max_size=6), min_size=1, max_size=5)
                     for c in (_SMALL, _FINITE)))


@given(_LINES, st.sampled_from([None, (math.nan, 0.0), (1.0, -math.inf)]), st.integers(0, 4),
       _SCALE)
@example([[(1.0, -2.0)], [], [(0.5, 99999999.99994), (-4.9e-5, 3.0)]], None, 0, 1.0)
@example([[(0.03125, 1.0)], [(2.0, 3.0)]], None, 0, 1.0)  # a tie: the % path
@example([[(1.0, 2.0)], [(3.0, 4.0)]], (math.nan, 0.0), 1, 120.0)
@example([[], []], None, 0, 90.0)
@settings(max_examples=200, deadline=None)
def test_canvas_of_polylines_matches_per_point_oracle(lines, bad, at, scale):
    if bad is not None:
        lines = [*lines[:at], [bad], *lines[at:]]
    canvas = SvgCanvas(scale=scale)
    for pts in lines:
        canvas.polyline(np.array(pts).reshape(-1, 2))
    assert _points(canvas) == [_oracle_points(pts, scale) for pts in lines]


def _scan_labs():
    """``LabConfig()`` and the pinned scan's configurations with R in
    [1e-3, 1e3]."""
    return [LabConfig(), *(_lab(c) for c in SCANNED if 1e-3 <= c["R"] <= 1e3)]


def test_figures_print_through_the_exact_pass(monkeypatch):
    # The % path prints the same bytes, so only a spy sees a figure that
    # falls back to it.
    from porism_lab import svg

    exact, passes = svg._exact_points, []

    def spy(flats):
        texts = exact(flats)
        passes.append(texts is not None)
        return texts

    monkeypatch.setattr(svg, "_exact_points", spy)
    for lab in _scan_labs():
        for figure_id in FIGURE_IDS:
            passes.clear()
            try:
                render_figure(figure_id, lab)
            except GeometryError:
                continue
            cached = figure_id == "cb-plots" and not passes
            assert cached or passes == [True], (figure_id, lab)
    passes.clear()
    _cb_plots.__wrapped__()
    assert passes == [True]


_PAIRS = st.lists(st.tuples(_COORD, _COORD), max_size=6)
_SHAPE = st.one_of(st.tuples(st.just("circle"), _COORD, _COORD, _COORD),
                   st.tuples(st.sampled_from(["dot", "label"]), _COORD, _COORD),
                   st.tuples(st.sampled_from(["pairs", "array"]), _PAIRS))


@given(st.lists(_SHAPE, max_size=8), _SCALE, st.sampled_from([0.0, 0.35, 40.0]))
@example([("dot", 1.0, 2.0), ("label", math.nan, -0.0)], 120.0, 0.35)
@example([("array", [(0.0, -0.0), (math.nan, 5.0)]), ("circle", -0.0, 0.0, 0.0)], 1.0, 0.0)
@example([("pairs", [(math.nan, math.nan)]), ("dot", 3.0, -math.inf)], 80.0, 0.35)
@example([("pairs", []), ("circle", math.inf, 1.0, math.inf)], 120.0, 40.0)
@example([], 120.0, 0.35)
@settings(max_examples=300, deadline=None)
def test_viewbox_matches_the_list_scan_oracle(shapes, scale, pad):
    canvas, seen = SvgCanvas(scale=scale, pad=pad), []
    for kind, *args in shapes:
        if kind == "circle":
            cx, cy, r = args
            canvas.circle(cx, cy, r)
            seen += [(cx + -r, cy + -r), (cx + r, cy + r)]
        elif kind == "dot":
            canvas.dot(*args)
            seen.append(tuple(args))
        elif kind == "label":
            canvas.label(*args, "x")
            seen.append(tuple(args))
        else:
            (pts,) = args
            canvas.polyline(np.array(pts).reshape(-1, 2) if kind == "array" else pts)
            seen += [tuple(p) for p in np.asarray(pts, dtype=float).reshape(-1, 2).tolist()]
    assert canvas.render("t") == _old_render(canvas, seen, "t")


def _old_ellipse(cx, cy, a, b, angle):
    ca, sa = math.cos(angle), math.sin(angle)
    pts = []
    for k in range(_SEGMENTS + 1):
        ph = 2 * math.pi * k / _SEGMENTS
        u, v = a * math.cos(ph), b * math.sin(ph)
        pts.append((cx + ca * u - sa * v, cy + sa * u + ca * v))
    return pts


def _old_hyperbola(cx, cy, a, b, angle, reach):
    ca, sa = math.cos(angle), math.sin(angle)
    branches = []
    for sign in (1.0, -1.0):
        pts = []
        for k in range(_SEGMENTS + 1):
            u = -reach + 2 * reach * k / _SEGMENTS
            x0, y0 = sign * a * math.cosh(u), b * math.sinh(u)
            pts.append((cx + ca * x0 - sa * y0, cy + sa * x0 + ca * y0))
        branches.append(pts)
    return branches


def _bits(pts):
    return np.asarray(pts, dtype=float).view(np.int64).tolist()


_LEN = st.floats(1e-100, 1e100)
_AT = st.floats(-1e100, 1e100)
_ANGLE = st.floats(-math.pi, math.pi)


@given(_AT, _AT, _LEN, _LEN, _ANGLE)
@example(0.3, -0.2, 1.2, 0.8, 0.0)
@example(1e300, -1e300, 1e305, 1e300, 0.7)
@settings(max_examples=100, deadline=None)
def test_ellipse_outline_equals_math_loop(cx, cy, a, b, angle):
    arr = ellipse_polyline(cx, cy, a, b, angle)
    assert arr.shape == (_SEGMENTS + 1, 2)
    assert _bits(arr) == _bits(_old_ellipse(cx, cy, a, b, angle))


@given(_AT, _AT, _LEN, _LEN, _ANGLE, st.one_of(st.sampled_from([1.3, 1.6]), st.floats(0.0, 5.0)))
@example(1e300, -1e300, 1e305, 1e300, 0.7, 1.6)
@settings(max_examples=100, deadline=None)
def test_hyperbola_outlines_equal_math_loop(cx, cy, a, b, angle, reach):
    branches = hyperbola_polylines(cx, cy, a, b, angle, reach)
    assert [_bits(br) for br in branches] == [_bits(br) for br in
                                              _old_hyperbola(cx, cy, a, b, angle, reach)]


@pytest.mark.parametrize("config", SCANNED[::16] + SCANNED[-4:], ids=lambda c: f"R={c['R']:.4g}")
def test_figure_bytes_match_pinned_digests(config, tmp_path, capsys):
    # Through the command, at the scan's own LabConfig: each figure writes an
    # SVG with the pinned digest, or exits 2 with the pinned GeometryError
    # message and writes no file.
    argv = ["--R", repr(config["R"]), "--r", repr(config["rho"] * config["R"]),
            "--t-samples", str(config["n"]), "--out", str(tmp_path)]
    for figure_id in FIGURE_IDS:
        run, path = config[f"figure:{figure_id}"], tmp_path / f"{figure_id}.svg"
        code = main(["figure", "--figure", figure_id, *argv])
        err = capsys.readouterr().err
        if run["outcome"] == "report":
            assert code == 0, (figure_id, err)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == run["svg_sha256"], figure_id
        else:
            assert (code, err, path.exists()) == (2, f"error: {run['error']}\n", False), figure_id


def test_figure_bytes_do_not_depend_on_call_history():
    config = SCANNED[0]  # every figure renders there
    for figure_id in reversed(FIGURE_IDS):
        for _ in range(2):
            svg = render_figure(figure_id, _lab(config))
            assert (hashlib.sha256(svg.encode()).hexdigest()
                    == config[f"figure:{figure_id}"]["svg_sha256"]), figure_id


def test_cb_plots_is_one_scene():
    # Built once per process: every render is the uncached builder's output,
    # at the scanned configs (both ends of the R range among them), and at
    # ratios where other figures raise.
    scene = _cb_plots.__wrapped__()
    labs = [LabConfig(), *map(_lab, SCANNED), LabConfig(r=0.5), LabConfig(r=1e-9)]
    for lab in labs:
        assert render_figure("cb-plots", lab) == scene, lab
