"""Minimal deterministic SVG 1.1 writer.

Every coordinate prints as ``%.4f``, the same string as ``f"{v:.4f}"``,
after -0.0 is normalized to 0.0, so identical scenes serialize to identical
bytes; the y-axis is flipped so mathematical coordinates render upright.
Circles are unfilled, dots have a radius of 3 pixels and curves are sampled
at ``_SEGMENTS`` segments per branch, from angle tables that ``math``
computes (numpy's ``cos`` may differ in the last bit between CPUs), with
every elementwise step in the order of the float formula.

A polyline takes an (n, 2) array or a list of pairs and keeps its pixel
coordinates; ``render`` prints the coordinates of every polyline of the
canvas in one numpy pass.  ``%.4f`` rounds the exact binary value v times
10^4 to an integer k, half to even, and prints k / 10^4.  Let p be the
float product |v| * 1e4.  Where every |v| < 99999999.9999 (``_LIMIT``; a
NaN or an infinity fails), p < 10^12 - 1/2, so k has at most twelve
digits, and where no p is a half-integer, k = rint(p): below 2^52 every
half-integer is a float and rounding is monotonic, so a p that is not a
half-integer lies strictly between the same two neighbouring
half-integers as the exact product, whose nearest integer is then p's.
(An exact product that is a half-integer is a float, so p is that tie.)
The test p - floor(p) == 0.5 finds every half-integer p, whose
difference is the float 0.5 itself.  The digits of k are gathered from
three of the 4-byte group tables of ``digits.groups`` into one
fixed-width record per number, whose NULs are then dropped, and the text
is split per polyline at a terminator written after its last number.  A
canvas with any other coordinate, or a tie, prints each polyline with
``%`` instead, one call per polyline.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .digits import groups

_SEGMENTS = 256

# cos and sin of the ellipse's sample angles 2 pi k / _SEGMENTS.
_PHASES = [2 * math.pi * k / _SEGMENTS for k in range(_SEGMENTS + 1)]
_COS = np.array([math.cos(ph) for ph in _PHASES])
_SIN = np.array([math.sin(ph) for ph in _PHASES])


@functools.lru_cache(maxsize=8)
def _hyperbolic(reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cosh and sinh of the hyperbola's sample parameters
    -reach + 2 reach k / _SEGMENTS, computed once per reach."""
    us = [-reach + 2 * reach * k / _SEGMENTS for k in range(_SEGMENTS + 1)]
    table = np.array([math.cosh(u) for u in us]), np.array([math.sinh(u) for u in us])
    for column in table:
        column.flags.writeable = False
    return table


def _fmt(v: float) -> str:
    return "%.4f" % (v + 0.0)  # + 0.0 turns -0.0 into 0.0


# One printed number: an optional "-", the integer part's high and low four
# digits, "." and four fraction digits, then "," or " " or, after the last
# number of a polyline, _END; absent characters are NUL.
_RECORD = np.dtype([("sign", "u1"), ("high", "u4"), ("low", "u4"), ("dot", "u1"),
                    ("frac", "u4"), ("sep", "u1")])
_END = ";"
_LIMIT = 99999999.9999  # |v| below it keeps |v * 1e4| below 10^12 - 1/2


def _exact_points(flats: list[np.ndarray]) -> list[str] | None:
    """The points attribute of each flat coordinate array, every ``%.4f``
    printed in one pass (see the module docstring), or None where the pass
    does not apply."""
    v = np.concatenate(flats)
    p = abs(v)
    if not (p < _LIMIT).all():
        return None
    p *= 1e4
    k = np.rint(p)
    if (p - np.floor(p) == 0.5).any():
        return None
    whole, frac = np.divmod(k.astype(np.intp), 10 ** 4)
    high, low = np.divmod(whole, 10 ** 4)
    table = groups()
    rec = np.empty(len(v), _RECORD)
    rec["sign"] = (v < 0) * np.uint8(ord("-"))
    rec["high"] = table[3].take(high)
    # Below 10^4 the low group keeps its units digit, else it is zero-padded.
    rec["low"] = table.ravel().take(low + (high > 0) * 10 ** 4)
    rec["dot"] = ord(".")
    rec["frac"] = table[1].take(frac)
    sep = rec["sep"]
    sep[0::2], sep[1::2] = ord(","), ord(" ")
    last, ends = -1, []
    for flat in flats:
        if len(flat):
            last += len(flat)
            ends.append(last)
    sep[ends] = ord(_END)
    texts = iter(rec.tobytes().translate(None, b"\0").decode().split(_END))
    return [next(texts) if len(flat) else "" for flat in flats]


class SvgCanvas:
    """Collects shapes in math coordinates, then renders a self-contained
    SVG with a computed viewBox.

    Each shape keeps its coordinates in draw order; ``render`` finds their
    extents once, with the rule of builtin ``min`` and ``max`` over them in
    draw order.  On NaN-free coordinates numpy's extremes are the same
    values, so ``render`` takes those and scans in Python only when a
    coordinate is NaN.  The scale is fixed at construction."""

    def __init__(self, scale: float = 120.0, pad: float = 0.35):
        self.scale = scale
        self.pad = pad
        self._elements: list[str] = []  # a polyline's lacks its tag and points
        self._polylines: list = []  # each polyline's element index, tag and flat coordinates
        self._seen: list = []  # each shape's (x, y) points, in draw order
        self._flip = np.array([scale, -scale])

    def _pt(self, x: float, y: float) -> tuple[float, float]:
        return x * self.scale, -y * self.scale

    def circle(self, cx, cy, r, stroke="#000000", width=1.5, dash=None):
        self._seen.append(((cx - r, cy - r), (cx + r, cy + r)))
        x, y = self._pt(cx, cy)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r * self.scale)}" '
            f'fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>')

    def polyline(self, pts, stroke="#000000", width=1.5, dash=None, close=False):
        """Open (or, with ``close``, closed) path through ``pts``, an (n, 2)
        array or a list of (x, y) pairs."""
        xy = np.asarray(pts, dtype=float).reshape(-1, 2)
        if len(xy):
            self._seen.append(xy)
        with np.errstate(over="ignore", invalid="ignore"):
            # + 0.0 turns -0.0 into 0.0, as _fmt does.
            flat = (xy * self._flip + 0.0).ravel()
        tag = "polygon" if close else "polyline"
        self._polylines.append((len(self._elements), tag, flat))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>')

    def _points(self) -> list[str]:
        """Each polyline's points attribute, in draw order."""
        flats = [flat for _, _, flat in self._polylines]
        texts = _exact_points(flats) if flats else []
        if texts is None:
            texts = [" ".join(["%.4f,%.4f"] * (len(flat) // 2)) % tuple(flat.tolist())
                     for flat in flats]
        return texts

    def dot(self, x, y, color="#000000"):
        self._seen.append(((x, y),))
        px, py = self._pt(x, y)
        self._elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.0000" fill="{color}"/>')

    def label(self, x, y, text, color="#000000", size=14, dx=6.0, dy=-6.0):
        self._seen.append(((x, y),))
        px, py = self._pt(x, y)
        self._elements.append(
            f'<text x="{_fmt(px + dx)}" y="{_fmt(py + dy)}" font-size="{size}" '
            f'font-family="sans-serif" fill="{color}">{text}</text>')

    def render(self, title: str) -> str:
        xs, ys = np.concatenate(self._seen or [((0.0, 0.0), (1.0, 1.0))], dtype=float).T
        x_lo, y_lo, x_hi, y_hi = map(float, (xs.min(), ys.min(), xs.max(), ys.max()))
        if math.isnan(x_lo) or math.isnan(y_lo):  # numpy's extremes keep any NaN
            xs, ys = xs.tolist(), ys.tolist()
            x_lo, y_lo, x_hi, y_hi = min(xs), min(ys), max(xs), max(ys)
        pad = self.pad * self.scale
        x0 = x_lo * self.scale - pad
        x1 = x_hi * self.scale + pad
        y0 = -y_hi * self.scale - pad
        y1 = -y_lo * self.scale + pad
        w, h = x1 - x0, y1 - y0
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
            f'width="{_fmt(w)}" height="{_fmt(h)}">\n'
            f"<title>{title}</title>\n"
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>\n'
        )
        elements = self._elements.copy()
        for (i, tag, _), points in zip(self._polylines, self._points()):
            elements[i] = f'<{tag} points="{points}{elements[i]}'
        return head + "\n".join(elements) + "\n</svg>\n"


def ellipse_polyline(cx: float, cy: float, a: float, b: float,
                     angle: float) -> np.ndarray:
    """Closed sampled outline (_SEGMENTS + 1, 2) of a rotated ellipse."""
    ca, sa = math.cos(angle), math.sin(angle)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = a * _COS, b * _SIN
        return np.stack([cx + ca * u - sa * v, cy + sa * u + ca * v], axis=-1)


def hyperbola_polylines(cx: float, cy: float, a: float, b: float, angle: float,
                        reach: float) -> list[np.ndarray]:
    """Both branches (_SEGMENTS + 1, 2) of a rotated hyperbola, parametrized
    by cosh/sinh up to |u| = reach."""
    ca, sa = math.cos(angle), math.sin(angle)
    cosh, sinh = _hyperbolic(reach)
    branches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            x0, y0 = sign * a * cosh, b * sinh
            branches.append(np.stack([cx + ca * x0 - sa * y0, cy + sa * x0 + ca * y0], axis=-1))
    return branches
