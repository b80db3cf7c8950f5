"""SVG 1.1 figures for arrangements, wedges, arc sets, and L-lines.

Rendering is read-only and presentation-lossy: every coordinate is rounded
to 6 decimal digits when written into the SVG text, while the objects being
drawn keep their exact rationals.  No scripting, no external assets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .cells import Arrangement, Face
from .core import ArcSet, CirclePoint, Color, ColoredLine, ColoredPoint, clip_line
from .llines import LatticePointSet, LLine, RayDir
from .wedges import DoubleWedge, wedge_contains

_PALETTE = {
    Color.R: "#c0392b",
    Color.G: "#1e8449",
    Color.B: "#2471a3",
    Color.K: "#515a5a",
}
_HIGHLIGHT = "#f4d03f"
_SIZE = 480
_MARGIN = 24


def _fmt(x) -> str:
    return f"{float(x):.6f}"


class _View:
    """Affine map from a world box to the SVG canvas (y flipped)."""

    def __init__(self, xmin, ymin, xmax, ymax):
        w = float(xmax - xmin) or 1.0
        h = float(ymax - ymin) or 1.0
        self.scale = (_SIZE - 2 * _MARGIN) / max(w, h)
        self.xmin, self.ymax = float(xmin), float(ymax)
        self.width = w * self.scale + 2 * _MARGIN
        self.height = h * self.scale + 2 * _MARGIN

    def map(self, p) -> tuple[float, float]:
        x, y = p
        return (
            _MARGIN + (float(x) - self.xmin) * self.scale,
            _MARGIN + (self.ymax - float(y)) * self.scale,
        )

    def xy(self, p) -> str:
        sx, sy = self.map(p)
        return f"{_fmt(sx)},{_fmt(sy)}"


def _document(view: _View, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(view.width)}" height="{_fmt(view.height)}" '
        f'viewBox="0 0 {_fmt(view.width)} {_fmt(view.height)}">'
    )
    bg = f'<rect width="{_fmt(view.width)}" height="{_fmt(view.height)}" fill="#ffffff"/>'
    return "\n".join([head, bg, *body, "</svg>"]) + "\n"


def _line_elems(lines: Sequence[ColoredLine], box, view: _View) -> list[str]:
    out = []
    for l in lines:
        seg = clip_line(l, box)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = (view.map(seg[0]), view.map(seg[1]))
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{_PALETTE[l.color]}" stroke-width="1.8"/>'
        )
    return out


def _dot(p, color: str, view: _View, r: float = 4.5, filled: bool = True) -> str:
    sx, sy = view.map(p)
    fill = color if filled else "#ffffff"
    return (
        f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(r)}" '
        f'fill="{fill}" stroke="{color}" stroke-width="1.6"/>'
    )


def render_arrangement(arr: Arrangement, face: Face | None = None) -> str:
    """All lines clipped to the arrangement box; `face` is filled if given."""
    view = _View(arr.box[0], arr.box[1], arr.box[2], arr.box[3])
    body = []
    if face is not None:
        path = " ".join(view.xy(v) for v in face.vertices)
        body.append(
            f'<polygon points="{path}" fill="{_HIGHLIGHT}" fill-opacity="0.55" '
            'stroke="none"/>'
        )
    body.extend(_line_elems(arr.lines, arr.box, view))
    return _document(view, body)


def render_wedge(points: Sequence[ColoredPoint], w: DoubleWedge | None) -> str:
    """Boundary lines plus points; wedge members filled, the rest hollow.
    With no wedge, the points alone, filled."""
    apex = [] if w is None else [w.apex]
    xs = [p.x for p in points] + [a[0] for a in apex]
    ys = [p.y for p in points] + [a[1] for a in apex]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), 1) / Fraction(8)
    box = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    view = _View(*box)
    body = []
    if w is not None:
        body = _line_elems([w.line1, w.line2], box, view)
        ax, ay = view.map(w.apex)
        body.append(
            f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="3.200000" fill="#000000"/>'
        )
    for p in points:
        filled = w is None or wedge_contains(w, p)
        body.append(_dot((p.x, p.y), _PALETTE[p.color], view, filled=filled))
    return _document(view, body)


def render_arcset(points: Sequence[CirclePoint], a: ArcSet | None) -> str:
    """Unit circle with the arc set (if any) stroked thick and points on the
    rim."""
    view = _View(Fraction(-5, 4), Fraction(-5, 4), Fraction(5, 4), Fraction(5, 4))
    cx, cy = view.map((0, 0))
    r = view.scale  # world radius 1
    body = [
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
        'fill="none" stroke="#cccccc" stroke-width="1.2"/>'
    ]

    def rim(t) -> tuple[float, float]:
        ang = 2 * math.pi * float(t)
        return (cx + r * math.cos(ang), cy - r * math.sin(ang))

    for lo, hi in () if a is None else a.arcs:
        if hi - lo >= 1:
            body.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                f'fill="none" stroke="{_HIGHLIGHT}" stroke-width="7.0"/>'
            )
            continue
        (x1, y1), (x2, y2) = rim(lo), rim(hi)
        large = 1 if hi - lo > Fraction(1, 2) else 0
        body.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 {large} 0 '
            f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{_HIGHLIGHT}" '
            'stroke-width="7.0"/>'
        )
    for p in points:
        sx, sy = rim(p.t)
        body.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="5.000000" '
            f'fill="{_PALETTE[p.color]}" stroke="#ffffff" stroke-width="1.2"/>'
        )
    return _document(view, body)


_RAY_VEC = {
    RayDir.UP: (0, 1),
    RayDir.DOWN: (0, -1),
    RayDir.LEFT: (-1, 0),
    RayDir.RIGHT: (1, 0),
}


def render_lline(s: LatticePointSet, l: LLine | None) -> str:
    """Lattice points with the L-line (if any) drawn from its corner to the
    frame."""
    corner = [] if l is None else [l.corner]
    xs = [p.x for p in s.points] + [c[0] for c in corner]
    ys = [p.y for p in s.points] + [c[1] for c in corner]
    pad = Fraction(3, 2)
    box = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    view = _View(*box)
    xmin, ymin, xmax, ymax = box
    body = []
    for ray in () if l is None else l.rays:
        dx, dy = _RAY_VEC[ray]
        end = (
            xmax if dx > 0 else xmin if dx < 0 else l.corner[0],
            ymax if dy > 0 else ymin if dy < 0 else l.corner[1],
        )
        (x1, y1), (x2, y2) = view.map(l.corner), view.map(end)
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#111111" stroke-width="2.4"/>'
        )
    if l is not None and not l.is_straight:
        cxp, cyp = view.map(l.corner)
        body.append(
            f'<circle cx="{_fmt(cxp)}" cy="{_fmt(cyp)}" r="3.000000" fill="#111111"/>'
        )
    for p in s.points:
        body.append(_dot((p.x, p.y), _PALETTE[p.color], view))
    return _document(view, body)
