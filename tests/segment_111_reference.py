"""The Fraction 111 segment, kept as a test-only reference.

`reference_extract_111_segment` is what `cells.extract_111_segment` computed
before it ran on integer triples: the cell's corners and the edge point as
Fraction points, and one Fraction crossing parameter per line along the
cevian from the edge point through the corner (`reference_cevian`), first at
1/2 of the edge, then at 1/3.
"""

from fractions import Fraction

from tricut.cells import is_complete
from tricut.core import RGB, ColoredLine, Segment
from tricut.errors import InternalError, PreconditionViolated


def reference_cevian(coeffs, face, corner_v, edge_k, t_edge, x_avoid):
    """One candidate segment, from the point at `t_edge` along edge `edge_k`
    through the face vertex `corner_v`, or None when it would be vertical."""
    m = len(face.vertices)
    v = face.vertices[corner_v]
    a, b = face.vertices[edge_k], face.vertices[(edge_k + 1) % m]
    base = (a[0] + t_edge * (b[0] - a[0]), a[1] + t_edge * (b[1] - a[1]))
    if base[0] == v[0]:
        return None
    if x_avoid is not None and (base[0] == x_avoid or (base[0] > x_avoid) != (v[0] > x_avoid)):
        raise PreconditionViolated("cell is not on one side of x = x_avoid")

    # param 0 at the edge point, 1 at the corner
    u = (v[0] - base[0], v[1] - base[1])
    targets = {
        face.boundary_lines[(corner_v - 1) % m],
        face.boundary_lines[corner_v],
        face.boundary_lines[edge_k],
    }
    lo_gap = hi_gap = Fraction(1)
    for li, (la, lb, lc) in enumerate(coeffs):
        den = la * u[0] + lb * u[1]
        if den == 0:
            continue
        t = -(la * base[0] + lb * base[1] + lc) / den
        if li in targets:
            if t != 0 and t != 1:
                raise InternalError("target line param off its contact", {"line": li})
            continue
        if 0 <= t <= 1:
            raise InternalError("foreign line crosses the core segment", {"line": li})
        if t < 0:
            lo_gap = min(lo_gap, -t)
        else:
            hi_gap = min(hi_gap, t - 1)
    t0, t1 = -lo_gap / 2, 1 + hi_gap / 2
    if x_avoid is not None:
        t_cross = (x_avoid - base[0]) / u[0]
        if t_cross < 0:
            t0 = max(t0, t_cross) / 2
        elif t_cross > 1:
            t1 = (1 + min(t1, t_cross)) / 2
    return Segment(
        (base[0] + t0 * u[0], base[1] + t0 * u[1]),
        (base[0] + t1 * u[0], base[1] + t1 * u[1]),
    )


def reference_extract_111_segment(lines, face, x_avoid=None):
    """Segment crossing exactly one line of each color, from a complete cell;
    lines as ColoredLines or (a, b, c) triples."""
    coeffs = [(l.a, l.b, l.c) if isinstance(l, ColoredLine) else l for l in lines]
    if not is_complete(face):
        raise PreconditionViolated("cell is not complete")
    m = len(face.vertices)

    corner = None
    for i in range(m):
        j = (i + 1) % m
        if face.boundary_colors[i] != face.boundary_colors[j] and face.vertices[j][0] != x_avoid:
            corner = j
            break
    if corner is None:
        raise InternalError("complete cell without a usable bichromatic corner")
    c1 = face.boundary_colors[(corner - 1) % m]
    c2 = face.boundary_colors[corner]
    third = next(c for c in RGB if c not in (c1, c2))
    edge_k = next(k for k in range(m) if face.boundary_colors[k] is third)

    for t_edge in (Fraction(1, 2), Fraction(1, 3)):
        seg = reference_cevian(coeffs, face, corner, edge_k, t_edge, x_avoid)
        if seg is not None:
            return seg
    raise InternalError("segment direction is forced vertical")
