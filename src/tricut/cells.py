"""Simple line arrangements, complete cells, and the simplicial parity audit.

A bounded cell of a simple arrangement of 3-colored lines is "complete" when
walking its boundary meets an odd number of red/green, red/blue, and
green/blue color changes.  `find_complete_face` constructs one such cell
incrementally; `build_arrangement` checks simplicity and sets the box at
once, and builds the whole subdivision the first time its faces or vertices
are read, so oracles can scan every cell independently while a figure, which
reads only the lines and the box, never pays for it.

Everything runs on the lines' integer coefficients (`core.int_line`).  A
crossing is the cross product (X, Y, W) of two coefficient triples, the
point (X/W, Y/W); simplicity is checked on these triples by the incidence
kernel of `core`, with the line at infinity as its z.  The incremental
insertion tracks its cell's corners as such triples and tests sides by the
sign of A*X + B*Y + C*W, with W > 0; `_complete_face` returns them with the
line of each edge, and `_face_of_rows` makes them Fractions once, in its
Face.  The search reads nothing else of a line than its triple and its
color, so `_face_of_rows` runs on those rows: `find_complete_face` builds
them from the lines, and the CLI decodes a payload straight into them
(`serialization.dec_line_rows`).  The 111 segment's body (`_segment_111`)
takes the corners and returns its ends as triples, so
`wedges.find_111_wedge` builds no Face or Segment.
The subdivision keys its nodes by primitive triples and orders each line's
points on integer keys, so each vertex becomes a Fraction point only once.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .core import (
    Color,
    ColoredLine,
    Rat,
    RGB,
    Segment,
    Triple,
    check_joins,
    clip_line,
    int_line,
    int_point,
    join_map,
    line,
    require_rgb,
    sign,
)
from .errors import (
    InternalError,
    MixedParity,
    NotPseudomanifold,
    NotSimple,
    PreconditionViolated,
    UnboundedFace,
)


@dataclass(frozen=True)
class Face:
    """One cell.  Edge i joins vertices[i] to vertices[i+1] (cyclic), runs on
    input line boundary_lines[i], and has color boundary_colors[i].  Box edges
    of unbounded cells use line index -1 and color K.  Bounded cells are ccw.
    """

    bounded: bool
    vertices: tuple[tuple[Rat, Rat], ...]
    boundary_lines: tuple[int, ...]
    boundary_colors: tuple[Color, ...]


@dataclass(frozen=True)
class Arrangement:
    """A simple arrangement and a box strictly containing its vertices.

    `vertices` and `faces` are built by `_subdivide` on the first read of
    either and kept; `_crossings` is what `validate_simple` returned.
    """

    lines: tuple[ColoredLine, ...]
    box: tuple[Rat, Rat, Rat, Rat]  # xmin, ymin, xmax, ymax
    _crossings: dict[Triple, tuple[int, int]] = field(compare=False, repr=False)

    @functools.cached_property
    def _subdivision(self) -> tuple[tuple[tuple[Rat, Rat], ...], tuple[Face, ...]]:
        return _subdivide(self)

    @property
    def vertices(self) -> tuple[tuple[Rat, Rat], ...]:
        return self._subdivision[0]

    @property
    def faces(self) -> tuple[Face, ...]:
        return self._subdivision[1]


_AT_INFINITY = (0, 0, 1)  # a crossing (X, Y, W) on it has W = 0: parallel lines


def _not_simple(pair, earlier, p) -> NotSimple:
    if earlier is None:
        return NotSimple(pair, f"lines {pair[0]} and {pair[1]} are parallel or equal")
    trio = tuple(sorted({*earlier, *pair}))
    return NotSimple(trio, f"lines {trio} are concurrent at {_point(p)}")


def validate_simple(lines: Sequence[ColoredLine]) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Check pairwise non-parallel, distinct, and no three concurrent.

    Returns {crossing: (i, j)} for every pair i < j: the point (x/w, y/w) as
    the primitive triple (x, y, w), w > 0, of the `core.int_line` triples.
    Raises NotSimple with the offending index pair or triple.
    """
    return join_map([int_line(l) for l in lines], _AT_INFINITY, _not_simple)


def require_simple(lines: Sequence[ColoredLine]) -> None:
    """Raise NotSimple exactly when `validate_simple` does, with its witness
    (`core.check_joins`: a residue pass decides first on larger inputs)."""
    check_joins([int_line(l) for l in lines], _AT_INFINITY, _not_simple)


def _crossing(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Homogeneous triple (X, Y, W), W > 0, of the crossing of two `int_line`
    triples; W = 0 would mean parallel lines, which callers rule out."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    w = a1 * b2 - a2 * b1
    s = 1 if w > 0 else -1
    return (s * (b1 * c2 - b2 * c1), s * (c1 * a2 - c2 * a1), s * w)


def _point(t: tuple[int, int, int]) -> tuple[Rat, Rat]:
    x, y, w = t
    return (Fraction(x, w), Fraction(y, w))


def _dir_cmp(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    # ccw order starting at the positive x axis; primitive directions of one
    # angle are equal tuples, so two compared here never share an angle
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    if cr == 0:
        raise InternalError("two directions of one angle", {"d1": str(d1), "d2": str(d2)})
    return -1 if cr > 0 else 1


def _extent(ratios: Sequence[tuple[int, int]]) -> tuple[Rat, Rat]:
    """Least and greatest of the rationals num/den (den > 0): compared on
    integer floors, and exactly only among those sharing an extreme floor."""
    floors = [num // den for num, den in ratios]
    lo, hi = min(floors), max(floors)
    return (min(Fraction(*r) for r, f in zip(ratios, floors) if f == lo),
            max(Fraction(*r) for r, f in zip(ratios, floors) if f == hi))


# bits of the fixed-point keys that order a line's points
_KEY_BITS = 64


def _sorted_along(pts: list[tuple[int, int, int]], d: tuple[int, int]) -> list[tuple[int, int, int]]:
    """Distinct homogeneous triples on one line, in order along direction d.

    A point's place is its projection (dx*X + dy*Y)/W, sorted on the integer
    floor of that times 2**_KEY_BITS; only if two keys tie is the line
    sorted again on the exact Fractions.
    """
    dx, dy = d
    ts = [(dx * x + dy * y, w) for x, y, w in pts]
    keys = [(t << _KEY_BITS) // w for t, w in ts]
    order = sorted(range(len(pts)), key=keys.__getitem__)
    if any(keys[k] == keys[m] for k, m in zip(order, order[1:])):
        order.sort(key=lambda k: Fraction(*ts[k]))
    return [pts[k] for k in order]


def build_arrangement(lines: Sequence[ColoredLine]) -> Arrangement:
    """Subdivision of the plane induced by a simple arrangement.

    Checks simplicity (`validate_simple`, raising its `NotSimple`) and sets
    the box, which strictly contains every vertex (margin 1), at once.  The
    vertices and faces are built on the first read of either
    (`_subdivide`): unbounded cells are clipped to the box, so every cell is
    a finite polygon, and cells touching the box are flagged unbounded.
    Face count must equal 1 + n + n*(n-1)/2.
    """
    lines = tuple(lines)
    crossings = validate_simple(lines)
    if crossings:
        xmin, xmax = _extent([(x, w) for x, _, w in crossings])
        ymin, ymax = _extent([(y, w) for _, y, w in crossings])
    else:
        # at most one line: anchor the box where it meets an axis
        x0 = y0 = Fraction(0)
        for l in lines:
            if l.is_vertical:
                x0 = -l.c / l.a
            else:
                y0 = -l.c / l.b
        xmin, xmax, ymin, ymax = x0, x0, y0, y0
    return Arrangement(lines, (xmin - 1, ymin - 1, xmax + 1, ymax + 1), crossings)


def _subdivide(arr: Arrangement) -> tuple[tuple[tuple[Rat, Rat], ...], tuple[Face, ...]]:
    """The vertices and faces of `arr`: its crossings and the box's corners
    and hits as nodes, the pieces of the lines and the box sides between
    them as edges, and one face per walk around them.

    Where each line meets the box comes from `core.clip_line`.  Vertices,
    box corners and box hits are keyed by their primitive homogeneous
    triples, each line's points are ordered by integer keys along the line,
    and each vertex becomes a Fraction point once.  Every edge runs along an
    input line or a box side, so the half-edges around a vertex are ordered
    by integer directions alone: (B, -A) from `core.int_line` divided by
    gcd(A, B) along a line, (1, 0) or (0, 1) along the box, negated on the
    twin.  All directions are ranked once, so each vertex sorts ints.
    """
    lines, box = arr.lines, arr.box
    n = len(lines)
    # crossings stay primitive triples, filed under both lines
    on_line: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for key, (i, j) in arr._crossings.items():
        on_line[i].append(key)
        on_line[j].append(key)
    xmin, ymin, xmax, ymax = box
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]

    # nodes are keyed by primitive triples, corners first, then in the order
    # the lines meet them
    node_id = {int_point(*c): k for k, c in enumerate(corners)}

    # undirected edges (u, v, line index, direction of u -> v); -1 marks box
    # sides.  A line's points run along its primitive direction d, a
    # positive multiple of (B, -A), so equal angles are equal tuples.
    edges: list[tuple[int, int, int, tuple[int, int]]] = []
    hits: list[tuple[Rat, Rat]] = []
    for i, l in enumerate(lines):
        a, b, _ = coeffs = int_line(l)
        ends = clip_line(coeffs, box)
        if ends is None:
            raise InternalError("line does not cross the box twice", {"line": i})
        hits += ends
        g = gcd(a, b)
        d = (b // g, -a // g)
        ids = [node_id.setdefault(t, len(node_id))
               for t in _sorted_along([*(int_point(*e) for e in ends), *on_line[i]], d)]
        edges += [(u, v, i, d) for u, v in zip(ids, ids[1:])]
    # side s holds the hits whose coordinate `axis` equals `v`; a corner hit
    # lies on two sides
    for s, (axis, v) in enumerate(((1, ymin), (0, xmax), (1, ymax), (0, xmin))):
        pts = sorted({corners[s], corners[(s + 1) % 4], *(p for p in hits if p[axis] == v)})
        ids = [node_id[int_point(*p)] for p in pts]
        edges += [(u, v, -1, (axis, 1 - axis)) for u, v in zip(ids, ids[1:])]
    coords = [_point(t) for t in node_id]

    # half-edges 2k (u->v) and 2k+1 (v->u); twin of h is h ^ 1
    he_from = [w for u, v, _, _ in edges for w in (u, v)]
    he_line = [li for _, _, li, _ in edges for _ in (0, 1)]
    dirs = [e for _, _, _, (dx, dy) in edges for e in ((dx, dy), (-dx, -dy))]
    # every direction ranked once, ccw from the positive x axis
    rank = {d: r for r, d in enumerate(sorted(set(dirs), key=functools.cmp_to_key(_dir_cmp)))}
    he_rank = [rank[d] for d in dirs]
    rings: list[list[int]] = [[] for _ in coords]
    for h, u in enumerate(he_from):
        rings[u].append(h)
    # a walk arriving on h leaves on the half-edge just clockwise of h's
    # twin, which keeps its face on the left
    next_he = [0] * len(he_from)
    for ring in rings:
        ring.sort(key=he_rank.__getitem__)
        if len({he_rank[h] for h in ring}) < len(ring):
            raise InternalError("equal directions at a vertex", {"vertex": he_from[ring[0]]})
        for k, h in enumerate(ring):
            next_he[h ^ 1] = ring[k - 1]

    # index -1 (a box side) reads the last entry, K
    colors = [l.color for l in lines] + [Color.K]
    faces: list[Face] = []
    outer_seen = 0
    visited = [False] * len(he_from)
    for h0 in range(len(he_from)):
        if visited[h0]:
            continue
        cycle = []
        h = h0
        while not visited[h]:
            visited[h] = True
            cycle.append(h)
            h = next_he[h]
        if h != h0:
            raise InternalError("face walk did not close", {"start": h0})
        # faces are convex, so every turn off a straight run has the sign of
        # the walk's orientation; the outer walk runs straight past box hits
        turn = 0
        for g, h in zip(cycle, cycle[1:] + cycle[:1]):
            (gx, gy), (hx, hy) = dirs[g], dirs[h]
            turn = gx * hy - gy * hx
            if turn:
                break
        if turn < 0:
            outer_seen += 1
            continue
        if turn == 0:
            raise InternalError("degenerate face", {"start": h0})
        lids = tuple([he_line[x] for x in cycle])
        faces.append(Face(
            bounded=-1 not in lids,
            vertices=tuple([coords[he_from[x]] for x in cycle]),
            boundary_lines=lids,
            boundary_colors=tuple([colors[li] for li in lids]),
        ))
    if outer_seen != 1:
        raise InternalError("expected exactly one outer walk", {"count": outer_seen})
    expected = 1 + n + n * (n - 1) // 2
    if len(faces) != expected:
        raise InternalError("face count mismatch", {"got": len(faces), "expected": expected})
    return tuple(coords), tuple(faces)


# the parity bit (RG 4, RB 2, GB 1) a bichromatic edge flips, by its colors
_EDGE_BIT = {(Color.R, Color.G): 4, (Color.G, Color.R): 4, (Color.R, Color.B): 2,
             (Color.B, Color.R): 2, (Color.G, Color.B): 1, (Color.B, Color.G): 1}


def cycle_parity(colors: Sequence[Color]) -> tuple[int, int, int]:
    """Parities (mod 2) of bichromatic RG, RB, GB adjacencies along a cycle."""
    bits = 0
    for edge in zip(colors, [*colors[1:], *colors[:1]]):
        bits ^= _EDGE_BIT.get(edge, 0)
    return (bits >> 2, bits >> 1 & 1, bits & 1)


def is_complete(face: Face) -> bool:
    """A bounded cell is complete iff all three bichromatic parities are odd."""
    if not face.bounded:
        raise UnboundedFace("completeness is defined for bounded cells only")
    return cycle_parity(face.boundary_colors) == (1, 1, 1)


def find_complete_face(lines: Sequence[ColoredLine]) -> Face:
    """Locate a complete cell by incremental insertion.

    Start from the triangle cut out by the first line of each color, then add
    the remaining lines one at a time.  A line crossing the tracked cell
    splits it into two sub-cells, exactly one of which is complete; keep it.
    The result is a cell of the full arrangement.
    """
    return _face_of_rows(*_rows_of_lines(tuple(lines)))


def _rows_of_lines(lines: Sequence[ColoredLine]) -> tuple[list[Triple], list[Color]]:
    """The rows `_face_of_rows` takes: each line's `int_line` triple, and
    its color."""
    return [int_line(l) for l in lines], [l.color for l in lines]


def _face_of_rows(coeffs: Sequence[Triple], colors: Sequence[Color]) -> Face:
    """`find_complete_face` on rows: each line's `int_line` triple and its
    color, in input order; checks the colors and simplicity first."""
    require_rgb(colors, "line")
    check_joins(coeffs, _AT_INFINITY, _not_simple)
    corners, supports = _complete_face(colors, coeffs)
    return Face(bounded=True, vertices=tuple(map(_point, corners)),
                boundary_lines=tuple(supports),
                boundary_colors=tuple(colors[sp] for sp in supports))


def _complete_face(
    colors: Sequence[Color], coeffs: Sequence[Triple]
) -> tuple[list[Triple], list[int]]:
    """`find_complete_face` on lines known to be simple, with every color,
    given as their colors and `int_line` coefficients `coeffs`: the cell's
    ccw corners and the line of each edge corners[i] -> corners[i+1].

    The corners are crossing triples (X, Y, W), W > 0, of the coefficients;
    line (A, B, C) puts a corner on the side sign(A*X + B*Y + C*W).
    """
    first = {}
    for i, c in enumerate(colors):
        first.setdefault(c, i)
    seed = [first[c] for c in RGB]

    # triangle of the three seed lines, oriented ccw; verts[i] -> verts[i+1]
    # runs on supports[i].  With every W > 0 the determinant of the three
    # corner triples has the sign of the triangle's area.
    i_r, i_g, i_b = seed
    verts = [_crossing(coeffs[i_r], coeffs[i_g]), _crossing(coeffs[i_r], coeffs[i_b]),
             _crossing(coeffs[i_g], coeffs[i_b])]
    owners = [{i_r, i_g}, {i_r, i_b}, {i_g, i_b}]
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = verts
    if x1 * (y2 * w3 - y3 * w2) - y1 * (x2 * w3 - x3 * w2) + w1 * (x2 * y3 - x3 * y2) < 0:
        verts.reverse()
        owners.reverse()
    supports = [next(iter(owners[i] & owners[(i + 1) % 3])) for i in range(3)]

    for idx in range(len(coeffs)):
        if idx in seed:
            continue
        a, b, c = coeffs[idx]
        s = [sign(a * x + b * y + c * w) for x, y, w in verts]
        if any(x == 0 for x in s):
            raise InternalError("tracked cell vertex on a new line", {"line": idx})
        if all(x == s[0] for x in s):
            continue
        plus: list[tuple[tuple[int, int, int], int]] = []
        minus: list[tuple[tuple[int, int, int], int]] = []
        m = len(verts)
        for i in range(m):
            j = (i + 1) % m
            (plus if s[i] > 0 else minus).append((verts[i], supports[i]))
            if s[i] * s[j] < 0:
                x = _crossing(coeffs[idx], coeffs[supports[i]])
                if s[i] > 0:
                    plus.append((x, idx))
                    minus.append((x, supports[i]))
                else:
                    minus.append((x, idx))
                    plus.append((x, supports[i]))
        keep = None
        for cand in (plus, minus):
            cols = tuple(colors[sp] for _, sp in cand)
            if cycle_parity(cols) == (1, 1, 1):
                if keep is not None:
                    raise InternalError("both sub-cells complete", {"line": idx})
                keep = cand
        if keep is None:
            raise InternalError("no complete sub-cell after split", {"line": idx})
        verts = [v for v, _ in keep]
        supports = [sp for _, sp in keep]

    return verts, supports


def extract_111_segment(lines: Sequence[ColoredLine], face: Face) -> Segment:
    """Segment crossing exactly one line of each color, from a complete cell.

    Runs from just outside an edge of one color, through that edge, to just
    past a corner where the other two colors meet.  Never vertical, and no
    endpoint lies on any input line.
    """
    if not is_complete(face):
        raise PreconditionViolated("cell is not complete")
    coeffs, colors = _rows_of_lines(tuple(lines))
    corners = [int_point(*v) for v in face.vertices]
    return Segment(*map(_point, _segment_111(coeffs, colors, corners, face.boundary_lines)))


def _segment_111(
    coeffs: Sequence[Triple], colors: Sequence[Color], corners: Sequence[Triple],
    supports: Sequence[int], x_avoid: Rat | None = None,
) -> tuple[Triple, Triple]:
    """`extract_111_segment` on the lines' rows and a complete cell as
    `_complete_face` gives it; returns the ends as triples (X, Y, W), W > 0.

    With `x_avoid` set (a rational or an int), the cell must lie on one side
    of the line x = x_avoid with at most one vertex on it.  The corner is
    then the first bichromatic one off that line, and the segment stays
    strictly on the cell's side; a complete cell has at least three
    bichromatic corners, so such a corner exists.  Each line's crossing is
    one ratio; Fractions are built only for the two gaps beyond the contacts.
    """
    m = len(corners)
    edge_colors = [colors[sp] for sp in supports]
    # x_avoid = p/r; without it, x = 1/0 is the line at infinity, off every corner
    p, r = (1, 0) if x_avoid is None else (x_avoid.numerator, x_avoid.denominator)
    # vertex j sits between edges j-1 and j
    corner = next((j for j in (*range(1, m), 0) if edge_colors[j - 1] != edge_colors[j]
                   and corners[j][0] * r != p * corners[j][2]), None)
    if corner is None:
        raise InternalError("complete cell without a usable bichromatic corner")
    third = next(c for c in RGB if c not in (edge_colors[corner - 1], edge_colors[corner]))
    edge_k = edge_colors.index(third)

    vx, vy, vw = corners[corner]
    (xa, ya, wa), (xb, yb, wb) = corners[edge_k], corners[(edge_k + 1) % m]
    # the edge point ((k - 1) a + b) / k sits at 1/2 of the edge, or at 1/3
    # when the corner is straight above or below the 1/2 point; the corner
    # is off the edge's line, so the 1/3 point is not
    k = 3 if (xa * wb + xb * wa) * vw == 2 * wa * wb * vx else 2
    bx, by, bw = (k - 1) * xa * wb + xb * wa, (k - 1) * ya * wb + yb * wa, k * wa * wb
    side = bx * r - p * bw  # < 0 without x_avoid: every point is left of infinity
    if side == 0 or (side > 0) != (vx * r > p * vw):
        raise PreconditionViolated("cell is not on one side of x = x_avoid")

    # param t is 0 at the edge point and 1 at the corner: line (A, B, C)
    # takes the values fb and fv there, both times bw * vw, and crosses at
    # t = fb / (fb - fv).  The gaps from [0, 1] to the nearest crossing on
    # either side are kept as (num, den).
    targets = {supports[corner - 1], supports[corner], supports[edge_k]}
    lo = hi = (1, 1)
    for li, (la, lb, lc) in enumerate(coeffs):
        fb = (la * bx + lb * by + lc * bw) * vw
        fv = (la * vx + lb * vy + lc * vw) * bw
        if fb == fv:
            continue  # parallel to the segment direction, never crossed
        if li in targets:
            if fb and fv:
                raise InternalError("target line param off its contact", {"line": li})
            continue
        num, den = (fb, fb - fv) if fb > fv else (-fb, fv - fb)
        if 0 <= num <= den:
            raise InternalError("foreign line crosses the core segment", {"line": li})
        if num < 0:
            if -num * lo[1] < lo[0] * den:
                lo = (-num, den)
        elif (num - den) * hi[1] < hi[0] * den:
            hi = (num - den, den)
    t0, t1 = -Fraction(*lo) / 2, 1 + Fraction(*hi) / 2
    if x_avoid is not None:
        # shrink so the x-coordinate never reaches x_avoid; the crossing
        # parameter sits outside [0, 1] because both contacts share a side
        t_cross = Fraction((p * bw - r * bx) * vw, r * (vx * bw - bx * vw))
        if t_cross < 0:
            t0 = max(t0, t_cross) / 2
        elif t_cross > 1:
            t1 = (1 + min(t1, t_cross)) / 2
    # the ends (1 - t) * edge point + t * corner: (e * (bx, by) + f * (vx, vy)) / w
    ends = [((t.denominator - t.numerator) * vw, t.numerator * bw, t.denominator * bw * vw)
            for t in (t0, t1)]
    return tuple((e * bx + f * vx, e * by + f * vy, w) for e, f, w in ends)


def gen_shielded_counterexample() -> tuple[ColoredLine, ...]:
    """Nine lines, one R, one G, one B and six neutral shields, arranged so no
    cell touches all of R, G, and B.  Removing the shields leaves the RGB
    triangle, which is complete.  Shows the 3-color guarantee has no 4-color
    analogue: recolor the shields to a fourth color and no cell is 4-colored.
    """
    e = Fraction(1, 10 ** 6)
    h = Fraction(1, 4)
    return (
        line(0, 1, 0, Color.R),                       # y = 0
        line(1, 0, 0, Color.G),                       # x = 0
        line(1, 1, -4, Color.B),                      # x + y = 4
        line(1 * e, -1, h, Color.K),                  # y = ex + h, shadows R
        line(2 * e, -1, -h, Color.K),                 # y = 2ex - h
        line(1, -3 * e, -h, Color.K),                 # x = 3ey + h, shadows G
        line(1, -4 * e, h, Color.K),                  # x = 4ey - h
        line(5 * e - 1, -1, 4 + h, Color.K),          # shadows B, outside
        line(6 * e - 1, -1, 4 - h, Color.K),          # shadows B, inside
    )


# -- simplicial parity audit ---------------------------------------------------


class ParityClass(enum.Enum):
    ALL_EVEN = "all-even"
    ALL_ODD = "all-odd"


@dataclass(frozen=True)
class ColoredTriangulation:
    """Pure (d-1)-dimensional simplicial complex with vertices colored 0..d.

    Simplices are d-tuples of vertex ids.  `parity_audit` requires the complex
    to be a closed pseudomanifold: every (d-2)-face lies in exactly 2
    simplices.
    """

    dim: int
    simplices: tuple[tuple[int, ...], ...]
    vertex_colors: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise PreconditionViolated("dim must be at least 2")
        for c in self.vertex_colors:
            if not 0 <= c <= self.dim:
                raise PreconditionViolated(f"vertex color {c} outside 0..{self.dim}")
        norm = []
        seen = set()
        for s in self.simplices:
            ss = tuple(sorted(s))
            if len(set(ss)) != self.dim:
                raise PreconditionViolated(f"simplex {s} needs {self.dim} distinct vertex ids")
            if any(v >= len(self.vertex_colors) or v < 0 for v in ss):
                raise PreconditionViolated(f"simplex {s} references an unknown vertex")
            if ss in seen:
                raise PreconditionViolated(f"duplicate simplex {s}")
            seen.add(ss)
            norm.append(ss)
        object.__setattr__(self, "simplices", tuple(norm))


def good_type_counts(t: ColoredTriangulation) -> tuple[int, ...]:
    """counts[m] = number of simplices whose colors are exactly {0..d} - {m}."""
    counts = [0] * (t.dim + 1)
    all_colors = set(range(t.dim + 1))
    for s in t.simplices:
        cols = {t.vertex_colors[v] for v in s}
        if len(cols) == t.dim:
            (m,) = all_colors - cols
            counts[m] += 1
    return tuple(counts)


def parity_audit(t: ColoredTriangulation) -> ParityClass:
    """Verify the closed pseudomanifold property and the equal-parity law.

    The counts of good simplices per missing color are all even or all odd.
    MixedParity is unreachable for valid input (it would contradict the
    double-counting argument), so reaching it means a bug.
    """
    ridge_count: dict[tuple[int, ...], int] = {}
    for s in t.simplices:
        for r in itertools.combinations(s, t.dim - 1):
            ridge_count[r] = ridge_count.get(r, 0) + 1
    for r, c in ridge_count.items():
        if c != 2:
            raise NotPseudomanifold(f"face {r} lies in {c} simplices, want 2")
    counts = good_type_counts(t)
    parities = {c % 2 for c in counts}
    if len(parities) != 1:
        raise MixedParity(f"good-type counts {counts} have mixed parity")
    return ParityClass.ALL_ODD if parities == {1} else ParityClass.ALL_EVEN
