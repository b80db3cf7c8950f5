"""Balanced L-lines for 3-colored lattice point sets.

An L-line is the union of two distinct axis-parallel rays from a common
corner; it splits the plane into two regions.  For 3n lattice points in
general position (distinct x, distinct y), n of each color, whose orthogonal
convex hull is monochromatic, some L-line is nontrivially balanced: both
regions hold equally many points of every color, neither side empty.

The search walks a fixed sequence of 6n + 1 "sided orderings" of the point
set.  Each ordering maps to a closed lattice polygon built from its prefix
color deficits; a vertex of that polygon at the origin certifies a balanced
prefix, and the prefix of a sided ordering is exactly the point set on one
side of an L-line.  Consecutive orderings differ by moving a single point,
and each polygon is rebuilt per ordering; the two terminal polygons are
reverses of each other, which forces an origin vertex somewhere along the
sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    Color,
    ColoredPoint,
    GeneralPosition,
    LatticePolygon,
    RGB,
    Rat,
    as_rat,
    check_general_position,
    require_rgb,
    sign,
    winding_number,
)
from .errors import (
    InternalError,
    PreconditionViolated,
)

HALF = Fraction(1, 2)


class RayDir(enum.Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    def __repr__(self) -> str:
        return self.value


_RAY_ORDER = {RayDir.UP: 0, RayDir.DOWN: 1, RayDir.LEFT: 2, RayDir.RIGHT: 3}
_CCW_RAY = {
    RayDir.UP: RayDir.LEFT,
    RayDir.LEFT: RayDir.DOWN,
    RayDir.DOWN: RayDir.RIGHT,
    RayDir.RIGHT: RayDir.UP,
}

# region 1 of each ray pair contains corner + M*d for large M
_REGION1_DIR = {
    frozenset((RayDir.UP, RayDir.LEFT)): (-1, 1),
    frozenset((RayDir.UP, RayDir.RIGHT)): (1, 1),
    frozenset((RayDir.DOWN, RayDir.LEFT)): (-1, -1),
    frozenset((RayDir.DOWN, RayDir.RIGHT)): (1, -1),
    frozenset((RayDir.UP, RayDir.DOWN)): (-1, 0),
    frozenset((RayDir.LEFT, RayDir.RIGHT)): (0, 1),
}

RAY_PAIRS = tuple(
    sorted(
        (tuple(sorted(pair, key=_RAY_ORDER.get)) for pair in _REGION1_DIR),
        key=lambda pr: (_RAY_ORDER[pr[0]], _RAY_ORDER[pr[1]]),
    )
)


def _points_of(s) -> tuple[ColoredPoint, ...]:
    if isinstance(s, LatticePointSet):
        return s.points
    return tuple(s)


@dataclass(frozen=True)
class LatticePointSet:
    """3n lattice points, n per color, no shared x or y coordinate."""

    points: tuple[ColoredPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_lattice_general_position(self.points)
        require_rgb([p.color for p in self.points], "point", len(self.points) // 3)

    @property
    def n(self) -> int:
        return len(self.points) // 3


def _check_lattice_general_position(points: Sequence[ColoredPoint]) -> None:
    for i, p in enumerate(points):
        if p.x.denominator != 1 or p.y.denominator != 1:
            raise PreconditionViolated(f"point {i} is not on the integer lattice")
    check_general_position(points, GeneralPosition.DISTINCT_XY)


@dataclass(frozen=True)
class LLine:
    """Two distinct axis-parallel rays from a half-integer corner."""

    corner: tuple[Rat, Rat]
    rays: tuple[RayDir, RayDir]

    def __post_init__(self):
        x, y = self.corner
        object.__setattr__(self, "corner", (as_rat(x), as_rat(y)))
        if self.corner[0].denominator != 2 or self.corner[1].denominator != 2:
            raise PreconditionViolated(
                f"corner {self.corner} must have half-integer coordinates"
            )
        if len(self.rays) != 2 or self.rays[0] is self.rays[1]:
            raise PreconditionViolated("two distinct ray directions are required")
        object.__setattr__(
            self, "rays", tuple(sorted(self.rays, key=_RAY_ORDER.get))
        )

    @property
    def is_straight(self) -> bool:
        return frozenset(self.rays) in (
            frozenset((RayDir.UP, RayDir.DOWN)),
            frozenset((RayDir.LEFT, RayDir.RIGHT)),
        )

    def in_region1(self, p: ColoredPoint | tuple[Rat, Rat]) -> bool:
        x, y = (p.x, p.y) if isinstance(p, ColoredPoint) else p
        dx, dy = _REGION1_DIR[frozenset(self.rays)]
        sx = sign(x - self.corner[0])
        sy = sign(y - self.corner[1])
        if (dx != 0 and sx == 0) or (dy != 0 and sy == 0):
            raise PreconditionViolated(f"point ({x}, {y}) lies on the L-line")
        return (dx == 0 or sx == dx) and (dy == 0 or sy == dy)


def lline(cx, cy, rays) -> LLine:
    return LLine((as_rat(cx), as_rat(cy)), tuple(RayDir(r) for r in rays))


def lline_counts(l: LLine, s) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Per-color counts (R, G, B) in region 1 and region 2."""
    c1 = {c: 0 for c in RGB}
    c2 = {c: 0 for c in RGB}
    for p in _points_of(s):
        (c1 if l.in_region1(p) else c2)[p.color] += 1
    return (
        (c1[Color.R], c1[Color.G], c1[Color.B]),
        (c2[Color.R], c2[Color.G], c2[Color.B]),
    )


# -- orthogonal convex hull ----------------------------------------------------


def ortho_hull(s) -> list[ColoredPoint]:
    """Points undominated in at least one of the four quadrant orders.

    These are the points on the four maximal staircases, i.e. the boundary
    of the orthogonal convex hull.  Accepts a LatticePointSet or any
    sequence of integer-coordinate points with distinct x and distinct y.
    """
    points = _points_of(s)
    if not isinstance(s, LatticePointSet):
        _check_lattice_general_position(points)
    if not points:
        return []
    by_x = sorted(points, key=lambda p: p.x)
    on_hull = set()
    # p is undominated on its left exactly when its y lies outside the y
    # range of the points left of it; the reversed sweep covers its right
    for sweep in (by_x, by_x[::-1]):
        lo = hi = sweep[0].y
        for p in sweep:
            if not lo < p.y < hi:
                on_hull.add(id(p))
                lo, hi = min(lo, p.y), max(hi, p.y)
    return [p for p in points if id(p) in on_hull]


# -- sided orderings and their curves ------------------------------------------


def _rot_cw(x: Rat, y: Rat, turns: int) -> tuple[Rat, Rat]:
    for _ in range(turns % 4):
        x, y = y, -x
    return x, y


def _rot_ccw(x: Rat, y: Rat, turns: int) -> tuple[Rat, Rat]:
    for _ in range(turns % 4):
        x, y = -y, x
    return x, y


@dataclass(frozen=True)
class SidedOrdering:
    """Permutation of the set: rotate clockwise by quarter_turns * 90 degrees,
    list points at-or-above the anchor top to bottom, then the rest left to
    right."""

    anchor: ColoredPoint
    quarter_turns: int
    order: tuple[ColoredPoint, ...]


def sided_ordering(p: ColoredPoint, quarter_turns: int, s) -> SidedOrdering:
    if quarter_turns not in (0, 1, 2, 3):
        raise PreconditionViolated("quarter_turns must be 0, 1, 2 or 3")
    points = _points_of(s)
    if p not in points:
        raise PreconditionViolated("anchor must belong to the point set")
    rot = {q: _rot_cw(q.x, q.y, quarter_turns) for q in points}
    py = rot[p][1]
    above = sorted((q for q in points if rot[q][1] >= py), key=lambda q: -rot[q][1])
    below = sorted((q for q in points if rot[q][1] < py), key=lambda q: rot[q][0])
    return SidedOrdering(p, quarter_turns, tuple(above + below))


def _hull_color(s) -> Color:
    """The one color of the orthogonal hull; raises unless it is monochromatic."""
    hull_colors = {p.color for p in ortho_hull(s)}
    if len(hull_colors) != 1:
        raise PreconditionViolated(
            f"orthogonal hull is not monochromatic: {sorted(c.value for c in hull_colors)}"
        )
    return hull_colors.pop()


def _step_table(hull_color: Color) -> dict[Color, tuple[int, int]]:
    others = [c for c in RGB if c is not hull_color]
    return {hull_color: (-1, -1), others[0]: (2, -1), others[1]: (-1, 2)}


def _prefix_deficits(order: Sequence[ColoredPoint], step) -> list[tuple[int, int]]:
    """q_0..q_m: q_k sums the color steps of the first k points."""
    q = [(0, 0)]
    for p in order:
        dx, dy = step[p.color]
        q.append((q[-1][0] + dx, q[-1][1] + dy))
    return q


@dataclass(frozen=True)
class LatticeCurvePrefix:
    """Prefix-deficit vertices q_1..q_{3n-1}; q_k sums the color steps of the
    ordering's first k points.  Indices in `zeros` mark balanced prefixes."""

    vertices: tuple[tuple[int, int], ...]
    zeros: tuple[int, ...]

    def closed(self) -> LatticePolygon:
        anti = tuple((-x, -y) for x, y in self.vertices)
        return LatticePolygon(self.vertices + anti)


def lattice_curve(sigma: SidedOrdering, hull_color: Color | None = None) -> LatticeCurvePrefix:
    """Build the prefix curve of a sided ordering.

    The hull color contributes step (-1,-1); the remaining two colors in
    R,G,B order contribute (2,-1) and (-1,2).  A valid ordering of a
    monochromatic-hull set starts and ends with hull-colored points, forcing
    q_1 = (-1,-1) and q_{3n-1} = (1,1); anything else is rejected.
    """
    pts = sigma.order
    require_rgb([p.color for p in pts])
    if hull_color is None:
        hull_color = _hull_color(pts)
    q = _prefix_deficits(pts, _step_table(hull_color))
    verts = q[1:-1]
    zeros = [k for k in range(1, len(pts)) if q[k] == (0, 0)]
    if verts[0] != (-1, -1) or verts[-1] != (1, 1) or pts[-1].color is not hull_color:
        raise PreconditionViolated(
            "ordering must start and end with hull-colored points "
            "(is the orthogonal hull monochromatic?)"
        )
    return LatticeCurvePrefix(tuple(verts), tuple(zeros))


# -- the zero-vertex sweep -----------------------------------------------------


def _ordering_sequence(s: LatticePointSet):
    """Anchor/rotation schedule: down the y order at half a turn, up the x
    order at three quarters, then the y-minimal anchor unrotated."""
    by_y = sorted(s.points, key=lambda p: p.y)
    by_x = sorted(s.points, key=lambda p: p.x)
    seq = [(p, 2) for p in reversed(by_y)]
    seq += [(p, 3) for p in by_x]
    seq.append((by_y[0], 0))
    return seq


def find_balanced_lline(s: LatticePointSet, validate: bool = False) -> tuple[LLine, int]:
    """L-line with k of each color in region 1, 1 <= k <= n-1.

    Preconditions: n >= 2 and a monochromatic orthogonal hull.  With
    validate=True consecutive origin-free curves are checked to keep equal
    winding (the swept cells between them cannot contain the origin: an
    origin-containing cell would need a vertex coordinate that is both
    divisible by 3 and in {1, 2}).
    """
    n = s.n
    if n < 2:
        raise PreconditionViolated("n >= 2 is required for a nontrivial L-line")
    hull_color = _hull_color(s)
    windings: list[int] = []

    for anchor, turns in _ordering_sequence(s):
        sigma = sided_ordering(anchor, turns, s)
        curve = lattice_curve(sigma, hull_color)
        if curve.zeros:
            return _realize_prefix(s, sigma, curve.zeros[0])
        if validate:
            w = winding_number(curve.closed())
            if windings and w != windings[-1]:
                raise InternalError(
                    "winding changed between consecutive origin-free curves",
                    {"prev": windings[-1], "now": w},
                )
            windings.append(w)

    # no zero vertex anywhere: impossible, because the final ordering is the
    # reverse of the first, so its curve is the first curve traversed
    # backward and their (odd) windings have opposite signs
    trace: dict = {"n": n}
    if windings:
        trace["winding_first"] = windings[0]
        trace["winding_last"] = windings[-1]
    raise InternalError("no balanced prefix in the full ordering sequence", trace)


def _sep_below(sorted_vals: list[Rat], v: Rat) -> Rat:
    """Canonical half-integer separator just below v: the largest occupied
    value below v plus 1/2, or the minimum minus 1/2 when none lies below.
    Moving v there crosses no occupied value."""
    lower = [u for u in sorted_vals if u < v]
    if lower:
        return lower[-1] + HALF
    return sorted_vals[0] - HALF


def _snap_corner(s: LatticePointSet, cx: Rat, cy: Rat) -> tuple[Rat, Rat]:
    """Move the corner onto the canonical grid (occupied coordinate + 1/2,
    or minimum - 1/2) without crossing any occupied coordinate."""
    xs = sorted(p.x for p in s.points)
    ys = sorted(p.y for p in s.points)
    return _sep_below(xs, cx), _sep_below(ys, cy)


def _realize_prefix(s: LatticePointSet, sigma: SidedOrdering, k0: int) -> tuple[LLine, int]:
    """L-line whose one side is exactly the first k0 points of the ordering."""
    turns = sigma.quarter_turns
    order = sigma.order
    rot = {p: _rot_cw(p.x, p.y, turns) for p in s.points}
    anchor_rx, anchor_ry = rot[sigma.anchor]
    a_size = sum(1 for p in s.points if rot[p][1] >= anchor_ry)

    if k0 <= a_size:
        # prefix = the k0 highest points in the rotated frame
        ry_k = rot[order[k0 - 1]][1]
        sorted_ry = sorted(rot[p][1] for p in s.points)
        cy = _sep_below(sorted_ry, ry_k)
        cx = anchor_rx + HALF
        rays_rot = (RayDir.LEFT, RayDir.RIGHT)
    else:
        # prefix = everything at-or-above the anchor, plus the leftmost
        # k0 - a_size of the rest: the complement of an open quadrant
        rx_j = rot[order[k0 - 1]][0]
        cx = rx_j + HALF
        cy = anchor_ry - HALF
        rays_rot = (RayDir.DOWN, RayDir.RIGHT)

    ox, oy = _rot_ccw(cx, cy, turns)
    rays = []
    for r in rays_rot:
        for _ in range(turns % 4):
            r = _CCW_RAY[r]
        rays.append(r)
    corner = _snap_corner(s, ox, oy)
    l = LLine(corner, tuple(rays))

    c1, c2 = lline_counts(l, s)
    n = s.n
    if len(set(c1)) != 1 or len(set(c2)) != 1 or not 1 <= c1[0] <= n - 1:
        raise InternalError(
            "realized L-line is not nontrivially balanced",
            {"c1": c1, "c2": c2, "k0": k0},
        )
    if c1[0] * 3 != k0 and c2[0] * 3 != k0:
        raise InternalError(
            "realized L-line does not match the balanced prefix",
            {"c1": c1, "k0": k0},
        )
    return l, c1[0]


# -- exhaustive oracle ---------------------------------------------------------


def brute_oracle_llines(s: LatticePointSet) -> list[tuple[LLine, int]]:
    """Every balanced L-line over the canonical corner grid.

    Corners run over (occupied coordinate + 1/2) plus (minimum - 1/2) per
    axis; that grid realizes every combinatorially distinct L-line.  Returns
    (L-line, k) pairs with region-1 counts (k,k,k), 1 <= k <= n-1, in
    deterministic corner-then-ray order.  Counting happens on doubled
    integer coordinates (corners become odd integers), so the comparisons
    stay exact; the membership code is disjoint from LLine.in_region1.
    """
    points = s.points
    if len(points) > 24:
        raise PreconditionViolated("oracle is limited to 24 points")
    n = s.n
    xs = sorted(int(p.x) for p in points)
    ys = sorted(int(p.y) for p in points)
    cand_x = [xs[0] - HALF] + [x + HALF for x in xs]
    cand_y = [ys[0] - HALF] + [y + HALF for y in ys]

    px2 = np.array([2 * int(p.x) for p in points], dtype=np.int64)
    py2 = np.array([2 * int(p.y) for p in points], dtype=np.int64)
    cx2 = np.array([2 * xs[0] - 1] + [2 * x + 1 for x in xs], dtype=np.int64)
    cy2 = np.array([2 * ys[0] - 1] + [2 * y + 1 for y in ys], dtype=np.int64)
    right = px2[None, :] > cx2[:, None]
    above = py2[None, :] > cy2[:, None]
    onehot = np.zeros((len(points), 3), dtype=np.int32)
    cix = {Color.R: 0, Color.G: 1, Color.B: 2}
    for i, p in enumerate(points):
        onehot[i, cix[p.color]] = 1

    hits = []
    for pidx, rays in enumerate(RAY_PAIRS):
        dx, dy = _REGION1_DIR[frozenset(rays)]
        if dx > 0:
            mx = right
        elif dx < 0:
            mx = ~right
        else:
            mx = np.ones_like(right)
        if dy > 0:
            my = above
        elif dy < 0:
            my = ~above
        else:
            my = np.ones_like(above)
        mask = mx[:, None, :] & my[None, :, :]
        cnt = np.einsum("abm,mc->abc", mask.astype(np.int32), onehot)
        ok = (
            (cnt[:, :, 0] == cnt[:, :, 1])
            & (cnt[:, :, 1] == cnt[:, :, 2])
            & (cnt[:, :, 0] >= 1)
            & (cnt[:, :, 0] <= n - 1)
        )
        for a, b in np.argwhere(ok):
            hits.append((int(a), int(b), pidx, int(cnt[a, b, 0])))
    hits.sort(key=lambda h: (h[0], h[1], h[2]))
    return [
        (LLine((cand_x[a], cand_y[b]), RAY_PAIRS[pidx]), k) for a, b, pidx, k in hits
    ]
