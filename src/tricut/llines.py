"""Balanced L-lines for 3-colored lattice point sets.

An L-line is the union of two distinct axis-parallel rays from a common
corner; it splits the plane into two regions.  For 3n lattice points in
general position (distinct x, distinct y), n of each color, whose orthogonal
convex hull is monochromatic, some L-line is nontrivially balanced: both
regions hold equally many points of every color, neither side empty.

The search runs over a fixed sequence of 6n + 1 "sided orderings" of the
point set.  Each ordering maps to a closed lattice polygon built from its
prefix color deficits; a vertex of that polygon at the origin certifies a
balanced prefix, and the prefix of a sided ordering is exactly the point set
on one side of an L-line.  An origin-free polygon is centrally symmetric and
winds an odd number of times; consecutive orderings differ by moving a single
point, and the two terminal polygons, reverses of each other, wind oppositely.

The search body runs on integer rows: the points' x and y coordinates as
ints and their colors, in input order.  `find_balanced_lline` builds the
rows of a LatticePointSet and calls it; the CLI decodes a payload straight
into rows (`serialization.dec_lattice_rows`), checked by the one row-level
check that `LatticePointSet` runs too.

The points are sorted once by x and once by y (the rank frame).  A quarter
turn only reverses or swaps those two orders, and an ordering of one turn
is named by the rank r of its anchor in the rotated y order: ordering r is
the top m - r points of that order, then the points of y rank < r in x
order.  A polygon vertex is a prefix sum of the step table of
`core.deficit_steps` (which the wedge sweep reads too), each step (dx, dy)
packed into one int64 key dx (4m + 1) + dy, so a vertex is at the origin
exactly when its key sum is 0.  The first m - r prefix sums of ordering r
are those down the y order, the same for every r of the turn; the rest add
a prefix sum in x order over the points below r.  So the search never
builds an ordering: one numpy pass computes the prefix keys of `_PROBES`
orderings spread evenly over a bracket of the sequence, both its ends
included.  The first row with an origin vertex or failing the ends check
stops the search; otherwise one winding call over the rows narrows the
bracket to the first two neighbors that wind differently.  A bracket of at
most `_PROBES` orderings is tested whole.  The L-line's corner is read off
the same sorted coordinates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

import numpy as np

from .core import (
    Color,
    ColoredPoint,
    RGB,
    Rat,
    as_rat,
    deficit_steps,
    require_distinct,
    require_rgb,
    sign,
    winding_number,
)
from .errors import (
    InternalError,
    PreconditionViolated,
)
from .oracles import ORACLE_MAX_POINTS

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
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        _check_lattice_rows(
            [p.x for p in points], [p.y for p in points], [p.color for p in points]
        )

    @property
    def n(self) -> int:
        return len(self.points) // 3


def _check_lattice_rows(xs: Sequence[Rat | int], ys: Sequence[Rat | int],
                        colors: Sequence[Color] | None) -> None:
    """The lattice set's preconditions on rows: every coordinate an integer,
    no shared x, no shared y and, unless `colors` is None, n points of each
    color (3n in all)."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x.denominator != 1 or y.denominator != 1:
            raise PreconditionViolated(f"point {i} is not on the integer lattice")
    require_distinct(xs, "x")
    require_distinct(ys, "y")
    if colors is not None:
        require_rgb(colors, "point", len(colors) // 3)


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
        r0, r1 = self.rays
        object.__setattr__(
            self, "rays", (r1, r0) if _RAY_ORDER.get(r1) < _RAY_ORDER.get(r0) else (r0, r1)
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


# -- the rank frame ------------------------------------------------------------

# the rotated x and y after each number of clockwise quarter turns, as
# (axis, sign) with axis 0 = x and 1 = y: one turn maps (x, y) to (y, -x)
_TURN_AXES = {
    0: ((0, 1), (1, 1)),
    1: ((1, 1), (0, -1)),
    2: ((0, -1), (1, -1)),
    3: ((1, -1), (0, 1)),
}


class _RankFrame:
    """The points sorted once by x and once by y, as index arrays and ranks.

    A quarter turn only reverses or swaps the two sort orders, so every
    rotated order is one of four arrays built here, and a rotated coordinate
    compares like its rank.  Needs integer coordinates, distinct x and
    distinct y.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int]):
        m = self.m = len(xs)
        # sorted coordinate values per axis, for the corners of realized L-lines
        self.coords: list[list[int]] = []
        self._oriented: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for axis, vals in enumerate((xs, ys)):
            by = np.array(sorted(range(m), key=vals.__getitem__), dtype=np.intp)
            rank = np.empty(m, dtype=np.intp)
            rank[by] = np.arange(m)
            self.coords.append([vals[i] for i in by])
            self._oriented[axis, 1] = (by, rank)
            self._oriented[axis, -1] = (by[::-1], m - 1 - rank)

    def rotated(self, turns: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """((order, rank) of the rotated x, (order, rank) of the rotated y)
        after `turns` clockwise quarter turns; orders are ascending."""
        return tuple(self._oriented[a] for a in _TURN_AXES[turns])

    def ordering(self, anchor: int, turns: int) -> np.ndarray:
        """Indices of the sided ordering at point `anchor`: the points at or
        above it top to bottom, then the rest left to right."""
        (x_order, _), (y_order, y_rank) = self.rotated(turns)
        r = y_rank[anchor]
        return np.concatenate((y_order[r:][::-1], x_order[y_rank[x_order] < r]))


def _rows_of_points(points: Sequence[ColoredPoint]) -> tuple[list[int], list[int], list[Color]]:
    """(xs, ys, colors) of lattice points, the coordinates as ints."""
    return ([p.x.numerator for p in points], [p.y.numerator for p in points],
            [p.color for p in points])


def _lattice_frame(s) -> _RankFrame:
    """Rank frame of a LatticePointSet, or of raw points after checking
    their coordinates."""
    points = _points_of(s)
    if not isinstance(s, LatticePointSet):
        _check_lattice_rows([p.x for p in points], [p.y for p in points], None)
    xs, ys, _ = _rows_of_points(points)
    return _RankFrame(xs, ys)


# -- orthogonal convex hull ----------------------------------------------------


def _hull_indices(frame: _RankFrame) -> np.ndarray:
    # p is undominated on its left exactly when its y is a new maximum or
    # minimum of the y ranks met so far in x order; the reversed sweep
    # covers its right
    (by_x, _), (_, y_rank) = frame.rotated(0)
    yr = y_rank[by_x]

    def extreme(v):
        return (v == np.maximum.accumulate(v)) | (v == np.minimum.accumulate(v))

    return np.sort(by_x[extreme(yr) | extreme(yr[::-1])[::-1]])


def ortho_hull(s) -> list[ColoredPoint]:
    """Points undominated in at least one of the four quadrant orders.

    These are the points on the four maximal staircases, i.e. the boundary
    of the orthogonal convex hull.  Accepts a LatticePointSet or any
    sequence of integer-coordinate points with distinct x and distinct y.
    """
    points = _points_of(s)
    return [points[i] for i in _hull_indices(_lattice_frame(s))]


def _hull_color(frame: _RankFrame, colors: Sequence[Color]) -> Color:
    """The one color of the orthogonal hull; raises unless it is monochromatic."""
    hull_colors = {colors[i] for i in _hull_indices(frame)}
    if len(hull_colors) != 1:
        raise PreconditionViolated(
            f"orthogonal hull is not monochromatic: {sorted(c.value for c in hull_colors)}"
        )
    return hull_colors.pop()


# -- sided orderings and their curves ------------------------------------------


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
    frame = _lattice_frame(s)
    if p not in points:
        raise PreconditionViolated("anchor must belong to the point set")
    order = frame.ordering(points.index(p), quarter_turns)
    return SidedOrdering(p, quarter_turns, tuple(points[i] for i in order))


def _color_steps(colors: Sequence[Color], hull_color: Color) -> np.ndarray:
    """One row per point from `core.deficit_steps`: (-1,-1) for the hull
    color, (2,-1) and (-1,2) for the other two colors in R, G, B order."""
    x_color, y_color = (c for c in RGB if c is not hull_color)
    return deficit_steps(colors, x_color, y_color)


def _step_keys(steps: np.ndarray) -> np.ndarray:
    """Each step (dx, dy) as the int64 dx * (4m + 1) + dy, m = len(steps).

    A sum of distinct steps has both coordinates in -m..2m, so the map is
    one-to-one on such sums and the key of a sum is the sum of the keys: a
    prefix is at the origin exactly when its key sum is 0."""
    return steps[:, 0] * (4 * len(steps) + 1) + steps[:, 1]


def _key_points(q: np.ndarray, m: int) -> np.ndarray:
    """The (x, y) sums behind prefix keys of m steps, as a trailing axis."""
    # y is in -2m..2m, so q + 2m = x (4m + 1) + (y + 2m) with 0 <= y + 2m <= 4m
    x, y = np.divmod(q + 2 * m, 4 * m + 1)
    return np.stack((x, y - 2 * m), axis=-1)


_ENDS_MESSAGE = (
    "ordering must start and end with hull-colored points "
    "(is the orthogonal hull monochromatic?)"
)


def _ends_ok(q: np.ndarray, hull_key: int) -> np.ndarray:
    """Per row of prefix keys q_1..q_m: does the curve run from (-1,-1) to
    (1,1) and end on a hull-colored point?

    q_k at the origin marks a balanced prefix of k points, and the closed
    curve is q_1..q_{m-1} followed by their negatives.  An ordering of a set
    with a monochromatic hull starts and ends on hull-colored points, which
    forces the checked ends."""
    return (q[:, 0] == hull_key) & (q[:, -2] == -hull_key) & (q[:, -1] - q[:, -2] == hull_key)


# -- the bracket search --------------------------------------------------------

# orderings tested per pass of the search: both ends of the bracket and
# evenly spaced ones between them.  At least 3, so that a pass narrows it
_PROBES = 16


def _schedule(m: int) -> tuple[tuple[int, int], ...]:
    """(turns, count) runs of the schedule: the orderings of y ranks
    0..count-1 after `turns` clockwise quarter turns.  That is down the y
    order at half a turn, up the x order at three quarters, then the
    y-minimal anchor unrotated."""
    return ((2, m), (3, m), (0, 1))


def _block_keys(top: np.ndarray, x_keys: np.ndarray, x_y_rank: np.ndarray,
                run: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Prefix keys q_1..q_m of the orderings of y ranks r in the schedule's
    runs `run`, a row each.

    Ordering r lists the top m - r points of the y order, then the points of
    y rank < r in x order.  So q_k = top[k] for k <= m - r, and after that
    q_k = top[m - r] plus a prefix sum, in x order, over the points below r.
    Row i of `top` holds the prefix key sums down the y order in the quarter
    turn of run i (top[i, 0] = 0), of `x_keys` and `x_y_rank` the keys and
    y ranks in x order."""
    m = x_keys.shape[1]
    head = top[run, m - r][:, None]
    r = r[:, None]
    below = x_y_rank[run] < r
    rest = np.where(below, x_keys[run], 0).cumsum(axis=1) + head
    q = top[run, 1:]
    # row i has r_i points below and r_i columns past its head, both in order
    q[np.arange(m - 1, -1, -1) < r] = rest[below]
    return q


def find_balanced_lline(s: LatticePointSet, validate: bool = False) -> tuple[LLine, int]:
    """L-line with k of each color in region 1, 1 <= k <= n-1.

    Preconditions: n >= 2 and a monochromatic orthogonal hull.  With
    validate=True every pass takes windings, also one with a hit, and
    consecutive origin-free curves are checked to keep equal winding (the
    swept cells between them cannot contain the origin: an origin-containing
    cell would need a vertex coordinate divisible by 3 and in {1, 2}).
    """
    return _lline_of_rows(*_rows_of_points(s.points), validate=validate)


def _lline_of_rows(
    xs: Sequence[int], ys: Sequence[int], colors: Sequence[Color], validate: bool = False
) -> tuple[LLine, int]:
    """`find_balanced_lline` on rows that pass `_check_lattice_rows`: the
    points' integer coordinates and colors, in input order."""
    n = len(colors) // 3
    if n < 2:
        raise PreconditionViolated("n >= 2 is required for a nontrivial L-line")
    frame = _RankFrame(xs, ys)
    m = frame.m
    hull_color = _hull_color(frame, colors)
    keys = _step_keys(_color_steps(colors, hull_color))
    hull_key = -4 * m - 2  # the key of (-1, -1)
    runs = _schedule(m)
    rotated = [frame.rotated(t) for t, _ in runs]
    top = np.stack([np.concatenate(([0], keys[y[::-1]].cumsum())) for _, (y, _) in rotated])
    x_keys = np.stack([keys[x] for (x, _), _ in rotated])
    x_y_rank = np.stack([y_rank[x] for (x, _), (_, y_rank) in rotated])
    run = np.repeat(np.arange(len(runs)), [count for _, count in runs])
    ranks = np.concatenate([np.arange(count) for _, count in runs])

    lo, hi = 0, len(run) - 1
    while True:
        span = hi - lo
        whole = span < _PROBES
        p = lo + (np.arange(span + 1) if whole else span * np.arange(_PROBES) // (_PROBES - 1))
        q = _block_keys(top, x_keys, x_y_rank, run[p], ranks[p])
        ends = _ends_ok(q, hull_key)
        zero = q[:, :-1] == 0
        stop = ~ends | zero.any(axis=1)
        i = int(stop.argmax()) if stop.any() else len(p)
        if validate or i == len(p):
            curves = _key_points(q[~stop, :-1], m)
            w = winding_number(np.concatenate((curves, -curves), axis=1))
            if (w % 2 == 0).any():
                raise InternalError("origin-free curve with even winding")
            changed = np.flatnonzero(np.diff(w[:i]))  # among the rows before the stop
            if whole and changed.size:
                j = int(changed[0])
                raise InternalError("winding changed between consecutive origin-free curves",
                                    {"prev": int(w[j]), "now": int(w[j + 1])})
            # the final ordering is the first reversed, its curve the first
            # curve traversed backward: it winds oppositely, which brackets a hit
            if span == len(run) - 1 and not stop[[0, -1]].any() and w[-1] != -w[0]:
                raise InternalError("no balanced prefix in the full ordering sequence", {
                    "n": n, "winding_first": int(w[0]), "winding_last": int(w[-1])})
        if i < len(p):
            if not ends[i]:
                raise PreconditionViolated(_ENDS_MESSAGE)
            t, r = runs[run[p[i]]][0], int(ranks[p[i]])
            return _realize_prefix(xs, ys, colors, frame, t, r, int(zero[i].argmax()) + 1)
        lo, hi = int(p[changed[0]]), int(p[changed[0] + 1])


def _realize_prefix(
    xs: Sequence[int], ys: Sequence[int], colors: Sequence[Color],
    frame: _RankFrame, turns: int, r: int, k0: int,
) -> tuple[LLine, int]:
    """L-line whose one side is exactly the first k0 points of the ordering
    of y rank r after `turns` quarter turns.

    The corner is placed by gaps in the rotated frame (gap g lies above g
    rotated coordinates), mapped back to gaps of the x and y orders and
    then onto the canonical grid: occupied coordinate + 1/2, or
    minimum - 1/2 below every point.
    """
    m = frame.m
    (x_order, x_rank), (y_order, y_rank) = frame.rotated(turns)
    a_size = m - r

    if k0 <= a_size:
        # prefix = the k0 highest points in the rotated frame
        gaps = (int(x_rank[y_order[r]]) + 1, m - k0)
        rays_rot = (RayDir.LEFT, RayDir.RIGHT)
    else:
        # prefix = everything at-or-above the anchor, plus the leftmost
        # k0 - a_size of the rest: the complement of an open quadrant
        last = np.flatnonzero(y_rank[x_order] < r)[k0 - a_size - 1]
        gaps = (int(last) + 1, r)
        rays_rot = (RayDir.DOWN, RayDir.RIGHT)

    corner: list[Rat] = [HALF, HALF]
    for (axis, sign), g in zip(_TURN_AXES[turns], gaps):
        g = g if sign > 0 else m - g
        vals = frame.coords[axis]
        corner[axis] = vals[g - 1] + HALF if g else vals[0] - HALF
    rays = []
    for ray in rays_rot:
        for _ in range(turns):
            ray = _CCW_RAY[ray]
        rays.append(ray)
    l = LLine(tuple(corner), tuple(rays))

    c1, c2 = _doubled_counts(l, xs, ys, colors)
    n = m // 3
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


def _int_array(vals: Sequence[int]) -> np.ndarray:
    """Integers as int64, or as Python ints in an object array when one of
    them does not fit."""
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


def _doubled_counts(
    l: LLine, xs: Sequence[int], ys: Sequence[int], colors: Sequence[Color]
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """`lline_counts` for the search's self-check, in the doubled frame:
    lattice points double to even integers and the corner to odd ones, so
    no point lies on l and no Fraction is needed.  As 2c is odd, 2v > 2c
    exactly when v > (2c - 1) // 2, one integer comparison per point and
    axis.  Kept apart from the walk's keys, from LLine.in_region1 and from
    the oracle's counting."""
    dx, dy = _REGION1_DIR[frozenset(l.rays)]
    inside = np.ones(len(colors), dtype=bool)
    for d, vals, c in ((dx, xs, l.corner[0]), (dy, ys, l.corner[1])):
        if d:  # a zero d leaves that axis free
            inside &= (_int_array(vals) > (int(2 * c) - 1) // 2) == (d > 0)
    picked = list(compress(colors, inside.tolist()))
    c1 = tuple(picked.count(c) for c in RGB)
    c2 = tuple(colors.count(c) - k for c, k in zip(RGB, c1))
    return c1, c2


# -- exhaustive oracle ---------------------------------------------------------


def brute_oracle_llines(s: LatticePointSet) -> list[tuple[LLine, int]]:
    """Every balanced L-line over the canonical corner grid.

    Corners run over (occupied coordinate + 1/2) plus (minimum - 1/2) per
    axis; that grid realizes every combinatorially distinct L-line.  Returns
    (L-line, k) pairs with region-1 counts (k,k,k), 1 <= k <= n-1, in
    deterministic corner-then-ray order.

    Counting reads ranks from the oracle's own sort of each axis: corner a
    lies between the a-th and the (a+1)-th smallest coordinate, so a point
    is left of it exactly when its x rank is below a.  That stays exact at
    any coordinate size.  One table holds every corner's counts:
    below[c, a, b] is the number of points of color c with x rank < a and
    y rank < b, two cumulative sums over a grid that holds one 1 per point.
    A ray pair's region 1 is a signed sum of four views of it: below itself,
    its last column (x rank < a), its last row (y rank < b) and the color
    totals.  The membership code is disjoint from LLine.in_region1 and from
    the solver's rank frame.
    """
    points = s.points
    m = len(points)
    cap = ORACLE_MAX_POINTS["lline"]
    if m > cap:
        raise PreconditionViolated(f"oracle is limited to 1..{cap} points, got {m}")
    n = s.n
    xs = sorted(int(p.x) for p in points)
    ys = sorted(int(p.y) for p in points)
    cand_x = [xs[0] - HALF] + [x + HALF for x in xs]
    cand_y = [ys[0] - HALF] + [y + HALF for y in ys]

    rank_x = {x: i for i, x in enumerate(xs)}
    rank_y = {y: i for i, y in enumerate(ys)}
    grid = np.zeros((3, m + 1, m + 1), dtype=np.int64)
    grid[[RGB.index(p.color) for p in points],
         [rank_x[int(p.x)] + 1 for p in points],
         [rank_y[int(p.y)] + 1 for p in points]] = 1
    below = grid.cumsum(axis=1).cumsum(axis=2)
    views = ((below, below[:, :, m:]), (below[:, m:, :], below[:, m:, m:]))
    # region 1 along one axis of sign d, as the coefficients of
    # (rank below the corner, every rank)
    along = {-1: (1, 0), 0: (0, 1), 1: (-1, 1)}

    hits = []
    for pidx, rays in enumerate(RAY_PAIRS):
        dx, dy = _REGION1_DIR[frozenset(rays)]
        cnt = sum(cx * cy * views[i][j]
                  for i, cx in enumerate(along[dx]) for j, cy in enumerate(along[dy]))
        ok = (
            (cnt[0] == cnt[1])
            & (cnt[1] == cnt[2])
            & (cnt[0] >= 1)
            & (cnt[0] <= n - 1)
        )
        for a, b in np.argwhere(ok):
            hits.append((int(a), int(b), pidx, int(cnt[0, a, b])))
    hits.sort(key=lambda h: (h[0], h[1], h[2]))
    return [
        (LLine((cand_x[a], cand_y[b]), RAY_PAIRS[pidx]), k) for a, b, pidx, k in hits
    ]
