"""Balanced double wedges and halving segments for 3-colored data.

A double wedge is the union of two opposite sectors cut out by two crossing
lines.  `sweep_balanced_wedge` finds one containing exactly n points of each
color among 6n given points; `halving_segment` is its projective dual and
finds a segment crossing exactly n lines of each color among 6n lines.

The sweep slides an apex down a vertical line far left of the points and
watches the slope ordering.  Each window of 3n consecutive points gives a
deficit vector (blue - n, green - n); all 6n of them form a closed
centrally symmetric lattice polygon that winds an odd number of times
around the origin.  The polygon is an int64 array read off the step table
of `core.deficit_steps`, as the L-line search reads its curve.  Swapping
two adjacent points (an event) moves single vertices by unit-ish steps,
and flipping the ordering end to end reverses the winding, so some
intermediate ordering puts a vertex on the origin.  That vertex is the
balanced window.

Events come from a lazy queue (`_EventQueue`): a heap of the pairs adjacent
in the current slope order, as in kinetic sorting, so a sweep that stops
after k events computes O(m + k) pair-line keys instead of sorting all
m(m - 1)/2 of them.  The sweep and the halving segment run on integer
rows (`_wedge_of_rows`, `_segment_of_rows`: homogeneous triples and
colors); Fractions are built only for the apex, the slopes around the
balanced window and the answer.  The balanced wedge, the 111 wedge and the
halving segment are counted once more, by one integer side count, before
they are returned (`_self_check`).

`find_111_wedge` dualizes the points and pulls a segment out of one complete
cell, on integer rows too (`_wedge111_of_rows`): the cell's corners and the
segment's ends stay triples, the ends give the boundary functionals, and
only the answer is built as Fractions.  Points sharing an x coordinate would
dualize to parallel lines, so they are sheared once, by an integer shear
chosen in closed form, and the segment is kept off the dual image of the
original vertical direction.  Vertical input lines of `halving_segment` are
likewise removed by one integer shear.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cells import _AT_INFINITY, _complete_face, _not_simple, _rows_of_lines, _segment_111
from .cells import _crossing, _point
from .core import (
    Color,
    ColoredLine,
    ColoredPoint,
    Rat,
    RGB,
    Segment,
    Triple,
    _collinear,
    _distinct_rows,
    check_joins,
    deficit_steps,
    dual_line_to_point,
    int_line,
    int_points,
    intersect,
    point_joins,
    require_distinct,
    require_rgb,
    winding_number,
)
from .errors import (
    DegenerateApex,
    InternalError,
    OnBoundary,
    PreconditionViolated,
)
from .oracles import ORACLE_MAX_POINTS

SECTOR_AGREE = "pair-1"     # sectors where the two line functionals share sign
SECTOR_DISAGREE = "pair-2"  # sectors where they differ


# -- slope orderings and the window curve -------------------------------------


@dataclass(frozen=True)
class SlopeOrdering:
    apex: tuple[Rat, Rat]
    points: tuple[ColoredPoint, ...]  # sorted by increasing slope from apex
    slopes: tuple[Rat, ...]


def ordering_at(apex: tuple[Rat, Rat], points: Sequence[ColoredPoint]) -> SlopeOrdering:
    """Order points by slope of the ray from apex.  The apex must not share an
    x coordinate with any point, and no two points may look collinear from it.
    """
    ax, ay = apex
    slopes = []
    for i, p in enumerate(points):
        if p.x == ax:
            raise DegenerateApex(f"point {i} is vertically aligned with the apex")
        slopes.append(((p.y - ay) / (p.x - ax), i))
    slopes.sort()
    for (s1, i1), (s2, i2) in zip(slopes, slopes[1:]):
        if s1 == s2:
            raise DegenerateApex(f"points {i1} and {i2} are collinear with the apex")
    return SlopeOrdering(
        apex=(ax, ay),
        points=tuple(points[i] for _, i in slopes),
        slopes=tuple(s for s, _ in slopes),
    )


def _require_6n(colors: Sequence[Color], what: str) -> int:
    """n for 6n items holding 2n of each color."""
    m = len(colors)
    if m % 6 != 0 or m == 0:
        raise PreconditionViolated(f"need 6n {what}s, got {m}")
    require_rgb(colors, what, 2 * (m // 6))
    return m // 6


_ORIGIN = np.zeros((1, 2), dtype=np.int64)


def _window_curve(steps: np.ndarray) -> np.ndarray:
    """Row k: the sum of the half-length window of `steps` from position k
    (cyclically), divided by 3.  With the steps of `core.deficit_steps`
    (x color blue, y color green) that is (blue - n, green - n) of the
    window: the window holds 3n points, so its sum is 3 (blue - n, green - n),
    and row k + 3n is minus row k, as complementary windows have
    complementary counts.  It is the difference of two prefix sums over the
    doubled sequence."""
    m = len(steps)
    prefix = np.concatenate((_ORIGIN, steps, steps)).cumsum(axis=0)
    return (prefix[m // 2:m // 2 + m] - prefix[:m]) // 3


# the legal steps between consecutive vertices: |dx|, |dy|, |dx + dy| <= 1
_STEPS = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def check_curve_invariants(curve: np.ndarray) -> None:
    """Central symmetry, unit-ish steps, odd winding when the origin is free.

    Runs once per event in validate mode, so each check is a few whole-array
    operations; only a failure looks for the offending row.
    """
    h = len(curve) // 2
    asym = curve[:h] + curve[h:]
    if asym.any():
        k = int(asym.any(axis=1).argmax())
        raise InternalError("curve is not centrally symmetric", {"k": k})
    d = np.concatenate((curve[1:], curve[:1])) - curve
    dsum = d[:, 0] + d[:, 1]
    if np.abs(d).max() > 1 or np.abs(dsum).max() > 1:
        illegal = (np.abs(d).max(axis=1) > 1) | (np.abs(dsum) > 1)
        raise InternalError("illegal curve step", {"k": int(illegal.argmax())})
    if (curve[:, 0] | curve[:, 1]).all() and winding_number(curve) % 2 != 1:
        raise InternalError("origin-free curve with even winding")


# -- double wedges -------------------------------------------------------------


@dataclass(frozen=True)
class DoubleWedge:
    """Two crossing lines; the region is one pair of opposite sectors.

    sector "pair-1" holds the points where line1 and line2 evaluate with the
    same sign, "pair-2" those where the signs differ.
    """

    apex: tuple[Rat, Rat]
    line1: ColoredLine
    line2: ColoredLine
    sector: str

    def __post_init__(self):
        if self.sector not in (SECTOR_AGREE, SECTOR_DISAGREE):
            raise PreconditionViolated(f"unknown sector {self.sector!r}")
        x = intersect(self.line1, self.line2)
        if x is None:
            raise PreconditionViolated("wedge boundary lines are parallel")
        if x != self.apex:
            raise PreconditionViolated("apex is not the boundary intersection")


def wedge_from_functionals(
    apex: tuple[Rat, Rat],
    f1: tuple[Rat, Rat, Rat],
    f2: tuple[Rat, Rat, Rat],
    contains_disagree: bool,
) -> DoubleWedge:
    """Build a DoubleWedge from raw functionals a*x + b*y + c.

    `contains_disagree` says whether the intended region is where the RAW
    functionals have opposite signs.  Line normalization may flip either
    functional; the stored sector label compensates.
    """
    flips = 0
    ls = []
    for a, b, c in (f1, f2):
        lead = a if a != 0 else b
        if lead < 0:
            flips ^= 1
        ls.append(ColoredLine(a, b, c, Color.K))
    disagree = contains_disagree ^ (flips == 1)
    return DoubleWedge(apex, ls[0], ls[1], SECTOR_DISAGREE if disagree else SECTOR_AGREE)


def wedge_contains(w: DoubleWedge, p: ColoredPoint | tuple[Rat, Rat]) -> bool:
    s1, s2 = w.line1.side(p), w.line2.side(p)
    if s1 == 0 or s2 == 0:
        raise OnBoundary("point on a wedge boundary line")
    return (s1 == s2) == (w.sector == SECTOR_AGREE)


def wedge_color_counts(w: DoubleWedge, points: Sequence[ColoredPoint]) -> dict[Color, int]:
    counts = {c: 0 for c in RGB}
    for p in points:
        if wedge_contains(w, p):
            counts[p.color] = counts.get(p.color, 0) + 1
    return counts


def wedge_dual_segment(w: DoubleWedge) -> Segment:
    """Segment joining the dual points of the two boundary lines.

    A line crosses this segment exactly when its dual point lies in the
    double wedge, so crossing counts mirror membership counts.  Requires
    both boundary lines non-vertical (their duals must exist) and the wedge
    to avoid the vertical direction: the sector pair containing it is dual
    to the complement of the segment, not to the segment.
    """
    b1, b2 = w.line1.b, w.line2.b
    vertical_in = ((b1 > 0) == (b2 > 0)) == (w.sector == SECTOR_AGREE)
    if b1 == 0 or b2 == 0 or vertical_in:
        raise PreconditionViolated(
            "wedge contains the vertical direction; no finite segment is dual to it"
        )
    s1 = dual_line_to_point(w.line1)
    s2 = dual_line_to_point(w.line2)
    return Segment((s1.x, s1.y), (s2.x, s2.y))


# -- the sweep -----------------------------------------------------------------


def _pair_line(p, q, n0: int, d0: int) -> tuple[int, int, int, int]:
    """(n, d, dy, dx): intercept n/d on x = n0/d0 and slope dy/dx of the line
    through two point triples (X, Y, W), W > 0, with distinct x; d and dx are
    positive when p is left of q."""
    (xi, yi, wi), (xj, yj, wj) = p, q
    run = n0 * wi - xi * d0  # (x0 - x_i) * wi * d0
    dx, dy = xj * wi - xi * wj, yj * wi - yi * wj  # differences times wi * wj
    return yi * dx * d0 + dy * run, wi * d0 * dx, dy, dx


def _pair_event(p, q, n0: int, d0: int) -> tuple[Fraction, Fraction]:
    """(intercept on x = n0/d0, slope) of the line through two point triples
    with distinct x, as Fractions (`_pair_line`)."""
    n, d, dy, dx = _pair_line(p, q, n0, d0)
    return Fraction(n, d), Fraction(dy, dx)


def _pair_events(triples: Sequence[Triple], x0: Rat):
    """Every point-pair line as (intercept on x = x0, slope, i, j), i < j, in
    index order."""
    n0, d0 = x0.numerator, x0.denominator
    return [
        (*_pair_event(triples[i], triples[j], n0, d0), i, j)
        for i, j in itertools.combinations(range(len(triples)), 2)
    ]


def _x_keys(triples: Sequence[Triple]) -> list[int]:
    """x = X/W of each point triple times the lcm of the W: integers in the
    order of x."""
    scale = math.lcm(*(w for _, _, w in triples))
    return [x * (scale // w) for x, _, w in triples]


class _EventQueue:
    """The point-pair lines in the order an apex sliding down x = x0 - eps
    crosses them, for a small eps > 0: intercept y on x = x0 descending, then
    slope s ascending, since of two lines meeting on x = x0 the steeper runs
    lower just left of it (Simulation of Simplicity).

    `order` starts as the points by increasing x, which an apex above every
    pair line sees, and crossing a pair line swaps its two points.  With no
    three collinear points the next line crossed always joins two points
    adjacent in `order` (kinetic sorting), so a heap holds only the adjacent
    pairs not yet crossed.  An entry is (floor(-y * 2**k), floor(s * 2**k),
    a, b), a left of b, on Python ints: k is fixed by the largest W and |X|
    so that 2**k exceeds the square of every denominator of y and s, and
    two values that differ then differ by more than 2**-k, so the integer
    keys order the lines exactly as their Fractions would.  A pair is pushed
    each time it becomes adjacent in its original order; an entry whose
    pair has since moved apart or swapped is stale and dropped when it
    surfaces.  `line` gives an entry's exact (y, s).
    """

    def __init__(self, ints: list[Triple], x0: Rat, order: list[int]):
        self.ints = ints
        self.n0, self.d0 = x0.numerator, x0.denominator
        # |dx| <= 2 max|X| max W, and y has the denominator W_a d0 dx
        most = max(abs(x) for x, _, _ in ints) or 1
        wmax = max(w for _, _, w in ints)
        self.k = 2 * (2 * most * wmax * wmax * self.d0).bit_length()
        self.order = order
        self.pos = [0] * len(order)
        for r, i in enumerate(order):
            self.pos[i] = r
        self.rank = self.pos[:]  # position in the starting x order
        self.last = None  # entry of the last line crossed
        self.heap = []
        for r in range(len(order) - 1):
            self._push(r)

    def _push(self, r: int) -> None:
        """Queue the pair at positions r, r + 1 unless its line is crossed."""
        a, b = self.order[r], self.order[r + 1]
        if self.rank[a] < self.rank[b]:  # a is left of b
            n, d, dy, dx = _pair_line(self.ints[a], self.ints[b], self.n0, self.d0)
            k = self.k
            heapq.heappush(self.heap, ((-n << k) // d, (dy << k) // dx, a, b))

    def line(self, entry) -> tuple[Fraction, Fraction]:
        """Exact (y, s) of a queue entry's pair line."""
        return _pair_event(self.ints[entry[2]], self.ints[entry[3]], self.n0, self.d0)

    def peek(self):
        """Entry of the next line to cross, or None once every one is crossed."""
        heap, pos = self.heap, self.pos
        while heap and pos[heap[0][2]] + 1 != pos[heap[0][3]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def cross(self) -> int | None:
        """Cross the next line: swap its two points and return the position r
        of the swapped pair (now at r, r + 1), or None if none is left."""
        entry = self.peek()
        if entry is None:
            return None
        heapq.heappop(self.heap)
        _, _, a, b = entry
        if self.last is not None and entry[:2] <= self.last[:2]:
            raise InternalError(
                "pair line crossed out of order",
                {"pair": (a, b), "key": str(entry[:2]), "last": str(self.last[:2])},
            )
        self.last = entry
        order, pos = self.order, self.pos
        r = pos[a]
        order[r], order[r + 1] = b, a
        pos[a], pos[b] = r + 1, r
        if r:
            self._push(r - 1)
        if r + 2 < len(order):
            self._push(r + 1)
        return r


def _points_of_rows(triples: Sequence[Triple], colors: Sequence[Color]) -> tuple[ColoredPoint, ...]:
    """The ColoredPoints of point triples (X, Y, W) and their colors."""
    return tuple(
        ColoredPoint(Fraction(x, w), Fraction(y, w), c) for (x, y, w), c in zip(triples, colors)
    )


def sweep_balanced_wedge(points: Sequence[ColoredPoint], validate: bool = False) -> DoubleWedge:
    """Double wedge containing exactly n points of each color, of 6n given.

    Preconditions: 6n points, 2n per color, pairwise distinct x, no three
    collinear.  Deterministic; raises InternalError (with a trace payload) if
    a guaranteed sweep invariant fails, which would be a library bug.
    """
    pts = tuple(points)
    return _wedge_of_rows(int_points(pts), [p.color for p in pts], validate)


def _wedge_of_rows(
    triples: Sequence[Triple], colors: Sequence[Color], validate: bool = False
) -> DoubleWedge:
    """`sweep_balanced_wedge` on rows: each point's `int_point` triple and its
    color, in input order; checks the colors, distinct x and no three
    collinear points first, in that order."""
    n = _require_6n(colors, "point")
    xs = _x_keys(triples)
    if len(set(xs)) != len(xs):
        require_distinct([Fraction(x, w) for x, _, w in triples], "x")
    check_joins(triples, None, _collinear)
    return _checked_wedge(*_sweep(triples, colors, n, validate), triples, colors, n)


def _checked_wedge(
    u: Triple, v: Triple, triples: Sequence[Triple], colors: Sequence[Color], n: int
) -> DoubleWedge:
    """The double wedge of the integer boundary functionals u and v whose
    disagree sectors hold the points, after `_self_check` has found n points
    of each color there; its apex is where u and v cross."""
    _self_check(u, v, triples, colors, n, "wedge", "an input point on a wedge boundary line")
    f1, f2 = (tuple(map(Fraction, f)) for f in (u, v))
    return wedge_from_functionals(_point(_crossing(u, v)), f1, f2, contains_disagree=True)


def _through(apex: tuple[Rat, Rat], m: Rat) -> Triple:
    """Integer functional (A, B, C), B > 0, of the line through `apex` with
    slope m: a positive multiple of (-m, 1, m * ax - ay)."""
    p, q = m.numerator, m.denominator
    c = p * apex[0] - q * apex[1]
    return (-p * c.denominator, q * c.denominator, c.numerator)


def _sweep(
    triples: Sequence[Triple], colors: Sequence[Color], n: int, validate: bool = False
) -> tuple[Triple, Triple]:
    """Body of sweep_balanced_wedge on point triples (X, Y, W), W > 0, already
    known to satisfy its preconditions: (u, v), the integer functionals of
    the two boundary lines through the apex (`_through`), whose disagree
    sectors hold the balanced window."""
    m = 6 * n
    h = 3 * n

    order = sorted(range(m), key=_x_keys(triples).__getitem__)
    x, _, w = triples[order[0]]
    x0 = Fraction(x - w, w)  # min x - 1
    queue = _EventQueue(triples, x0, order)
    steps = deficit_steps(colors, Color.B, Color.G)
    curve = _window_curve(steps[order])
    # an event moves two vertices: on [x, y] lists of Python ints that costs
    # less than numpy calls on single rows
    q = curve.tolist()
    unit = ((steps + 1) // 3).tolist()  # e of each point's step 3e - (1, 1)
    zero_at = q.index([0, 0]) if [0, 0] in q else None
    if validate:
        check_curve_invariants(curve)
        w0 = winding_number(curve) if zero_at is None else None

    stage = 0
    while zero_at is None:
        a_pos = queue.cross()
        if a_pos is None:
            break
        v, u = order[a_pos], order[a_pos + 1]

        # the window from a_pos + 1 trades v for u, its complement u for v
        w1 = a_pos + 1
        w2 = (w1 + h) % m
        dx, dy = unit[u][0] - unit[v][0], unit[u][1] - unit[v][1]
        r1, r2 = q[w1], q[w2]
        r1[0] += dx
        r1[1] += dy
        r2[0] -= dx
        r2[1] -= dy
        stage += 1

        if validate:
            curve = _window_curve(steps[order])
            rebuilt = curve.tolist()
            if rebuilt != q:
                drift = next(k for k in range(m) if rebuilt[k] != q[k])
                raise InternalError("incremental counts drifted", {"k": drift})
            check_curve_invariants(curve)
        if r1 == [0, 0]:  # r2 = -r1 after every event, so r2 is zero with r1
            zero_at = w1

    if zero_at is None:
        trace = {"stages": stage, "final": q}
        if validate and w0 is not None:
            trace["initial_winding"] = w0
        raise InternalError("sweep exhausted all events without a zero vertex", trace)

    k0 = zero_at if zero_at <= h else zero_at - h
    if q[(k0 + h) % m] != [0, 0]:
        raise InternalError("zero vertex without its antipode", {"k": k0})

    # the apex sits on x = x0 midway between the last line crossed and the
    # next, or 1 beyond the first or last intercept
    last = queue.line(queue.last) if queue.last else None
    nxt = queue.peek()
    nxt = queue.line(nxt) if nxt else None
    above = last[0] if last else nxt[0] + 2
    below = nxt[0] if nxt else last[0] - 2
    if above != below:
        apex = (x0, (above + below) / 2)
    else:
        apex = _apex_off_tie(triples, x0, last, nxt)
    ax, ay = apex

    if validate:
        pts = _points_of_rows(triples, colors)
        if list(ordering_at(apex, pts).points) != [pts[i] for i in order]:
            raise InternalError("ordering drifted from slope order", {"stage": stage})

    def slope(r: int) -> Rat:
        x, y, w = triples[order[r]]
        return (y - ay * w) / (x - ax * w)

    m_lo = slope(0) - 1 if k0 == 0 else (slope(k0 - 1) + slope(k0)) / 2
    m_hi = slope(m - 1) + 1 if k0 + h == m else (slope(k0 + h - 1) + slope(k0 + h)) / 2
    return _through(apex, m_lo), _through(apex, m_hi)


def _int_side_counts(
    u: Triple, v: Triple, triples: Sequence[Triple], colors: Sequence[Color]
) -> dict[Color, int]:
    """Per color, the items t where u.t and v.t have opposite signs; a zero
    raises OnBoundary.  For a wedge u, v are its boundary lines' integer
    functionals and t the points' `int_point` triples (W > 0, so u.t has the
    side's sign); for a segment u, v are its ends (W > 0) and t the lines'
    `int_line`."""
    a1, b1, c1 = u
    a2, b2, c2 = v
    counts = {c: 0 for c in RGB}
    for (x, y, z), color in zip(triples, colors):
        s1 = a1 * x + b1 * y + c1 * z
        s2 = a2 * x + b2 * y + c2 * z
        if s1 == 0 or s2 == 0:
            raise OnBoundary("an item lies on a boundary")
        if (s1 > 0) != (s2 > 0):
            counts[color] += 1
    return counts


def _self_check(u: Triple, v: Triple, triples: Sequence[Triple], colors: Sequence[Color],
                n: int, what: str, on_boundary: str) -> None:
    """`_int_side_counts` must find n items of each color; only a library
    fault can fail it, so an item on a boundary raises InternalError with
    `on_boundary`, and a miscount one with "<what> did not verify"."""
    try:
        counts = _int_side_counts(u, v, triples, colors)
    except OnBoundary as e:
        raise InternalError(on_boundary) from e
    if any(counts[c] != n for c in RGB):
        raise InternalError(f"{what} did not verify", {"counts": str(counts), "n": n})


def _apex_off_tie(
    triples: Sequence[Triple], x0: Rat, last: tuple[Rat, Rat], nxt: tuple[Rat, Rat]
) -> tuple[Rat, Rat]:
    """Apex between the last line crossed and the next, each given as its
    (y, s), when both cross x = x0 at one point (x0, y): step left along
    their mean slope s by d = min(1, |y - y_e| / |s_e - s|) / 2 over the
    pair lines e missing the point with s_e != s, which crosses no other
    pair line."""
    y = nxt[0]
    s = (last[1] + nxt[1]) / 2
    d = Fraction(1)
    for y_e, s_e, _, _ in _pair_events(triples, x0):
        if y_e != y and s_e != s:
            d = min(d, abs(y - y_e) / abs(s_e - s))
    d /= 2
    return (x0 - d, y - s * d)


# -- exhaustive oracle ---------------------------------------------------------


def wedge_point_indices(w: DoubleWedge, points: Sequence[ColoredPoint]) -> tuple[int, ...]:
    """Sorted indices of the points a wedge contains; its combinatorial type."""
    return tuple(i for i, p in enumerate(points) if wedge_contains(w, p))


def brute_oracle_wedges(
    points: Sequence[ColoredPoint], target: tuple[int, int, int]
) -> list[tuple[int, ...]]:
    """Every double-wedge type whose per-color counts (R, G, B) hit `target`.

    A type is the sorted index tuple of the contained points.  Any wedge can
    be rotated boundary line by boundary line, without changing its contents,
    until each line rests on input points; so enumerating all pairs of
    point-pair lines (a line paired with itself covers the empty and the
    near-everything wedges), both sector pairs, and every in/out resolution
    of the up-to-4 points on the chosen lines is exhaustive.  Deterministic,
    sorted by (size, indices).

    Point sets are bitmasks (bit k is point k).  Each point-pair line
    (`core.point_joins`) gets the masks of the points strictly on its
    positive and its negative side,
    from the signs of A*X + B*Y + C*W (W > 0) on Python ints; with no three
    collinear, its two endpoints are the only points on it.  Over every pair
    of lines (int64 arrays, which hold 62 points; the diagonal included) the
    disagree sector pair is (P1 & N2) | (N1 & P2), the agree pair
    (P1 & P2) | (N1 & N2), and the points on either line are the at most 4
    endpoint bits.  A row survives when, for every color, sector <= target
    <= sector + on-line; only survivors are expanded over the 16 subsets of
    their endpoint bits.
    """
    pts = tuple(points)
    m = len(pts)
    cap = ORACLE_MAX_POINTS["wedge"]
    if m == 0 or m > cap:
        raise PreconditionViolated(f"oracle is limited to 1..{cap} points, got {m}")
    if len(target) != 3 or any(t < 0 for t in target):
        raise PreconditionViolated(f"bad target {target}")
    require_rgb([p.color for p in pts])
    joins = point_joins(pts)

    ints = int_points(pts)
    pos, neg = [], []
    for a, b, c in joins:
        plus = minus = 0
        for k, (x, y, w) in enumerate(ints):
            v = a * x + b * y + c * w
            if v > 0:
                plus |= 1 << k
            elif v < 0:
                minus |= 1 << k
        pos.append(plus)
        neg.append(minus)
    pos_a = np.array(pos, dtype=np.int64)
    neg_a = np.array(neg, dtype=np.int64)
    end_bits = np.int64(1) << np.array(list(joins.values()), dtype=np.int64)
    ends = end_bits[:, 0] | end_bits[:, 1]

    ii, jj = np.triu_indices(len(pos))  # includes the diagonal
    p1, n1, p2, n2 = pos_a[ii], neg_a[ii], pos_a[jj], neg_a[jj]
    on_line = ends[ii] | ends[jj]
    color_masks = [
        sum(1 << k for k, p in enumerate(pts) if p.color is c) for c in RGB
    ]
    on_counts = [np.bitwise_count(on_line & cm) for cm in color_masks]

    found = []
    for sector in ((p1 & n2) | (n1 & p2), (p1 & p2) | (n1 & n2)):
        keep = np.ones(len(sector), dtype=bool)
        for cm, on, t in zip(color_masks, on_counts, target):
            base = np.bitwise_count(sector & cm)
            keep &= (base <= t) & (t <= base + on)
        rows = np.flatnonzero(keep)
        # OR in each subset of the 4 endpoint bits; repeated endpoints collapse
        cand = sector[rows][:, None]
        for bit in (*end_bits[ii[rows]].T, *end_bits[jj[rows]].T):
            cand = np.concatenate([cand, cand | bit[:, None]], axis=1)
        cand = cand.ravel()
        hit = np.ones(len(cand), dtype=bool)
        for cm, t in zip(color_masks, target):
            hit &= np.bitwise_count(cand & cm) == t
        found.append(cand[hit])
    types = np.unique(np.concatenate(found))
    bits = ((types[:, None] >> np.arange(m)) & 1).tolist()
    out = [tuple(itertools.compress(range(m), row)) for row in bits]
    return sorted(out, key=lambda t: (len(t), t))


def brute_oracle_segments(
    lines: Sequence[ColoredLine], target: tuple[int, int, int]
) -> list[tuple[int, ...]]:
    """Every segment crossing type (sorted indices of the lines crossed) with
    per-color counts (R, G, B) `target`: `brute_oracle_wedges` on the dual
    points in `halving_segment`'s sheared frame (`_sheared_duals`).  Wedges
    holding the vertical direction are dual to the other projective segment
    on the same ends (two rays), which crosses the lines the segment misses.
    """
    ls = tuple(lines)
    _, duals = _sheared_duals([int_line(l) for l in ls])
    return brute_oracle_wedges(_points_of_rows(duals, [l.color for l in ls]), target)


# -- duals: 111 wedges and halving segments ------------------------------------


def _shear(triples: Sequence[Triple]) -> int | None:
    """q for the shear (x, y) -> (x + y/q, y) that gives the point triples
    (X, Y, W) distinct x, or None when they already have it.

    q = floor((y_max - y_min) / gap) + 1, with gap the least difference of
    distinct x, exceeds every |dy/dx| of a pair with distinct x, so sheared x
    stay distinct and no two points' dual lines are parallel; all on integers.
    """
    scale = math.lcm(*(w for _, _, w in triples))
    xs = sorted({x * (scale // w) for x, _, w in triples})
    if len(xs) == len(triples):
        return None
    ys = [y * (scale // w) for _, y, w in triples]
    gap = min(b - a for a, b in zip(xs, xs[1:]))
    return (max(ys) - min(ys)) // gap + 1


def find_111_wedge(points: Sequence[ColoredPoint]) -> DoubleWedge:
    """Double wedge containing exactly one point of each color.

    Needs at least one point per color and no three collinear points.  Works
    through duality: dualize, find a complete cell, pull a segment crossing
    one line per color back to a double wedge.

    Points sharing an x coordinate would dualize to parallel lines, so then
    the points are first sheared by (x, y) -> (x + y/q, y) (`_shear`).  In
    the sheared dual every crossing has x <= q, the dual x of the original
    vertical direction, with equality only for pairs that shared x.  A
    bounded cell thus has at most one vertex on x = q (two would make a
    vertical edge), and the segment, built with `x_avoid=q`, stays strictly
    left of it, so the wedge avoids the vertical direction and has a finite
    dual segment.
    """
    pts = tuple(points)
    return _wedge111_of_rows(int_points(pts), [p.color for p in pts])


def _wedge111_of_rows(triples: Sequence[Triple], colors: Sequence[Color]) -> DoubleWedge:
    """`find_111_wedge` on each point's `int_point` triple and color; the shear
    takes (X, Y, W) to (qX + Y, qY, qW).  Only the answer is built as Fractions."""
    require_rgb(colors)
    check_joins(_distinct_rows(triples), None, _collinear)

    q = _shear(triples)
    sheared = triples if q is None else [(q * x + y, q * y, q * w) for x, y, w in triples]
    # each point's dual line y' = (X/W) x' - Y/W, (X, -W, -Y) as `int_line` has it;
    # distinct x and no three collinear points make the duals simple
    duals = [(x // g, -w // g, -y // g) for x, y, w in sheared
             for g in [math.gcd(x, y, w) if x > 0 else -math.gcd(x, y, w)]]
    ends = _segment_111(duals, colors, *_complete_face(colors, duals), q)

    # primal boundary line of dual point e = (X/W, Y/W): y = e_x * x - e_y,
    # functional (-X, W, Y); a point's dual line crosses the segment exactly
    # when the two functionals disagree in sign.  Under the shear it reads
    # back as (-qX, qW - X, qY), whose y-coefficient is positive as e_x < q.
    u, v = (((-x, w, y) if q is None else (-q * x, q * w - x, q * y)) for x, y, w in ends)
    return _checked_wedge(u, v, triples, colors, 1)


def _sheared_duals(triples: Sequence[Triple]) -> tuple[int | None, list[Triple]]:
    """(lam, the dual points (X, Y, W), W > 0, of the `int_line` triples after
    the shear (x, y) -> (x + lam*y, y)), lam None and no shear when no line
    is vertical.  The shear takes line (A, B, C) to (A, B - A*lam, C), and
    lam = max |B| // A + 1 (1 for A = 0) exceeds every |B/A|, so no line
    stays vertical.  The dual point of a line (A, B, C), B != 0, is
    (-A/B, C/B); as (-A, C, B) it is primitive, as the line is, and B's
    sign is made positive.  A shear keeps every crossing, and a line
    crosses a segment iff its dual point is in the segment's dual wedge.
    """
    lam = None
    if any(b == 0 for _, b, _ in triples):
        lam = max(abs(b) // a if a else 1 for a, b, _ in triples) + 1
    duals = []
    for a, b, c in triples:
        if lam is not None:
            b -= a * lam
        duals.append((-a, c, b) if b > 0 else (a, -c, -b))
    return lam, duals


def halving_segment(lines: Sequence[ColoredLine]) -> Segment:
    """Segment crossing exactly n lines of each color, of 6n given lines.

    Preconditions: simple arrangement, 2n lines per color.  Vertical input
    lines are handled by an internal integer shear.  Dual of
    sweep_balanced_wedge.
    """
    return _segment_of_rows(*_rows_of_lines(tuple(lines)))


def _segment_of_rows(triples: Sequence[Triple], colors: Sequence[Color]) -> Segment:
    """`halving_segment` on rows: each line's `int_line` triple and its
    color, in input order; checks the colors and simplicity first."""
    n = _require_6n(colors, "line")
    check_joins(triples, _AT_INFINITY, _not_simple)

    lam, duals = _sheared_duals(triples)
    # a simple arrangement has no parallel lines (distinct dual x) and no
    # three concurrent lines (no three collinear dual points), so the duals
    # already meet the sweep's preconditions; the segment's ends are the
    # dual points of the wedge's boundary lines, sheared back by
    # (x, y) -> (x - lam*y, y)
    u, v = _sweep(duals, colors, n)
    ends = [(-a, c, b) for a, b, c in (u, v)]
    if lam is not None:
        ends = [(x - lam * y, y, w) for x, y, w in ends]

    _self_check(*ends, triples, colors, n, "halving segment", "segment endpoint on an input line")
    return Segment(*((Fraction(x, w), Fraction(y, w)) for x, y, w in ends))
