"""Balanced subsets of 3-colored circle points using at most two arcs.

Given n points of each color on a circle and any k between 1 and n, there is
a set of at most 2 disjoint circular arcs whose union contains exactly k
points of each color.  The construction composes two operations, starting
from the full circle:

  f: halve.  Split the current set by a "degree 3" cut (at most 3 cut
     parameters, the sign pattern of a cubic in the circle parameter), so
     that each side keeps floor(c/2) points per color.  Such a cut always
     exists and at least one side has at most 2 arcs.
  g: complement.  c per color becomes n - c.

An f/g word driving the per-color count from n to k always exists with
length O(log n); `plan_ops` builds one greedily by expanding the target
interval backward, `moment_halve` performs one halving step exactly, and
`find_k_arcset` runs the whole pipeline.

`find_k_arcset` runs on each parameter's (num, den) pair
(`_arcset_of_rows`), sorted once on an exact integer key: floor(t * 2**64)
first, and cross-multiplication only where two keys tie.  Every halving step
runs on ranks of that order in the input frame, with nothing rotated.  The
current set is at most two (lo, hi) pairs of ends, each a parameter with the
number of points below it.  A step reads the circle from an origin in the
first gap outside the set (`_origin`): the origin, the points and arc ends
met going round, and the origin again (`_Order`), so the set's arcs are rank
intervals that never wrap.  A cut between adjacent entries a and b is their
cyclic midpoint (a + ((b - a) mod 1) / 2) mod 1, which is where rotating the
origin to 0, cutting and rotating back would put it.  The sides are
half-rank intervals; only the at most 4 ends a step keeps become parameters.
A complement keeps the ends and swaps which gaps are inside, and the ArcSet
is built once, from the last step's ends: its at most 4 Fractions are the
only ones the pipeline builds.

Per color, the number of active points below candidate cut i never
decreases in i, so the count vectors, written in base k+1, form one sorted
int64 key array; the run of cuts holding a wanted vector is named by its
point total R + G + B, which rises by at most one per cut.  The gap-cut
search (even k) pairs only cuts that start a run of equal keys, or follow
such a start, in blocks of fixed size: O(r^2 log r) time for the r <= 3k + 1
distinct keys and O(m) memory.  The on-point search (odd k) solves the blue
cut in closed form for each red and green cut, O(k^2) candidates, also in
blocks.  The answer is counted on prefix sums over the sorted input.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ArcSet,
    CirclePoint,
    Color,
    Rat,
    RGB,
    arcset,
    full_circle,
    require_distinct_parameters,
    require_rgb,
)
from .errors import (
    BoundaryPoint,
    InternalError,
    NoCutFound,
    PreconditionViolated,
)

OP_HALVE = "f"
OP_COMPLEMENT = "g"

_PAIR_BLOCK = 1 << 14  # cut pairs per array pass of the r = 3 and on-point searches
_MARK = np.full(1, -1, dtype=np.int64)  # the origin and each arc end in `_Order.code`

Pair = tuple[int, int]  # a parameter (num, den) in lowest terms, den > 0
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])  # Pairs by value


# -- op plans ------------------------------------------------------------------


@dataclass(frozen=True)
class OpPlan:
    n: int
    k: int
    ops: tuple[str, ...]

    def __post_init__(self):
        for o in self.ops:
            if o not in (OP_HALVE, OP_COMPLEMENT):
                raise PreconditionViolated(f"unknown op {o!r}")

    def counts_path(self) -> tuple[int, ...]:
        """Per-color counts after each op, starting at n."""
        path = [self.n]
        for o in self.ops:
            path.append(path[-1] // 2 if o == OP_HALVE else self.n - path[-1])
        return tuple(path)


def plan_ops(n: int, k: int) -> OpPlan:
    """f/g word sending n to k, never using g twice in a row.

    Built backward: grow the target interval {k} by preimages (f doubles it,
    g mirrors it) until it captures floor(n/2), then lead with one f.  Every
    intermediate interval stays inside [1, n-1], so evaluation never touches
    0 or n mid-plan.
    """
    if n < 1 or not 1 <= k <= n:
        raise PreconditionViolated(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return OpPlan(n, k, ())
    h = n // 2
    lo = hi = k
    rev = []  # ops in backward (prepend) order
    while True:
        if hi < h:
            rev.append(OP_HALVE)
            lo, hi = 2 * lo, 2 * hi + 1
        elif lo > h:
            rev.append(OP_COMPLEMENT)
            lo, hi = n - hi, n - lo
        else:
            rev.append(OP_HALVE)  # leading op: n -> floor(n/2) lands in [lo, hi]
            break
    plan = OpPlan(n, k, tuple(reversed(rev)))
    if plan.counts_path()[-1] != k:
        raise InternalError("op plan does not evaluate to k", {"n": n, "k": k})
    return plan


def bfs_shortest(n: int, k: int) -> int:
    """Length of a shortest f/g word from n to k (reference oracle)."""
    if k == n:
        return 0
    dist = {n: 0}
    frontier = [n]
    while frontier:
        nxt = []
        for x in frontier:
            for y in (x // 2, n - x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == k:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    raise InternalError("state space exhausted", {"n": n, "k": k})


# -- one halving step ----------------------------------------------------------


@dataclass(frozen=True)
class CutProfile:
    """At most 3 cut parameters plus a polarity.

    The side of parameter t is polarity * (-1)**(number of cuts above t).
    `on_points` says the cuts sit exactly on point parameters (odd k), in
    which case those points belong to neither side.
    """

    cuts: tuple[Rat, ...]
    polarity: int
    on_points: bool


@dataclass(frozen=True)
class HalveResult:
    m1: ArcSet
    m2: ArcSet
    profile: CutProfile


class _Order:
    """One halving step's entries: the origin, the points and arc ends met
    going round the circle from it, and the origin again.

    `ts` are the sorted parameter `Pair`s (keys `keys`, colors' indices in
    RGB `codes`); `shift` of them lie below `origin`.  `arcs` is the set as
    (lo, hi) pairs of (value, gap) ends, gap the number of parameters below
    the value, or None for the full circle.  code[r] is the color index of
    the point at rank r if the set holds it, else -1; `ends` maps ranks to
    ends, and `inside` lists the set's arcs as rank pairs.
    """

    def __init__(self, ts: list[Pair], keys: list[int], codes, origin: Pair, arcs):
        n = len(ts)
        self.ts, self.origin = ts, origin
        self.shift = shift = _end_gap(ts, keys, origin)
        # going round from the origin: first the ends above it
        ends = [(g < shift or (g == shift and _by_value(v) < _by_value(origin)), g, v)
                for arc in arcs or () for v, g in arc]
        ends.sort(key=lambda e: (e[0], e[1], _by_value(e[2])))
        before = [g - shift + n * past for past, g, _ in ends]  # points before each end
        self.ends = {1 + p + j: (v, g) for j, (p, (_, g, v)) in enumerate(zip(before, ends))}
        rolled = np.concatenate([codes[shift:], codes[:shift]])
        parts = [_MARK]
        for lo, hi in zip([0, *before], [*before, n]):
            parts += [rolled[lo:hi], _MARK]
        self.code = np.concatenate(parts)
        self.size = len(self.code)
        if arcs is None:
            self.inside = [(0, self.size - 1)]
        else:
            rank = {e: r for r, e in self.ends.items()}
            self.inside = sorted((rank[lo], rank[hi]) for lo, hi in arcs)
            edges = [0, *(r for arc in self.inside for r in arc), self.size]
            for lo, hi in zip(edges[::2], edges[1::2]):
                self.code[lo:hi] = -1

    def _point(self, r: int) -> int:
        """The index in `ts` of the first point at rank r or above."""
        return (self.shift + r - 1 - sum(1 for e in self.ends if e < r)) % len(self.ts)

    def value(self, r: int) -> Pair:
        if r in self.ends:
            return self.ends[r][0]
        if r == 0 or r == self.size - 1:
            return self.origin
        return self.ts[self._point(r)]

    def at(self, h: int) -> Pair:
        """The parameter at half-rank h, read round the circle: entry h/2
        for even h, else the `_midpoint` of entries (h - 1)/2 and
        (h + 1)/2."""
        h %= 2 * (self.size - 1)
        lo = self.value(h // 2)
        return lo if h % 2 == 0 else _midpoint(lo, self.value(h // 2 + 1))

    def end(self, h: int):
        """The (value, gap) end at half-rank h: a cut's gap is the index of
        the point after it, but len(ts) above the last point."""
        h %= 2 * (self.size - 1)
        if h == 0:
            return self.origin, self.shift
        if h % 2 == 0:
            return self.ends[h // 2]
        v, g = self.at(h), self._point(h // 2 + 1)
        return v, (g if g or _by_value(v) < _by_value(self.ts[0]) else len(self.ts))


class _Halves(NamedTuple):
    """One halving step on ranks.  `cuts` are gap cuts, cut i lying between
    ranks i and i + 1, or for odd k the ranks of the three points cut on.
    `plus` and `minus` are the two sides' arcs in half-ranks (rank r at 2r,
    cut i at 2i + 1), sorted; an arc through the origin ends past
    2 * (size - 1)."""

    cuts: tuple[int, ...]
    plus: tuple[tuple[int, int], ...]
    minus: tuple[tuple[int, int], ...]


def moment_halve(a: ArcSet, points: Sequence[CirclePoint], k: int) -> HalveResult:
    """Split the points of `a` so each side keeps floor(k/2) per color.

    Preconditions: `a` has at most 2 arcs (or is the full circle); `a`
    contains exactly k points of each color; no point parameter is 0 or on
    an arc boundary; 0 lies outside `a` unless `a` is the full circle.
    For odd k the three cuts land on one point of each color, and those
    points end up in neither side.
    """
    if k < 1:
        raise PreconditionViolated("k must be positive")
    if not a.is_full_circle:
        if a.component_count() > 2:
            raise PreconditionViolated("input set must have at most 2 arcs")
        try:
            if a.contains(Fraction(0)):
                raise PreconditionViolated("parameter 0 must lie outside the set")
        except BoundaryPoint:
            raise PreconditionViolated("parameter 0 must lie outside the set")
    require_rgb([p.color for p in points])
    require_distinct_parameters(points)
    if any(p.t == 0 for p in points):
        raise PreconditionViolated("point parameter 0 is not allowed here")

    ts, keys, codes = _sorted_order(*_circle_rows(points))
    arcs = None if a.is_full_circle else [
        tuple((_pair(t), _end_gap(ts, keys, _pair(t))) for t in arc) for arc in a.arcs
    ]
    order = _Order(ts, keys, codes, (0, 1), arcs)
    res = _halve(order, k)

    def side(arcs) -> ArcSet:
        return _arcset([(order.at(lo), order.at(hi)) for lo, hi in arcs])

    cuts = tuple(Fraction(*order.at(2 * c + 1 - k % 2)) for c in res.cuts)
    return HalveResult(side(res.plus), side(res.minus), CutProfile(cuts, 1, k % 2 == 1))


def _halve(order: _Order, k: int) -> _Halves:
    """`moment_halve` on ranks of the step order `order`, with the color
    counts still to check.  Half-ranks place entry r at 2r and gap cut i at
    2i + 1.  An on-point cut at 2r excises its point with the sliver
    (2r - 1, 2r + 1) between the midpoints to its neighbours, which belongs
    to neither side, so no side ends on a point."""
    ranks = {c: np.flatnonzero(order.code == i) for i, c in enumerate(RGB)}
    for c in RGB:
        if len(ranks[c]) != k:
            raise PreconditionViolated(f"set holds {len(ranks[c])} {c.value} points, want {k}")
    cuts = _search_profile(ranks, order.size, k)
    if cuts is None:
        raise NoCutFound(f"no admissible cut profile for k={k}")

    at = [2 * c + 1 - k % 2 for c in cuts]
    slivers = {(h - 1, h + 1) for h in at} if k % 2 else set()
    bounds = sorted({b for s in slivers for b in s}) if k % 2 else at
    sides = {1: [], -1: []}
    for lo, hi in order.inside:
        edges = [2 * lo, *(b for b in bounds if 2 * lo < b < 2 * hi), 2 * hi]
        for piece in zip(edges, edges[1:]):
            if piece not in slivers:  # side +: an even number of cuts above
                sides[-1 if sum(h > piece[0] for h in at) % 2 else 1].append(piece)

    # pre[j]: the points of each color at ranks below j
    pre = np.zeros((order.size + 1, len(RGB)), dtype=np.int64)
    np.cumsum(order.code[:, None] == np.arange(len(RGB)), axis=0, out=pre[1:])
    for side in sides.values():  # the points at ranks r with plo < 2r < phi
        got = (pre[[(phi - 1) // 2 + 1 for _, phi in side]].sum(axis=0)
               - pre[[plo // 2 + 1 for plo, _ in side]].sum(axis=0)).tolist()
        if any(g != k // 2 for g in got):
            raise InternalError(
                "halve sides are unbalanced", {"got": str(dict(zip(RGB, got)))}
            )
    last = 2 * (order.size - 1)
    for s, side in sides.items():
        if len(side) > 1 and side[0][0] == 0 and side[-1][1] == last:
            sides[s] = side[1:-1] + [(side[-1][0], last + side[0][1])]  # one arc through the origin
    plus, minus = tuple(sides[1]), tuple(sides[-1])
    total = len(plus) + len(minus)
    if total > 5 or min(len(plus), len(minus)) > 2:
        raise InternalError("halve produced too many arcs", {"total": total})
    return _Halves(tuple(cuts), plus, minus)


def _arcset(ends) -> ArcSet:
    """The ArcSet of arcs from lo round to hi, for (lo, hi) `Pair`s."""
    arcs = [(Fraction(*lo), Fraction(*hi)) for lo, hi in ends]
    return arcset([(lo, lo + (hi - lo) % 1) for lo, hi in arcs]) if arcs else ArcSet(())


def _point_counts(a: ArcSet, ts: list[Pair], keys: list[int], codes) -> list[int]:
    """Points of each color inside `a`, in RGB order, from the sorted
    parameter pairs `ts` (keys `keys`, colors `codes`): prefix counts between
    the arc ends' gaps (`_end_gap`, which raises BoundaryPoint on a point,
    as `arcset_color_counts` does)."""
    pre = np.zeros((len(RGB), len(codes) + 1), dtype=np.int64)
    for i in range(len(RGB)):
        np.cumsum(codes == i, out=pre[i, 1:])
    if a.is_full_circle:
        return pre[:, -1].tolist()
    got = np.zeros(len(RGB), dtype=np.int64)
    for lo, hi in a.arcs:
        below = pre[:, _end_gap(ts, keys, _pair(lo))]
        if hi >= 1:  # through 0: [lo, 1) and [0, hi - 1); an end at 1 is one at 0
            got += pre[:, -1] - below + pre[:, _end_gap(ts, keys, _pair(hi - 1))]
        else:
            got += pre[:, _end_gap(ts, keys, _pair(hi))] - below
    return got.tolist()


def _search_profile(ranks, size: int, k: int) -> tuple[int, ...] | None:
    """First admissible profile: fewest cuts, then lexicographic, as cut
    ranks (`_Halves.cuts`).  Both searches compare parameters only by
    order, so they run on each active point's rank among the `size` entries
    of the step (`ranks[c]`, sorted): small exact int64s whatever the
    denominators.  Neither builds a table over pairs or triples of cuts."""
    if (k + 1) ** 3 > np.iinfo(np.int64).max:
        raise PreconditionViolated(f"k={k} is too large for int64 count keys")
    if k % 2 == 1:
        return _search_on_point(ranks, k)
    return _search_gap_cuts(ranks, size, k)


def _count_key(idx, k: int):
    """Count vectors (R, G, B) with entries in 0..k as base-(k+1) int64s.

    The map is linear and one-to-one on 0..k, so the key of a sum of
    in-range vectors is the sum of their keys.
    """
    return (idx[Color.R] * (k + 1) + idx[Color.G]) * (k + 1) + idx[Color.B]


def _first_key_at(runs, target, total, start):
    """Per entry, the first cut p >= start whose key is `target`, or m if
    there is none.  `runs` = (key, tot, starts): the sorted key of each of
    the m cuts, its point total, and the first cut of each run of equal
    keys.  Totals rise by at most 1 per cut, so run j holds total
    tot[0] + j, and the target's `total` names the one run to look in."""
    key, tot, starts = runs
    m = len(key)
    j = np.clip(total - tot[0], 0, len(starts) - 1)
    pos = np.maximum(starts[j], start)
    found = (key[starts[j]] == target) & (pos < m) & (tot.take(pos, mode="clip") == total)
    return np.where(found, pos, m)


def _search_gap_cuts(ranks, size: int, k: int) -> tuple[int, ...] | None:
    # candidate cut i lies between entries i and i + 1, so it can never
    # collide with a point or an arc boundary; idx[c][i] counts the active
    # points of color c below it.  Each idx[c] is non-decreasing in i, so
    # key[i] is sorted, and two cuts share a key exactly when they share a
    # count vector.
    m = size - 1
    idx = {c: np.searchsorted(ranks[c], np.arange(m), side="right") for c in RGB}
    want = k // 2
    key = _count_key(idx, k)
    unit = _count_key({c: 1 for c in RGB}, k)  # key of (1, 1, 1)

    # r = 1: points above the cut are side +;  want k - idx == k/2
    hits = np.flatnonzero(np.logical_and.reduce([k - idx[c] == want for c in RGB]))
    if hits.size:
        return (int(hits[0]),)
    # r = 2: side + is below the first cut a and above the second, so
    # idx[j] = idx[a] + want; only cuts a with idx[a] + want <= k can match
    tot = idx[Color.R] + idx[Color.G] + idx[Color.B]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    runs = key, tot, starts
    top = min(int(np.searchsorted(idx[c], k - want, side="right")) for c in RGB)
    second = _first_key_at(
        runs, key[:top] + want * unit, tot[:top] + 3 * want, np.arange(1, top + 1)
    )
    hits = np.flatnonzero(second < m)
    if hits.size:
        h = int(hits[0])
        return (h, int(second[h]))
    # r = 3: side + is between cut 1 and 2, or above cut 3, so
    # idx[c3] = idx[b] - idx[a] + k - want, in range for the b in (a, top[a])
    # where no color gains more than want points over a.  Within a run of
    # equal keys a later first cut a hits only where the run's first one
    # does, and a later second cut b only where the one before it does, so
    # a runs over the run starts and b over the run starts and the cuts just
    # past them.  The pairs (a, b) are numbered in lexicographic order and
    # looked up _PAIR_BLOCK at a time, so the first hit is the one the search
    # over every pair finds
    marked = np.zeros(m + 1, dtype=bool)
    marked[starts] = marked[starts + 1] = True
    seconds = np.flatnonzero(marked[:m])
    top = np.minimum.reduce(
        [np.searchsorted(idx[c], idx[c][starts] + want, side="right") for c in RGB]
    )
    lo = np.searchsorted(seconds, starts, side="right")
    count = np.maximum(np.searchsorted(seconds, top) - lo, 0)
    end = np.cumsum(count)  # pairs with first cut <= starts[i]
    pairs = int(end[-1])
    for p0 in range(0, pairs, _PAIR_BLOCK):
        p = np.arange(p0, min(p0 + _PAIR_BLOCK, pairs))
        i = np.searchsorted(end, p, side="right")
        first, second = starts[i], seconds[lo[i] + p - (end[i] - count[i])]
        third = _first_key_at(
            runs,
            key[second] - key[first] + (k - want) * unit,
            tot[second] - tot[first] + 3 * (k - want),
            second + 1,
        )
        hits = np.flatnonzero(third < m)
        if hits.size:
            h = int(hits[0])
            return (int(first[h]), int(second[h]), int(third[h]))
    return None


def _search_on_point(ranks, k: int) -> tuple[int, int, int] | None:
    """Odd k: one cut on a point of each color; remaining k-1 split evenly.

    With the red and green cuts fixed, blue's own side count is strictly
    monotone in the blue cut's index within each order region (below both
    other cuts, between them, above both), so each region admits at most
    one blue cut, solved in closed form.  The count formula then checks
    every color on those candidates.  The (red, green) pairs are numbered
    red-major and looked at _PAIR_BLOCK at a time, so the first hit is the
    one a loop over the red cuts finds.
    """
    want = (k - 1) // 2
    red, green, blue = ranks[Color.R], ranks[Color.G], ranks[Color.B]
    pairs = len(red) * len(green)
    for p0 in range(0, pairs, _PAIR_BLOCK):
        p = np.arange(p0, min(p0 + _PAIR_BLOCK, pairs))
        xi, yi = np.divmod(p, len(green))
        x, y = red[xi], green[yi]
        bx, by = np.searchsorted(blue, x), np.searchsorted(blue, y)
        bl, bh = np.minimum(bx, by), np.maximum(bx, by)
        # columns: blue cut index ib below both, between and above both,
        # where blue's own side count is bl - ib + k - bh - 1,
        # ib - bl + k - bh and bh - bl + k - ib - 1; each is want at one ib
        ib = np.stack(
            [bl + k - bh - 1 - want, want + bl + bh - k, bh - bl + k - 1 - want], axis=1
        )
        edges = np.stack([np.zeros_like(bl), bl, bh, np.full_like(bl, k)], axis=1)
        found = np.flatnonzero((edges[:, :3] <= ib) & (ib < edges[:, 1:]))
        if not found.size:
            continue
        pair, ib = found // 3, ib.ravel()[found]
        x, y, b = x[pair], y[pair], blue[ib]
        cut = np.stack([x, y, b])
        # per color, its points below each cut, which rise with the cut
        below = [
            np.stack([xi[pair], np.searchsorted(red, y), np.searchsorted(red, b)]),
            np.stack([np.searchsorted(green, x), yi[pair], np.searchsorted(green, b)]),
            np.stack([bx[pair], by[pair], ib]),
        ]
        low, high = cut.min(axis=0), cut.max(axis=0)
        ok = np.ones(len(found), dtype=bool)
        for i, cnt in enumerate(below):
            i1, i3 = cnt.min(axis=0), cnt.max(axis=0)
            plus = (cnt.sum(axis=0) - i1 - i3) - i1 + k - i3
            # own cut point gets excised; it was tallied in + iff it is the
            # lowest or highest cut (even number of cuts strictly above it).
            # Cuts never collide across colors: parameters are globally distinct
            ok &= plus - ((cut[i] == low) | (cut[i] == high)) == want
        hits = np.flatnonzero(ok)
        if hits.size:
            return tuple(sorted(int(r) for r in cut[:, hits[0]]))
    return None


# -- the driver ----------------------------------------------------------------


def _pair(t: Rat) -> Pair:
    return t.numerator, t.denominator


def _circle_rows(points: Sequence[CirclePoint]) -> tuple[list[Pair], list[Color]]:
    """Each point's parameter `Pair`, and its color: `_arcset_of_rows`' rows."""
    return [_pair(p.t) for p in points], [p.color for p in points]


def _floor_key(t: Pair) -> int:
    """floor(t * 2**64): an exact integer, non-decreasing in t, so it orders
    parameters up to the ties it leaves to an exact comparison."""
    return (t[0] << 64) // t[1]


def _sorted_order(pairs: list[Pair], colors: Sequence[Color]):
    """The parameter pairs in ascending order (by `_floor_key`, then by value
    where two keys tie), their keys, and their colors' indices in RGB."""
    keys = [(num << 64) // den for num, den in pairs]
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in order]
    if any(a == b for a, b in zip(sorted_keys, sorted_keys[1:])):
        order.sort(key=lambda i: (keys[i], _by_value(pairs[i])))  # stable, as the first
    codes = np.array([RGB.index(colors[i]) for i in order], dtype=np.int64)
    return [pairs[i] for i in order], sorted_keys, codes


def _end_gap(ts: list[Pair], keys: list[int], x: Pair) -> int:
    """The number of sorted parameter pairs `ts` below x, bisected on their
    integer keys `keys`; only ties are settled by cross-multiplication.  An
    x equal to a parameter raises BoundaryPoint, as `ArcSet.contains` does
    for a point on an arc end."""
    kx = _floor_key(x)
    i = bisect_left(keys, kx)
    while i < len(ts) and keys[i] == kx and _by_value(ts[i]) < _by_value(x):
        i += 1
    if i < len(ts) and ts[i] == x:  # pairs in lowest terms: equal values, equal pairs
        raise BoundaryPoint(f"parameter {Fraction(*x)} is an arc endpoint")
    return i


def _origin(ts: list[Pair], arcs) -> Pair:
    """Middle of the first gap outside the set `arcs` (as `_Order` takes
    it) between adjacent entries of the parameters `ts` and the arc ends.
    Gap 0 follows the least entry; it is inside if that entry opens an arc
    or is ts[0] inside one (then the greatest end opens), and the gap after
    the least closing end is next.  On the full circle 0 counts as an
    entry, and the gap after it is taken."""
    if arcs is None:
        return _midpoint((0, 1), ts[1] if ts[0] == (0, 1) else ts[0])
    ends = [(v, g, opens) for arc in arcs for (v, g), opens in zip(arc, (True, False))]
    ends.sort(key=lambda e: _by_value(e[0]))  # the ends of disjoint arcs differ
    v, g, opens = ends[0]
    if g > 0:
        v, g, opens = ts[0], 1, ends[-1][2]
    if opens:
        v, g, _ = next(e for e in ends if not e[2])
    later = [w for w, h, _ in ends if _by_value(w) > _by_value(v) and h == g]
    if later:
        return _midpoint(v, later[0])
    return _midpoint(v, ts[g] if g < len(ts) else min(ts[0], ends[0][0], key=_by_value))


def _midpoint(a: Pair, b: Pair) -> Pair:
    """The middle of the arc from a up to b (both in [0, 1)), on integers:
    (a + ((b - a) % 1) / 2) % 1, in lowest terms."""
    (p, q), (r, s) = a, b
    num, den = p * s + r * q, 2 * q * s
    if r * q <= p * s:  # b is reached past 1
        num += q * s
        if num >= den:
            num -= den
    g = gcd(num, den)
    return num // g, den // g


def find_k_arcset(points: Sequence[CirclePoint], k: int) -> ArcSet:
    """Union of at most 2 arcs holding exactly k points of each color.

    Input: n points per color with globally distinct parameters, 0 <= k <= n.
    k = 0 and k = n short-circuit to the empty set and the full circle; the
    rest runs the op plan on ranks of one sorted order, each halving step
    read from a safe gap (`_origin`), and builds the ArcSet once at the end.
    """
    return _arcset_of_rows(*_circle_rows(points), k)


def _arcset_of_rows(pairs: list[Pair], colors: Sequence[Color], k: int) -> ArcSet:
    """`find_k_arcset` on rows: each point's parameter `Pair` and color, in input order."""
    n = len(pairs) // 3
    require_rgb(colors, "point", n)
    ts, keys, codes = _sorted_order(pairs, colors)
    if any(s == t for s, t in zip(ts, ts[1:])):  # raises on the first repeat
        require_distinct_parameters([CirclePoint(Fraction(*t), c) for t, c in zip(pairs, colors)])
    if not 0 <= k <= n:
        raise PreconditionViolated(f"need 0 <= k <= n, got k={k}")
    if k == 0:
        return ArcSet(())
    if k == n:
        return full_circle()

    plan = plan_ops(n, k)
    arcs = None  # the full circle
    cur = n
    for op in plan.ops:
        if op == OP_COMPLEMENT:  # the same ends, the other gaps inside
            los = [lo for lo, _ in arcs]
            arcs = [(hi, los[(i + 1) % len(arcs)]) for i, (_, hi) in enumerate(arcs)]
            cur = n - cur
            continue
        order = _Order(ts, keys, codes, _origin(ts, arcs), arcs)
        res = _halve(order, cur)
        sides = [s for s in (res.plus, res.minus) if len(s) <= 2]
        if not sides:
            raise InternalError("no side with at most 2 arcs")
        arcs = [(order.end(lo), order.end(hi)) for lo, hi in min(sides)]
        cur //= 2

    a = _arcset([(lo[0], hi[0]) for lo, hi in arcs])
    got = _point_counts(a, ts, keys, codes)
    if any(g != k for g in got):
        raise InternalError("final arc set is unbalanced", {"got": str(dict(zip(RGB, got)))})
    if a.component_count() > 2:
        raise InternalError("final arc set has too many arcs")
    return a
