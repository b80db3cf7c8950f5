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

`find_k_arcset` sorts the points by parameter once, on an exact integer
key: floor(t * 2**64) first, the parameter itself only where two keys tie,
so no float enters a comparison.  Before each halving step it rotates 0
into the first parameter-free gap outside the current set; with the arc
ends bisected into the sorted order, that gap is gap 0 or starts at an
arc's upper end.  A rotation keeps the cyclic order, so the step's sorted
list of its m sensitive parameters (points, arc ends, 0 and 1) is the one
order shifted by an index with the arc ends merged in (`_CyclicOrder`).  Its
rank query rotates nothing: the queried value is shifted once into the
input frame and bisected on the integer keys, and the at most 6 merged
ends below it are counted.  A rotated value is computed only where a cut
or an arc end reads it.

The step works on ranks in that list.  Per color, the number of active
points below candidate cut i never decreases in i, so the count vectors,
written in base k+1, form one sorted int64 key array in which a wanted
vector is a binary search away.  The gap-cut search (even k) pairs only
cuts that start a run of equal keys, or follow such a start, in blocks of
fixed size: O(r^2 log m) time for the r <= 3k + 1 distinct keys and O(m)
memory.  The on-point search (odd k) solves the blue cut in closed form
for each red and green cut, O(k^2) candidates.  Membership counts come from
the same sorted order: a color per rank, prefix counts per color, and each
arc end bisected into it.  The final answer is counted the same way on the
sorted input, not with one `ArcSet.contains` per point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    ArcSet,
    CirclePoint,
    Color,
    Rat,
    RGB,
    arcset,
    arcset_complement,
    arcset_rotate,
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

_PAIR_BLOCK = 1 << 14  # (first, second) cut pairs per array pass of the r = 3 search


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


def _point_side(t: Rat, profile: CutProfile) -> int:
    above = sum(1 for c in profile.cuts if c > t)
    return profile.polarity * (-1 if above % 2 else 1)


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

    ts, keys, codes = _sorted_order(points)
    return _halve(a, *_step_inputs(ts, keys, codes, 0, Fraction(0), a), k)


def _halve(a: ArcSet, sensitive, code, k: int) -> HalveResult:
    """`moment_halve` past its preconditions, with the color counts and arc
    ends still to check.  `sensitive` holds the sorted point parameters, arc
    ends, 0 and 1 (any sequence `bisect` can search); code[r] is the index in
    RGB of the color of the point at rank r, or -1 where r is not a point."""
    # linear interval view; arcs never wrap here since 0 is outside
    intervals = [(Fraction(0), Fraction(1))] if a.is_full_circle else a.arcs
    pre = _prefix_counts(code)
    inside = np.zeros(len(sensitive), dtype=bool)
    for lo, hi in intervals:
        inside[_end_rank(lo, sensitive, code) + 1 : _end_rank(hi, sensitive, code)] = True
    ranks = {c: np.flatnonzero(inside & (code == i)) for i, c in enumerate(RGB)}
    for c in RGB:
        if len(ranks[c]) != k:
            raise PreconditionViolated(
                f"set holds {len(ranks[c])} {c.value} points, want {k}"
            )

    profile = _search_profile(ranks, sensitive, k)
    if profile is None:
        raise NoCutFound(f"no admissible cut profile for k={k}")

    halves = {1: [], -1: []}
    bounds, dropped = _piece_bounds(profile, sensitive)
    for lo, hi in intervals:
        inner = sorted({c for c in bounds if lo < c < hi})
        edges = [lo] + inner + [hi]
        for plo, phi in zip(edges, edges[1:]):
            mid = (plo + phi) / 2
            if any(zlo <= mid <= zhi for zlo, zhi in dropped):
                continue  # excised sliver around an on-point cut: neither side
            halves[_point_side(mid, profile)].append((plo, phi))
    m1 = arcset(halves[1]) if halves[1] else ArcSet(())
    m2 = arcset(halves[-1]) if halves[-1] else ArcSet(())

    want = k // 2
    for m in (m1, m2):
        got = _rank_counts(m, sensitive, code, pre)
        if any(g != want for g in got):
            raise InternalError(
                "halve sides are unbalanced", {"got": str(dict(zip(RGB, got)))}
            )
    total = m1.component_count() + m2.component_count()
    if total > 5 or min(m1.component_count(), m2.component_count()) > 2:
        raise InternalError("halve produced too many arcs", {"total": total})
    return HalveResult(m1, m2, profile)


def _piece_bounds(profile: CutProfile, sensitive: list[Rat]):
    """Where the output arcs start and stop, plus slivers belonging to neither.

    Gap cuts are already safely between sensitive parameters and bound both
    sides.  An on-point cut excises its point: the left side stops at the
    midpoint just below the point, the right side starts at the midpoint
    just above, so no output boundary ever hits a point parameter.  The
    sliver between those two midpoints holds only the excised point and is
    dropped from both sides.
    """
    if not profile.on_points:
        return sorted(profile.cuts), []
    bounds = []
    dropped = []
    for c in profile.cuts:
        i = _rank(sensitive, c)
        zlo = (sensitive[i - 1] + c) / 2
        zhi = (c + sensitive[i + 1]) / 2
        bounds.extend((zlo, zhi))
        dropped.append((zlo, zhi))
    return sorted(bounds), dropped


def _rank(sensitive, x: Rat) -> int:
    """`bisect_left(sensitive, x)`; a `_CyclicOrder` answers it with its own
    rank query instead of reading entries."""
    if isinstance(sensitive, _CyclicOrder):
        return sensitive.rank(x)
    return bisect_left(sensitive, x)


def _end_rank(x: Rat, sensitive, code) -> int:
    """Rank of the first sensitive parameter >= the arc end x.  An end on a
    point parameter raises BoundaryPoint, as `ArcSet.contains` does."""
    r = _rank(sensitive, x)
    if r < len(sensitive) and code[r] >= 0 and sensitive[r] == x:
        raise BoundaryPoint(f"parameter {x} is an arc endpoint")
    return r


def _prefix_counts(code):
    """pre[i][r]: the points of color RGB[i] below rank r."""
    pre = np.zeros((len(RGB), len(code) + 1), dtype=np.int64)
    for i in range(len(RGB)):
        np.cumsum(code == i, out=pre[i, 1:])
    return pre


def _rank_counts(m: ArcSet, sensitive, code, pre) -> list[int]:
    """Points of each color inside `m`, counted from the sorted parameters:
    each arc end is bisected into `sensitive` (`_end_rank`), and the prefix
    counts `pre` (`_prefix_counts`) give the points strictly between the ends.
    """
    below = partial(_end_rank, sensitive=sensitive, code=code)
    if m.is_full_circle:
        return pre[:, -1].tolist()
    got = np.zeros(len(RGB), dtype=np.int64)
    for lo, hi in m.arcs:
        if hi >= 1:  # through 0: [lo, 1) and [0, hi - 1); an end at 1 is one at 0
            got += pre[:, -1] - pre[:, below(lo)] + pre[:, below(hi - 1)]
        else:
            got += pre[:, below(hi)] - pre[:, below(lo)]
    return got.tolist()


def _point_counts(a: ArcSet, ts: list[Rat], keys: list[int], codes) -> list[int]:
    """Points of each color inside `a`, in RGB order, from the sorted
    parameters `ts` (keys `keys`, colors `codes`) alone: `_rank_counts` with
    no ends merged in, so an arc end on a point raises BoundaryPoint as
    `arcset_color_counts` does."""
    order = _CyclicOrder(ts, keys, 0, Fraction(0))
    return _rank_counts(a, order, codes, _prefix_counts(codes))


def _search_profile(ranks, sensitive, k: int) -> CutProfile | None:
    """First admissible profile: fewest cuts, then lexicographic.

    Both searches compare parameters only by order, so they run on each
    active point's rank in the sorted `sensitive` list (`ranks[c]`, sorted):
    small exact int64s whatever the denominators.  Neither builds a table
    over pairs or triples of cuts.  Gap cuts look count vectors up in one
    sorted key array over the m candidate cuts: O(r^2 log m) time for its
    r distinct keys, and O(m) memory.  On-point cuts solve the blue cut in
    closed form for each red and green cut: O(k^2) candidates, O(k) memory.
    """
    if (k + 1) ** 3 > np.iinfo(np.int64).max:
        raise PreconditionViolated(f"k={k} is too large for int64 count keys")
    if k % 2 == 1:
        return _search_on_point(ranks, sensitive, k)
    return _search_gap_cuts(ranks, sensitive, k)


def _count_key(idx, k: int):
    """Count vectors (R, G, B) with entries in 0..k as base-(k+1) int64s.

    The map is linear and one-to-one on 0..k, so the key of a sum of
    in-range vectors is the sum of their keys.
    """
    return (idx[Color.R] * (k + 1) + idx[Color.G]) * (k + 1) + idx[Color.B]


def _first_key_at(key, target, start):
    """Per entry, the first position p >= start with key[p] == target, or
    len(key) if there is none.  `key` is sorted, so the positions holding
    one key form a single run, which one binary search finds."""
    m = len(key)
    pos = np.maximum(np.searchsorted(key, target), start)
    found = (pos < m) & (key.take(pos, mode="clip") == target)
    return np.where(found, pos, m)


def _search_gap_cuts(ranks, sensitive, k: int) -> CutProfile | None:
    # candidate cut i is the midpoint of sensitive[i] and sensitive[i + 1],
    # which can never collide with a point or an arc boundary; idx[c][i]
    # counts the active points of color c below it.  Each idx[c] is
    # non-decreasing in i, so key[i] is sorted, and two cuts share a key
    # exactly when they share a count vector.
    m = len(sensitive) - 1
    idx = {c: np.searchsorted(ranks[c], np.arange(m), side="right") for c in RGB}
    want = k // 2
    key = _count_key(idx, k)
    unit = _count_key({c: 1 for c in RGB}, k)  # key of (1, 1, 1)

    def cut(i) -> Rat:
        i = int(i)
        return (sensitive[i] + sensitive[i + 1]) / 2

    # r = 1: points above the cut are side +;  want k - idx == k/2
    ok = None
    for c in RGB:
        cond = (k - idx[c]) == want
        ok = cond if ok is None else (ok & cond)
    hits = np.flatnonzero(ok)
    if hits.size:
        return CutProfile((cut(hits[0]),), 1, False)
    # r = 2: side + is below the first cut a and above the second, so
    # idx[j] = idx[a] + want; only cuts a with idx[a] + want <= k can match
    top = min(int(np.searchsorted(idx[c], k - want, side="right")) for c in RGB)
    second = _first_key_at(key, key[:top] + want * unit, np.arange(1, top + 1))
    hits = np.flatnonzero(second < m)
    if hits.size:
        h = int(hits[0])
        return CutProfile((cut(h), cut(second[h])), 1, False)
    # r = 3: side + is between cut 1 and 2, or above cut 3, so
    # idx[c3] = idx[b] - idx[a] + k - want, in range for the b in (a, top[a])
    # where no color gains more than want points over a.  Within a run of
    # equal keys a later first cut a hits only where the run's first one
    # does, and a later second cut b only where the one before it does, so
    # a runs over the run starts and b over the run starts and the cuts just
    # past them.  The pairs (a, b) are numbered in lexicographic order and
    # looked up _PAIR_BLOCK at a time, so the first hit is the one the search
    # over every pair finds
    starts = np.flatnonzero(np.diff(key, prepend=-1))
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
            key, key[second] - key[first] + (k - want) * unit, second + 1
        )
        hits = np.flatnonzero(third < m)
        if hits.size:
            h = int(hits[0])
            return CutProfile((cut(first[h]), cut(second[h]), cut(third[h])), 1, False)
    return None


def _search_on_point(ranks, sensitive, k: int) -> CutProfile | None:
    """Odd k: one cut on a point of each color; remaining k-1 split evenly.

    With the red and green cuts fixed, blue's own side count is strictly
    monotone in the blue cut's index within each order region (below both
    other cuts, between them, above both), so each region admits at most
    one blue cut, solved in closed form.  The count formula then checks
    every color on those candidates, red cut by red cut.
    """
    want = (k - 1) // 2
    red, green, blue = ranks[Color.R], ranks[Color.G], ranks[Color.B]
    for x in red:
        # rows: green cuts; columns: blue cut index ib below both, between
        # and above both, where blue's own side count is bl - ib + k - bh - 1,
        # ib - bl + k - bh and bh - bl + k - ib - 1; each is want at one ib
        lo, hi = np.minimum(x, green), np.maximum(x, green)
        bl, bh = np.searchsorted(blue, lo), np.searchsorted(blue, hi)
        ib = np.stack(
            [bl + k - bh - 1 - want, want + bl + bh - k, bh - bl + k - 1 - want], axis=1
        )
        edges = np.stack([np.zeros_like(bl), bl, bh, np.full_like(bl, k)], axis=1)
        ok = (edges[:, :3] <= ib) & (ib < edges[:, 1:])
        triple = np.stack(
            [np.full(ib.shape, x), np.broadcast_to(green[:, None], ib.shape),
             blue[np.where(ok, ib, 0)]],
            axis=2,
        ).reshape(-1, 3)
        ok = ok.ravel()
        cuts = np.sort(triple, axis=1)
        for i, c in enumerate(RGB):
            i1 = np.searchsorted(ranks[c], cuts[:, 0])
            i2 = np.searchsorted(ranks[c], cuts[:, 1])
            i3 = np.searchsorted(ranks[c], cuts[:, 2])
            plus = i2 - i1 + k - i3
            # own cut point gets excised; it was tallied in + iff it is the
            # lowest or highest cut (even number of cuts strictly above it).
            # Cuts never collide across colors: parameters are globally distinct
            mine = triple[:, i]
            plus = plus - ((cuts[:, 0] == mine) | (cuts[:, 2] == mine))
            ok &= plus == want
        hits = np.flatnonzero(ok)
        if hits.size:
            h = int(hits[0])
            return CutProfile(tuple(sensitive[int(r)] for r in cuts[h]), 1, True)
    return None


# -- the driver ----------------------------------------------------------------


class _CyclicOrder:
    """The sorted parameters of one halving step, each computed when read.

    The sorted parameters `ts` rotated by `delta` (mod 1), which moves the
    origin -delta % 1 to 0: read cyclically from index `shift`, the number
    of parameters below the origin, they stay sorted.  The values `ends`
    are merged in, in order: `gaps[j]` parameters lie below the j-th end
    kept, `fixed[j]`.  An end equal to a parameter is dropped.  `keys`
    holds each parameter's `_floor_key`.
    """

    def __init__(self, ts: list[Rat], keys: list[int], shift: int, delta: Rat, ends=()):
        self.ts, self.keys, self.shift, self.delta = ts, keys, shift, delta
        self.origin = -delta % 1
        self.gaps, self.fixed = [], []
        for e in sorted(ends):
            r = self.rank(e)
            if r == len(self) or self[r] != e:
                self.gaps.append(r - len(self.fixed))
                self.fixed.append(e)

    def rank(self, x: Rat) -> int:
        """`bisect_left(self, x)` for x in [0, 1] without reading entries:
        x is shifted once into the frame of `ts` and bisected there on the
        integer keys, and the ends below x are bisected on `gaps`; only
        ties are settled on the rationals."""
        y = x + self.origin
        wrap = y >= 1  # then every point from the origin up lies below x
        if wrap:
            y -= 1
        ky = _floor_key(y)
        i = bisect_left(self.keys, ky)
        while i < len(self.ts) and self.keys[i] == ky and self.ts[i] < y:
            i += 1
        below = i - self.shift + (len(self.ts) if wrap else 0)
        j = bisect_left(self.gaps, below)
        while j < len(self.fixed) and self.gaps[j] == below and self.fixed[j] < x:
            j += 1
        return below + j

    def __len__(self) -> int:
        return len(self.ts) + len(self.fixed)

    def __getitem__(self, r: int) -> Rat:
        i = r
        for j, (gap, value) in enumerate(zip(self.gaps, self.fixed)):
            if gap + j == r:
                return value
            if gap + j > r:
                break
            i -= 1
        return (self.ts[(i + self.shift) % len(self.ts)] + self.delta) % 1


def _floor_key(t: Rat) -> int:
    """floor(t * 2**64): an exact integer, non-decreasing in t, so it orders
    parameters up to the ties it leaves to an exact comparison."""
    return (t.numerator << 64) // t.denominator


def _sorted_order(points: Sequence[CirclePoint]):
    """The parameters in ascending order, their `_floor_key`s and their
    colors' indices in RGB.  The sort compares the integer keys first and
    the parameters only where the keys tie."""
    order = sorted((_floor_key(p.t), p.t, i) for i, p in enumerate(points))
    codes = np.array([RGB.index(points[i].color) for _, _, i in order], dtype=np.int64)
    return [t for _, t, _ in order], [key for key, _, _ in order], codes


def _step_inputs(ts: list[Rat], keys: list[int], codes, shift: int, delta: Rat, a: ArcSet):
    """`_halve`'s sensitive parameters and color codes for the set `a` (0
    outside it), with the points `ts` (keys `keys`, colors `codes`) read
    from index `shift` and rotated by `delta`: the arc ends, 0 and 1 merged
    into the rotated points, and the codes shifted alike, -1 off the points.
    An arc end on a point stays a point rank, where `_halve` raises
    BoundaryPoint.
    """
    ends = {t for arc in a.arcs for t in arc} | {Fraction(0), Fraction(1)}
    order = _CyclicOrder(ts, keys, shift, delta, ends)
    code = np.insert(np.roll(codes, -shift), order.gaps, -1)
    return order, code


def _safe_gap(a: ArcSet, ts: list[Rat], keys: list[int]) -> Rat:
    """Middle of the first parameter-free gap outside `a`.

    Gap i follows entry i of the sorted distinct parameters `ts` (keys
    `keys`) merged with the arc ends (mod 1).  Every arc end is an entry, so
    each gap lies wholly inside or outside `a`, and the first gap outside is
    gap 0 or starts at an arc's upper end: only those (at most 3) are tested.
    """
    entries = _CyclicOrder(ts, keys, 0, Fraction(0), {t % 1 for arc in a.arcs for t in arc})
    comp = None if a.is_full_circle else arcset_complement(a)
    for i in sorted({0} | {entries.rank(hi % 1) for _, hi in a.arcs}):
        s, nxt = entries[i], entries[(i + 1) % len(entries)]
        mid = (s + (nxt if nxt > s else nxt + 1)) / 2 % 1
        if comp is None or comp.contains(mid):
            return mid
    raise InternalError("no safe gap for the zero parameter")


def find_k_arcset(points: Sequence[CirclePoint], k: int) -> ArcSet:
    """Union of at most 2 arcs holding exactly k points of each color.

    Input: n points per color with globally distinct parameters, 0 <= k <= n.
    k = 0 and k = n short-circuit to the empty set and the full circle; the
    rest runs the op plan, rotating before each halve so the parameter
    origin sits in a safe gap.  The points are sorted once; each rotation
    is a cyclic shift of that order.
    """
    n = len(points) // 3
    require_rgb([p.color for p in points], "point", n)
    ts, keys, codes = _sorted_order(points)
    if any(s == t for s, t in zip(ts, ts[1:])):
        require_distinct_parameters(points)  # raises on the first repeat
    if not 0 <= k <= n:
        raise PreconditionViolated(f"need 0 <= k <= n, got k={k}")
    if k == 0:
        return ArcSet(())
    if k == n:
        return full_circle()

    plan = plan_ops(n, k)
    a = full_circle()
    cur = n
    for op in plan.ops:
        if op == OP_COMPLEMENT:
            a = arcset_complement(a)
            cur = n - cur
            continue
        mid = _safe_gap(a, ts, keys)
        delta = -mid % 1
        a_rot = arcset_rotate(a, delta)
        inputs = _step_inputs(ts, keys, codes, bisect_right(ts, mid), delta, a_rot)
        res = _halve(a_rot, *inputs, cur)
        sides = [s for s in (res.m1, res.m2) if s.component_count() <= 2]
        if not sides:
            raise InternalError("no side with at most 2 arcs")
        pick = min(sides, key=lambda s: s.arcs)
        a = arcset_rotate(pick, -delta)
        cur //= 2
        if a.component_count() > 2:
            raise InternalError("kept side has too many arcs")

    got = _point_counts(a, ts, keys, codes)
    if any(g != k for g in got):
        raise InternalError("final arc set is unbalanced", {"got": str(dict(zip(RGB, got)))})
    if a.component_count() > 2:
        raise InternalError("final arc set has too many arcs")
    return a
