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

`find_k_arcset` sorts the points by parameter once.  Before each halving
step it rotates 0 into the first parameter-free gap outside the current
set; with the arc ends bisected into the sorted order, that gap is gap 0 or
starts at an arc's upper end.  A rotation keeps the cyclic order, so the
step's sorted list of its m sensitive parameters (points, arc ends, 0 and
1) is the one order shifted by an index with the arc ends bisected in, and
a rotated value is computed only where a cut or an arc end reads it.  The
step works on ranks in that list.  Per color, the number of active
points below candidate cut i never decreases in i, so the count vectors,
written in base k+1, form one sorted int64 key array in which a wanted
vector is a binary search away.  The gap-cut search (even k) costs
O(m^2 log m) time and O(m) memory; the on-point search (odd k) solves the
blue cut in closed form for each red and green cut, O(k^2) candidates.
Membership counts come from the same sorted list: a color per rank, prefix
counts per color, and each arc end bisected into it.
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
    arcset_color_counts,
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

    ts, codes = _sorted_order(points)
    return _halve(a, *_step_inputs(ts, codes, 0, Fraction(0), a), k)


def _halve(a: ArcSet, sensitive, code, k: int) -> HalveResult:
    """`moment_halve` past its preconditions, with the color counts and arc
    ends still to check.  `sensitive` holds the sorted point parameters, arc
    ends, 0 and 1 (any sequence `bisect` can search); code[r] is the index in
    RGB of the color of the point at rank r, or -1 where r is not a point."""
    # linear interval view; arcs never wrap here since 0 is outside
    intervals = [(Fraction(0), Fraction(1))] if a.is_full_circle else a.arcs
    # prefix counts: pre[i][r] points of color RGB[i] below rank r
    pre = np.zeros((len(RGB), len(sensitive) + 1), dtype=np.int64)
    for i in range(len(RGB)):
        np.cumsum(code == i, out=pre[i, 1:])

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
        i = bisect_left(sensitive, c)
        zlo = (sensitive[i - 1] + c) / 2
        zhi = (c + sensitive[i + 1]) / 2
        bounds.extend((zlo, zhi))
        dropped.append((zlo, zhi))
    return sorted(bounds), dropped


def _end_rank(x: Rat, sensitive, code) -> int:
    """Rank of the first sensitive parameter >= the arc end x.  An end on a
    point parameter raises BoundaryPoint, as `ArcSet.contains` does."""
    r = bisect_left(sensitive, x)
    if r < len(sensitive) and sensitive[r] == x and code[r] >= 0:
        raise BoundaryPoint(f"parameter {x} is an arc endpoint")
    return r


def _rank_counts(m: ArcSet, sensitive: list[Rat], code, pre) -> list[int]:
    """Points of each color inside `m`, counted from the sorted parameters:
    each arc end is bisected into `sensitive` (`_end_rank`), and the prefix
    counts `pre` give the points strictly between the ends.
    """
    below = partial(_end_rank, sensitive=sensitive, code=code)
    if m.is_full_circle:
        return pre[:, -1].tolist()
    got = np.zeros(len(RGB), dtype=np.int64)
    for lo, hi in m.arcs:
        if hi > 1:  # wraps through 0: [lo, 1) and [0, hi - 1)
            got += pre[:, -1] - pre[:, below(lo)] + pre[:, below(hi - 1)]
        else:
            got += pre[:, below(hi)] - pre[:, below(lo)]
    return got.tolist()


def _search_profile(ranks, sensitive, k: int) -> CutProfile | None:
    """First admissible profile: fewest cuts, then lexicographic.

    Both searches compare parameters only by order, so they run on each
    active point's rank in the sorted `sensitive` list (`ranks[c]`, sorted):
    small exact int64s whatever the denominators.  Neither builds a table
    over pairs or triples of cuts.  Gap cuts look count vectors up in one
    sorted key array: O(m^2 log m) time and O(m) memory over the m
    candidate cuts.  On-point cuts solve the blue cut in closed form for
    each red and green cut: O(k^2) candidates, O(k) memory.
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
    found = pos < m
    found[found] = key[pos[found]] == target[found]
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
    # idx[c3] = idx[b] - idx[a] + k - want, in range for the b (a prefix
    # past a) where no color gains more than want points over a
    for a in range(m):
        top = min(
            int(np.searchsorted(idx[c], idx[c][a] + want, side="right")) for c in RGB
        )
        second = np.arange(a + 1, top)
        third = _first_key_at(
            key, key[a + 1 : top] - key[a] + (k - want) * unit, second + 1
        )
        hits = np.flatnonzero(third < m)
        if hits.size:
            h = int(hits[0])
            return CutProfile((cut(a), cut(second[h]), cut(third[h])), 1, False)
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


def rotate_parameters(
    points: Sequence[CirclePoint], a: ArcSet, delta: Rat
) -> tuple[tuple[CirclePoint, ...], ArcSet]:
    """Rotate every parameter and the arc set by +delta (mod 1)."""
    moved = tuple(CirclePoint((p.t + delta) % 1, p.color) for p in points)
    return moved, arcset_rotate(a, delta)


class _CyclicOrder:
    """The sorted parameters of one halving step, each computed when read.

    The sorted parameters `ts`, read cyclically from index `shift` and
    rotated by `delta` (mod 1), merged with the values `ends` at the sorted
    (rank, value) pairs `fixed`; a rotation keeps the cyclic order, so the
    ranks stay sorted for `bisect`.  An end equal to a parameter is dropped.
    """

    def __init__(self, ts: list[Rat], shift: int, delta: Rat, ends=()):
        self.ts, self.shift, self.delta, self.fixed = ts, shift, delta, []
        for e in sorted(ends):  # each end's rank among the entries so far
            r = bisect_left(self, e)
            if r == len(self) or self[r] != e:
                self.fixed.append((r, e))

    def __len__(self) -> int:
        return len(self.ts) + len(self.fixed)

    def __getitem__(self, r: int) -> Rat:
        i = r
        for fr, value in self.fixed:
            if fr == r:
                return value
            if fr > r:
                break
            i -= 1
        return (self.ts[(i + self.shift) % len(self.ts)] + self.delta) % 1


def _sorted_order(points: Sequence[CirclePoint]):
    """The parameters in ascending order and their colors' indices in RGB."""
    order = sorted(points, key=lambda p: p.t)
    return [p.t for p in order], np.array([RGB.index(p.color) for p in order], dtype=np.int64)


def _step_inputs(ts: list[Rat], codes, shift: int, delta: Rat, a: ArcSet):
    """`_halve`'s sensitive parameters and color codes for the set `a` (0
    outside it), with the points `ts` (colors `codes`) read from index
    `shift` and rotated by `delta`: the arc ends, 0 and 1 merged into the
    rotated points, and the codes shifted alike, -1 off the points.  An arc
    end on a point stays a point rank, where `_halve` raises BoundaryPoint.
    """
    ends = {t for arc in a.arcs for t in arc} | {Fraction(0), Fraction(1)}
    order = _CyclicOrder(ts, shift, delta, ends)
    code = np.insert(np.roll(codes, -shift), [r - j for j, (r, _) in enumerate(order.fixed)], -1)
    return order, code


def _safe_gap(a: ArcSet, ts: list[Rat]) -> Rat:
    """Middle of the first parameter-free gap outside `a`.

    Gap i follows entry i of the sorted distinct parameters `ts` merged with
    the arc ends (mod 1).  Every arc end is an entry, so each gap lies wholly
    inside or outside `a`, and the first gap outside is gap 0 or starts at an
    arc's upper end: only those (at most 3) are tested.
    """
    entries = _CyclicOrder(ts, 0, Fraction(0), {t % 1 for arc in a.arcs for t in arc})
    comp = None if a.is_full_circle else arcset_complement(a)
    for i in sorted({0} | {bisect_left(entries, hi % 1) for _, hi in a.arcs}):
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
    ts, codes = _sorted_order(points)
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
        mid = _safe_gap(a, ts)
        delta = -mid % 1
        a_rot = arcset_rotate(a, delta)
        inputs = _step_inputs(ts, codes, bisect_right(ts, mid), delta, a_rot)
        res = _halve(a_rot, *inputs, cur)
        sides = [s for s in (res.m1, res.m2) if s.component_count() <= 2]
        if not sides:
            raise InternalError("no side with at most 2 arcs")
        pick = min(sides, key=lambda s: s.arcs)
        a = arcset_rotate(pick, -delta)
        cur //= 2
        if a.component_count() > 2:
            raise InternalError("kept side has too many arcs")

    got = arcset_color_counts(a, points)
    if any(got[c] != k for c in RGB):
        raise InternalError("final arc set is unbalanced", {"got": str(got)})
    if a.component_count() > 2:
        raise InternalError("final arc set has too many arcs")
    return a
