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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


def bfs_shortest_lengths(n: int) -> np.ndarray:
    """dist[k] = shortest f/g word length from n to k, for every k in 0..n."""
    dist = np.full(n + 1, -1, dtype=np.int16)
    dist[n] = 0
    frontier = np.array([n], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nxt = np.unique(np.concatenate([frontier // 2, n - frontier]))
        nxt = nxt[dist[nxt] == -1]
        dist[nxt] = d
        frontier = nxt
    return dist


def plan_ops_batch(n: int) -> np.ndarray:
    """Vectorized plan_ops for every k at once.

    Returns an int8 matrix with rows k = 0..n; entry 0 = no op, 1 = f,
    2 = g.  Row k's plan reads left to right skipping zeros (rows are
    right-aligned).  Row 0 is all zeros (k = 0 is not a valid target).
    """
    h = n // 2
    lo = np.arange(n + 1, dtype=np.int64)
    hi = lo.copy()
    active = np.ones(n + 1, dtype=bool)
    active[0] = False
    active[n] = False
    rev_cols = []
    while active.any():
        stop = active & (lo <= h) & (hi >= h)
        fmask = active & (hi < h)
        gmask = active & (lo > h)
        col = np.zeros(n + 1, dtype=np.int8)
        col[fmask | stop] = 1
        col[gmask] = 2
        rev_cols.append(col)
        lo2 = np.where(fmask, 2 * lo, lo)
        hi2 = np.where(fmask, 2 * hi + 1, hi)
        lo = np.where(gmask, n - hi2, lo2)
        hi = np.where(gmask, n - lo2, hi2)
        active &= ~stop
    if not rev_cols:
        return np.zeros((n + 1, 0), dtype=np.int8)
    return np.stack(rev_cols[::-1], axis=1)


def eval_plans_batch(n: int, ops: np.ndarray) -> np.ndarray:
    """Apply every row of a plan matrix to the starting count n."""
    vals = np.full(ops.shape[0], n, dtype=np.int64)
    for j in range(ops.shape[1]):
        col = ops[:, j]
        vals = np.where(col == 1, vals // 2, vals)
        vals = np.where(col == 2, n - vals, vals)
    return vals


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

    active = {c: [] for c in RGB}
    for p in points:
        if a.contains(p.t):  # BoundaryPoint propagates: point on an arc boundary
            active[p.color].append(p.t)
    for c in RGB:
        if len(active[c]) != k:
            raise PreconditionViolated(
                f"set holds {len(active[c])} {c.value} points, want {k}"
            )
        active[c].sort()

    # linear interval view; arcs never wrap here since 0 is outside
    if a.is_full_circle:
        intervals = [(Fraction(0), Fraction(1))]
    else:
        intervals = list(a.arcs)

    sensitive = sorted(
        {p.t for p in points}
        | {lo for lo, _ in intervals}
        | {hi for _, hi in intervals}
        | {Fraction(0), Fraction(1)}
    )
    profile = _search_profile(active, sensitive, k)
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
        got = arcset_color_counts(m, points)
        if any(got[c] != want for c in RGB):
            raise InternalError("halve sides are unbalanced", {"got": str(got)})
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


def _search_profile(active, sensitive, k: int) -> CutProfile | None:
    """First admissible profile: fewest cuts, then lexicographic.

    Both searches compare parameters only by order, so they run on each
    parameter's rank in the sorted `sensitive` list: small exact int64s
    whatever the denominators.
    """
    rank = {t: i for i, t in enumerate(sensitive)}
    ranks = {c: np.array([rank[t] for t in active[c]], dtype=np.int64) for c in RGB}
    if k % 2 == 1:
        return _search_on_point(ranks, sensitive, k)
    return _search_gap_cuts(ranks, sensitive, k)


def _search_gap_cuts(ranks, sensitive, k: int) -> CutProfile | None:
    # candidate cut i is the midpoint of sensitive[i] and sensitive[i + 1],
    # which can never collide with a point or an arc boundary; idx[c][i]
    # counts the active points of color c below it
    m = len(sensitive) - 1
    idx = {c: np.searchsorted(ranks[c], np.arange(m), side="right") for c in RGB}
    want = k // 2

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
    # r = 2: side + is below the first cut and above the second
    ok = None
    for c in RGB:
        cond = (idx[c][None, :] - idx[c][:, None]) == want  # [i, j] = idx[j]-idx[i]
        ok = cond if ok is None else (ok & cond)
    iu = np.triu_indices(m, 1)
    flat = ok[iu]
    hits = np.flatnonzero(flat)
    if hits.size:
        h = int(hits[0])
        return CutProfile((cut(iu[0][h]), cut(iu[1][h])), 1, False)
    # r = 3: side + is between cut 1 and 2, or above cut 3
    diff = {c: idx[c][None, :] - idx[c][:, None] for c in RGB}  # [a, b] = idx[b]-idx[a]
    for ai in range(m):
        ok = None
        for c in RGB:
            # count+ = (idx[b] - idx[ai]) + (k - idx[c2])
            cond = (diff[c][ai][:, None] + k - idx[c][None, :]) == want
            ok = cond if ok is None else (ok & cond)
        bi, ci = np.nonzero(ok)
        keep = (bi > ai) & (ci > bi)
        if keep.any():
            pos = int(np.argmax(keep))
            return CutProfile((cut(ai), cut(bi[pos]), cut(ci[pos])), 1, False)
    return None


def _search_on_point(ranks, sensitive, k: int) -> CutProfile | None:
    """Odd k: one cut on a point of each color; remaining k-1 split evenly."""
    want = (k - 1) // 2
    # lexicographic combos over (red cut, green cut, blue cut)
    rr = np.repeat(ranks[Color.R], k * k)
    gg = np.tile(np.repeat(ranks[Color.G], k), k)
    bb = np.tile(ranks[Color.B], k * k)
    cuts = np.sort(np.stack([rr, gg, bb], axis=1), axis=1)
    own = {Color.R: rr, Color.G: gg, Color.B: bb}
    ok = None
    for c in RGB:
        i1 = np.searchsorted(ranks[c], cuts[:, 0])
        i2 = np.searchsorted(ranks[c], cuts[:, 1])
        i3 = np.searchsorted(ranks[c], cuts[:, 2])
        plus = i2 - i1 + k - i3
        # own cut point gets excised; it was tallied in + iff it is the
        # lowest or highest cut (even number of cuts strictly above it).
        # Cuts never collide across colors: parameters are globally distinct
        excised_plus = (cuts[:, 0] == own[c]) | (cuts[:, 2] == own[c])
        plus = plus - excised_plus.astype(np.int64)
        cond = plus == want
        ok = cond if ok is None else (ok & cond)
    hits = np.flatnonzero(ok)
    if not hits.size:
        return None
    h = int(hits[0])
    return CutProfile(tuple(sensitive[int(r)] for r in cuts[h]), 1, True)


# -- the driver ----------------------------------------------------------------


def rotate_parameters(
    points: Sequence[CirclePoint], a: ArcSet, delta: Rat
) -> tuple[tuple[CirclePoint, ...], ArcSet]:
    """Rotate every parameter and the arc set by +delta (mod 1)."""
    moved = tuple(CirclePoint((p.t + delta) % 1, p.color) for p in points)
    return moved, arcset_rotate(a, delta)


def _safe_zero_delta(a: ArcSet, points: Sequence[CirclePoint]) -> Rat:
    """Rotation sending 0 to the middle of the first parameter-free gap
    outside `a`."""
    sensitive = sorted({p.t for p in points} | {lo % 1 for lo, _ in a.arcs} | {hi % 1 for _, hi in a.arcs})
    comp = None if a.is_full_circle else arcset_complement(a)
    for i, s in enumerate(sensitive):
        nxt = sensitive[(i + 1) % len(sensitive)]
        mid = (s + (nxt if nxt > s else nxt + 1)) / 2 % 1
        # every arc endpoint is in `sensitive`, so no gap middle is one
        if comp is None or comp.contains(mid):
            return -mid % 1
    raise InternalError("no safe gap for the zero parameter")


def find_k_arcset(points: Sequence[CirclePoint], k: int) -> ArcSet:
    """Union of at most 2 arcs holding exactly k points of each color.

    Input: n points per color with globally distinct parameters, 0 <= k <= n.
    k = 0 and k = n short-circuit to the empty set and the full circle; the
    rest runs the op plan, rotating before each halve so the parameter
    origin sits in a safe gap.
    """
    n = len(points) // 3
    require_rgb([p.color for p in points], "point", n)
    require_distinct_parameters(points)
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
        delta = _safe_zero_delta(a, points)
        moved, a_rot = rotate_parameters(points, a, delta)
        res = moment_halve(a_rot, moved, cur)
        sides = [res.m1, res.m2]
        sides = [s for s in sides if s.component_count() <= 2]
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
