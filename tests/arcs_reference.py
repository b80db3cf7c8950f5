"""Arc halving on rotated Fraction parameters, kept as a test-only reference.

`reference_find_k_arcset` is the pipeline `arcs.find_k_arcset` ran before it
worked on integer ranks in the input frame: before each halving step it
rotates every point and the current `ArcSet` so that 0 sits in a safe gap,
re-sorts the parameters with the arc ends, 0 and 1 into one plain list,
halves on that list (`reference_halve`, with both cut searches and the piece
bounds as they were) and rotates the kept side back.  Nothing here calls
`tricut.arcs` beyond `plan_ops`, `CutProfile` and `HalveResult`, so
`test_arcs.py` can hold the library to it.  `arcset_complement` and
`arcset_rotate` are the `ArcSet` operations that pipeline used.
"""

from bisect import bisect_left
from fractions import Fraction

import numpy as np

from tricut.arcs import OP_COMPLEMENT, CutProfile, HalveResult, plan_ops
from tricut.core import (
    ArcSet,
    CirclePoint,
    Color,
    RGB,
    arcset,
    empty_arcset,
    full_circle,
)
from tricut.errors import BoundaryPoint, InternalError, NoCutFound, PreconditionViolated

PAIR_BLOCK = 1 << 14


def arcset_complement(a):
    if a.is_full_circle:
        return empty_arcset()
    if a.is_empty:
        return full_circle()
    gaps = []
    for i, (lo, hi) in enumerate(a.arcs):
        nxt_lo = a.arcs[i + 1][0] if i + 1 < len(a.arcs) else a.arcs[0][0] + 1
        gaps.append((hi % 1, (hi % 1) + (nxt_lo - hi)))
    return arcset(gaps)


def arcset_rotate(a, delta):
    """Rotate every arc by +delta (mod 1)."""
    if a.is_empty or a.is_full_circle:
        return a
    delta = Fraction(delta)
    return arcset([(lo + delta, hi + delta) for lo, hi in a.arcs])


def reference_rotate_parameters(points, a, delta):
    moved = tuple(CirclePoint((p.t + delta) % 1, p.color) for p in points)
    return moved, arcset_rotate(a, delta)


def reference_safe_zero_delta(a, points):
    """Every gap of a fresh sort of the parameters and arc ends, in order."""
    sensitive = sorted(
        {p.t for p in points} | {lo % 1 for lo, _ in a.arcs} | {hi % 1 for _, hi in a.arcs}
    )
    comp = None if a.is_full_circle else arcset_complement(a)
    for i, s in enumerate(sensitive):
        nxt = sensitive[(i + 1) % len(sensitive)]
        mid = (s + (nxt if nxt > s else nxt + 1)) / 2 % 1
        if comp is None or comp.contains(mid):
            return -mid % 1
    raise InternalError("no safe gap for the zero parameter")


def reference_halve(a, points, k):
    """The halving step on a sensitive list sorted from a set of parameters:
    the points, the arc ends of `a` (0 outside it), 0 and 1."""
    sensitive = sorted(
        {p.t for p in points} | {t for arc in a.arcs for t in arc} | {Fraction(0), Fraction(1)}
    )
    rank = {t: i for i, t in enumerate(sensitive)}
    code = np.full(len(sensitive), -1, dtype=np.int64)
    code[[rank[p.t] for p in points]] = [RGB.index(p.color) for p in points]
    return _halve(a, sensitive, code, k)


def reference_find_k_arcset(points, k, check_step=None):
    """Rotates every point and re-sorts before each halving step.
    `check_step(a_rot, moved, cur, res)`, if given, sees each step's
    rotated input and its result."""
    n = len(points) // 3
    if k == 0:
        return ArcSet(())
    if k == n:
        return full_circle()
    a = full_circle()
    cur = n
    for op in plan_ops(n, k).ops:
        if op == OP_COMPLEMENT:
            a = arcset_complement(a)
            cur = n - cur
            continue
        delta = reference_safe_zero_delta(a, points)
        moved, a_rot = reference_rotate_parameters(points, a, delta)
        res = reference_halve(a_rot, moved, cur)
        if check_step is not None:
            check_step(a_rot, moved, cur, res)
        sides = [s for s in (res.m1, res.m2) if s.component_count() <= 2]
        a = arcset_rotate(min(sides, key=lambda s: s.arcs), -delta)
        cur //= 2
    return a


# -- the step on a plain sorted list ---------------------------------------------


def _halve(a, sensitive, code, k):
    intervals = [(Fraction(0), Fraction(1))] if a.is_full_circle else a.arcs
    pre = _prefix_counts(code)
    inside = np.zeros(len(sensitive), dtype=bool)
    for lo, hi in intervals:
        inside[_end_rank(lo, sensitive, code) + 1 : _end_rank(hi, sensitive, code)] = True
    ranks = {c: np.flatnonzero(inside & (code == i)) for i, c in enumerate(RGB)}
    for c in RGB:
        if len(ranks[c]) != k:
            raise PreconditionViolated(f"set holds {len(ranks[c])} {c.value} points, want {k}")

    profile = (frozen_on_point if k % 2 else frozen_gap_cuts)(ranks, sensitive, k)
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
                continue
            halves[_point_side(mid, profile)].append((plo, phi))
    m1 = arcset(halves[1]) if halves[1] else ArcSet(())
    m2 = arcset(halves[-1]) if halves[-1] else ArcSet(())

    want = k // 2
    for m in (m1, m2):
        got = _rank_counts(m, sensitive, code, pre)
        if any(g != want for g in got):
            raise InternalError("halve sides are unbalanced", {"got": str(dict(zip(RGB, got)))})
    total = m1.component_count() + m2.component_count()
    if total > 5 or min(m1.component_count(), m2.component_count()) > 2:
        raise InternalError("halve produced too many arcs", {"total": total})
    return HalveResult(m1, m2, profile)


def _point_side(t, profile):
    above = sum(1 for c in profile.cuts if c > t)
    return profile.polarity * (-1 if above % 2 else 1)


def _piece_bounds(profile, sensitive):
    """Gap cuts bound both sides; an on-point cut excises the sliver between
    the midpoints to its neighbours."""
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


def _end_rank(x, sensitive, code):
    r = bisect_left(sensitive, x)
    if r < len(sensitive) and code[r] >= 0 and sensitive[r] == x:
        raise BoundaryPoint(f"parameter {x} is an arc endpoint")
    return r


def _prefix_counts(code):
    pre = np.zeros((len(RGB), len(code) + 1), dtype=np.int64)
    for i in range(len(RGB)):
        np.cumsum(code == i, out=pre[i, 1:])
    return pre


def _rank_counts(m, sensitive, code, pre):
    if m.is_full_circle:
        return pre[:, -1].tolist()
    got = np.zeros(len(RGB), dtype=np.int64)
    for lo, hi in m.arcs:
        if hi >= 1:
            got += (
                pre[:, -1]
                - pre[:, _end_rank(lo, sensitive, code)]
                + pre[:, _end_rank(hi - 1, sensitive, code)]
            )
        else:
            got += pre[:, _end_rank(hi, sensitive, code)] - pre[:, _end_rank(lo, sensitive, code)]
    return got.tolist()


# -- both cut searches, returning parameters -------------------------------------


def _count_key(idx, k):
    return (idx[Color.R] * (k + 1) + idx[Color.G]) * (k + 1) + idx[Color.B]


def _first_key_at(key, target, start):
    m = len(key)
    pos = np.maximum(np.searchsorted(key, target), start)
    found = (pos < m) & (key.take(pos, mode="clip") == target)
    return np.where(found, pos, m)


def frozen_gap_cuts(ranks, sensitive, k):
    """Even k: the gap-cut search on the sorted list `sensitive`, first hit
    by fewest cuts, then lexicographic."""
    m = len(sensitive) - 1
    idx = {c: np.searchsorted(ranks[c], np.arange(m), side="right") for c in RGB}
    want = k // 2
    key = _count_key(idx, k)
    unit = _count_key({c: 1 for c in RGB}, k)

    def cut(i):
        i = int(i)
        return (sensitive[i] + sensitive[i + 1]) / 2

    ok = None
    for c in RGB:
        cond = (k - idx[c]) == want
        ok = cond if ok is None else (ok & cond)
    hits = np.flatnonzero(ok)
    if hits.size:
        return CutProfile((cut(hits[0]),), 1, False)
    top = min(int(np.searchsorted(idx[c], k - want, side="right")) for c in RGB)
    second = _first_key_at(key, key[:top] + want * unit, np.arange(1, top + 1))
    hits = np.flatnonzero(second < m)
    if hits.size:
        h = int(hits[0])
        return CutProfile((cut(h), cut(second[h])), 1, False)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    marked = np.zeros(m + 1, dtype=bool)
    marked[starts] = marked[starts + 1] = True
    seconds = np.flatnonzero(marked[:m])
    top = np.minimum.reduce(
        [np.searchsorted(idx[c], idx[c][starts] + want, side="right") for c in RGB]
    )
    lo = np.searchsorted(seconds, starts, side="right")
    count = np.maximum(np.searchsorted(seconds, top) - lo, 0)
    end = np.cumsum(count)
    pairs = int(end[-1])
    for p0 in range(0, pairs, PAIR_BLOCK):
        p = np.arange(p0, min(p0 + PAIR_BLOCK, pairs))
        i = np.searchsorted(end, p, side="right")
        first, second = starts[i], seconds[lo[i] + p - (end[i] - count[i])]
        third = _first_key_at(key, key[second] - key[first] + (k - want) * unit, second + 1)
        hits = np.flatnonzero(third < m)
        if hits.size:
            h = int(hits[0])
            return CutProfile((cut(first[h]), cut(second[h]), cut(third[h])), 1, False)
    return None


def frozen_on_point(ranks, sensitive, k):
    """Odd k: one cut on a point of each color, red cut by red cut."""
    want = (k - 1) // 2
    red, green, blue = ranks[Color.R], ranks[Color.G], ranks[Color.B]
    for x in red:
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
            mine = triple[:, i]
            plus = plus - ((cuts[:, 0] == mine) | (cuts[:, 2] == mine))
            ok &= plus == want
        hits = np.flatnonzero(ok)
        if hits.size:
            h = int(hits[0])
            return CutProfile(tuple(sensitive[int(r)] for r in cuts[h]), 1, True)
    return None
