"""Op plans, exact halving cuts, and the 2-arc driver."""

import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tricut.arcs
from tricut.arcs import (
    OP_COMPLEMENT,
    OP_HALVE,
    CutProfile,
    OpPlan,
    _CyclicOrder,
    _floor_key,
    _halve,
    _point_counts,
    _safe_gap,
    _search_gap_cuts,
    _search_on_point,
    _search_profile,
    _sorted_order,
    bfs_shortest,
    find_k_arcset,
    moment_halve,
    plan_ops,
)
from tricut.core import (
    ArcSet,
    CirclePoint,
    Color,
    RGB,
    arcset,
    arcset_color_counts,
    arcset_complement,
    arcset_rotate,
    circle_point,
    full_circle,
)
from tricut.errors import BoundaryPoint, InternalError, MissingColor, PreconditionViolated
from tricut.generators import GenKind, GenSpec, generate
from tricut.oracles import arcset_points_key, enumerate_2arc_sets

from plan_batch import bfs_shortest_lengths, eval_plans_batch, plan_ops_batch


def batch_row_ops(mat, k):
    return tuple(OP_HALVE if v == 1 else OP_COMPLEMENT for v in mat[k] if v != 0)


class TestPlanOps:
    def test_frozen_small_plans(self):
        assert plan_ops(2, 1).ops == ("f",)
        assert plan_ops(5, 5).ops == ()
        assert plan_ops(7, 2).ops == ("f", "g", "f")

    def test_identity_when_k_equals_n(self):
        for n in (1, 2, 9, 100):
            assert plan_ops(n, n).ops == ()

    def test_counts_path(self):
        p = plan_ops(7, 2)
        assert p.counts_path() == (7, 3, 4, 2)

    def test_rejects_bad_k(self):
        with pytest.raises(PreconditionViolated):
            plan_ops(5, 0)
        with pytest.raises(PreconditionViolated):
            plan_ops(5, 6)
        with pytest.raises(PreconditionViolated):
            plan_ops(0, 0)

    def test_exhaustive_small(self):
        # every plan evaluates to k, never doubles g, stays within the bound,
        # and mid-plan counts avoid 0 and n
        for n in range(1, 201):
            bound = 2 * math.ceil(math.log2(n)) + 4 if n > 1 else 4
            for k in range(1, n + 1):
                p = plan_ops(n, k)
                word = "".join(p.ops)
                assert "gg" not in word, (n, k)
                assert len(p.ops) <= bound, (n, k)
                path = p.counts_path()
                assert path[-1] == k
                for v in path[1:]:
                    assert 1 <= v <= n - 1 or v == k == n, (n, k, path)

    def test_near_shortest(self):
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert len(plan_ops(n, k).ops) <= bfs_shortest(n, k) + 4, (n, k)

    def test_batch_matches_scalar(self):
        for n in (1, 2, 3, 7, 16, 40, 257):
            mat = plan_ops_batch(n)
            for k in range(1, n + 1):
                assert batch_row_ops(mat, k) == plan_ops(n, k).ops, (n, k)

    def test_batch_eval(self):
        for n in (5, 64, 1000):
            mat = plan_ops_batch(n)
            vals = eval_plans_batch(n, mat)
            assert (vals[1:] == np.arange(1, n + 1)).all()

    def test_bfs_lengths_match_scalar(self):
        for n in (2, 9, 40):
            dist = bfs_shortest_lengths(n)
            for k in range(1, n + 1):
                assert int(dist[k]) == bfs_shortest(n, k)

    def test_plan_rejects_unknown_op(self):
        with pytest.raises(PreconditionViolated):
            OpPlan(3, 1, ("f", "x"))


def interleaved_points(n, denom_pad=0):
    """R, G, B repeating, evenly spread, origin-free parameters."""
    m = 3 * n
    d = 2 * m + denom_pad
    return [
        circle_point(F(2 * i + 1, d), RGB[i % 3])
        for i in range(m)
    ]


def block_points(n):
    """All reds, then all greens, then all blues."""
    m = 3 * n
    pts = []
    for i in range(m):
        color = RGB[i // n]
        pts.append(circle_point(F(2 * i + 1, 2 * m), color))
    return pts


def side_counts(a, pts):
    return arcset_color_counts(a, pts)


class TestMomentHalve:
    def test_even_full_circle(self):
        pts = interleaved_points(2)
        res = moment_halve(full_circle(), pts, 2)
        for side in (res.m1, res.m2):
            assert set(side_counts(side, pts).values()) == {1}
        assert res.m1.component_count() + res.m2.component_count() <= 5
        assert min(res.m1.component_count(), res.m2.component_count()) <= 2

    def test_odd_excises_one_per_color(self):
        pts = interleaved_points(3)
        res = moment_halve(full_circle(), pts, 3)
        assert res.profile.on_points
        assert len(res.profile.cuts) == 3
        for side in (res.m1, res.m2):
            assert set(side_counts(side, pts).values()) == {1}
        neither = [
            p for p in pts if not res.m1.contains(p.t) and not res.m2.contains(p.t)
        ]
        assert sorted(p.color.value for p in neither) == ["B", "G", "R"]
        assert {p.t for p in neither} == set(res.profile.cuts)

    def test_k_one(self):
        pts = interleaved_points(1)
        res = moment_halve(full_circle(), pts, 1)
        for side in (res.m1, res.m2):
            assert set(side_counts(side, pts).values()) == {0}

    def test_two_arc_input(self):
        a = arcset([(F(1, 10), F(3, 10)), (F(6, 10), F(8, 10))])
        inside = [
            circle_point(F(11, 100), "R"),
            circle_point(F(15, 100), "G"),
            circle_point(F(22, 100), "B"),
            circle_point(F(61, 100), "R"),
            circle_point(F(70, 100), "G"),
            circle_point(F(77, 100), "B"),
        ]
        noise = [circle_point(F(45, 100), "R"), circle_point(F(50, 100), "G")]
        res = moment_halve(a, inside + noise, 2)
        for side in (res.m1, res.m2):
            counts = side_counts(side, inside + noise)
            assert set(counts.values()) == {1}
            # sides never leak outside the input set
            for lo, hi in side.arcs:
                assert a.contains((lo + hi) / 2)

    def test_rejects_three_arcs(self):
        a = arcset([(F(1, 10), F(2, 10)), (F(4, 10), F(5, 10)), (F(7, 10), F(8, 10))])
        with pytest.raises(PreconditionViolated):
            moment_halve(a, interleaved_points(1), 1)

    def test_rejects_zero_inside(self):
        a = arcset([(F(9, 10), F(11, 10))])  # wraps through 0
        with pytest.raises(PreconditionViolated):
            moment_halve(a, interleaved_points(1), 1)

    def test_rejects_param_zero(self):
        pts = [
            circle_point(0, "R"),
            circle_point(F(1, 3), "G"),
            circle_point(F(2, 3), "B"),
        ]
        with pytest.raises(PreconditionViolated):
            moment_halve(full_circle(), pts, 1)

    def test_rejects_point_on_boundary(self):
        a = arcset([(F(1, 4), F(3, 4))])
        pts = [
            circle_point(F(1, 4), "R"),
            circle_point(F(1, 3), "G"),
            circle_point(F(2, 3), "B"),
        ]
        with pytest.raises(PreconditionViolated):
            moment_halve(a, pts, 1)

    def test_rejects_count_mismatch(self):
        with pytest.raises(PreconditionViolated):
            moment_halve(full_circle(), interleaved_points(2), 1)

    def test_rejects_duplicate_params(self):
        pts = [
            circle_point(F(1, 3), "R"),
            circle_point(F(1, 3), "G"),
            circle_point(F(2, 3), "B"),
        ]
        with pytest.raises(PreconditionViolated):
            moment_halve(full_circle(), pts, 1)

    def test_deterministic(self):
        pts = block_points(4)
        r1 = moment_halve(full_circle(), pts, 4)
        r2 = moment_halve(full_circle(), pts, 4)
        assert r1 == r2

    def test_random_full_circle(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 8)
            d = 997
            params = rng.sample(range(1, d), 3 * n)
            pts = [
                circle_point(F(t, d), RGB[i % 3]) for i, t in enumerate(params)
            ]
            res = moment_halve(full_circle(), pts, n)
            want = n // 2
            for side in (res.m1, res.m2):
                assert set(side_counts(side, pts).values()) == {want}, trial
            total = res.m1.component_count() + res.m2.component_count()
            assert total <= 5
            assert min(res.m1.component_count(), res.m2.component_count()) <= 2

    def test_random_two_arc_inputs(self):
        rng = random.Random(23)
        for trial in range(40):
            k = rng.randint(1, 6)
            d = 1009
            # two disjoint arcs that avoid 0, then k points per color inside
            cuts = sorted(rng.sample(range(1, d), 4))
            a = arcset([(F(cuts[0], d), F(cuts[1], d)), (F(cuts[2], d), F(cuts[3], d))])
            slots = [
                t for t in range(1, d)
                if t not in cuts
                and (cuts[0] < t < cuts[1] or cuts[2] < t < cuts[3])
            ]
            if len(slots) < 3 * k:
                continue
            chosen = rng.sample(slots, 3 * k)
            pts = [
                circle_point(F(t, d), RGB[i % 3]) for i, t in enumerate(chosen)
            ]
            res = moment_halve(a, pts, k)
            want = k // 2
            for side in (res.m1, res.m2):
                assert set(side_counts(side, pts).values()) == {want}, trial
            assert res.m1.component_count() + res.m2.component_count() <= 5
            assert min(res.m1.component_count(), res.m2.component_count()) <= 2


class TestFindKArcset:
    def test_full_circle_when_k_is_n(self):
        pts = interleaved_points(3)
        assert find_k_arcset(pts, 3).is_full_circle

    def test_blocks_need_two_arcs(self):
        # R R G G B B: no single arc holds exactly one point of each color
        pts = block_points(2)
        m = len(pts)
        params = sorted(p.t for p in pts)
        for i in range(m):
            for w in range(1, m):
                lo = params[i]
                hi = params[(i + w) % m]
                arc = arcset([(lo + F(1, 1000), (hi if hi > lo else hi + 1) - F(1, 1000))])
                counts = side_counts(arc, pts)
                assert set(counts.values()) != {1}, "single arc should not suffice"
        a = find_k_arcset(pts, 1)
        assert a.component_count() == 2
        assert set(side_counts(a, pts).values()) == {1}

    def test_all_k_for_interleaved(self):
        pts = interleaved_points(5)
        for k in range(1, 6):
            a = find_k_arcset(pts, k)
            assert a.component_count() <= 2, k
            assert set(side_counts(a, pts).values()) == {k}, k

    def test_all_k_for_blocks(self):
        pts = block_points(5)
        for k in range(1, 6):
            a = find_k_arcset(pts, k)
            assert a.component_count() <= 2, k
            assert set(side_counts(a, pts).values()) == {k}, k

    def test_random_instances(self):
        rng = random.Random(5)
        for trial in range(50):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            d = 1013
            params = rng.sample(range(d), 3 * n)  # 0 allowed here
            colors = [RGB[i % 3] for i in range(3 * n)]
            rng.shuffle(colors)
            pts = [circle_point(F(t, d), c) for t, c in zip(params, colors)]
            a = find_k_arcset(pts, k)
            assert a.component_count() <= 2, trial
            assert set(side_counts(a, pts).values()) == {k}, trial

    def test_deterministic(self):
        pts = block_points(4)
        assert find_k_arcset(pts, 2) == find_k_arcset(pts, 2)

    def test_missing_color(self):
        pts = [circle_point(F(1, 4), "R"), circle_point(F(2, 4), "G")]
        with pytest.raises(MissingColor):
            find_k_arcset(pts, 1)

    def test_unbalanced(self):
        pts = [
            circle_point(F(1, 5), "R"),
            circle_point(F(2, 5), "R"),
            circle_point(F(3, 5), "G"),
            circle_point(F(4, 5), "B"),
        ]
        with pytest.raises(PreconditionViolated):
            find_k_arcset(pts, 1)

    def test_duplicate_parameter(self):
        pts = [
            circle_point(F(1, 5), "R"),
            circle_point(F(1, 5), "G"),
            circle_point(F(3, 5), "B"),
        ]
        with pytest.raises(PreconditionViolated):
            find_k_arcset(pts, 1)
        # the message names the first repeat in input order, not in sorted order
        pts = [
            circle_point(F(2, 5), "R"),
            circle_point(F(2, 5), "G"),
            circle_point(F(1, 5), "B"),
            circle_point(F(1, 5), "R"),
            circle_point(F(3, 5), "G"),
            circle_point(F(4, 5), "B"),
        ]
        with pytest.raises(PreconditionViolated, match="^duplicate parameter 2/5$"):
            find_k_arcset(pts, 1)

    def test_k_out_of_range(self):
        pts = interleaved_points(2)
        with pytest.raises(PreconditionViolated):
            find_k_arcset(pts, 3)
        with pytest.raises(PreconditionViolated):
            find_k_arcset(pts, -1)

    def test_k_zero_is_empty(self):
        pts = interleaved_points(2)
        assert find_k_arcset(pts, 0).is_empty

    def test_complement_count_identity(self):
        pts = block_points(5)
        for k in range(1, 5):
            ck = side_counts(find_k_arcset(pts, k), pts)
            cnk = side_counts(find_k_arcset(pts, 5 - k), pts)
            assert all(cnk[c] == 5 - ck[c] for c in cnk)

    def test_cubic_sign_pattern(self):
        # the side of parameter t is the sign of a cubic with roots at the
        # cuts: prod(t - c_i) is positive exactly when an even number of
        # cuts lie above t
        for pts, k in ((block_points(3), 3), (interleaved_points(4), 4)):
            res = moment_halve(full_circle(), pts, k)
            prof = res.profile
            for p in pts:
                prod = prof.polarity
                for c in prof.cuts:
                    prod *= p.t - c
                if prod == 0:
                    assert not res.m1.contains(p.t)
                    assert not res.m2.contains(p.t)
                elif prod > 0:
                    assert res.m1.contains(p.t)
                else:
                    assert res.m2.contains(p.t)


def relabel_in_order(points, seed):
    """Same cyclic order of parameters, denominators between 1e5 and 1e6."""
    rng = random.Random(seed)
    dens = rng.sample(range(100_003, 1_000_000), len(points))
    fresh = sorted(F(rng.randrange(1, d), d) for d in dens)
    assert len(set(fresh)) == len(points)
    order = sorted(range(len(points)), key=lambda i: points[i].t)
    out = [None] * len(points)
    for r, i in enumerate(order):
        out[i] = circle_point(fresh[r], points[i].color)
    return out


class TestBigDenominators:
    """Order-relabelled parameters whose common denominator exceeds 1e9
    give the combinatorially identical answer."""

    @pytest.mark.parametrize("n", [5, 6, 9, 10, 21, 40])
    def test_same_points_as_original(self, n):
        pts = generate(GenSpec(GenKind.CirclePoints3C, n, n))
        big = relabel_in_order(pts, n)
        assert math.lcm(*(p.t.denominator for p in big)) > 10**9
        for k in sorted({1, n // 2 + 1, n - 1}):
            a = find_k_arcset(pts, k)
            b = find_k_arcset(big, k)
            assert b.component_count() <= 2
            key = arcset_points_key(b, big)
            assert key == arcset_points_key(a, pts), (n, k)
            if n <= 10:
                oracle = {arcset_points_key(o, big) for o in enumerate_2arc_sets(big, k)}
                assert key in oracle, (n, k)


# -- the cut searches against the full-table searches they replace -------------


def reference_gap_cuts(ranks, sensitive, k):
    """Every cut pair in one m x m table, an m x m table per first cut of three."""
    m = len(sensitive) - 1
    idx = {c: np.searchsorted(ranks[c], np.arange(m), side="right") for c in RGB}
    want = k // 2

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
    ok = None
    for c in RGB:
        cond = (idx[c][None, :] - idx[c][:, None]) == want
        ok = cond if ok is None else (ok & cond)
    iu = np.triu_indices(m, 1)
    hits = np.flatnonzero(ok[iu])
    if hits.size:
        h = int(hits[0])
        return CutProfile((cut(iu[0][h]), cut(iu[1][h])), 1, False)
    diff = {c: idx[c][None, :] - idx[c][:, None] for c in RGB}
    for ai in range(m):
        ok = None
        for c in RGB:
            cond = (diff[c][ai][:, None] + k - idx[c][None, :]) == want
            ok = cond if ok is None else (ok & cond)
        bi, ci = np.nonzero(ok)
        keep = (bi > ai) & (ci > bi)
        if keep.any():
            pos = int(np.argmax(keep))
            return CutProfile((cut(ai), cut(bi[pos]), cut(ci[pos])), 1, False)
    return None


def reference_on_point(ranks, sensitive, k):
    """Every (red, green, blue) cut triple in one k^3 table."""
    want = (k - 1) // 2
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
        plus = plus - ((cuts[:, 0] == own[c]) | (cuts[:, 2] == own[c]))
        cond = plus == want
        ok = cond if ok is None else (ok & cond)
    hits = np.flatnonzero(ok)
    if not hits.size:
        return None
    h = int(hits[0])
    return CutProfile(tuple(sensitive[int(r)] for r in cuts[h]), 1, True)


@st.composite
def search_inputs(draw):
    """k points per color on distinct ranks among at most 40 sensitive
    parameters.  Odd k in the gap search and even k in the on-point search
    are outside their use and often have no hit."""
    k = draw(st.integers(1, 12))
    size = draw(st.integers(max(3 * k, 2), 40))
    pos = draw(st.permutations(range(size)))
    return k, size, [sorted(pos[i * k : (i + 1) * k]) for i in range(3)]


def search_args(k, size, per_color):
    ranks = {c: np.array(r, dtype=np.int64) for c, r in zip(RGB, per_color)}
    return ranks, [F(i, size) for i in range(size)], k


class TestSearchesMatchReference:
    @settings(max_examples=300, deadline=None)
    @example((1, 3, [[0], [2], [1]]))  # gap search, no hit
    @example((2, 6, [[0, 1], [3, 4], [2, 5]]))  # on-point search, no hit
    @given(search_inputs())
    def test_same_profile(self, case):
        args = search_args(*case)
        want = reference_gap_cuts(*args)
        assert _search_gap_cuts(*args) == want
        with mock.patch.object(tricut.arcs, "_PAIR_BLOCK", 5):  # r = 3 pairs in many blocks
            assert _search_gap_cuts(*args) == want
        assert _search_on_point(*args) == reference_on_point(*args)

    def test_no_hit_examples(self):
        assert reference_gap_cuts(*search_args(1, 3, [[0], [2], [1]])) is None
        assert reference_on_point(*search_args(2, 6, [[0, 1], [3, 4], [2, 5]])) is None

    def test_k_beyond_int64_keys(self):
        ranks = {c: np.zeros(0, dtype=np.int64) for c in RGB}
        with pytest.raises(PreconditionViolated, match="int64"):
            _search_profile(ranks, [F(0), F(1)], 2**21)


class TestMemory:
    """The searches hold O(m) (gap) and O(k) (on-point) numbers at a time;
    a k^3 table of cut triples would take about 790 MB at n=200, k=101."""

    @pytest.mark.parametrize("k", [100, 101, 199])
    def test_peak_under_50mb(self, k):
        pts = generate(GenSpec(GenKind.CirclePoints3C, 200, 1))
        tracemalloc.start()
        try:
            a = find_k_arcset(pts, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.component_count() <= 2
        assert set(side_counts(a, pts).values()) == {k}
        assert peak < 50 * 2**20


# -- find_k_arcset against a reference copy that rotates and re-sorts each step


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
    """The halving step on a sensitive list sorted from a set of parameters."""
    sensitive = sorted(
        {p.t for p in points} | {t for arc in a.arcs for t in arc} | {F(0), F(1)}
    )
    rank = {t: i for i, t in enumerate(sensitive)}
    code = np.full(len(sensitive), -1, dtype=np.int64)
    code[[rank[p.t] for p in points]] = [RGB.index(p.color) for p in points]
    return _halve(a, sensitive, code, k)


def reference_find_k_arcset(points, k):
    """Rotates every point and re-sorts before each halving step; each step
    is also held to `moment_halve` on the same rotated input."""
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
        assert moment_halve(a_rot, moved, cur) == res
        sides = [s for s in (res.m1, res.m2) if s.component_count() <= 2]
        a = arcset_rotate(min(sides, key=lambda s: s.arcs), -delta)
        cur //= 2
    return a


@st.composite
def circle_instances(draw):
    """n = 1..8 points per color at distinct multiples of 1/d.  d = 3n fills
    every slot, so t = 0 and neighbours across 0 occur."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        d, nums = 3 * n, list(range(3 * n))
    else:
        d = draw(st.integers(3 * n, 10**12))
        nums = draw(st.lists(st.integers(0, d - 1), min_size=3 * n, max_size=3 * n, unique=True))
    colors = draw(st.permutations([c for c in RGB for _ in range(n)]))
    return [circle_point(F(t, d), c) for t, c in zip(nums, colors)]


class TestFindKArcsetMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(circle_instances())
    def test_every_k(self, points):
        for k in range(len(points) // 3 + 1):
            assert find_k_arcset(points, k) == reference_find_k_arcset(points, k), k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generator_cases(self, seed):
        for n in range(1, 21):
            points = generate(GenSpec(GenKind.CirclePoints3C, n, seed))
            for k in range(n + 1):
                assert find_k_arcset(points, k) == reference_find_k_arcset(points, k), (n, k)

    def test_no_rotation_or_point_rebuild(self, monkeypatch):
        points = generate(GenSpec(GenKind.CirclePoints3C, 40, 1))
        calls = []

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setattr(
            tricut.arcs,
            "require_distinct_parameters",
            counted("require_distinct_parameters", tricut.arcs.require_distinct_parameters),
        )
        monkeypatch.setattr(CirclePoint, "__init__", counted("CirclePoint", CirclePoint.__init__))
        a = find_k_arcset(points, 21)
        assert calls == []
        assert set(side_counts(a, points).values()) == {21}


@st.composite
def gap_instances(draw):
    """Up to 2 arcs with ends on a grid of 1/d (one may wrap through 0), the
    full circle or the empty set, and distinct parameters on the same grid,
    which may sit at 0 or on an arc end."""
    d = draw(st.integers(4, 40))
    shape = draw(st.sampled_from(["empty", "full", "one", "two"]))
    ends = sorted(draw(st.lists(st.integers(0, d - 1), min_size=4, max_size=4, unique=True)))
    c = [F(e, d) for e in ends]
    wrap = draw(st.booleans())
    if shape == "empty":
        a = ArcSet(())
    elif shape == "full":
        a = full_circle()
    elif shape == "one":
        a = arcset([(c[1], c[0] + 1) if wrap else (c[0], c[1])])
    else:
        a = arcset([(c[1], c[2]), (c[3], c[0] + 1)] if wrap else [(c[0], c[1]), (c[2], c[3])])
    nums = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12, unique=True))
    return a, sorted(F(t, d) for t in nums)


class TestSafeGap:
    @settings(max_examples=300, deadline=None)
    @example((arcset([(F(9, 10), F(11, 10))]), [F(0), F(1, 2)]))  # wraps over t = 0
    @example((full_circle(), [F(0), F(1, 3), F(2, 3)]))
    @example((arcset([(F(1, 20), F(1, 2))]), [F(1, 40), F(3, 4)]))  # end next to 0
    @example((arcset([(F(0), F(1, 2)), (F(3, 4), F(7, 8))]), [F(1, 4), F(7, 8)]))
    @example((arcset([(F(1, 4), F(3, 4))]), [F(1, 3), F(1, 2)]))  # the wrap gap, middle 0
    @given(gap_instances())
    def test_same_rotation_as_reference(self, case):
        a, ts = case
        points = [CirclePoint(t, RGB[i % 3]) for i, t in enumerate(ts)]
        keys = [_floor_key(t) for t in ts]
        assert -_safe_gap(a, ts, keys) % 1 == reference_safe_zero_delta(a, points)


@st.composite
def cyclic_orders(draw):
    """Sorted parameters on a grid of 1/d rotated so that 0 is the middle of
    the gap after one of them (as `find_k_arcset` rotates) or not at all (as
    `moment_halve` and `_safe_gap` read them), with ends at 0 and 1, on a
    half grid, next to the wrap and on a point's rotated value."""
    d = draw(st.integers(2, 40))
    nums = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12, unique=True))
    ts = [F(t, d) for t in sorted(nums)]
    if draw(st.booleans()):
        g = draw(st.integers(0, len(ts) - 1))
        nxt = ts[g + 1] if g + 1 < len(ts) else ts[0] + 1
        mid = (ts[g] + nxt) / 2 % 1
        delta, shift = -mid % 1, bisect_right(ts, mid)
    else:
        delta, shift = F(0), 0
    rotated = [(ts[(i + shift) % len(ts)] + delta) % 1 for i in range(len(ts))]
    ends = {F(0), F(1), F(1, 4 * d), 1 - F(1, 4 * d)}
    ends |= {F(e, 2 * d) for e in draw(st.lists(st.integers(0, 2 * d), max_size=4))}
    ends |= {rotated[i] for i in draw(st.lists(st.integers(0, len(ts) - 1), max_size=2))}
    keep = draw(st.lists(st.sampled_from(sorted(ends)), max_size=6, unique=True))
    return ts, shift, delta, rotated, keep


class TestCyclicOrder:
    """The rank query shifts x into the frame of the sorted parameters
    instead of reading rotated entries; it must equal `bisect_left` over the
    materialised order."""

    @settings(max_examples=300, deadline=None)
    @example(([F(0), F(1, 2)], 0, F(0), [F(0), F(1, 2)], [F(0), F(1)]))  # a point at 0
    @example(([F(1, 4), F(3, 4)], 1, F(1, 2), [F(1, 4), F(3, 4)], [F(3, 4), F(1)]))  # on a point
    @given(cyclic_orders())
    def test_rank_is_bisect_left(self, case):
        ts, shift, delta, rotated, ends = case
        assert rotated == sorted(rotated)
        order = _CyclicOrder(ts, [_floor_key(t) for t in ts], shift, delta, ends)
        listed = sorted(set(rotated) | set(ends))
        assert [order[r] for r in range(len(order))] == listed
        d = max(t.denominator for t in ts + listed)
        queries = set(listed) | {F(i, 4 * d) for i in range(4 * d + 1)}
        for x in sorted(queries):
            assert order.rank(x) == bisect_left(listed, x), x


class TestPointCounts:
    """`find_k_arcset` counts its answer on prefix sums over the sorted
    parameters; it must agree with `arcset_color_counts`, endpoint errors
    included."""

    @settings(max_examples=300, deadline=None)
    @example((arcset([(F(1, 2), F(1))]), [F(0), F(1, 4), F(3, 4)]))  # an end at 1 is one at 0
    @example((arcset([(F(1, 2), F(5, 4))]), [F(0), F(1, 8), F(3, 4)]))  # wraps through 0
    @example((full_circle(), [F(0), F(1, 3)]))
    @example((arcset([(F(1, 4), F(1, 2))]), [F(1, 8), F(1, 4)]))  # an end on a point
    @given(gap_instances())
    def test_matches_arcset_color_counts(self, case):
        a, ts = case
        points = [CirclePoint(t, RGB[i % 3]) for i, t in enumerate(reversed(ts))]
        order = _sorted_order(points)
        try:
            want = arcset_color_counts(a, points)
        except BoundaryPoint:
            with pytest.raises(BoundaryPoint):
                _point_counts(a, *order)
            return
        assert _point_counts(a, *order) == [want[c] for c in RGB]
