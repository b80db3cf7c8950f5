"""Op plans, exact halving cuts, and the 2-arc driver."""

import math
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tricut.arcs
from tricut.arcs import (
    OP_COMPLEMENT,
    OP_HALVE,
    CutProfile,
    OpPlan,
    _Order,
    _circle_rows,
    _origin,
    _point_counts,
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
    circle_point,
    full_circle,
)
from tricut.errors import BoundaryPoint, MissingColor, PreconditionViolated
from tricut.generators import GenKind, GenSpec, generate
from tricut.oracles import arcset_points_key, enumerate_2arc_sets

from arcs_reference import reference_find_k_arcset, reference_halve, reference_safe_zero_delta
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

    def test_arc_ends_within_a_key_of_points(self):
        # 1/3 and 1/3 + 2**-80 share the floor key of t * 2**64, as do 2/3
        # and 2/3 - 2**-80; each arc end's gap is settled by the exact
        # comparison, past the point just below it
        eps = F(1, 2**80)
        a = arcset([(F(1, 3) + eps, F(2, 3) - eps)])
        inside = [circle_point(F(k, 12), c) for k, c in zip(range(5, 8), "RGB")]
        inside += [circle_point(F(1, 3) + 2 * eps, "R"), circle_point(F(2, 3) - 2 * eps, "G"),
                   circle_point(F(1, 2) + eps, "B")]
        outside = [circle_point(F(1, 3), "G"), circle_point(F(2, 3), "B"), circle_point(F(9, 10), "R")]
        keys = tricut.arcs._floor_key
        assert keys(pair(F(1, 3))) == keys(pair(a.arcs[0][0])) == keys(pair(F(1, 3) + 2 * eps))
        assert keys(pair(F(2, 3))) == keys(pair(a.arcs[0][1]))
        for points in (inside + outside, outside + inside[::-1]):
            res = moment_halve(a, points, 2)
            for side in (res.m1, res.m2):
                assert set(side_counts(side, points).values()) == {1}
            assert res == reference_halve(a, points, 2)

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


def as_profile(cuts, sensitive, on_points):
    """Rank cuts as the reference reports them: a gap cut i at the middle of
    sensitive[i] and sensitive[i + 1], an on-point cut at its parameter."""
    if cuts is None:
        return None
    if on_points:
        return CutProfile(tuple(sensitive[r] for r in cuts), 1, True)
    return CutProfile(tuple((sensitive[i] + sensitive[i + 1]) / 2 for i in cuts), 1, False)


class TestSearchesMatchReference:
    @settings(max_examples=300, deadline=None)
    @example((1, 3, [[0], [2], [1]]))  # gap search, no hit
    @example((2, 6, [[0, 1], [3, 4], [2, 5]]))  # on-point search, no hit
    @given(search_inputs())
    def test_same_profile(self, case):
        ranks, sensitive, k = search_args(*case)
        gap = reference_gap_cuts(ranks, sensitive, k)
        on_point = reference_on_point(ranks, sensitive, k)
        for block in (tricut.arcs._PAIR_BLOCK, 5):  # and pairs in many blocks
            with mock.patch.object(tricut.arcs, "_PAIR_BLOCK", block):
                got = _search_gap_cuts(ranks, len(sensitive), k)
                assert as_profile(got, sensitive, False) == gap
                assert as_profile(_search_on_point(ranks, k), sensitive, True) == on_point

    def test_no_hit_examples(self):
        assert reference_gap_cuts(*search_args(1, 3, [[0], [2], [1]])) is None
        assert reference_on_point(*search_args(2, 6, [[0, 1], [3, 4], [2, 5]])) is None

    def test_k_beyond_int64_keys(self):
        ranks = {c: np.zeros(0, dtype=np.int64) for c in RGB}
        with pytest.raises(PreconditionViolated, match="int64"):
            _search_profile(ranks, 2, 2**21)


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
#
# `arcs_reference.reference_find_k_arcset` is the pipeline as it was before
# the steps moved to ranks in the input frame; it calls nothing under test.


def check_moment_halve(a_rot, moved, cur, res):
    """Each reference step's rotated input, halved by `moment_halve`."""
    assert moment_halve(a_rot, moved, cur) == res


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


def first_step(monkeypatch, points, k):
    """find_k_arcset(points, k) and the order and result of its first
    halving step."""
    steps = []
    real = tricut.arcs._halve

    def spy(order, cur):
        res = real(order, cur)
        steps.append((order, res))
        return res

    monkeypatch.setattr(tricut.arcs, "_halve", spy)
    a = find_k_arcset(points, k)
    return a, steps[0]


class TestFindKArcsetMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(circle_instances())
    def test_every_k(self, points):
        for k in range(len(points) // 3 + 1):
            want = reference_find_k_arcset(points, k, check_moment_halve)
            assert find_k_arcset(points, k) == want, k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generator_cases(self, seed):
        for n in range(1, 21):
            points = generate(GenSpec(GenKind.CirclePoints3C, n, seed))
            for k in range(n + 1):
                assert find_k_arcset(points, k) == reference_find_k_arcset(points, k), (n, k)

    @pytest.mark.parametrize("big", [False, True], ids=["plain", "big-denominators"])
    @pytest.mark.parametrize("n", [40, 80])
    def test_bench_shapes(self, n, big):
        points = generate(GenSpec(GenKind.CirclePoints3C, n, n))
        if big:
            points = relabel_in_order(points, n)
        for k in (1, n // 2 + 1, n - 1):
            want = reference_find_k_arcset(points, k, check_moment_halve)
            assert find_k_arcset(points, k) == want, k

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_full_circle_first_step(self, monkeypatch, at_zero):
        # 0 counts as an entry of the full circle, so the first origin is the
        # middle of the gap after it: ts[0] / 2, or ts[1] / 2 past a point at 0
        points = generate(GenSpec(GenKind.CirclePoints3C, 6, 2))
        if at_zero:
            points = [circle_point(F(0), points[0].color)] + list(points[1:])
        ts = sorted(p.t for p in points)
        assert (ts[0] == 0) == at_zero
        for k in (1, 2, 3, 5):
            a, (order, _) = first_step(monkeypatch, points, k)
            assert F(*order.origin) == (ts[1] if at_zero else ts[0]) / 2
            assert order.inside == [(0, order.size - 1)]
            assert a == reference_find_k_arcset(points, k, check_moment_halve), k

    def test_outer_pieces_meet_at_the_origin(self, monkeypatch):
        # B B G R G R: the full circle is halved by two cuts, and side + is
        # the piece before the first cut joined to the piece after the second
        points = [circle_point(F(2 * i + 1, 12), c) for i, c in enumerate("BBGRGR")]
        res = moment_halve(full_circle(), points, 2)
        assert len(res.profile.cuts) == 2
        assert res.m1.arcs == ((F(2, 3), F(7, 6)),)
        assert res == reference_halve(full_circle(), points, 2)

        a, (order, step) = first_step(monkeypatch, points, 1)
        last = 2 * (order.size - 1)
        assert len(step.cuts) == 2 and len(step.plus) == 1 and step.plus[0][1] > last
        delta = reference_safe_zero_delta(full_circle(), points)
        moved = [CirclePoint((p.t + delta) % 1, p.color) for p in points]
        want = reference_halve(full_circle(), moved, 2).m1
        got = tricut.arcs._arcset([(order.at(lo), order.at(hi)) for lo, hi in step.plus])
        assert got == arcset([(lo - delta, hi - delta) for lo, hi in want.arcs])
        assert got.component_count() == 1 and got.arcs[0][1] > 1
        assert a == reference_find_k_arcset(points, 1)

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

    def test_one_arcset_per_answer(self, monkeypatch):
        # the steps carry their arcs as ranks; only the answer is an ArcSet
        points = generate(GenSpec(GenKind.CirclePoints3C, 40, 1))
        built = []
        real = tricut.arcs.arcset
        monkeypatch.setattr(tricut.arcs, "arcset", lambda arcs: built.append(1) or real(arcs))
        for k in (1, 21, 39):
            built.clear()
            a = find_k_arcset(points, k)
            assert len(plan_ops(40, k).ops) > 2
            assert len(built) == 1
            assert set(side_counts(a, points).values()) == {k}
        assert not hasattr(tricut.arcs, "arcset_rotate")
        assert not hasattr(tricut.arcs, "arcset_complement")


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


def pair(t):
    """A parameter as the (num, den) pair the arc pipeline works on."""
    return t.numerator, t.denominator


def rank_arcs(a, ts):
    """`a` as `_Order` and `_origin` take it: None for the full circle, else
    (lo, hi) pairs of (value mod 1 as a pair, parameters below it)."""
    if a.is_full_circle:
        return None
    return [tuple((pair(t % 1), bisect_left(ts, t % 1)) for t in arc) for arc in a.arcs]


class TestOrigin:
    @settings(max_examples=300, deadline=None)
    @example((arcset([(F(9, 10), F(11, 10))]), [F(0), F(1, 2)]))  # wraps over t = 0
    @example((full_circle(), [F(0), F(1, 3), F(2, 3)]))
    @example((full_circle(), [F(1, 5), F(1, 3), F(2, 3)]))
    @example((arcset([(F(1, 20), F(1, 2))]), [F(1, 40), F(3, 4)]))  # end next to 0
    @example((arcset([(F(0), F(1, 2)), (F(3, 4), F(7, 8))]), [F(1, 4), F(6, 7)]))
    @example((arcset([(F(1, 4), F(3, 4))]), [F(1, 3), F(1, 2)]))  # the wrap gap, middle 0
    @given(gap_instances())
    def test_same_origin_as_reference(self, case):
        # as in find_k_arcset: a set that is not empty, no point on an arc
        # end, and at least two points
        a, ts = case
        ends = {t % 1 for arc in a.arcs for t in arc}
        assume(not a.is_empty and len(ts) >= 2 and (a.is_full_circle or not ends & set(ts)))
        points = [CirclePoint(t, RGB[i % 3]) for i, t in enumerate(ts)]
        origin = _origin([pair(t) for t in ts], rank_arcs(a, ts))
        assert -F(*origin) % 1 == reference_safe_zero_delta(a, points)


@st.composite
def step_orders(draw):
    """Points on a grid of 1/d, arc ends a quarter step past grid values and
    an origin three quarters past one, outside the set: up to 2 arcs (one
    may wrap through 0) or the full circle."""
    d = draw(st.integers(4, 30))
    nums = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12, unique=True))
    points = [CirclePoint(F(t, d), RGB[i % 3]) for i, t in enumerate(draw(st.permutations(nums)))]
    origin = F(4 * draw(st.integers(0, d - 1)) + 3, 4 * d)
    count = draw(st.sampled_from([0, 2, 4]))
    e = [F(4 * i + 1, 4 * d) for i in sorted(draw(
        st.lists(st.integers(0, d - 1), min_size=count, max_size=count, unique=True)))]
    wrap = draw(st.booleans())
    if count == 0:
        a = full_circle()
    elif count == 2:
        a = arcset([(e[1], e[0] + 1) if wrap else (e[0], e[1])])
    else:
        a = arcset([(e[1], e[2]), (e[3], e[0] + 1)] if wrap else [(e[0], e[1]), (e[2], e[3])])
    assume(a.is_full_circle or not a.contains(origin))
    return points, origin, a


class TestOrder:
    """A step's order, read off ranks: the entries met going round from the
    origin, the colors of the points in the set, and each cut's value and
    gap."""

    @settings(max_examples=300, deadline=None)
    @example(([CirclePoint(F(0), Color.R), CirclePoint(F(1, 2), Color.G)], F(3, 8), full_circle()))
    @example((
        [CirclePoint(F(1, 4), Color.R), CirclePoint(F(3, 4), Color.G)],
        F(3, 8), arcset([(F(9, 16), F(21, 16))]),  # wraps through 0
    ))
    @given(step_orders())
    def test_entries_codes_and_cuts(self, case):
        points, origin, a = case
        ts, keys, codes = _sorted_order(*_circle_rows(points))
        ts = [F(*t) for t in ts]
        order = _Order([pair(t) for t in ts], keys, codes, pair(origin), rank_arcs(a, ts))
        ends = set() if a.is_full_circle else {t % 1 for arc in a.arcs for t in arc}
        entries = sorted(set(ts) | ends)
        listed = [origin] + [t for t in entries if t > origin] + [t for t in entries if t < origin]
        listed.append(origin)
        assert order.size == len(listed)
        assert [F(*order.value(r)) for r in range(order.size)] == listed
        color = {p.t: RGB.index(p.color) for p in points}
        want = [color[t] if t in color and a.contains(t) else -1 for t in listed]
        want[0] = want[-1] = -1
        assert order.code.tolist() == want
        for h in range(1, 2 * order.size - 2, 2):
            lo, hi = listed[h // 2], listed[h // 2 + 1]
            mid = (lo + (hi - lo) % 1 / 2) % 1
            assert order.at(h) == pair(mid)
            assert order.end(h) == (pair(mid), bisect_left(ts, mid))


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
        order = _sorted_order(*_circle_rows(points))
        try:
            want = arcset_color_counts(a, points)
        except BoundaryPoint:
            with pytest.raises(BoundaryPoint):
                _point_counts(a, *order)
            return
        assert _point_counts(a, *order) == [want[c] for c in RGB]
