import hashlib
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tricut import llines
import numpy as np

from tricut.core import Color, pt
from tricut.generators import GenKind, GenSpec, generate
from tricut.oracles import ORACLE_MAX_POINTS
from tricut.errors import (
    InternalError,
    MissingColor,
    PreconditionViolated,
)
from winding_reference import reference_winding_number
from tricut.llines import (
    LLine,
    LatticePointSet,
    RAY_PAIRS,
    RayDir,
    _RankFrame,
    brute_oracle_llines,
    find_balanced_lline,
    lline,
    lline_counts,
    ortho_hull,
    sided_ordering,
)

STEPS_RED_HULL = {(-1, -1), (2, -1), (-1, 2)}


def lattice_curve(sigma, hull_color=None):
    """q_1..q_{3n-1} of a sided ordering, as the search reads them: prefix
    sums of the color steps, decoded from their keys, with the ends checked
    by `_ends_ok`."""
    pts = sigma.order
    m = len(pts)
    colors = [p.color for p in pts]
    if hull_color is None:
        hull_color = llines._hull_color(llines._lattice_frame(pts), colors)
    steps = llines._color_steps(colors, hull_color)
    keys = llines._step_keys(steps).cumsum()[None, :]
    if not llines._ends_ok(keys, -4 * m - 2)[0]:
        raise PreconditionViolated(llines._ENDS_MESSAGE)
    q = llines._key_points(keys, m)[0]
    assert (q == steps.cumsum(axis=0)).all()
    return q[:-1]


def _block_move(old: tuple, new: tuple):
    """Reference for the one relocated element between two permutations.

    Returns None when identical, else (lo, hi, moved, direction) where the
    0-based span [lo, hi] is the region that shifted and direction is +1
    when the element moved to a higher index.  Raises ValueError when the
    two differ by more than a single block move.
    """
    m = len(old)
    lo = 0
    while lo < m and old[lo] is new[lo]:
        lo += 1
    if lo == m:
        return None
    hi = m - 1
    while hi > lo and old[hi] is new[hi]:
        hi -= 1
    if old[lo] is new[hi] and old[lo + 1 : hi + 1] == new[lo:hi]:
        return lo, hi, old[lo], 1
    if old[hi] is new[lo] and old[lo:hi] == new[lo + 1 : hi + 1]:
        return lo, hi, old[hi], -1
    raise ValueError(f"not a single block move: span [{lo}, {hi}]")


def _anchor_sequence(s: LatticePointSet):
    # the search's schedule, one (anchor, turns) per ordering: the anchor of
    # rank r in the rotated y order
    xs, ys, _ = llines._rows_of_points(s.points)
    frame = _RankFrame(xs, ys)
    return [
        (s.points[int(frame.rotated(turns)[1][0][r])], turns)
        for turns, count in llines._schedule(frame.m)
        for r in range(count)
    ]


def _ortho_hull_reference(points):
    # the definition: p is on the hull when some open quadrant at p is empty
    hull = []
    for p in points:
        ne = nw = se = sw = True
        for q in points:
            if q is p:
                continue
            if q.x > p.x and q.y > p.y:
                ne = False
            if q.x < p.x and q.y > p.y:
                nw = False
            if q.x > p.x and q.y < p.y:
                se = False
            if q.x < p.x and q.y < p.y:
                sw = False
        if ne or nw or se or sw:
            hull.append(p)
    return hull


# -- reference copies of the Fraction rotate-and-sort search ------------------


def _rot_cw_reference(x, y, turns):
    for _ in range(turns % 4):
        x, y = y, -x
    return x, y


def _rot_ccw_reference(x, y, turns):
    for _ in range(turns % 4):
        x, y = -y, x
    return x, y


def _sided_ordering_reference(p, turns, points):
    rot = {q: _rot_cw_reference(q.x, q.y, turns) for q in points}
    py = rot[p][1]
    above = sorted((q for q in points if rot[q][1] >= py), key=lambda q: -rot[q][1])
    below = sorted((q for q in points if rot[q][1] < py), key=lambda q: rot[q][0])
    return tuple(above + below)


def _sep_below_reference(sorted_vals, v):
    lower = [u for u in sorted_vals if u < v]
    return lower[-1] + F(1, 2) if lower else sorted_vals[0] - F(1, 2)


_CCW_REFERENCE = {
    RayDir.UP: RayDir.LEFT,
    RayDir.LEFT: RayDir.DOWN,
    RayDir.DOWN: RayDir.RIGHT,
    RayDir.RIGHT: RayDir.UP,
}


def _realize_reference(s, anchor, turns, order, k0):
    # rotate every point, place the corner in the rotated frame, rotate it
    # back and snap it onto the canonical grid
    rot = {p: _rot_cw_reference(p.x, p.y, turns) for p in s.points}
    anchor_rx, anchor_ry = rot[anchor]
    a_size = sum(1 for p in s.points if rot[p][1] >= anchor_ry)
    if k0 <= a_size:
        sorted_ry = sorted(r[1] for r in rot.values())
        cx = anchor_rx + F(1, 2)
        cy = _sep_below_reference(sorted_ry, rot[order[k0 - 1]][1])
        rays = (RayDir.LEFT, RayDir.RIGHT)
    else:
        cx = rot[order[k0 - 1]][0] + F(1, 2)
        cy = anchor_ry - F(1, 2)
        rays = (RayDir.DOWN, RayDir.RIGHT)
    ox, oy = _rot_ccw_reference(cx, cy, turns)
    for _ in range(turns):
        rays = tuple(_CCW_REFERENCE[r] for r in rays)
    corner = (
        _sep_below_reference(sorted(p.x for p in s.points), ox),
        _sep_below_reference(sorted(p.y for p in s.points), oy),
    )
    l = LLine(corner, rays)
    return l, lline_counts(l, s)[0][0]


def _reference_prefixes(s, anchor, turns):
    """One ordering by the reference rotate-and-sort, and its prefix sums
    q_0..q_m of the color steps."""
    points = s.points
    (hull_color,) = {p.color for p in _ortho_hull_reference(points)}
    others = [c for c in (Color.R, Color.G, Color.B) if c is not hull_color]
    step = {hull_color: (-1, -1), others[0]: (2, -1), others[1]: (-1, 2)}
    order = _sided_ordering_reference(anchor, turns, points)
    q = [(0, 0)]
    for p in order:
        q.append((q[-1][0] + step[p.color][0], q[-1][1] + step[p.color][1]))
    return order, q


def _find_balanced_lline_reference(s, validate):
    # the walk of one ordering at a time: its first balanced prefix
    by_y = sorted(s.points, key=lambda p: p.y)
    by_x = sorted(s.points, key=lambda p: p.x)
    seq = [(p, 2) for p in reversed(by_y)] + [(p, 3) for p in by_x] + [(by_y[0], 0)]
    windings = set()
    for anchor, turns in seq:
        order, q = _reference_prefixes(s, anchor, turns)
        zeros = [k for k in range(1, len(order)) if q[k] == (0, 0)]
        if zeros:
            return _realize_reference(s, anchor, turns, order, zeros[0])
        if validate:
            verts = tuple(q[1:-1])
            anti = tuple((-x, -y) for x, y in verts)
            windings.add(reference_winding_number(verts + anti))
            assert len(windings) == 1
    raise AssertionError("no balanced prefix in the full ordering sequence")


def _assert_balanced(s, answer):
    """A search answer is nontrivially balanced, and one of the oracle's
    answers where the oracle runs."""
    l, k = answer
    assert 1 <= k <= s.n - 1
    assert lline_counts(l, s) == ((k,) * 3, (s.n - k,) * 3)
    if len(s.points) <= ORACLE_MAX_POINTS["lline"]:
        assert answer in brute_oracle_llines(s)


def _relabel(s: LatticePointSet, xs, ys) -> LatticePointSet:
    # replace the i-th smallest x by xs[i] and the i-th smallest y by ys[i]
    rx = {v: i for i, v in enumerate(sorted(p.x for p in s.points))}
    ry = {v: i for i, v in enumerate(sorted(p.y for p in s.points))}
    return LatticePointSet(
        tuple(pt(xs[rx[p.x]], ys[ry[p.y]], p.color) for p in s.points)
    )


def ring12() -> LatticePointSet:
    # four red corners dominate every inner point in all four quadrants,
    # so the orthogonal hull is exactly the red ring
    reds = [(6, 6), (-6, 5), (5, -6), (-5, -5)]
    greens = [(-4, 1), (-2, -2), (0, 3), (2, 0)]
    blues = [(-3, -4), (-1, 2), (1, -1), (3, 4)]
    points = [pt(x, y, "R") for x, y in reds]
    points += [pt(x, y, "G") for x, y in greens]
    points += [pt(x, y, "B") for x, y in blues]
    return LatticePointSet(tuple(points))


def diagonal12() -> LatticePointSet:
    # monochromatic blocks ascending the main diagonal: every point sits on
    # the orthogonal hull, so the hull is not monochromatic, and no L-line
    # region can pick up a balanced count
    points = [pt(i, i, "R") for i in range(4)]
    points += [pt(i, i, "G") for i in range(4, 8)]
    points += [pt(i, i, "B") for i in range(8, 12)]
    return LatticePointSet(tuple(points))


def triple() -> LatticePointSet:
    return LatticePointSet((pt(0, 0, "R"), pt(2, 1, "G"), pt(1, 2, "B")))


def _mixed_hull_coloring(n: int, rng: random.Random) -> LatticePointSet:
    """Random distinct coordinates, n points of each color, redrawn until
    the orthogonal hull has more than one color."""
    while True:
        colors = ["R"] * n + ["G"] * n + ["B"] * n
        rng.shuffle(colors)
        xs = rng.sample(range(-50, 50), 3 * n)
        ys = rng.sample(range(-50, 50), 3 * n)
        s = LatticePointSet(tuple(pt(x, y, c) for x, y, c in zip(xs, ys, colors)))
        if len({p.color for p in ortho_hull(s)}) > 1:
            return s


def rand_red_hull(n: int, rng: random.Random) -> LatticePointSet:
    # same ring trick as ring12, extra reds and all non-reds strictly inside
    m = 3 * n + 2
    ring = [(m, m), (-m, m - 1), (m - 1, -m), (-m + 1, -m + 1)]
    inner = 3 * n - 4
    xs = rng.sample(range(-m + 3, m - 2), inner)
    ys = rng.sample(range(-m + 3, m - 2), inner)
    colors = ["R"] * (n - 4) + ["G"] * n + ["B"] * n
    rng.shuffle(colors)
    points = [pt(x, y, "R") for x, y in ring]
    points += [pt(x, y, c) for x, y, c in zip(xs, ys, colors)]
    return LatticePointSet(tuple(points))


class TestLatticePointSet:
    def test_valid(self):
        s = ring12()
        assert s.n == 4
        assert len(s.points) == 12

    def test_rejects_fractional_coordinate(self):
        with pytest.raises(PreconditionViolated):
            LatticePointSet((pt(F(1, 2), 0, "R"), pt(1, 1, "G"), pt(2, 2, "B")))

    def test_rejects_shared_x(self):
        with pytest.raises(PreconditionViolated):
            LatticePointSet((pt(0, 0, "R"), pt(0, 1, "G"), pt(2, 2, "B")))

    def test_rejects_shared_y(self):
        with pytest.raises(PreconditionViolated):
            LatticePointSet((pt(0, 0, "R"), pt(1, 1, "G"), pt(2, 1, "B")))

    def test_rejects_missing_color(self):
        with pytest.raises(MissingColor):
            LatticePointSet((pt(0, 0, "R"), pt(1, 1, "G"), pt(2, 2, "G")))

    def test_rejects_unbalanced(self):
        with pytest.raises(PreconditionViolated):
            LatticePointSet(
                (pt(0, 0, "R"), pt(1, 1, "R"), pt(2, 2, "G"), pt(3, 3, "B"))
            )

    def test_rejects_black(self):
        with pytest.raises(PreconditionViolated):
            LatticePointSet((pt(0, 0, "K"), pt(1, 1, "G"), pt(2, 2, "B")))


class TestLLine:
    def test_rays_canonicalized(self):
        l = lline(F(1, 2), F(3, 2), ("right", "up"))
        assert l.rays == (RayDir.UP, RayDir.RIGHT)

    def test_rejects_integer_corner(self):
        with pytest.raises(PreconditionViolated):
            lline(1, F(1, 2), ("up", "down"))

    def test_rejects_quarter_corner(self):
        with pytest.raises(PreconditionViolated):
            lline(F(1, 4), F(1, 2), ("up", "down"))

    def test_rejects_equal_rays(self):
        with pytest.raises(PreconditionViolated):
            lline(F(1, 2), F(1, 2), ("up", "up"))

    def test_straight(self):
        assert lline(F(1, 2), F(1, 2), ("up", "down")).is_straight
        assert lline(F(1, 2), F(1, 2), ("left", "right")).is_straight
        assert not lline(F(1, 2), F(1, 2), ("up", "left")).is_straight

    def test_six_ray_pairs(self):
        assert len(RAY_PAIRS) == 6
        assert len({frozenset(p) for p in RAY_PAIRS}) == 6


class TestLLineCounts:
    # fixture: R(0,0), G(2,1), B(1,2)

    def test_vertical_left_of_all(self):
        c = lline_counts(lline(F(-1, 2), F(1, 2), ("up", "down")), triple())
        assert c == ((0, 0, 0), (1, 1, 1))

    def test_horizontal_above_all(self):
        c = lline_counts(lline(F(1, 2), F(5, 2), ("left", "right")), triple())
        assert c == ((0, 0, 0), (1, 1, 1))

    def test_up_left_quadrant(self):
        c = lline_counts(lline(F(3, 2), F(1, 2), ("up", "left")), triple())
        assert c == ((0, 0, 1), (1, 1, 0))

    def test_down_right_quadrant(self):
        c = lline_counts(lline(F(3, 2), F(1, 2), ("down", "right")), triple())
        assert c == ((0, 0, 0), (1, 1, 1))

    def test_up_right_quadrant(self):
        c = lline_counts(lline(F(1, 2), F(1, 2), ("up", "right")), triple())
        assert c == ((0, 1, 1), (1, 0, 0))

    def test_down_left_quadrant(self):
        c = lline_counts(lline(F(1, 2), F(1, 2), ("down", "left")), triple())
        assert c == ((1, 0, 0), (0, 1, 1))

    def test_counts_partition(self):
        s = ring12()
        for pair in RAY_PAIRS:
            c1, c2 = lline_counts(LLine((F(3, 2), F(-1, 2)), pair), s)
            assert tuple(a + b for a, b in zip(c1, c2)) == (4, 4, 4)


class TestDoubledCounts:
    """The search's self-check counts on doubled integers; it must agree with
    lline_counts on every L-line of the canonical corner grid."""

    @pytest.mark.parametrize("make", [
        triple, ring12, diagonal12,
        lambda: rand_red_hull(6, random.Random(3)),
        lambda: _relabel(ring12(), range(-10**12, 10**12, 10**11 + 7), range(-5, 30, 2)),
        lambda: _relabel(ring12(), range(-2**70, 2**70, 2**66 + 3), range(2**62, 2**63, 2**58)),
    ], ids=["triple", "ring12", "diagonal12", "red-hull", "relabeled", "past-int64"])
    def test_matches_lline_counts(self, make):
        s = make()
        xs = sorted(p.x for p in s.points)
        ys = sorted(p.y for p in s.points)
        for cx in [xs[0] - F(1, 2)] + [x + F(1, 2) for x in xs]:
            for cy in [ys[0] - F(1, 2)] + [y + F(1, 2) for y in ys]:
                for pair in RAY_PAIRS:
                    l = LLine((cx, cy), pair)
                    rows = llines._rows_of_points(s.points)
                    assert llines._doubled_counts(l, *rows) == lline_counts(l, s)


class TestOrthoHull:
    def test_single_point(self):
        p = pt(3, 7, "R")
        assert ortho_hull([p]) == [p]

    def test_ring_hides_inner_points(self):
        ring = [pt(0, 6, "R"), pt(6, 5, "R"), pt(5, 0, "G"), pt(1, 1, "G")]
        inner = [pt(2, 2, "B"), pt(3, 3, "B")]
        assert ortho_hull(ring + inner) == ring

    def test_staircase_all_on_hull(self):
        stairs = [pt(0, 0, "R"), pt(1, 1, "G"), pt(2, 2, "B")]
        assert ortho_hull(stairs) == stairs

    def test_ring12_hull_is_red(self):
        hull = ortho_hull(ring12())
        assert len(hull) == 4
        assert all(p.color is Color.R for p in hull)

    def test_rejects_shared_coordinate(self):
        with pytest.raises(PreconditionViolated):
            ortho_hull([pt(0, 0, "R"), pt(0, 1, "G")])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sweeps_match_quadrant_definition(self, data):
        xs = data.draw(st.lists(st.integers(-20, 20), unique=True, max_size=14))
        ys = data.draw(st.permutations(range(-len(xs), len(xs), 2)))
        colors = data.draw(st.lists(st.sampled_from("RGB"), min_size=len(xs), max_size=len(xs)))
        points = [pt(x, y, c) for x, y, c in zip(xs, ys, colors)]
        assert ortho_hull(points) == _ortho_hull_reference(points)


class TestSidedOrdering:
    def test_half_turn_from_top_is_ascending_y(self):
        s = triple()
        p0, p1, p2 = s.points
        sigma = sided_ordering(p2, 2, s)
        assert sigma.order == (p0, p1, p2)

    def test_no_turn_from_bottom_is_descending_y(self):
        s = triple()
        p0, p1, p2 = s.points
        sigma = sided_ordering(p0, 0, s)
        assert sigma.order == (p2, p1, p0)

    def test_no_turn_from_top_splits_blocks(self):
        s = triple()
        p0, p1, p2 = s.points
        # block A is just the anchor, the rest go left to right
        sigma = sided_ordering(p2, 0, s)
        assert sigma.order == (p2, p0, p1)

    def test_quarter_turn(self):
        s = triple()
        p0, p1, p2 = s.points
        sigma = sided_ordering(p1, 1, s)
        assert sigma.order == (p0, p2, p1)

    def test_rejects_foreign_anchor(self):
        with pytest.raises(PreconditionViolated):
            sided_ordering(pt(9, 9, "R"), 0, triple())

    def test_rejects_bad_turns(self):
        with pytest.raises(PreconditionViolated):
            sided_ordering(triple().points[0], 4, triple())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_rotate_and_sort_reference(self, data):
        big = st.integers(-10**12, 10**12)
        xs = data.draw(st.lists(big, unique=True, min_size=1, max_size=12))
        ys = data.draw(st.lists(big, unique=True, min_size=len(xs), max_size=len(xs)))
        colors = data.draw(st.lists(st.sampled_from("RGB"), min_size=len(xs), max_size=len(xs)))
        points = [pt(x, y, c) for x, y, c in zip(xs, ys, colors)]
        for p in points:
            for turns in range(4):
                got = sided_ordering(p, turns, points)
                assert got.order == _sided_ordering_reference(p, turns, points)


class TestLatticeCurve:
    def test_ring12_ascending_y_curve(self):
        s = ring12()
        top = max(s.points, key=lambda p: p.y)
        curve = lattice_curve(sided_ordering(top, 2, s))
        assert curve.dtype == np.int64
        assert curve.tolist() == [
            [-1, -1], [-2, -2], [-3, 0], [-1, -1], [-2, 1], [0, 0],
            [2, -1], [1, 1], [3, 0], [2, 2], [1, 1],
        ]
        assert (np.flatnonzero(~curve.any(axis=1)) + 1).tolist() == [6]

    def test_closed_polygon_is_centrally_symmetric(self):
        s = ring12()
        top = max(s.points, key=lambda p: p.y)
        curve = lattice_curve(sided_ordering(top, 2, s))
        v = np.concatenate((curve, -curve))
        half = len(v) // 2
        assert all((v[i + half] == -v[i]).all() for i in range(half))

    def test_steps_and_endpoints_for_every_ordering(self):
        s = ring12()
        for anchor, turns in _anchor_sequence(s):
            curve = lattice_curve(sided_ordering(anchor, turns, s), Color.R)
            verts = [(0, 0)] + [tuple(v) for v in curve.tolist()]
            diffs = {
                (b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:])
            }
            assert diffs <= STEPS_RED_HULL
            assert verts[1] == (-1, -1)
            assert verts[-1] == (1, 1)

    def test_zero_marks_balanced_prefix(self):
        s = ring12()
        top = max(s.points, key=lambda p: p.y)
        sigma = sided_ordering(top, 2, s)
        curve = lattice_curve(sigma)
        zeros = np.flatnonzero(~curve.any(axis=1)) + 1
        assert zeros.size
        for k in zeros.tolist():
            prefix = sigma.order[:k]
            for c in (Color.R, Color.G, Color.B):
                assert sum(p.color is c for p in prefix) == k // 3

    def test_single_triple_has_no_valid_curve(self):
        # with one point per color the first and last ordering entries
        # cannot both carry the hull color, so no ordering passes
        s = triple()
        for p in s.points:
            with pytest.raises(PreconditionViolated):
                lattice_curve(sided_ordering(p, 2, s), Color.R)

    def test_mixed_hull_rejected(self):
        s = diagonal12()
        top = max(s.points, key=lambda p: p.y)
        with pytest.raises(PreconditionViolated):
            lattice_curve(sided_ordering(top, 2, s))


class TestBlockMove:
    def test_identical(self):
        assert _block_move((1, 2, 3), (1, 2, 3)) is None

    def test_right_move(self):
        assert _block_move((1, 2, 3, 4), (2, 3, 1, 4)) == (0, 2, 1, 1)

    def test_left_move(self):
        assert _block_move((1, 2, 3, 4), (1, 4, 2, 3)) == (1, 3, 4, -1)

    def test_rejects_non_block_move(self):
        with pytest.raises(ValueError):
            _block_move((1, 2, 3), (3, 2, 1))

    def test_consecutive_orderings_are_block_moves(self):
        s = ring12()
        seq = _anchor_sequence(s)
        assert len(seq) == 6 * s.n + 1
        prev = None
        for anchor, turns in seq:
            order = sided_ordering(anchor, turns, s).order
            if prev is not None:
                _block_move(prev, order)
            prev = order

    def test_sequence_ends_reversed(self):
        s = ring12()
        seq = _anchor_sequence(s)
        first = sided_ordering(seq[0][0], seq[0][1], s)
        last = sided_ordering(seq[-1][0], seq[-1][1], s)
        assert last.order == tuple(reversed(first.order))


class TestFindBalancedLLine:
    def test_ring12(self):
        s = ring12()
        l, k = find_balanced_lline(s)
        c1, c2 = lline_counts(l, s)
        assert c1 == (k, k, k)
        assert c2 == (4 - k, 4 - k, 4 - k)
        assert 1 <= k <= 3

    def test_ring12_in_oracle(self):
        s = ring12()
        assert find_balanced_lline(s) in brute_oracle_llines(s)

    def test_validate_mode_agrees(self):
        s = ring12()
        assert find_balanced_lline(s, validate=True) == find_balanced_lline(s)

    def test_deterministic(self):
        assert find_balanced_lline(ring12()) == find_balanced_lline(ring12())

    def test_diagonal_rejected(self):
        with pytest.raises(PreconditionViolated):
            find_balanced_lline(diagonal12())

    def test_single_triple_rejected(self):
        with pytest.raises(PreconditionViolated):
            find_balanced_lline(triple())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_random_instances_confirmed_by_oracle(self, n):
        rng = random.Random(100 + n)
        for _ in range(8):
            s = rand_red_hull(n, rng)
            l, k = find_balanced_lline(s, validate=True)
            c1, c2 = lline_counts(l, s)
            assert c1 == (k, k, k) and c2 == (n - k,) * 3
            assert (l, k) in brute_oracle_llines(s)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_search(self, data):
        # the search finds a hit, not the walk's first one: check it by its
        # counts, and against the oracle where that runs
        n = data.draw(st.integers(4, 12))
        s = generate(GenSpec(GenKind.LatticeRedHull, n, data.draw(st.integers(0, 10**6))))
        big = st.lists(st.integers(-10**12, 10**12), unique=True, min_size=3 * n, max_size=3 * n)
        relabelled = _relabel(s, sorted(data.draw(big)), sorted(data.draw(big)))
        for inst in (s, relabelled):
            for validate in (False, True):
                _assert_balanced(inst, find_balanced_lline(inst, validate=validate))

    def test_one_rank_frame_per_search(self, monkeypatch):
        # the search reads every ordering off the one frame, a pass of them
        # per numpy call: it never builds an ordering's index array, and
        # nothing per ordering goes back to the point objects
        s = generate(GenSpec(GenKind.LatticeRedHull, 32, 1))
        calls = Counter()
        spied = ("_RankFrame", "_block_keys", "sided_ordering", "require_rgb")
        for name in spied:
            real = getattr(llines, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(llines, name, spy)
        ordering = _RankFrame.ordering
        monkeypatch.setattr(_RankFrame, "ordering", lambda *a: calls.update(["ordering"]) or ordering(*a))
        l, k = find_balanced_lline(s, validate=True)
        assert lline_counts(l, s) == ((k,) * 3, (32 - k,) * 3)
        # one pass: its fourth of 16 rows, position 3 * 192 // 15 = 38 of
        # the 193, holds a hit
        assert calls["_block_keys"] == 1
        assert calls["_RankFrame"] == 1
        assert calls["ordering"] == 0
        for name in ("sided_ordering", "require_rgb"):
            assert calls[name] <= 1, name

    def test_n128_within_oracle_cap(self):
        # 384 points: the counts and the oracle confirm it
        s = generate(GenSpec(GenKind.LatticeRedHull, 128, 1))
        t0 = time.process_time()
        l, k = find_balanced_lline(s, validate=True)
        assert time.process_time() - t0 < 5.0
        assert lline_counts(l, s) == ((k,) * 3, (128 - k,) * 3)
        assert (l, k) in brute_oracle_llines(s)

    def test_corner_is_on_oracle_grid(self):
        s = ring12()
        l, _ = find_balanced_lline(s)
        xs = sorted(p.x for p in s.points)
        ys = sorted(p.y for p in s.points)
        assert l.corner[0] in [xs[0] - F(1, 2)] + [x + F(1, 2) for x in xs]
        assert l.corner[1] in [ys[0] - F(1, 2)] + [y + F(1, 2) for y in ys]


class TestBruteOracle:
    def test_n1_has_no_balanced_lline(self):
        assert brute_oracle_llines(triple()) == []

    def test_diagonal_is_a_counterexample(self):
        assert brute_oracle_llines(diagonal12()) == []

    def test_size_cap(self):
        rng = random.Random(7)
        assert brute_oracle_llines(rand_red_hull(200, rng))
        with pytest.raises(PreconditionViolated,
                           match=r"^oracle is limited to 1\.\.600 points, got 603$"):
            brute_oracle_llines(rand_red_hull(201, rng))

    @pytest.mark.parametrize("s", [
        *(pytest.param(generate(GenSpec(GenKind.LatticeRedHull, n, seed)), id=f"red-hull-n{n}-s{seed}")
          for n in (4, 5, 6) for seed in (1, 2)),
        *(pytest.param(_mixed_hull_coloring(n, random.Random(n)), id=f"mixed-hull-n{n}")
          for n in (1, 2, 3, 4, 5)),
        pytest.param(triple(), id="triple"),
        pytest.param(diagonal12(), id="diagonal12"),
    ])
    def test_matches_grid_enumeration(self, s):
        # every canonical corner with every ray pair, counted point by point
        # through LLine.in_region1, in (corner x, corner y, ray pair) order
        xs = sorted(p.x for p in s.points)
        ys = sorted(p.y for p in s.points)
        want = []
        for cx in [xs[0] - F(1, 2)] + [x + F(1, 2) for x in xs]:
            for cy in [ys[0] - F(1, 2)] + [y + F(1, 2) for y in ys]:
                for rays in RAY_PAIRS:
                    l = LLine((cx, cy), rays)
                    c1, _ = lline_counts(l, s)
                    if len(set(c1)) == 1 and 1 <= c1[0] <= s.n - 1:
                        want.append((l, c1[0]))
        assert brute_oracle_llines(s) == want

    @pytest.mark.parametrize("n, hits, digest", [
        (8, 146, "ef1433da08afe56c08bd013230b83a9b259f67382773a68582addd51d0d9c479"),
        (32, 237, "b0247f18fb13fd3c651706a883ed15f709c8908af368d2007ee8885a0b1f266f"),
        (100, 67, "f7be6c0620cb37f74e25baf4034d73176dc46cf2f60b030b32c54c89199ccc57"),
    ], ids=["n8", "n32", "n100"])
    def test_pinned_lists(self, n, hits, digest):
        # SHA-256 of the list the per-ray-pair mask oracle gave, one line
        # "cx cy ray ray k" per answer, taken with its 24-point cap lifted
        got = brute_oracle_llines(generate(GenSpec(GenKind.LatticeRedHull, n, 1)))
        text = "".join(f"{l.corner[0]} {l.corner[1]} {l.rays[0].value} {l.rays[1].value} {k}\n"
                       for l, k in got)
        assert len(got) == hits
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_coordinates_past_int64(self):
        # the oracle compares ranks, so a monotone map far past int64 keeps
        # every hit: the same k, rays and corner grid indices
        s = generate(GenSpec(GenKind.LatticeRedHull, 5, 3))
        big = LatticePointSet(tuple(
            pt(p.x * 10**20 + 1, p.y * 10**20 + 7, p.color) for p in s.points
        ))

        def grid_hits(t):
            xs = sorted(p.x for p in t.points)
            ys = sorted(p.y for p in t.points)
            cand_x = [xs[0] - F(1, 2)] + [x + F(1, 2) for x in xs]
            cand_y = [ys[0] - F(1, 2)] + [y + F(1, 2) for y in ys]
            return [(cand_x.index(l.corner[0]), cand_y.index(l.corner[1]), l.rays, k)
                    for l, k in brute_oracle_llines(t)]

        want = grid_hits(s)
        assert want and grid_hits(big) == want
        assert find_balanced_lline(big) in brute_oracle_llines(big)

    def test_every_oracle_hit_is_balanced(self):
        s = ring12()
        for l, k in brute_oracle_llines(s):
            c1, c2 = lline_counts(l, s)
            assert c1 == (k, k, k)
            assert c2 == (4 - k,) * 3


# -- the bracket search ------------------------------------------------------

# 500 seeded instances, n = 4..13
_SEEDED = [(n, seed) for n in range(4, 14) for seed in range(50)]


@pytest.fixture(scope="module")
def seeded_cases():
    return [generate(GenSpec(GenKind.LatticeRedHull, n, seed)) for n, seed in _SEEDED]


def _spy_hits(monkeypatch):
    """Record the (turns, rank) of each hit the search realizes."""
    hits = []
    real = llines._realize_prefix

    def spy(xs, ys, colors, frame, turns, r, k0):
        hits.append((turns, r))
        return real(xs, ys, colors, frame, turns, r, k0)

    monkeypatch.setattr(llines, "_realize_prefix", spy)
    return hits


def _count_passes(monkeypatch):
    """Count the search's passes: one `_block_keys` call each."""
    passes = Counter()
    real = llines._block_keys

    def spy(*args):
        passes["passes"] += 1
        return real(*args)

    monkeypatch.setattr(llines, "_block_keys", spy)
    return passes


def _position(m, turns, r):
    """Schedule position of the ordering of y rank r after `turns` turns."""
    return {2: 0, 3: m, 0: 2 * m}[turns] + r


def _first_pass(count):
    """Schedule positions of the search's first pass over `count`: both
    ends, and `_PROBES` rows in all, as evenly spaced as integers allow."""
    probes = llines._PROBES
    if count <= probes:
        return list(range(count))
    return [k * (count - 1) // (probes - 1) for k in range(probes)]


def _reference_winding(s, anchor, turns):
    """Winding of one ordering's closed curve by the reference, or None when
    the ordering has a balanced prefix."""
    order, q = _reference_prefixes(s, anchor, turns)
    if (0, 0) in q[1:-1]:
        return None
    verts = tuple(q[1:-1])
    return reference_winding_number(verts + tuple((-x, -y) for x, y in verts))


def _reference_hit_of(s, anchor, turns):
    """The reference realization of one ordering's first balanced prefix."""
    points = s.points
    (hull_color,) = {p.color for p in _ortho_hull_reference(points)}
    order = _sided_ordering_reference(anchor, turns, points)
    for k in range(1, len(order)):
        seen = Counter(p.color for p in order[:k])
        if len({seen[c] for c in (Color.R, Color.G, Color.B)}) == 1:
            return _realize_reference(s, anchor, turns, order, k)
    return None


def _first_stop(s, hull_color):
    """What stops a walk of one ordering at a time: "ends" for an ordering
    that starts or ends off the hull color, "hit" for a balanced prefix."""
    for anchor, turns in _anchor_sequence(s):
        order = sided_ordering(anchor, turns, s).order
        if order[0].color is not hull_color or order[-1].color is not hull_color:
            return "ends"
        seen = Counter()
        for p in order[:-1]:
            seen[p.color] += 1
            if seen[Color.R] == seen[Color.G] == seen[Color.B]:
                return "hit"
    return None


class TestBlockedWalk:
    """The search tests a pass of spaced-out orderings per numpy call and
    narrows a winding bracket between passes; its answer must be balanced
    wherever the hit falls, and a bracket tested whole must give the
    one-ordering-at-a-time reference answer."""

    def test_matches_reference_in_both_modes(self, seeded_cases):
        # validate mode only adds checks: both modes give one answer
        for s in seeded_cases:
            got = find_balanced_lline(s)
            _assert_balanced(s, got)
            assert find_balanced_lline(s, validate=True) == got

    def test_hit_on_a_spaced_out_row_of_the_first_pass(self, seeded_cases, monkeypatch):
        # the first pass tests both schedule ends and evenly spaced rows
        # between them; its first row with a balanced prefix is the answer
        hits = _spy_hits(monkeypatch)
        passes = _count_passes(monkeypatch)
        inner = 0
        for s in seeded_cases[::2]:
            hits.clear()
            passes.clear()
            got = find_balanced_lline(s)
            if passes["passes"] > 1:
                continue
            seq = _anchor_sequence(s)
            (turns, r), = hits
            pos = _position(len(s.points), turns, r)
            probes = _first_pass(len(seq))
            assert pos in probes
            for before in probes[:probes.index(pos)]:
                assert _reference_hit_of(s, *seq[before]) is None
            assert got == _reference_hit_of(s, *seq[pos])
            inner += 0 < pos < len(seq) - 1
        assert inner >= 100

    @pytest.mark.parametrize("validate", [False, True])
    def test_hit_found_only_after_narrowing(self, seeded_cases, monkeypatch, validate):
        # three probes a pass: the ends and the middle row.  When none of
        # them holds a hit, the hit lies between the first two of them whose
        # reference windings differ
        monkeypatch.setattr(llines, "_PROBES", 3)
        hits = _spy_hits(monkeypatch)
        passes = _count_passes(monkeypatch)
        narrowed = 0
        for s in seeded_cases[::5]:
            hits.clear()
            passes.clear()
            got = find_balanced_lline(s, validate=validate)
            _assert_balanced(s, got)
            seq = _anchor_sequence(s)
            probes = _first_pass(len(seq))
            windings = [_reference_winding(s, *seq[i]) for i in probes]
            if None in windings:
                assert passes["passes"] == 1
                continue
            j = next(j for j in range(len(probes) - 1) if windings[j] != windings[j + 1])
            pos = _position(len(s.points), *hits[-1])
            assert probes[j] < pos < probes[j + 1]
            assert got == _reference_hit_of(s, *seq[pos])
            assert passes["passes"] >= 2
            narrowed += 1
        assert narrowed >= 30

    @pytest.mark.parametrize("extra, scale", [(1, 1), (2, 1 << 16), (3, 40), (8, 100)])
    def test_block_sizes_keep_the_answer(self, seeded_cases, monkeypatch, extra, scale):
        # passes of 2 + extra rows narrow most brackets, and both modes give
        # one answer.  The search reads ranks alone: coordinates scaled by
        # `scale` give the same hit, the corner moved with the coordinate it
        # sits half a unit from
        monkeypatch.setattr(llines, "_PROBES", 2 + extra)
        hits = _spy_hits(monkeypatch)
        half = F(1, 2)
        for s in seeded_cases[::5]:
            scaled = LatticePointSet(tuple(pt(scale * p.x, scale * p.y, p.color) for p in s.points))
            hits.clear()
            l, k = find_balanced_lline(s)
            _assert_balanced(s, (l, k))
            corner = tuple(
                scale * (c - half) + half if c - half in vals else scale * (c + half) - half
                for c, vals in zip(l.corner, ({p.x for p in s.points}, {p.y for p in s.points}))
            )
            want = (LLine(corner, l.rays), k)
            _assert_balanced(scaled, want)
            for validate in (False, True):
                assert find_balanced_lline(s, validate=validate) == (l, k)
                assert find_balanced_lline(scaled, validate=validate) == want
            assert len(hits) == 5 and len(set(hits)) == 1

    def test_whole_bracket_gives_the_walks_answer(self, seeded_cases, monkeypatch):
        # a bracket of at most _PROBES positions is tested whole, so its first
        # stop is the first stop of a walk over it
        monkeypatch.setattr(llines, "_PROBES", 10**6)
        passes = _count_passes(monkeypatch)
        for s in seeded_cases[::5]:
            want = _find_balanced_lline_reference(s, validate=True)
            for validate in (False, True):
                passes.clear()
                assert find_balanced_lline(s, validate=validate) == want
                assert passes["passes"] == 1

    def test_final_unrotated_ordering(self, seeded_cases, monkeypatch):
        # the final ordering is the first one reversed, so in a full walk it
        # never holds the first hit; a search of it alone must still realize
        # the reference's L-line for its first balanced prefix
        monkeypatch.setattr(llines, "_schedule", lambda m: ((0, 1),))
        monkeypatch.setattr(InternalError, "count", InternalError.count)
        checked = 0
        for s in seeded_cases[:100]:
            bottom = min(s.points, key=lambda p: p.y)
            want = _reference_hit_of(s, bottom, 0)
            for validate in (False, True):
                if want is None:
                    with pytest.raises(InternalError, match="no balanced prefix"):
                        find_balanced_lline(s, validate=validate)
                else:
                    assert find_balanced_lline(s, validate=validate) == want
            checked += want is not None
        assert checked >= 50

    @pytest.mark.parametrize("validate", [False, True])
    def test_ends_check_with_a_wrong_hull_color(self, monkeypatch, validate):
        # steps built for a color that is not the hull's: the first
        # ordering already starts off the hull color
        monkeypatch.setattr(llines, "_hull_color", lambda frame, colors: Color.G)
        for n, seed in ((4, 1), (12, 3), (32, 1)):
            s = generate(GenSpec(GenKind.LatticeRedHull, n, seed))
            with pytest.raises(PreconditionViolated,
                               match=r"^ordering must start and end with hull-colored points "
                                     r"\(is the orthogonal hull monochromatic\?\)$"):
                find_balanced_lline(s, validate=validate)

    def test_ends_checked_on_every_ordering_before_the_hit(self, monkeypatch):
        # recolor the leftmost point G and an inner G point R: the orderings
        # that end on the leftmost point fail the ends check.  A bracket
        # tested whole must raise exactly when one of them comes before the
        # first hit, as a walk of one ordering at a time does; the default
        # passes stop on the first tested row that fails or holds a hit
        monkeypatch.setattr(llines, "_hull_color", lambda frame, colors: Color.R)
        default = llines._PROBES
        outcomes = Counter()
        for n in range(4, 14):
            for seed in range(10):
                s = generate(GenSpec(GenKind.LatticeRedHull, n, seed))
                left = min(s.points, key=lambda p: p.x)
                hull = _ortho_hull_reference(s.points)
                inner = next(p for p in s.points if p.color is Color.G and p not in hull)
                swap = {left: Color.G, inner: Color.R}
                t = LatticePointSet(tuple(pt(p.x, p.y, swap.get(p, p.color)) for p in s.points))
                want = _first_stop(t, Color.R)
                for probes in (10**6, default):
                    monkeypatch.setattr(llines, "_PROBES", probes)
                    try:
                        l, k = find_balanced_lline(t)
                    except PreconditionViolated as e:
                        assert str(e) == llines._ENDS_MESSAGE
                        got = "ends"
                    else:
                        assert lline_counts(l, t)[0] == (k,) * 3
                        got = "hit"
                    if probes > default:
                        assert got == want
                outcomes[want] += 1
        assert outcomes["ends"] >= 10 and outcomes["hit"] >= 10

    def test_winding_change_raises(self, monkeypatch):
        # a bracket tested whole compares the windings of its rows before
        # the stop pairwise
        s = generate(GenSpec(GenKind.LatticeRedHull, 32, 1))
        monkeypatch.setattr(llines, "_PROBES", 10**6)
        monkeypatch.setattr(llines, "winding_number", lambda v: np.arange(1, 2 * len(v), 2))
        monkeypatch.setattr(InternalError, "count", InternalError.count)
        find_balanced_lline(s)  # without validate a pass with a stop takes no winding
        with pytest.raises(InternalError, match="winding changed") as err:
            find_balanced_lline(s, validate=True)
        assert err.value.trace == {"prev": 1, "now": 3}

    @pytest.mark.parametrize("fake, message, trace", [
        (lambda v: np.full(len(v), 2), "origin-free curve with even winding", {}),
        (lambda v: np.ones(len(v), dtype=int), "no balanced prefix",
         {"n": 32, "winding_first": 1, "winding_last": 1}),
        (lambda v: np.arange(1, 2 * len(v), 2), "no balanced prefix",
         {"n": 32, "winding_first": 1, "winding_last": 17}),
    ], ids=["even", "ends-alike", "ends-not-opposite"])
    def test_validate_checks_parity_and_schedule_ends(self, monkeypatch, fake, message, trace):
        # seed 1 at n = 32 hits on the fourth row of the first pass, and 9
        # of its 16 rows are origin-free.  The last row, the first ordering
        # reversed, is one of them like the first, so validate mode takes
        # the windings of both schedule ends
        s = generate(GenSpec(GenKind.LatticeRedHull, 32, 1))
        monkeypatch.setattr(llines, "winding_number", fake)
        monkeypatch.setattr(InternalError, "count", InternalError.count)
        find_balanced_lline(s)
        with pytest.raises(InternalError, match=message) as err:
            find_balanced_lline(s, validate=True)
        assert err.value.trace == trace

    @pytest.mark.parametrize("validate", [False, True])
    def test_walk_without_a_hit_raises(self, monkeypatch, validate):
        # seed 1 at n = 32 first hits rank 38 at half a turn: stop before
        # it.  The ends of that schedule wind alike, so nothing brackets a hit
        s = generate(GenSpec(GenKind.LatticeRedHull, 32, 1))
        monkeypatch.setattr(llines, "_schedule", lambda m: ((2, 38),))
        monkeypatch.setattr(InternalError, "count", InternalError.count)
        with pytest.raises(InternalError, match="no balanced prefix") as err:
            find_balanced_lline(s, validate=validate)
        w = err.value.trace["winding_first"]
        assert w in (-1, 1)
        assert err.value.trace == {"n": 32, "winding_first": w, "winding_last": w}

    def test_step_keys_decode(self):
        rng = random.Random(9)
        for m in (3, 18, 96, 3072):
            colors = [rng.choice((Color.R, Color.G, Color.B)) for _ in range(m)]
            colors[: m // 3] = [Color.G] * (m // 3)  # long runs reach -m and 2m
            steps = llines._color_steps(colors, Color.R)
            q = llines._step_keys(steps).cumsum()
            xy = steps.cumsum(axis=0)
            assert (llines._key_points(q, m) == xy).all()
            assert ((q == 0) == ~xy.any(axis=1)).all()

    def test_n1024(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 1024, 1))
        l, k = find_balanced_lline(s)
        assert 1 <= k <= 1023
        assert lline_counts(l, s) == ((k,) * 3, (1024 - k,) * 3)
