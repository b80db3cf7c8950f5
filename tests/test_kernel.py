"""The integer kernel under the exact predicates.

`cells.validate_simple` and `core.check_general_position` run on integers
scaled once in `core`.  These tests hold them to reference loops on
Fractions, kept here, over inputs that force the degenerate cases: small
grids (parallel, concurrent and collinear), big denominators, near-parallel
lines and vertical lines.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tricut import cells, core, wedges
from tricut.cells import validate_simple
from tricut.core import (
    GeneralPosition,
    check_general_position,
    int_line,
    int_points,
    intersect,
    line,
    point_joins,
    pt,
    sign,
)
from tricut.wedges import _pair_events
from tricut.errors import NotSimple, PreconditionViolated
from tricut.generators import GenKind, GenSpec, generate


# -- reference loops on Fractions ------------------------------------------------


def line_through(p, q):
    """The line through two distinct points, on Fractions."""
    a = p.y - q.y
    b = q.x - p.x
    return line(a, b, -(a * p.x + b * p.y))


def test_line_through_contains_both_points():
    p, q = pt(1, 2, "R"), pt(3, -5, "R")
    l = line_through(p, q)
    assert l.eval_at(p) == 0 and l.eval_at(q) == 0


def ref_validate_simple(lines):
    """({crossing point: (i, j)}, None) or (None, witness) on Fractions."""
    seen = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = intersect(lines[i], lines[j])
            if p is None:
                return None, (i, j)
            if p in seen:
                a, b = seen[p]
                return None, tuple(sorted({a, b, i, j}))
            seen[p] = (i, j)
    return seen, None


def ref_general_position(points):
    """None, or the indices the first coincidence or collinearity names."""
    first = {}
    for i, p in enumerate(points):
        if (p.x, p.y) in first:
            return (first[(p.x, p.y)], i)
        first[(p.x, p.y)] = i
    spans = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        l = line_through(points[i], points[j])
        if l in spans:
            return tuple(sorted({*spans[l], i, j})[:3])
        spans[l] = (i, j)
    return None


def ref_pair_values(points, x0):
    """(intercept on x = x0, slope, i, j) of every pair line, i < j."""
    events = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pi, pj = points[i], points[j]
            s = (pj.y - pi.y) / (pj.x - pi.x)
            events.append((pi.y + s * (x0 - pi.x), s, i, j))
    return events


def ref_pair_events(points, x0):
    """The pair lines in sweep order: intercept descending, then slope."""
    return sorted(ref_pair_values(points, x0), key=lambda e: (-e[0], e[1]))


def check_validate_simple(lines):
    want, witness = ref_validate_simple(lines)
    if witness is not None:
        with pytest.raises(NotSimple) as err:
            validate_simple(lines)
        assert err.value.witness == witness
        return
    got = validate_simple(lines)
    assert len(got) == len(want)
    for (x, y, w), pair in got.items():
        assert w > 0 and gcd(x, y, w) == 1
        assert want[(F(x, w), F(y, w))] == pair


def check_general(points):
    witness = ref_general_position(points)
    if witness is None:
        check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
        return
    with pytest.raises(PreconditionViolated) as err:
        check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
    named = tuple(int(w.strip(",")) for w in str(err.value).split() if w.strip(",").isdigit())
    assert named == witness


# -- strategies ------------------------------------------------------------------

small = st.integers(-2, 2).map(F)
big = st.builds(F, st.integers(-10**7, 10**7), st.integers(10**5, 10**6))
coef = st.one_of(small, big)


@st.composite
def any_line(draw, c=coef):
    a, b = draw(c), draw(c)
    if a == 0 and b == 0:
        b = F(1)
    return line(a, b, draw(c), draw(st.sampled_from("RGB")))


@st.composite
def lines_through_a_point(draw):
    # concurrency with big denominators: every line passes through (px, py)
    px, py = draw(big), draw(big)
    out = []
    for a, b in draw(st.lists(st.tuples(coef, coef), min_size=3, max_size=6)):
        if a == 0 and b == 0:
            a = F(1)
        out.append(line(a, b, -(a * px + b * py)))
    return out + draw(st.lists(any_line(), max_size=3))


@st.composite
def near_parallel_lines(draw):
    # slopes m + e/D for small e: pairs differ only at the 10^-6 scale
    m, d = draw(big), draw(st.integers(10**5, 10**6))
    es = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=7))
    return [line(m + F(e, d), -1, draw(coef)) for e in es]


@st.composite
def vertical_lines(draw):
    xs = draw(st.lists(coef, min_size=1, max_size=3))
    return [line(1, 0, -x) for x in xs] + draw(st.lists(any_line(), max_size=5))


line_sets = st.one_of(
    st.lists(any_line(small), max_size=8),
    st.lists(any_line(big), max_size=8),
    lines_through_a_point(),
    near_parallel_lines(),
    vertical_lines(),
)


@st.composite
def points_on_a_line(draw):
    # collinearity with big denominators: p + t * d for small or big t, so
    # the points' own denominators differ; nudged by at most 2/D
    px, py, dx, dy = draw(big), draw(big), draw(big), draw(coef)
    if dx == 0 and dy == 0:
        dx = F(1)
    d = draw(st.integers(10**5, 10**6))
    ts = draw(st.lists(st.one_of(st.integers(-4, 4).map(F), big), min_size=3, max_size=6))
    nudge = st.integers(-2, 2).map(lambda e: F(e, d))
    return [pt(px + t * dx, py + t * dy + draw(nudge), "R") for t in ts]


point_sets = st.one_of(
    st.lists(st.builds(lambda x, y: pt(x, y, "R"), st.integers(0, 3), st.integers(0, 3)),
             max_size=9),
    st.lists(st.builds(lambda x, y: pt(x, y, "G"), big, big), max_size=9),
    points_on_a_line(),
)


# -- tests -----------------------------------------------------------------------


class TestValidateSimpleMatchesFractions:
    @settings(max_examples=400, deadline=None)
    @given(line_sets)
    def test_same_error_witness_and_crossings(self, lines):
        check_validate_simple(lines)

    def test_shielded_counterexample(self):
        # denominators 10^6 and near-parallel shield lines
        check_validate_simple(cells.gen_shielded_counterexample())


class TestGeneralPositionMatchesFractions:
    @settings(max_examples=400, deadline=None)
    @given(point_sets)
    def test_same_error_and_witness(self, points):
        check_general(points)


class TestPairEventsMatchFractions:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.builds(lambda x, y: pt(x, y, "R"), st.integers(-5, 5), st.integers(0, 3)),
                 max_size=8, unique_by=lambda p: p.x),
        st.lists(st.builds(lambda x, y: pt(x, y, "B"), coef, coef),
                 max_size=8, unique_by=lambda p: p.x),
        points_on_a_line().filter(lambda ps: len({p.x for p in ps}) == len(ps)),
    ))
    def test_same_values_per_pair(self, points):
        # small grids tie intercepts on x0; big denominators and lines exercise
        # unrelated scales and equal keys
        if points:
            x0 = min(p.x for p in points) - 1
            assert _pair_events(int_points(points), x0) == ref_pair_values(points, x0)


def general_points(m, seed, spread):
    """m seeded points with distinct x and no three collinear."""
    rng = random.Random(seed)
    while True:
        xs = rng.sample(range(-spread, spread + 1), m)
        points = [pt(x, rng.randint(-spread, spread), "R") for x in xs]
        try:
            check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
            return points
        except PreconditionViolated:
            continue


def rational_map(points, seed):
    """Image under x' = a x + c, y' = d y + e x + f with a, d > 0 and
    denominators 10^5..10^6: same x order, same combinatorics."""
    rng = random.Random(seed)

    def rat(lo, hi):
        den = rng.randint(10**5, 10**6)
        return F(rng.randint(lo * den, hi * den), den)

    a, d, e, c, f = rat(1, 3), rat(1, 3), rat(-1, 1), rat(-100, 100), rat(-100, 100)
    return [pt(a * p.x + c, d * p.y + e * p.x + f, p.color) for p in points]


def drive_queue(points):
    """Cross every pair line.  Returns the ((i, j), integer key, exact (y, s))
    of each crossing and how often each pair became adjacent before its
    crossing, counted from the order alone."""
    x0 = min(p.x for p in points) - 1
    start = sorted(range(len(points)), key=lambda i: points[i].x)
    queue = wedges._EventQueue(int_points(points), x0, start[:])
    crossed, entered = set(), Counter()

    def adjacent():
        return {frozenset(queue.order[r:r + 2]) for r in range(len(points) - 1)}

    adj = adjacent()
    entered.update(adj)
    events = []
    while (r := queue.cross()) is not None:
        pair = frozenset(queue.order[r:r + 2])
        crossed.add(pair)
        events.append((tuple(sorted(pair)), queue.last[:2], queue.line(queue.last)))
        now = adjacent()
        entered.update(now - adj - crossed)
        adj = now
    assert queue.order == start[::-1]
    # each key is the exact (y, s) scaled by 2**k and floored
    for _, key, (y, sl) in events:
        assert key == (math.floor(-y * 2**queue.k), math.floor(sl * 2**queue.k))
    return events, entered


def check_queue_order(points):
    events, entered = drive_queue(points)
    x0 = min(p.x for p in points) - 1
    ref = ref_pair_events(points, x0)
    assert [pair for pair, _, _ in events] == [(i, j) for _, _, i, j in ref]
    # every crossed line's exact intercept and slope, through the queue's accessor
    assert [line for _, _, line in events] == [(y, s) for y, s, _, _ in ref]
    keys = [k for _, k, _ in events]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    return entered


class TestEventQueue:
    """The lazy queue of the wedge sweep, driven past any zero vertex until
    every pair line is crossed, against the sorted reference list."""

    @pytest.mark.parametrize("m", [6, 7, 12, 18, 25, 36, 48])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_sets(self, m, seed):
        # a spread of 2m ties many intercepts on x0, 40m few
        for spread in (2 * m, 40 * m):
            points = general_points(m, seed * 1000 + m, spread)
            check_queue_order(points)
            check_queue_order(rational_map(points, seed))

    @pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (3, 3), (5, 4), (8, 5)])
    def test_convex_sets(self, n, seed):
        points = generate(GenSpec(GenKind.Points3CConvex, n, seed))
        check_queue_order(points)
        check_queue_order(rational_map(points, seed))

    def test_pair_adjacent_again_before_its_crossing(self):
        # by x: a = (0, 0), b = (1, 4), c = (2, 3).  Line bc crosses x = -1
        # highest, so b and c swap first and split a from b; crossing ac
        # makes a and b adjacent again, and ab is crossed last
        points = [pt(0, 0, "R"), pt(1, 4, "G"), pt(2, 3, "B")]
        entered = check_queue_order(points)
        assert entered[frozenset((0, 1))] == 2
        # the same happens in larger seeded sets
        entered = check_queue_order(general_points(24, 7, 48))
        assert max(entered.values()) >= 3


class TestIntegerScaling:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.tuples(coef, coef)] * 3))
    def test_line_through_sides_match_fractions(self, coords):
        p, q, r = [pt(x, y, "R") for x, y in coords]
        if (p.x, p.y) == (q.x, q.y):
            return
        ((a, b, c),) = point_joins([p, q])
        (x, y, w), = int_points([r])
        assert sign(a * x + b * y + c * w) == line_through(p, q).side(r)

    def test_int_line_is_primitive_with_positive_lead(self):
        l = line(F(-3, 4), F(5, 6), F(7, 10))
        a, b, c = int_line(l)
        assert gcd(a, b, c) == 1 and a > 0
        assert (F(b, a), F(c, a)) == (l.b, l.c)

    def test_int_points_are_primitive_triples(self):
        pts = [pt(F(1, 2), F(2, 3), "R"), pt(5, F(-7, 4), "G"), pt(F(4, 6), 0, "B")]
        ints = int_points(pts)
        assert ints == [(3, 4, 6), (20, -7, 4), (2, 0, 3)]
        assert [(F(x, w), F(y, w)) for x, y, w in ints] == [(p.x, p.y) for p in pts]


def test_no_fraction_line_calls(monkeypatch):
    """The predicates never fall back to Fraction intersections or lines."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(core, "intersect", spy("intersect", core.intersect))
    assert not hasattr(cells, "intersect")
    assert not hasattr(core, "line_through")

    ls = [line(F(k, 7), -1, F(k * k, 3)) for k in range(12)]
    assert len(validate_simple(ls)) == 66
    with pytest.raises(NotSimple):
        validate_simple(ls + [line(F(1, 7), -1, 5)])
    pts = [pt(x, F(x * x, 5), "R") for x in range(12)]
    check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)
    with pytest.raises(PreconditionViolated):
        check_general_position(pts + [pt(F(1, 2), 0, "R"), pt(1, 0, "R"), pt(3, 0, "R")],
                               GeneralPosition.NO_THREE_COLLINEAR)
    assert calls == []
