"""The integer kernel under the exact predicates.

`cells.validate_simple` and `core.check_general_position` run on integers
scaled once in `core`.  These tests hold them to reference loops on
Fractions, kept here, over inputs that force the degenerate cases: small
grids (parallel, concurrent and collinear), big denominators, near-parallel
lines and vertical lines.
"""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tricut import cells, core
from tricut.cells import validate_simple
from tricut.core import (
    GeneralPosition,
    check_general_position,
    int_line,
    int_line_through,
    int_points,
    intersect,
    line,
    line_through,
    pt,
    sign,
)
from tricut.wedges import _pair_events
from tricut.errors import NotSimple, PreconditionViolated


# -- reference loops on Fractions ------------------------------------------------


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


def ref_pair_events(points, x0):
    events = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pi, pj = points[i], points[j]
            s = (pj.y - pi.y) / (pj.x - pi.x)
            events.append((pi.y + s * (x0 - pi.x), s, i, j))
    events.sort(key=lambda e: (-e[0], e[1]))
    return events


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
    def test_same_keys_in_the_same_order(self, points):
        # small grids tie intercepts on x0; big denominators and lines exercise
        # unrelated scales and equal keys
        if points:
            x0 = min(p.x for p in points) - 1
            assert _pair_events(points, x0) == ref_pair_events(points, x0)


class TestIntegerScaling:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.tuples(coef, coef)] * 3))
    def test_line_through_sides_match_fractions(self, coords):
        p, q, r = [pt(x, y, "R") for x, y in coords]
        if (p.x, p.y) == (q.x, q.y):
            return
        a, b, c = int_line_through(*int_points([p, q]))
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
    monkeypatch.setattr(cells, "intersect", spy("intersect", cells.intersect))
    monkeypatch.setattr(core, "line_through", spy("line_through", core.line_through))

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
