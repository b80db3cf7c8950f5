"""Every public solver and oracle rejects each kind of bad input with a
PreconditionViolated subclass.

One well-formed base instance per input type is mutated into one bad input
per violated assumption: collinear, coincident or shared-x points (for
lines: concurrent, equal or parallel), a missing color, unbalanced colors,
and an extra item of the neutral color K next to balanced R, G and B.
"""

from fractions import Fraction as F

import pytest

from tricut import (
    LatticePointSet,
    brute_oracle_wedges,
    circle_point,
    dual_point_to_line,
    enumerate_2arc_sets,
    find_111_wedge,
    find_complete_face,
    find_k_arcset,
    full_circle,
    halving_segment,
    moment_halve,
    ortho_hull,
    pt,
    sided_ordering,
    sweep_balanced_wedge,
)
from tricut.errors import PreconditionViolated

# six points on y = x^2 (convex, distinct x), colored R, G, B, R, G, B
BASE_POINTS = tuple(pt(x, x * x, "RGB"[i % 3]) for i, x in enumerate((0, 1, 3, 7, 12, 20)))


def _recolor(items, i, color, make):
    return items[:i] + (make(items[i], color),) + items[i + 1:]


def _point_cases():
    p = BASE_POINTS
    as_pt = lambda q, c: pt(q.x, q.y, c)
    return {
        # (2, 2) lies on the line through (0, 0) and (1, 1)
        "collinear": p[:5] + (pt(2 * p[1].x - p[0].x, 2 * p[1].y - p[0].y, p[5].color),),
        "coincident": p[:5] + (pt(p[0].x, p[0].y, p[5].color),),
        "shared-x": p[:5] + (pt(p[0].x, 5, p[5].color),),
        "missing-color": tuple(as_pt(q, "R" if q.color.value == "B" else q.color) for q in p),
        "unbalanced": _recolor(p, 5, p[4].color, as_pt),
        "K-colored": p + (pt(30, 900, "K"),),
    }


# name -> (call, the case kinds that are not its preconditions)
POINT_SOLVERS = {
    "sweep_balanced_wedge": (sweep_balanced_wedge, ()),
    "find_111_wedge": (find_111_wedge, {"shared-x", "unbalanced"}),
    "brute_oracle_wedges": (
        lambda pts: brute_oracle_wedges(pts, (1, 1, 1)), {"shared-x", "unbalanced"}
    ),
}

# lines are the duals of the points: collinear points dualize to concurrent
# lines, shared x to parallel lines, coincident points to equal lines
LINE_SOLVERS = {
    "halving_segment": (halving_segment, ()),
    "find_complete_face": (find_complete_face, {"unbalanced"}),
}


def _cases(solvers, cases, convert=lambda x: x):
    out = []
    for name, (fn, accepts) in solvers.items():
        for kind, bad in cases.items():
            if kind not in accepts:
                out.append(pytest.param(fn, convert(bad), id=f"{name}-{kind}"))
    return out


def _as_lines(points):
    return tuple(dual_point_to_line(p) for p in points)


@pytest.mark.parametrize("fn,bad", _cases(POINT_SOLVERS, _point_cases()))
def test_point_solvers_reject(fn, bad):
    with pytest.raises(PreconditionViolated):
        fn(bad)


@pytest.mark.parametrize("fn,bad", _cases(LINE_SOLVERS, _point_cases(), _as_lines))
def test_line_solvers_reject(fn, bad):
    with pytest.raises(PreconditionViolated):
        fn(bad)


def test_base_instances_are_accepted():
    sweep_balanced_wedge(BASE_POINTS)
    find_111_wedge(BASE_POINTS)
    assert brute_oracle_wedges(BASE_POINTS, (1, 1, 1))
    halving_segment(_as_lines(BASE_POINTS))
    find_complete_face(_as_lines(BASE_POINTS))


BASE_CIRCLE = tuple(circle_point(F(i, 7), "RGB"[i % 3]) for i in range(1, 7))


def _circle_cases():
    p = BASE_CIRCLE
    as_cp = lambda q, c: circle_point(q.t, c)
    return {
        "coincident": p[:5] + (circle_point(p[0].t, p[5].color),),
        "missing-color": tuple(as_cp(q, "R" if q.color.value == "B" else q.color) for q in p),
        "unbalanced": _recolor(p, 5, p[4].color, as_cp),
        "K-colored": p + (circle_point(F(13, 14), "K"),),
    }


CIRCLE_SOLVERS = {
    "find_k_arcset": (lambda pts: find_k_arcset(pts, 1), ()),
    "moment_halve": (lambda pts: moment_halve(full_circle(), pts, 2), ()),
    "enumerate_2arc_sets": (lambda pts: enumerate_2arc_sets(pts, 1), {"unbalanced"}),
}


@pytest.mark.parametrize("fn,bad", _cases(CIRCLE_SOLVERS, _circle_cases()))
def test_circle_solvers_reject(fn, bad):
    with pytest.raises(PreconditionViolated):
        fn(bad)


def test_base_circle_is_accepted():
    assert find_k_arcset(BASE_CIRCLE, 1).component_count() <= 2
    moment_halve(full_circle(), BASE_CIRCLE, 2)
    assert enumerate_2arc_sets(BASE_CIRCLE, 1)


BASE_LATTICE = tuple(pt(x, y, "RGB"[i % 3]) for i, (x, y) in enumerate(
    ((0, 3), (1, 0), (2, 4), (3, 1), (4, 5), (5, 2))
))


def _lattice_cases():
    p = BASE_LATTICE
    as_pt = lambda q, c: pt(q.x, q.y, c)
    return {
        "coincident": p[:5] + (pt(p[0].x, p[0].y, p[5].color),),
        "shared-x": p[:5] + (pt(p[0].x, 9, p[5].color),),
        "shared-y": p[:5] + (pt(9, p[0].y, p[5].color),),
        "off-lattice": p[:5] + (pt(F(11, 2), 9, p[5].color),),
        "missing-color": tuple(as_pt(q, "R" if q.color.value == "B" else q.color) for q in p),
        "unbalanced": _recolor(p, 5, p[4].color, as_pt),
        "K-colored": p + (pt(9, 9, "K"),),
    }


@pytest.mark.parametrize("kind", sorted(_lattice_cases()))
def test_lattice_point_set_rejects(kind):
    with pytest.raises(PreconditionViolated):
        LatticePointSet(_lattice_cases()[kind])


def test_lattice_point_set_rejects_K_point_in_raw_points():
    # four red hull points around one G, one B and one K point: the hull and
    # the orderings take raw points, the L-line search only a LatticePointSet
    ring = (pt(0, 1, "R"), pt(1, 9, "R"), pt(9, 8, "R"), pt(8, 0, "R"))
    points = ring + (pt(4, 4, "G"), pt(5, 3, "B"), pt(3, 5, "K"))
    assert ortho_hull(points) == list(ring)
    assert len(sided_ordering(ring[1], 2, points).order) == len(points)
    with pytest.raises(PreconditionViolated, match="point 6 has color K"):
        LatticePointSet(points)


@pytest.mark.parametrize("kind", ["coincident", "shared-x", "shared-y", "off-lattice"])
def test_ortho_hull_rejects_raw_points(kind):
    with pytest.raises(PreconditionViolated):
        ortho_hull(_lattice_cases()[kind])


@pytest.mark.parametrize("kind", ["coincident", "shared-x", "shared-y", "off-lattice"])
def test_sided_ordering_rejects_raw_points(kind):
    bad = _lattice_cases()[kind]
    with pytest.raises(PreconditionViolated):
        sided_ordering(bad[0], 0, bad)


def test_sided_ordering_rejects_shared_y_at_the_anchor():
    # the tie at y = 0 used to pick an order silently
    points = [pt(0, 0, "R"), pt(1, 0, "G"), pt(2, 5, "B"), pt(3, 1, "R")]
    with pytest.raises(PreconditionViolated):
        sided_ordering(points[0], 0, points)


def test_base_lattice_is_accepted():
    assert LatticePointSet(BASE_LATTICE).n == 2
    assert ortho_hull(BASE_LATTICE)
    assert sided_ordering(BASE_LATTICE[0], 0, BASE_LATTICE).order
