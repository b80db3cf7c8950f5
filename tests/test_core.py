import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tricut.core import (
    ArcSet,
    CirclePoint,
    Color,
    GeneralPosition,
    arcset,
    arcset_color_counts,
    check_general_position,
    circle_point,
    clip_line,
    dual_line_to_point,
    dual_point_to_line,
    empty_arcset,
    full_circle,
    int_line,
    intersect,
    line,
    line_slope_intercept,
    orient,
    pt,
    require_distinct_parameters,
    require_rgb,
    winding_number,
)
from arcs_reference import arcset_complement, arcset_rotate
from arcset_reference import check_arcs
from winding_reference import reference_winding_number
from tricut.errors import (
    BoundaryPoint,
    MissingColor,
    OriginOnCurve,
    PreconditionViolated,
    VerticalLine,
)


class TestRationals:
    def test_fraction_is_reduced_with_positive_denominator(self):
        q = F(6, -8)
        assert q.numerator == -3 and q.denominator == 4

    def test_floats_rejected(self):
        with pytest.raises(PreconditionViolated):
            pt(0.5, 1, "R")


class TestLines:
    def test_normalization_makes_equal_lines_equal(self):
        assert line(2, 4, 6) == line(1, 2, 3)
        assert line(-2, 4, 6) == line(1, -2, -3)
        assert line(0, -5, 10) == line(0, 1, -2)

    def test_zero_normal_rejected(self):
        with pytest.raises(PreconditionViolated):
            line(0, 0, 1)

    def test_side_signs_split_the_plane(self):
        l = line_slope_intercept(2, -3)  # y = 2x - 3
        assert l.side(pt(0, 0, "R")) != 0
        assert l.side(pt(0, 0, "R")) == -l.side(pt(0, -10, "R"))
        assert l.side(pt(1, -1, "R")) == 0

    def test_intersection_is_exact(self):
        l1 = line_slope_intercept(F(1, 3), F(1, 7))
        l2 = line_slope_intercept(F(-2, 5), F(3, 11))
        p = intersect(l1, l2)
        assert p is not None
        x, y = p
        assert l1.a * x + l1.b * y + l1.c == 0
        assert l2.a * x + l2.b * y + l2.c == 0

    def test_parallel_lines_do_not_intersect(self):
        assert intersect(line_slope_intercept(2, 1), line_slope_intercept(2, 5)) is None

    def test_vertical_slope_raises(self):
        with pytest.raises(VerticalLine):
            _ = line(1, 0, -4).slope


def ref_clip_line(l, box):
    """`clip_line` on Fractions, as it was before it ran on integers: kept as
    the reference the integer one must reproduce."""
    xmin, ymin, xmax, ymax = box
    pts = []
    if l.b != 0:
        for x in (xmin, xmax):
            y = F(-l.a * x - l.c, l.b)
            if ymin <= y <= ymax:
                pts.append((x, y))
    if l.a != 0:
        for y in (ymin, ymax):
            x = F(-l.b * y - l.c, l.a)
            if xmin <= x <= xmax:
                pts.append((x, y))
    pts = sorted(set(pts))
    if len(pts) < 2:
        return None
    return pts[0], pts[-1]


class TestClipLine:
    BOX = (F(-1), F(-2), F(3), F(4))

    def check(self, l, box):
        want = ref_clip_line(l, box)
        assert clip_line(l, box) == want
        assert clip_line(int_line(l), box) == want
        return want

    def test_vertical_and_horizontal(self):
        assert self.check(line(1, 0, F(-1, 2)), self.BOX) == ((F(1, 2), -2), (F(1, 2), 4))
        assert self.check(line(0, 1, F(-7, 3)), self.BOX) == ((-1, F(7, 3)), (3, F(7, 3)))
        # along a side: the whole side
        assert self.check(line(1, 0, 1), self.BOX) == ((-1, -2), (-1, 4))
        assert self.check(line(0, 1, -4), self.BOX) == ((-1, 4), (3, 4))

    def test_corner_hits(self):
        # through two corners, then through one and across
        assert self.check(line(3, -2, -1), self.BOX) == ((-1, -2), (3, 4))
        assert self.check(line(2, -1, 0), self.BOX) == ((-1, -2), (2, 4))
        # touching a corner only
        assert self.check(line(1, 1, -7), self.BOX) is None
        assert self.check(line(1, 1, 3), self.BOX) is None

    def test_misses(self):
        assert self.check(line(1, 0, 10**9), self.BOX) is None
        assert self.check(line(0, 1, F(9, 2)), self.BOX) is None
        assert self.check(line(1, 1, 100), self.BOX) is None

    def test_random_lines_and_boxes(self):
        rng = random.Random(1)

        def rat():
            return F(rng.randint(-30, 30), rng.randint(1, 7))

        seen = {"miss": 0, "corner": 0, "vertical": 0, "horizontal": 0}
        for _ in range(3000):
            xmin, xmax = sorted((rat(), rat()))
            ymin, ymax = sorted((rat(), rat()))
            box = (xmin, ymin, xmax, ymax)
            kind = rng.randrange(4)
            if kind == 0:  # through a corner, at a random slope
                cx, cy = rng.choice([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
                m = rat()
                l = line(m, -1, cy - m * cx)
            elif kind == 1:
                l = line(1, 0, -rng.choice([xmin, xmax, rat()]))
            elif kind == 2:
                l = line(0, 1, -rng.choice([ymin, ymax, rat()]))
            else:
                a, b = rat(), rat()
                l = line(a or 1, b, rat())
            want = self.check(l, box)
            corners = {(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)}
            seen["miss"] += want is None
            seen["corner"] += want is not None and bool(corners & set(want))
            seen["vertical"] += want is not None and l.b == 0
            seen["horizontal"] += want is not None and l.a == 0
        assert min(seen.values()) >= 200, seen


class TestOrient:
    def test_ccw_cw_collinear(self):
        a, b = (F(0), F(0)), (F(2), F(0))
        assert orient(a, b, (F(1), F(1))) == 1
        assert orient(a, b, (F(1), F(-1))) == -1
        assert orient(a, b, (F(7), F(0))) == 0


class TestDuality:
    def test_roundtrip(self):
        p = pt(2, 3, "G")
        l = dual_point_to_line(p)
        assert (l.slope, l.intercept) == (2, -3)
        q = dual_line_to_point(l)
        assert (q.x, q.y, q.color) == (p.x, p.y, p.color)

    def test_vertical_line_has_no_dual(self):
        with pytest.raises(VerticalLine):
            dual_line_to_point(line(1, 0, -2))

    def test_incidence_and_above_below_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            px, py = F(rng.randint(-20, 20)), F(rng.randint(-20, 20))
            m, k = F(rng.randint(-20, 20)), F(rng.randint(-20, 20))
            p = pt(px, py, "R")
            l = line_slope_intercept(m, k, "B")
            # p above l  <=>  dual point of l above dual line of p
            primal = py - (m * px + k)
            lstar = dual_line_to_point(l)
            pstar = dual_point_to_line(p)
            dual_diff = lstar.y - (pstar.slope * lstar.x + pstar.intercept)
            assert (primal > 0) == (dual_diff > 0)
            assert (primal == 0) == (dual_diff == 0)


class TestGeneralPosition:
    def test_collinear_triple_detected(self):
        pts = [pt(0, 0, "R"), pt(1, 1, "G"), pt(5, 5, "B")]
        with pytest.raises(PreconditionViolated):
            check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)

    def test_good_inputs_pass(self):
        pts = [pt(0, 0, "R"), pt(1, 3, "G"), pt(2, 1, "B")]
        check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)

    def test_coincident_points_detected(self):
        pts = [pt(0, 0, "R"), pt(0, 0, "B"), pt(1, 3, "G")]
        with pytest.raises(PreconditionViolated, match="coincide"):
            check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
    def test_pairwise_test_matches_triple_loop(self, coords):
        # a small grid makes collinear triples and repeated points common
        pts = [pt(x, y, "R") for x, y in coords]
        degenerate = any(
            (p.x, p.y) == (q.x, q.y) for p, q in itertools.combinations(pts, 2)
        ) or any(orient(p, q, r) == 0 for p, q, r in itertools.combinations(pts, 3))
        if not degenerate:
            check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)
            return
        with pytest.raises(PreconditionViolated) as err:
            check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)
        msg = str(err.value)
        named = [int(w.strip(",")) for w in msg.split() if w.strip(",").isdigit()]
        if "coincide" in msg:
            i, j = named
            assert i != j and (pts[i].x, pts[i].y) == (pts[j].x, pts[j].y)
        else:
            i, j, k = named
            assert len({i, j, k}) == 3 and orient(pts[i], pts[j], pts[k]) == 0


class TestColorChecks:
    def test_rgb_present(self):
        require_rgb([Color.R, Color.G, Color.B, Color.R])

    def test_missing_color(self):
        with pytest.raises(MissingColor, match="B"):
            require_rgb([Color.R, Color.G, Color.R])

    def test_neutral_color_rejected(self):
        with pytest.raises(PreconditionViolated, match="color K"):
            require_rgb([Color.R, Color.G, Color.B, Color.K])

    def test_per_color_count(self):
        require_rgb([Color.R, Color.G, Color.B] * 2, per_color=2)
        with pytest.raises(PreconditionViolated, match="want 1"):
            require_rgb([Color.R, Color.G, Color.B, Color.R], per_color=1)

    def test_distinct_parameters(self):
        pts = [circle_point(F(1, 4), "R"), circle_point(F(1, 2), "G")]
        require_distinct_parameters(pts)
        with pytest.raises(PreconditionViolated, match="duplicate"):
            require_distinct_parameters(pts + [circle_point(F(2, 8), "B")])

    def test_direct_circle_point_takes_only_rational_parameters(self):
        # a float parameter would be counted through a float predicate by
        # `arcset_color_counts` and refused untyped by `arcset_points_key`
        assert CirclePoint(F(1, 2), Color.R).t == F(1, 2) and CirclePoint(0, Color.G).t == 0
        for t in (0.5, "1/2", None):
            with pytest.raises(PreconditionViolated, match="^float coordinates are not accepted"):
                CirclePoint(t, Color.R)


@st.composite
def arc_ends(draw, low=0, high=1):
    """An end in [low, high]: an int, or a Fraction with a small, a
    10^5..10^6 or a 300-digit denominator, 0 and 1 among them."""
    den = draw(st.one_of(st.integers(1, 12), st.integers(10**5, 10**6),
                         st.integers(10**299, 10**300)))
    v = F(draw(st.integers(low * den, high * den)), den)
    return int(v) if v.denominator == 1 and draw(st.booleans()) else v


@st.composite
def arc_lists(draw):
    """0 to 3 arcs on sorted ends in [0, 1].  The last arc may run through
    0 to an end in [1, 2], past the first arc or not; then one end may be
    redrawn in [-1, 2] and two arcs may swap (out of range, unsorted or
    overlapping arcs)."""
    ends = sorted(draw(st.lists(arc_ends(), max_size=6)))
    arcs = [[lo, hi] for lo, hi in zip(ends[::2], ends[1::2])]
    if arcs and draw(st.booleans()):
        arcs[-1][1] = draw(arc_ends(1, 2))
    if arcs and draw(st.booleans()):
        draw(st.sampled_from(arcs))[draw(st.integers(0, 1))] = draw(arc_ends(-1, 2))
    if len(arcs) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(arcs))))[:2]
        arcs[i], arcs[j] = arcs[j], arcs[i]
    return tuple(tuple(arc) for arc in arcs)


def construction_outcome(check, arcs):
    try:
        check(arcs)
    except PreconditionViolated as e:
        return str(e)
    return "accepted"


class TestArcSet:
    def test_canonical_forms(self):
        a = arcset([(F(1, 2), F(3, 2))])
        assert a == full_circle() or a.arcs == ((F(1, 2), F(3, 2)),)
        assert arcset([(0, F(1, 2)), (F(1, 2), 1)]) == full_circle()
        assert arcset([(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]).arcs == ((F(1, 4), F(3, 4)),)

    def test_wraparound_canonicalized(self):
        a = arcset([(F(3, 4), 1), (0, F(1, 4))])
        assert a.arcs == ((F(3, 4), F(5, 4)),)
        b = arcset([(F(7, 8), F(9, 8))])
        assert b.arcs == ((F(7, 8), F(9, 8)),)

    def test_full_circle_from_single_wrapping_arc(self):
        assert arcset([(F(1, 3), F(4, 3))]) == full_circle()

    def test_overlap_rejected(self):
        with pytest.raises(PreconditionViolated):
            arcset([(0, F(1, 2)), (F(1, 4), F(3, 4))])
        # however long the overlapping arcs are together
        for intervals in (
            [(0, F(3, 4)), (F(1, 2), F(5, 4))],
            [(0, 1), (F(1, 4), F(1, 2))],
            [(F(1, 3), F(4, 3)), (F(1, 3), F(4, 3))],
        ):
            with pytest.raises(PreconditionViolated, match="^arcs overlap$"):
                arcset(intervals)

    @pytest.mark.parametrize("intervals", [
        [(F(1, 2), F(5, 4)), (F(1, 4), F(1, 2))],
        [(F(2, 3), 1), (0, F(1, 3)), (F(1, 3), F(2, 3))],
    ])
    def test_tiling_pieces_merge_into_the_full_circle(self, intervals):
        a = arcset(intervals)
        assert a == full_circle() and a.is_full_circle

    def test_direct_construction_validates(self):
        with pytest.raises(PreconditionViolated, match=r"^arc \(1/2, 1/4\) out of canonical range$"):
            ArcSet(((F(1, 2), F(1, 4)),))
        with pytest.raises(PreconditionViolated, match="^arcs must be sorted and disjoint$"):
            ArcSet(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))
        with pytest.raises(PreconditionViolated, match="^wrapping arc overlaps the first arc$"):
            ArcSet(((F(1, 4), F(1, 2)), (F(3, 4), F(5, 4))))
        # ends are ints or Fractions; a float or a string end is refused
        # with the float message of `as_rat`
        assert ArcSet(((0, 1),)) == full_circle()
        for arcs in (((0.25, 0.5),), ((F(1, 4), 0.5),), ((F(0), F(1, 4)), (F(1, 2), "3/4"))):
            with pytest.raises(PreconditionViolated, match="^float coordinates are not accepted"):
                ArcSet(arcs)

    @settings(max_examples=300, deadline=None)
    @given(arc_lists())
    @example(((F(1, 4), F(1, 2)), (F(3, 4), F(5, 4))))  # a wrap onto the first arc
    @example(((F(1, 4), F(1, 2)), (F(3, 4), F(5, 4) - F(1, 10**300))))  # a hair short of it
    @example(((0, 1),))
    @example(((F(0), F(1, 2)), (F(1, 2), 1)))  # touching arcs
    def test_integer_check_matches_the_fraction_reference(self, arcs):
        assert construction_outcome(ArcSet, arcs) == construction_outcome(check_arcs, arcs)

    def test_contains_and_boundary(self):
        a = arcset([(F(3, 4), F(5, 4))])
        assert a.contains(F(7, 8))
        assert a.contains(F(1, 8))
        assert not a.contains(F(1, 2))
        with pytest.raises(BoundaryPoint):
            a.contains(F(3, 4))
        with pytest.raises(BoundaryPoint):
            a.contains(F(1, 4))

    def test_full_circle_contains_everything(self):
        assert full_circle().contains(F(0))
        assert full_circle().contains(F(99, 100))

    def test_complement_involution(self):
        cases = [
            arcset([(F(1, 4), F(1, 2))]),
            arcset([(F(3, 4), F(9, 8)), (F(1, 4), F(1, 2))]),
            full_circle(),
            empty_arcset(),
        ]
        for a in cases:
            c = arcset_complement(a)
            assert arcset_complement(c) == a
            assert a.total_length() + c.total_length() == 1

    def test_rotate_preserves_length_and_components(self):
        a = arcset([(F(1, 8), F(1, 4)), (F(1, 2), F(7, 8))])
        b = arcset_rotate(a, F(1, 3))
        assert b.total_length() == a.total_length()
        assert b.component_count() == a.component_count()
        assert arcset_rotate(b, F(-1, 3)) == a

    def test_color_counts(self):
        a = arcset([(F(1, 8), F(3, 8))])
        pts = [
            circle_point(F(1, 4), "R"),
            circle_point(F(5, 16), "G"),
            circle_point(F(1, 2), "B"),
            circle_point(F(15, 16), "B"),
        ]
        counts = arcset_color_counts(a, pts)
        assert counts[Color.R] == 1 and counts[Color.G] == 1 and counts[Color.B] == 0

    def test_color_counts_boundary_raises(self):
        a = arcset([(F(1, 4), F(1, 2))])
        with pytest.raises(BoundaryPoint):
            arcset_color_counts(a, [circle_point(F(1, 4), "R")])


class TestWinding:
    def test_square_around_origin(self):
        sq = ((1, 1), (-1, 1), (-1, -1), (1, -1))
        assert winding_number(sq) == 1
        assert winding_number(tuple(reversed(sq))) == -1

    def test_square_missing_origin(self):
        assert winding_number(((3, 1), (2, 1), (2, 2), (3, 2))) == 0

    def test_double_loop(self):
        loop = ((2, 0), (0, 2), (-2, 0), (0, -2)) * 2
        assert winding_number(loop) == 2

    def test_zero_length_edges_skipped(self):
        sq = ((1, 1), (1, 1), (-1, 1), (-1, -1), (1, -1))
        assert winding_number(sq) == 1

    def test_origin_vertex_raises(self):
        with pytest.raises(OriginOnCurve):
            winding_number(((0, 0), (1, 0), (0, 1)))

    def test_origin_on_edge_interior_raises(self):
        with pytest.raises(OriginOnCurve):
            winding_number(((-2, 0), (3, 0), (0, 5)))

    def test_crossing_at_vertex_counted_once(self):
        # vertex exactly on the positive x axis
        hexagon = ((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2))
        assert winding_number(hexagon) == 1

    def test_int64_array_input(self):
        hexagon = np.array(((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)))
        assert winding_number(hexagon) == 1
        assert winding_number(hexagon[::-1]) == -1

    @pytest.mark.parametrize("bad", [
        ((F(1, 2), 1), (-1, 1), (0, -1)),
        ((1.0, 1), (-1, 1), (0, -1)),
        np.array(((1.0, 1.0), (-1.0, 1.0))),
        ((1, 1, 1), (-1, 1, 1)),
    ])
    def test_non_integer_vertices_rejected(self, bad):
        with pytest.raises(PreconditionViolated):
            winding_number(bad)

    @pytest.mark.parametrize("verts", [(), ((1, 1),), np.zeros((1, 2), dtype=np.int64)])
    def test_fewer_than_two_vertices_rejected(self, verts):
        with pytest.raises(PreconditionViolated):
            winding_number(verts)

    @pytest.mark.parametrize("big", [2**31, -(2**31), 2**63, -(2**80)])
    def test_coordinates_past_int32_rejected(self, big):
        with pytest.raises(PreconditionViolated):
            winding_number(((big, 1), (-1, 1), (0, -1)))
        if -(2**63) <= big < 2**63:
            with pytest.raises(PreconditionViolated):
                winding_number(np.array(((1, big), (-1, 1)), dtype=np.int64))
        edge = 2**31 - 1 if big > 0 else -(2**31 - 1)
        assert winding_number(((edge, -edge), (edge, edge), (-edge, 0))) == 1

    @staticmethod
    def _outcome(f, verts):
        try:
            return f(verts)
        except OriginOnCurve as e:
            return ("OriginOnCurve", str(e))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=12
    ))
    @example([(1, 1), (1, 1), (-1, 0)])  # zero-length edge
    @example([(1, 1), (2, -1), (0, 0)])  # vertex at the origin
    @example([(2, 1), (-2, -1), (0, 3)])  # origin inside an edge
    def test_matches_loop_reference(self, verts):
        # a small coordinate range makes zero-length edges, vertices at the
        # origin and edges through it common
        want = self._outcome(reference_winding_number, verts)
        assert self._outcome(winding_number, verts) == want
        assert self._outcome(winding_number, np.array(verts, dtype=np.int64)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.lists(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=k, max_size=k),
        min_size=1, max_size=5,
    )))
    def test_batch_matches_loop_reference(self, curves):
        # a stack of curves gives one winding per curve, or the error of the
        # first curve that has one
        want = [self._outcome(reference_winding_number, c) for c in curves]
        got = self._outcome(winding_number, np.array(curves, dtype=np.int64))
        errors = [w for w in want if isinstance(w, tuple)]
        if errors:
            assert got == errors[0]
        else:
            assert isinstance(got, np.ndarray) and got.tolist() == want

    def test_batch_shapes(self):
        sq = ((1, 1), (-1, 1), (-1, -1), (1, -1))
        assert type(winding_number(sq)) is int
        assert winding_number(np.array([[sq, sq[::-1]]] * 3)).tolist() == [[1, -1]] * 3
        assert winding_number(np.zeros((0, 4, 2), dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("batch", [
        np.ones((3, 1, 2), dtype=np.int64),
        [[(1, 1)], [(2, 2)]],
        np.ones((2, 0, 2), dtype=np.int64),
    ])
    def test_batch_refuses_a_one_vertex_curve(self, batch):
        with pytest.raises(PreconditionViolated, match="at least 2 vertices"):
            winding_number(batch)
