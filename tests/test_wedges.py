import json
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tricut import cells, cli, wedges
from tricut.core import (
    Color,
    GeneralPosition,
    RGB,
    Segment,
    check_general_position,
    deficit_steps,
    dual_line_to_point,
    dual_point_to_line,
    int_line,
    int_point,
    int_points,
    line,
    line_slope_intercept,
    orient,
    pt,
    winding_number,
)
from tricut.generators import GenKind, GenSpec, generate
from tricut.oracles import ORACLE_MAX_POINTS, count_segment_crossings
from sheared_duals_reference import reference_sheared_duals
from wedge_oracle_table import table_oracle_wedges
from tricut.errors import (
    DegenerateApex,
    EndpointOnLine,
    InternalError,
    MissingColor,
    NotSimple,
    OnBoundary,
    PreconditionViolated,
)
from tricut.wedges import (
    SECTOR_AGREE,
    SECTOR_DISAGREE,
    DoubleWedge,
    check_curve_invariants,
    find_111_wedge,
    halving_segment,
    ordering_at,
    brute_oracle_segments,
    brute_oracle_wedges,
    sweep_balanced_wedge,
    wedge_color_counts,
    wedge_dual_segment,
    wedge_point_indices,
    wedge_contains,
    wedge_from_functionals,
)

R, G, B = Color.R, Color.G, Color.B


def wedge_curve(colors):
    """Deficit curve of all 3n-windows of a cyclic 6n-coloring, as the sweep
    builds it: row k is (blue - n, green - n) of the window from position k."""
    return wedges._window_curve(deficit_steps(colors, B, G))


@pytest.fixture
def expected_internal_errors(monkeypatch):
    """For tests that provoke InternalError on purpose: the global counter
    is restored afterwards, so criterion 9 still counts only unexpected ones."""
    monkeypatch.setattr(InternalError, "count", InternalError.count)


def rand_balanced_points(n, seed, spread=None):
    """6n points, 2n per color, distinct x, no three collinear."""
    m = 6 * n
    spread = spread or 8 * m
    colors = [R] * (2 * n) + [G] * (2 * n) + [B] * (2 * n)
    for attempt in range(200):
        rng = random.Random(seed * 997 + attempt)
        xs = rng.sample(range(-spread, spread + 1), m)
        pts = [pt(x, rng.randint(-spread, spread), c) for x, c in zip(xs, colors)]
        rng.shuffle(pts)
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    if orient(pts[i], pts[j], pts[k]) == 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return pts
    raise AssertionError("could not sample points in general position")


class TestOrderingAt:
    def test_sorts_by_slope(self):
        apex = (F(0), F(0))
        pts = [pt(1, 5, R), pt(2, 2, G), pt(1, -3, B)]
        o = ordering_at(apex, pts)
        assert [p.color for p in o.points] == [B, G, R]
        assert list(o.slopes) == sorted(o.slopes)

    def test_apex_alignment_rejected(self):
        with pytest.raises(DegenerateApex):
            ordering_at((F(1), F(0)), [pt(1, 5, R)])

    def test_collinear_with_apex_rejected(self):
        with pytest.raises(DegenerateApex):
            ordering_at((F(0), F(0)), [pt(1, 1, R), pt(2, 2, G)])


class TestWedgeCurve:
    def test_blocks_hexagon(self):
        c = wedge_curve((R, R, G, G, B, B))
        assert c.dtype == np.int64
        assert c.tolist() == [[-1, 0], [-1, 1], [0, 1], [1, 0], [1, -1], [0, -1]]
        assert c.any(axis=1).all()  # no vertex at the origin
        assert winding_number(c) == -1  # one clockwise loop around the origin
        check_curve_invariants(c)

    def test_interleaved_all_zero(self):
        c = wedge_curve((R, G, B, R, G, B))
        assert c.shape == (6, 2) and not c.any()

    def test_counts_validated(self):
        # the sweep's color check, run before any curve is built
        with pytest.raises(PreconditionViolated):
            wedges._require_6n((R, R, G, G, B, G), "point")
        with pytest.raises(MissingColor):
            wedges._require_6n((R, R, R, R, G, G, G, G, R, R, G, G), "point")
        with pytest.raises(PreconditionViolated):
            wedges._require_6n((R, G, B), "point")

    def test_random_words_satisfy_invariants(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(1, 6)
            word = [R] * (2 * n) + [G] * (2 * n) + [B] * (2 * n)
            rng.shuffle(word)
            c = wedge_curve(word)
            check_curve_invariants(c)
            # row k counts the 3n-window from position k directly
            for k in range(6 * n):
                window = [word[(k + i) % (6 * n)] for i in range(3 * n)]
                assert c[k].tolist() == [window.count(B) - n, window.count(G) - n]
            if c.any(axis=1).all():
                assert winding_number(c) % 2 == 1

    @pytest.mark.usefixtures("expected_internal_errors")
    def test_asymmetric_curve_rejected(self):
        c = wedge_curve((R, R, G, G, B, B))
        c[4] += (0, 1)
        with pytest.raises(InternalError, match="centrally symmetric") as e:
            check_curve_invariants(c)
        assert e.value.trace == {"k": 1}

    @pytest.mark.usefixtures("expected_internal_errors")
    def test_illegal_steps_rejected(self):
        # move one vertex and its antipode: the array check must flag a step
        # exactly when a per-step lookup in _STEPS does
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 4)
            word = [R] * (2 * n) + [G] * (2 * n) + [B] * (2 * n)
            rng.shuffle(word)
            c = wedge_curve(word)
            k = rng.randrange(6 * n)
            shift = (rng.randint(-1, 1), rng.randint(-1, 1))
            c[k] += shift
            c[(k + 3 * n) % (6 * n)] -= shift
            verts = [tuple(v) for v in c.tolist()]
            legal = all(
                (b[0] - a[0], b[1] - a[1]) in wedges._STEPS
                for a, b in zip(verts, verts[1:] + verts[:1])
            )
            try:
                check_curve_invariants(c)
            except InternalError as e:
                assert str(e).startswith("illegal curve step") != legal, str(e)
            else:
                assert legal

    def test_step_pairs_span_unit_triangles(self):
        # validate mode relies on this instead of scanning for lattice points:
        # two consecutive steps with cross product in {-1, 0, 1} span a
        # lattice triangle of area 0 or 1/2, which by Pick's theorem holds
        # no lattice point but its corners, so a vertex move that keeps
        # every step in _STEPS sweeps no lattice point
        for ux, uy in wedges._STEPS:
            for vx, vy in wedges._STEPS:
                assert ux * vy - uy * vx in (-1, 0, 1)


class TestDoubleWedge:
    def test_axes_example(self):
        # apex at the origin, boundaries y = x and y = -x; the pair of
        # left/right sectors contains (2, 0), the top/bottom pair (0, 2)
        w = wedge_from_functionals(
            (F(0), F(0)), (F(-1), F(1), F(0)), (F(1), F(1), F(0)), contains_disagree=True
        )
        assert wedge_contains(w, pt(2, 0, R))
        assert wedge_contains(w, pt(-2, 0, R))
        assert not wedge_contains(w, pt(0, 2, R))
        assert not wedge_contains(w, pt(0, -2, R))
        flipped = DoubleWedge(
            w.apex,
            w.line1,
            w.line2,
            SECTOR_AGREE if w.sector == SECTOR_DISAGREE else SECTOR_DISAGREE,
        )
        assert wedge_contains(flipped, pt(0, 2, R))
        assert not wedge_contains(flipped, pt(2, 0, R))

    def test_boundary_raises(self):
        w = wedge_from_functionals(
            (F(0), F(0)), (F(-1), F(1), F(0)), (F(1), F(1), F(0)), contains_disagree=True
        )
        with pytest.raises(OnBoundary):
            wedge_contains(w, pt(3, 3, R))
        with pytest.raises(OnBoundary):
            wedge_contains(w, pt(0, 0, R))

    def test_functional_flip_compensation(self):
        # same geometry written with opposite functional signs must agree
        a = wedge_from_functionals(
            (F(0), F(0)), (F(-1), F(1), F(0)), (F(1), F(1), F(0)), contains_disagree=True
        )
        b = wedge_from_functionals(
            (F(0), F(0)), (F(1), F(-1), F(0)), (F(1), F(1), F(0)), contains_disagree=False
        )
        for q in [pt(2, 0, R), pt(0, 2, R), pt(-1, 3, R), pt(5, 1, R)]:
            assert wedge_contains(a, q) == wedge_contains(b, q)

    def test_vertical_straddling_wedge_has_no_dual_segment(self):
        # sector pair containing the vertical direction: dual to the
        # complement of the segment between the dual points, so refused
        w = wedge_from_functionals(
            (F(0), F(0)), (1, 1, 0), (-1, 1, 0), contains_disagree=False
        )
        with pytest.raises(PreconditionViolated):
            wedge_dual_segment(w)
        flipped = wedge_from_functionals(
            (F(0), F(0)), (1, 1, 0), (-1, 1, 0), contains_disagree=True
        )
        seg = wedge_dual_segment(flipped)
        assert seg.p != seg.q

    def test_parallel_boundaries_rejected(self):
        with pytest.raises(PreconditionViolated):
            DoubleWedge(
                (F(0), F(0)),
                line_slope_intercept(1, 0),
                line_slope_intercept(1, 5),
                SECTOR_AGREE,
            )


class TestSweep:
    @pytest.mark.parametrize("n,seed", [(1, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6)])
    def test_balanced_counts(self, n, seed):
        pts = rand_balanced_points(n, seed)
        w = sweep_balanced_wedge(pts, validate=(n <= 2))
        counts = wedge_color_counts(w, pts)
        assert counts == {R: n, G: n, B: n}

    def test_deterministic(self):
        pts = rand_balanced_points(2, 77)
        assert sweep_balanced_wedge(pts) == sweep_balanced_wedge(pts)

    def test_validates_input(self):
        pts = rand_balanced_points(1, 8)
        with pytest.raises(PreconditionViolated):
            sweep_balanced_wedge(pts[:5])
        recolor = R if pts[5].color is not R else G
        bad = pts[:5] + [pt(pts[5].x, pts[5].y, recolor)]  # unbalances the counts
        with pytest.raises(PreconditionViolated):
            sweep_balanced_wedge(bad)

    def test_shared_x_rejected(self):
        pts = rand_balanced_points(1, 9)
        bad = pts[:5] + [pt(pts[0].x, pts[5].y + 1, pts[5].color)]
        with pytest.raises(PreconditionViolated):
            sweep_balanced_wedge(bad)

    def test_same_y_values_are_fine(self):
        # distinct y is not required for the sweep
        pts = [
            pt(27, 4, R), pt(12, 4, R),
            pt(24, 3, G), pt(13, 3, G),
            pt(1, 6, B), pt(8, 6, B),
        ]
        w = sweep_balanced_wedge(pts, validate=True)
        assert wedge_color_counts(w, pts) == {R: 1, G: 1, B: 1}

    def test_zero_vertex_inside_tied_pair_lines(self, monkeypatch):
        # on this convex set the sweep stops between two pair lines that
        # cross x = min x - 1 at one point, so the apex steps left off that
        # point; the dual halving segment meets the same tie
        pts = generate(GenSpec(GenKind.Points3CConvex, 6, 8))
        steps = []
        off_tie = wedges._apex_off_tie

        def counting_off_tie(*args):
            steps.append(args)
            return off_tie(*args)

        monkeypatch.setattr(wedges, "_apex_off_tie", counting_off_tie)
        w = sweep_balanced_wedge(pts, validate=True)
        assert len(steps) == 1
        assert wedge_color_counts(w, pts) == {R: 6, G: 6, B: 6}
        assert w.apex[0] < min(p.x for p in pts) - 1

        duals = [dual_point_to_line(p) for p in pts]
        seg = halving_segment(duals)
        assert len(steps) == 2
        counts = {c: 0 for c in RGB}
        for c, k in count_segment_crossings(seg, duals).items():
            counts[c] += k
        assert counts == {R: 6, G: 6, B: 6}

    @pytest.mark.usefixtures("expected_internal_errors")
    def test_validate_catches_drift(self, monkeypatch):
        # validate mode rebuilds the curve after every event and compares it
        # with the incrementally updated one: a rebuild that disagrees (here
        # negated, which keeps symmetry and legal steps) must be reported
        pts = next(
            p for p in (rand_balanced_points(2, seed) for seed in range(40))
            if wedge_curve([q.color for q in sorted(p, key=lambda q: q.x)]).any(axis=1).all()
        )
        real = wedges._window_curve
        calls = []

        def negated_after_first(steps):
            calls.append(1)
            return real(steps) if len(calls) == 1 else -real(steps)

        monkeypatch.setattr(wedges, "_window_curve", negated_after_first)
        with pytest.raises(InternalError, match="incremental counts drifted"):
            sweep_balanced_wedge(pts, validate=True)
        assert len(calls) == 2

    def test_96_convex_points(self):
        pts = generate(GenSpec(GenKind.Points3CConvex, 16, 1))
        w = sweep_balanced_wedge(pts)
        assert wedge_color_counts(w, pts) == {R: 16, G: 16, B: 16}


def int_wedge_counts(w, pts):
    """The wedge solvers' self-check: `_int_side_counts` on the boundary
    lines' and the points' integer triples.  It counts the disagree sectors;
    an agree-sector wedge holds the rest of each color."""
    colors = [p.color for p in pts]
    counts = wedges._int_side_counts(int_line(w.line1), int_line(w.line2), int_points(pts), colors)
    if w.sector == SECTOR_AGREE:
        counts = {c: colors.count(c) - counts[c] for c in counts}
    return counts


def int_segment_counts(seg, lines):
    """`halving_segment`'s self-check: `_int_side_counts` on the ends'
    integer triples and the lines' integer coefficients."""
    return wedges._int_side_counts(
        int_point(*seg.p), int_point(*seg.q), [int_line(l) for l in lines],
        [l.color for l in lines],
    )


class TestIntWedgeCounts:
    """The sweep's self-check counts on integer triples; it must agree with
    wedge_color_counts, boundary errors included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_wedge_color_counts(self, seed):
        rng = random.Random(seed)
        pts = rand_balanced_points(2, seed)
        for _ in range(40):
            apex = (F(rng.randint(-200, 200), rng.randint(1, 7)), F(rng.randint(-200, 200), 3))
            f1, f2 = [
                (F(a), F(b), -F(a) * apex[0] - F(b) * apex[1])
                for a, b in ((rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            ]
            if f1[0] * f2[1] == f2[0] * f1[1]:
                continue
            w = wedge_from_functionals(apex, f1, f2, rng.random() < 0.5)
            try:
                want = wedge_color_counts(w, pts)
            except OnBoundary:
                with pytest.raises(OnBoundary):
                    int_wedge_counts(w, pts)
                continue
            assert int_wedge_counts(w, pts) == want

    def test_point_on_a_boundary_line(self):
        pts = rand_balanced_points(1, 3)
        p, q = pts[0], pts[1]
        w = wedge_from_functionals(
            (p.x, p.y), (q.y - p.y, p.x - q.x, q.x * p.y - p.x * q.y), (1, 1, -p.x - p.y), True
        )
        with pytest.raises(OnBoundary):
            int_wedge_counts(w, pts)

    @pytest.mark.usefixtures("expected_internal_errors")
    def test_point_on_a_boundary_is_internal(self, monkeypatch):
        # the sweep's answer is checked before it is returned: a boundary
        # line through an input point is a library fault, not bad input
        pts = rand_balanced_points(1, 3)
        p, q = pts[0], pts[1]
        through = (int_line(line(q.y - p.y, p.x - q.x, q.x * p.y - p.x * q.y, Color.K)),
                   int_line(line(1, 1, -p.x - p.y, Color.K)))
        monkeypatch.setattr(wedges, "_sweep", lambda *args: through)
        with pytest.raises(InternalError, match="an input point on a wedge boundary line") as e:
            sweep_balanced_wedge(pts)
        assert isinstance(e.value.__cause__, OnBoundary)


class TestIntSegmentCounts:
    """`halving_segment` counts its answer on integer coefficients and end
    triples; that count must agree with count_segment_crossings, and an end
    on a line, which count_segment_crossings refuses, is OnBoundary."""

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_count_segment_crossings(self, seed, mapped):
        rng = random.Random(seed)
        pts = generate(GenSpec(GenKind.Points3CConvex, 2, seed + 1))
        if mapped:  # a rational affine map with large denominators
            sx, sy, ox, oy = (
                F(rng.randint(1, 10**7), rng.randint(10**5, 10**6)) for _ in range(4)
            )
            pts = [pt(sx * p.x + ox, sy * p.y + oy, p.color) for p in pts]
        lines = [dual_point_to_line(p) for p in pts]
        segs = [halving_segment(lines)]
        for _ in range(60):
            p = tuple(F(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(2))
            if rng.random() < 0.2:  # an end on a line
                l = rng.choice(lines)
                p = (p[0], -(l.a * p[0] + l.c) / l.b)
            q = (F(rng.randint(-60, 60), rng.randint(1, 4)), F(rng.randint(-60, 60)))
            if p != q:
                segs.append(Segment(p, q))
        for seg in segs:
            try:
                want = count_segment_crossings(seg, lines)
            except EndpointOnLine:
                with pytest.raises(OnBoundary):
                    int_segment_counts(seg, lines)
                continue
            assert int_segment_counts(seg, lines) == want

    @pytest.mark.usefixtures("expected_internal_errors")
    def test_endpoint_on_a_line_is_internal(self, monkeypatch):
        pts = generate(GenSpec(GenKind.Points3CConvex, 1, 1))
        lines = [dual_point_to_line(p) for p in pts]
        l = lines[0]
        on_line = Segment((F(0), -l.c / l.b), (F(1), F(10**6)))

        def boundary(end):
            # the wedge boundary line (A, B, C), B > 0, whose dual point is `end`
            x, y, w = int_point(*end)
            return (-x, w, y)

        # no line is vertical, so the segment's ends are the dual points of
        # the sweep's boundary lines as they are
        monkeypatch.setattr(wedges, "_sweep", lambda *args: tuple(map(boundary, (on_line.p, on_line.q))))
        with pytest.raises(InternalError, match="segment endpoint on an input line"):
            halving_segment(lines)


THREE_SHARED_X = [pt(-1, -2, R), pt(-1, 71771, B), pt(2, 8317, G)]

# a narrow x range, some of it rational, for a wide y range
_X_POOL = [F(x) for x in range(-2, 3)] + [F(x, 2) for x in (-3, -1, 1, 3)] + [F(-2, 3), F(2, 3)]


@st.composite
def shared_x_points(draw):
    """3-16 points of every color, no three collinear, at least two of them
    on one vertical line."""
    xs = draw(st.lists(st.sampled_from(_X_POOL), min_size=2, max_size=8, unique=True))
    coords = []
    for i, x in enumerate(xs):
        k = 2 if i == 0 else draw(st.integers(1, 2))
        ys = draw(st.lists(st.integers(-10**6, 10**6), min_size=k, max_size=k, unique=True))
        coords += [(x, y) for y in ys]
    m = len(coords)
    rest = draw(st.lists(st.sampled_from(RGB), min_size=m - 3, max_size=m - 3))
    colors = draw(st.permutations([R, G, B, *rest]))
    pts = [pt(x, y, c) for (x, y), c in zip(coords, colors)]
    try:
        check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)
    except PreconditionViolated:
        assume(False)
    return pts


def assert_111_wedge(w, pts):
    """One point per color inside, one dual line per color across the dual
    segment, and a type the exhaustive oracle lists."""
    assert wedge_color_counts(w, pts) == {R: 1, G: 1, B: 1}
    seg = wedge_dual_segment(w)
    crossings = count_segment_crossings(seg, [dual_point_to_line(p) for p in pts])
    assert {c: crossings.get(c, 0) for c in RGB} == {R: 1, G: 1, B: 1}
    assert len(pts) <= ORACLE_MAX_POINTS["wedge"]
    assert wedge_point_indices(w, pts) in brute_oracle_wedges(pts, (1, 1, 1))


class TestFind111Wedge:
    @pytest.mark.parametrize("seed", range(10, 18))
    def test_one_of_each(self, seed):
        rng = random.Random(seed)
        m = rng.randint(3, 8)
        colors = [R, G, B] + [RGB[rng.randrange(3)] for _ in range(m - 3)]
        for attempt in range(100):
            pts = [
                pt(x, rng.randint(-40, 40), c)
                for x, c in zip(random.Random(seed * 31 + attempt).sample(range(-40, 41), m), colors)
            ]
            try:
                w = find_111_wedge(pts)
                break
            except PreconditionViolated:
                continue
        counts = wedge_color_counts(w, pts)
        assert counts == {R: 1, G: 1, B: 1}

    def test_duplicate_x_one_complete_face(self, monkeypatch):
        # shared x is handled by one shear: one complete cell, no arrangement
        calls = {"faces": 0, "arrangements": 0}
        face, arrangement = wedges._complete_face, cells.build_arrangement

        def counting_face(colors, coeffs):
            calls["faces"] += 1
            return face(colors, coeffs)

        def counting_arrangement(lines):
            calls["arrangements"] += 1
            return arrangement(lines)

        monkeypatch.setattr(wedges, "_complete_face", counting_face)
        monkeypatch.setattr(cells, "build_arrangement", counting_arrangement)
        for pts in (
            [pt(2, 1, R), pt(2, 5, G), pt(0, 3, B), pt(1, -7, R)],
            THREE_SHARED_X,
        ):
            calls.update(faces=0, arrangements=0)
            w = find_111_wedge(pts)
            assert wedge_color_counts(w, pts) == {R: 1, G: 1, B: 1}
            assert calls == {"faces": 1, "arrangements": 0}

    def test_three_points_with_a_shared_x(self, tmp_path, capsys):
        # the rotation search this solver used to run raised InternalError here
        pts = THREE_SHARED_X
        w = find_111_wedge(pts)
        assert_111_wedge(w, pts)
        inst = tmp_path / "three.json"
        inst.write_text(json.dumps({"instance": {"points": [
            {"color": p.color.value, "x": str(p.x), "y": str(p.y)} for p in pts
        ]}}))
        assert cli.run(["solve", "wedge111", "--in", str(inst), "--verify"]) == 0
        v = json.loads(capsys.readouterr().out)["verification"]
        assert v["member"] is True and v["counts"] == [1, 1, 1]
        assert v["oracle_answers"] == [[0, 1, 2]]

    @settings(max_examples=200, deadline=None)
    @given(shared_x_points())
    def test_shared_x_property(self, pts):
        assert_111_wedge(find_111_wedge(pts), pts)

    def test_duplicate_x_wedge_still_dualizes_to_a_segment(self):
        # the shear must not leak into the answer: the wedge has to avoid the
        # original vertical direction or no dual segment exists
        pts = [pt(-1, 21, R), pt(19, 15, G), pt(-1, 5, B)]
        assert_111_wedge(find_111_wedge(pts), pts)

    def test_missing_color(self):
        with pytest.raises(MissingColor):
            find_111_wedge([pt(0, 0, R), pt(1, 3, G), pt(2, 1, R)])


_SLOPES = sorted({F(a, b) for a in range(-20, 21) for b in range(1, 10)})


@st.composite
def vertical_line_arrangements(draw):
    """6n simple lines, n in {1, 2}, 2n per color, the first one vertical;
    rational slopes make some |b| of the normalized lines large."""
    n = draw(st.integers(1, 2))
    slope = st.sampled_from(_SLOPES)
    slopes = draw(st.lists(slope, min_size=6 * n - 1, max_size=6 * n - 1, unique=True))
    colors = draw(st.permutations([R, G, B] * (2 * n)))
    ls = [line(1, 0, -draw(st.integers(-30, 30)), colors[0])]
    ls += [
        line_slope_intercept(s, draw(st.integers(-50, 50)), c)
        for s, c in zip(slopes, colors[1:])
    ]
    try:
        cells.require_simple(ls)
    except NotSimple:
        assume(False)
    return ls


class TestHalvingSegment:
    def seg_counts(self, seg, lines):
        counts = {c: 0 for c in RGB}
        for l in lines:
            s1, s2 = l.side(seg.p), l.side(seg.q)
            assert s1 != 0 and s2 != 0
            if s1 != s2:
                counts[l.color] += 1
        return counts

    def rand_lines(self, n, seed):
        m = 6 * n
        colors = [R] * (2 * n) + [G] * (2 * n) + [B] * (2 * n)
        for attempt in range(100):
            rng = random.Random(seed * 613 + attempt)
            slopes = rng.sample(range(-4 * m, 4 * m + 1), m)
            rng.shuffle(colors)
            ls = [
                line_slope_intercept(s, F(rng.randint(-30, 30)), c)
                for s, c in zip(slopes, colors)
            ]
            try:
                from tricut.cells import validate_simple

                validate_simple(ls)
                return ls
            except NotSimple:
                continue
        raise AssertionError("no simple instance found")

    @pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (3, 3)])
    def test_crosses_n_per_color(self, n, seed):
        ls = self.rand_lines(n, seed)
        seg = halving_segment(ls)
        assert self.seg_counts(seg, ls) == {R: n, G: n, B: n}

    def test_vertical_lines_handled(self):
        ls = [
            line(1, 0, 0, R),                 # x = 0
            line_slope_intercept(1, 5, R),
            line_slope_intercept(2, 1, G),
            line_slope_intercept(3, -7, G),
            line_slope_intercept(-1, 2, B),
            line_slope_intercept(-2, -3, B),
        ]
        from tricut.cells import validate_simple

        validate_simple(ls)
        seg = halving_segment(ls)
        assert self.seg_counts(seg, ls) == {R: 1, G: 1, B: 1}

    @settings(max_examples=150, deadline=None)
    @given(vertical_line_arrangements(), st.booleans())
    def test_one_vertical_line_property(self, ls, vertical):
        n = len(ls) // 6
        if not vertical:  # no shear: the sweep's own dual segment
            ls = ls[1:] + [line_slope_intercept(F(10**4 + 1, 7), 0, ls[0].color)]
            try:
                cells.require_simple(ls)
            except NotSimple:
                assume(False)
        seg = halving_segment(ls)
        crossings = count_segment_crossings(seg, ls)
        assert {c: crossings.get(c, 0) for c in RGB} == {R: n, G: n, B: n}
        if not vertical:
            duals = [dual_line_to_point(l) for l in ls]
            assert seg == wedge_dual_segment(sweep_balanced_wedge(duals))

    def test_not_simple_rejected(self):
        ls = [
            line_slope_intercept(1, 0, R), line_slope_intercept(1, 1, R),
            line_slope_intercept(2, 0, G), line_slope_intercept(3, 1, G),
            line_slope_intercept(4, 0, B), line_slope_intercept(5, 1, B),
        ]
        with pytest.raises(NotSimple):
            halving_segment(ls)


class TestBruteOracleWedges:
    def test_sweep_answer_is_a_wedge_type(self):
        for n, seed in ((1, 4), (2, 9), (3, 14)):
            pts = rand_balanced_points(n, seed)
            w = sweep_balanced_wedge(pts)
            oracle = brute_oracle_wedges(pts, (n, n, n))
            assert oracle
            assert wedge_point_indices(w, pts) in oracle

    def test_111_answer_is_a_wedge_type(self):
        pts = rand_balanced_points(1, 77)
        w = find_111_wedge(pts)
        assert wedge_point_indices(w, pts) in brute_oracle_wedges(pts, (1, 1, 1))

    def test_empty_window_always_present(self):
        pts = rand_balanced_points(1, 5)
        assert () in brute_oracle_wedges(pts, (0, 0, 0))

    def test_types_have_target_counts(self):
        pts = rand_balanced_points(1, 6)
        for t in brute_oracle_wedges(pts, (1, 1, 1)):
            got = {c: 0 for c in RGB}
            for i in t:
                got[pts[i].color] += 1
            assert got == {R: 1, G: 1, B: 1}

    def test_sampled_types_are_realizable(self):
        # spot-check: each reported 3n-point type of a small instance is
        # actually separated from its complement by some double wedge; here
        # via the solver's own answer plus containment of singleton targets
        pts = rand_balanced_points(1, 8)
        types = brute_oracle_wedges(pts, (1, 0, 0))
        reds = [i for i, p in enumerate(pts) if p.color is R]
        assert all(len(t) == 1 and pts[t[0]].color is R for t in types)
        assert {t[0] for t in types} == set(reds)

    def test_deterministic(self):
        pts = rand_balanced_points(1, 9)
        assert brute_oracle_wedges(pts, (1, 1, 1)) == brute_oracle_wedges(pts, (1, 1, 1))

    def test_collinear_rejected(self):
        bad = [pt(0, 0, "R"), pt(1, 1, "G"), pt(2, 2, "B"),
               pt(3, 5, "R"), pt(4, 9, "G"), pt(5, 14, "B")]
        with pytest.raises(PreconditionViolated):
            brute_oracle_wedges(bad, (1, 1, 1))

    def test_size_cap(self):
        pts = rand_balanced_points(4, 10)
        with pytest.raises(PreconditionViolated):
            brute_oracle_wedges(pts, (4, 4, 4))


# six simple lines, one vertical; the halving segment's crossing set is (1, 3, 5)
VERTICAL_SIX = [
    line(1, 0, 0, R), line(1, -1, 3, R), line(1, 2, -5, G),
    line(1, -3, 7, G), line(1, 5, 11, B), line(0, 1, -13, B),
]


def crossing_set(seg, lines):
    return tuple(i for i, l in enumerate(lines) if l.side(seg.p) != l.side(seg.q))


class TestBruteOracleSegments:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wedge_oracle_on_the_duals_without_vertical_lines(self, n):
        for seed in (1, 2, 3):
            pts = generate(GenSpec(GenKind.Points3CConvex, n, seed))
            lines = [dual_point_to_line(p) for p in pts]
            duals = [dual_line_to_point(l) for l in lines]
            for target in ((n, n, n), (0, 0, 0), (1, 0, 0), (n, 0, 2 * n)):
                assert brute_oracle_segments(lines, target) == brute_oracle_wedges(duals, target)

    def test_vertical_line(self):
        seg = halving_segment(VERTICAL_SIX)
        assert crossing_set(seg, VERTICAL_SIX) == (1, 3, 5)
        assert len(brute_oracle_segments(VERTICAL_SIX, (1, 1, 1))) == 8
        # any segment's crossing set is a type of its own counts
        rng = random.Random(5)
        for _ in range(200):
            p, q = ((F(rng.randint(-300, 300), 7), F(rng.randint(-300, 300), 5)) for _ in range(2))
            if p == q or any(l.side(p) * l.side(q) == 0 for l in VERTICAL_SIX):
                continue
            seg = Segment(p, q)
            key = crossing_set(seg, VERTICAL_SIX)
            target = tuple(sum(VERTICAL_SIX[i].color is c for i in key) for c in RGB)
            assert key in brute_oracle_segments(VERTICAL_SIX, target)

    def test_size_cap(self):
        lines = [dual_point_to_line(p) for p in rand_balanced_points(4, 10)]
        with pytest.raises(PreconditionViolated):
            brute_oracle_segments(lines, (4, 4, 4))


# small integers, and big denominators with unrelated scales
_COEF = st.integers(-3, 3).map(F) | st.builds(F, st.integers(-10**7, 10**7), st.integers(10**5, 10**6))


class TestShearedDualsMatchFractions:
    """The integer shear and duals of `halving_segment` against the Fraction
    pipeline they replace (`reference_sheared_duals`)."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_COEF, _COEF, _COEF, st.sampled_from(RGB)), min_size=1, max_size=8),
        st.lists(st.tuples(st.sampled_from(["vertical", "horizontal"]), _COEF), max_size=3),
    )
    def test_int_points_of_the_fraction_duals(self, rows, extra):
        lines = [line(a, b, c, col) for a, b, c, col in rows if a or b]
        lines += [line(1, 0, c, R) if kind == "vertical" else line(0, 1, c, G) for kind, c in extra]
        assume(lines)
        lam, duals = wedges._sheared_duals([int_line(l) for l in lines])
        want_lam, want = reference_sheared_duals(lines)
        assert lam == want_lam
        assert duals == int_points(want)

    def test_vertical_six(self):
        lam, duals = wedges._sheared_duals([int_line(l) for l in VERTICAL_SIX])
        assert lam == 6  # max |b| = 5 (line 4), plus 1
        assert (lam, duals) == (6, int_points(reference_sheared_duals(VERTICAL_SIX)[1]))


class TestBruteOracleMatchesTable:
    """The bitmask oracle returns the table reference's list, order included."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_balanced_points(self, n, seed):
        pts = rand_balanced_points(n, 400 + seed)
        for target in ((n, n, n), (0, 0, 0), (1, 0, 0), (2 * n, 2 * n, 2 * n), (n, 0, 2 * n)):
            assert brute_oracle_wedges(pts, target) == table_oracle_wedges(pts, target)

    @pytest.mark.parametrize("m", range(3, 16))
    def test_points3c(self, m):
        for seed in (1, 2, 3):
            pts = generate(GenSpec(GenKind.Points3C, m, seed))
            assert brute_oracle_wedges(pts, (1, 1, 1)) == table_oracle_wedges(pts, (1, 1, 1))

    def test_shared_x(self):
        coords = [(1, -5), (9, -5), (0, 9), (-6, -9), (5, -6), (-7, -2),
                  (1, 0), (9, -3), (0, -2), (-3, 8), (-2, 7), (-8, 4)]
        pts = [pt(x, y, "RGB"[i % 3]) for i, (x, y) in enumerate(coords)]
        assert len({x for x, _ in coords}) < len(coords)
        for target in ((1, 1, 1), (2, 2, 2), (3, 1, 0)):
            got = brute_oracle_wedges(pts, target)
            assert got and got == table_oracle_wedges(pts, target)
