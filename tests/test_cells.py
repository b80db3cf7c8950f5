import functools
import hashlib
import itertools
import random
import re
import unittest.mock
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tricut import cells, cli, core, svg, wedges
from tricut.cells import (
    Arrangement,
    ColoredTriangulation,
    Face,
    ParityClass,
    build_arrangement,
    cycle_parity,
    extract_111_segment,
    find_complete_face,
    gen_shielded_counterexample,
    good_type_counts,
    is_complete,
    parity_audit,
    require_simple,
    validate_simple,
)
from tricut.core import (
    Color,
    ColoredLine,
    GeneralPosition,
    RGB,
    Segment,
    check_general_position,
    int_line,
    int_point,
    int_points,
    intersect,
    line,
    line_slope_intercept,
    orient,
    point_joins,
    pt,
    sign,
)
from tricut.errors import (
    InternalError,
    MissingColor,
    NotPseudomanifold,
    NotSimple,
    PreconditionViolated,
    UnboundedFace,
)
from tricut.generators import GenKind, GenSpec, generate
from tricut.oracles import scan_all_complete_faces

from complete_face_reference import reference_complete_face
import segment_111_reference
from segment_111_reference import reference_extract_111_segment


def rand_simple_lines(n, seed, colors=None):
    """n lines with distinct integer slopes, retrying until simple."""
    for attempt in range(50):
        rng = random.Random(seed * 1000 + attempt)
        slopes = rng.sample(range(-4 * n - 2, 4 * n + 3), n)
        lines = []
        for i, m in enumerate(slopes):
            c = (colors[i] if colors else RGB[i % 3])
            lines.append(line_slope_intercept(m, F(rng.randint(-40, 40)), c))
        try:
            validate_simple(lines)
            return lines
        except NotSimple:
            continue
    raise AssertionError("could not build a simple arrangement")


def scan_complete(arr: Arrangement):
    return [f for f in arr.faces if f.bounded and is_complete(f)]


def crossing_counts(seg, lines):
    counts = {c: 0 for c in RGB}
    for l in lines:
        s1, s2 = l.side(seg.p), l.side(seg.q)
        assert s1 != 0 and s2 != 0, "segment endpoint on a line"
        if s1 != s2:
            counts[l.color] += 1
    return counts


TRIANGLE = (
    line(0, 1, 0, Color.R),    # y = 0
    line(1, 0, 0, Color.G),    # x = 0
    line(1, 1, -4, Color.B),   # x + y = 4
)


class TestValidateSimple:
    def test_parallel_pair(self):
        with pytest.raises(NotSimple) as e:
            validate_simple([line_slope_intercept(2, 0), line_slope_intercept(2, 5)])
        assert e.value.witness == (0, 1)

    def test_equal_lines(self):
        with pytest.raises(NotSimple):
            validate_simple([line(1, 2, 3), line(2, 4, 6)])

    def test_concurrent_triple(self):
        ls = [
            line_slope_intercept(0, 0),
            line_slope_intercept(1, 0),
            line_slope_intercept(-1, 0),
        ]
        with pytest.raises(NotSimple) as e:
            validate_simple(ls)
        assert e.value.witness == (0, 1, 2)

    def test_ok(self):
        assert len(validate_simple(TRIANGLE)) == 3


class TestBuildArrangement:
    def test_empty_and_single(self):
        assert len(build_arrangement([]).faces) == 1
        arr = build_arrangement([line(1, 0, -2, Color.R)])
        assert len(arr.faces) == 2
        assert all(not f.bounded for f in arr.faces)

    def test_triangle_faces(self):
        arr = build_arrangement(TRIANGLE)
        assert len(arr.faces) == 7
        bounded = [f for f in arr.faces if f.bounded]
        assert len(bounded) == 1
        assert sorted(bounded[0].vertices) == [(F(0), F(0)), (F(0), F(4)), (F(4), F(0))]

    @pytest.mark.parametrize("n,seed", [(4, 1), (6, 2), (9, 3), (12, 4)])
    def test_face_count_formula(self, n, seed):
        lines = rand_simple_lines(n, seed)
        arr = build_arrangement(lines)
        assert len(arr.faces) == 1 + n + n * (n - 1) // 2
        assert len(arr.vertices) >= n * (n - 1) // 2  # plus box nodes
        bounded = [f for f in arr.faces if f.bounded]
        assert len(bounded) == (n - 1) * (n - 2) // 2

    def test_bounded_faces_are_ccw_and_on_their_lines(self):
        lines = rand_simple_lines(7, 11)
        arr = build_arrangement(lines)
        for f in arr.faces:
            if not f.bounded:
                continue
            m = len(f.vertices)
            area2 = sum(
                f.vertices[i][0] * f.vertices[(i + 1) % m][1]
                - f.vertices[(i + 1) % m][0] * f.vertices[i][1]
                for i in range(m)
            )
            assert area2 > 0
            for i in range(m):
                l = lines[f.boundary_lines[i]]
                assert l.eval_at(f.vertices[i]) == 0
                assert l.eval_at(f.vertices[(i + 1) % m]) == 0


# -- build_arrangement against a reference copy ---------------------------------


def _ref_dir_cmp(d1, d2):
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else 1


def ref_build_arrangement(lines):
    """The box-side construction on Fractions: every box hit from `intersect`
    with four side lines, every vertex ring sorted on coordinate differences.
    Kept as the reference that `build_arrangement` must reproduce exactly."""
    lines = tuple(lines)
    n = len(lines)
    on_line = [[] for _ in range(n)]
    anchors = []
    for (x, y, w), (i, j) in validate_simple(lines).items():
        p = (F(x, w), F(y, w))
        anchors.append(p)
        on_line[i].append(p)
        on_line[j].append(p)
    if not anchors:
        for l in lines:
            if l.is_vertical:
                anchors.append((-l.c / l.a, F(0)))
            else:
                anchors.append((F(0), l.eval_at((F(0), F(0))) / -l.b))
    if not anchors:
        anchors = [(F(0), F(0))]
    xmin = min(a[0] for a in anchors) - 1
    xmax = max(a[0] for a in anchors) + 1
    ymin = min(a[1] for a in anchors) - 1
    ymax = max(a[1] for a in anchors) + 1
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    sides = [line(0, 1, -ymin), line(1, 0, -xmax), line(0, 1, -ymax), line(1, 0, -xmin)]
    in_side_range = [
        lambda p: xmin <= p[0] <= xmax and p[1] == ymin,
        lambda p: ymin <= p[1] <= ymax and p[0] == xmax,
        lambda p: xmin <= p[0] <= xmax and p[1] == ymax,
        lambda p: ymin <= p[1] <= ymax and p[0] == xmin,
    ]
    node_id, coords = {}, []

    def node(p):
        if p not in node_id:
            node_id[p] = len(coords)
            coords.append(p)
        return node_id[p]

    for c in corners:
        node(c)
    border_hits = [[] for _ in range(4)]
    line_endpoints = []
    for i, l in enumerate(lines):
        hits = []
        for s in range(4):
            p = intersect(l, sides[s])
            if p is not None and in_side_range[s](p):
                if p not in hits:
                    hits.append(p)
                border_hits[s].append(p)
        assert len(hits) == 2
        line_endpoints.append(hits)
    edges = []
    for i, l in enumerate(lines):
        pts = sorted(line_endpoints[i] + on_line[i], key=lambda p: l.b * p[0] - l.a * p[1])
        edges += [(node(a), node(b), i) for a, b in zip(pts, pts[1:])]
    for s in range(4):
        pts = sorted(set([corners[s], corners[(s + 1) % 4]] + border_hits[s]))
        edges += [(node(a), node(b), -1) for a, b in zip(pts, pts[1:])]
    out = {u: [] for u in range(len(coords))}
    he_from, he_to, he_line = [], [], []
    for u, v, li in edges:
        he_from += [u, v]
        he_to += [v, u]
        he_line += [li, li]
        out[u].append(len(he_from) - 2)
        out[v].append(len(he_from) - 1)
    key = functools.cmp_to_key(_ref_dir_cmp)
    pos = {}
    for u in out:
        out[u].sort(key=lambda h: key((coords[he_to[h]][0] - coords[he_from[h]][0],
                                       coords[he_to[h]][1] - coords[he_from[h]][1])))
        for idx, h in enumerate(out[u]):
            pos[h] = idx
    faces, visited = [], [False] * len(he_from)
    for h0 in range(len(he_from)):
        cycle, h = [], h0
        while not visited[h]:
            visited[h] = True
            cycle.append(h)
            ring = out[he_to[h]]
            h = ring[(pos[h ^ 1] - 1) % len(ring)]
        if not cycle:
            continue
        vs = [coords[he_from[x]] for x in cycle]
        m = len(vs)
        if sum(vs[i][0] * vs[(i + 1) % m][1] - vs[(i + 1) % m][0] * vs[i][1]
               for i in range(m)) < 0:
            continue
        lids = tuple(he_line[x] for x in cycle)
        faces.append(Face(
            bounded=all(li >= 0 for li in lids),
            vertices=tuple(vs),
            boundary_lines=lids,
            boundary_colors=tuple(lines[li].color if li >= 0 else Color.K for li in lids),
        ))
    return tuple(coords), tuple(faces), (xmin, ymin, xmax, ymax)


def check_matches_reference(lines):
    try:
        want = ref_build_arrangement(lines)
    except NotSimple as e:
        with pytest.raises(NotSimple) as err:
            build_arrangement(lines)
        assert err.value.witness == e.witness
        return
    arr = build_arrangement(lines)
    assert (arr.vertices, arr.faces, arr.box) == want


grid = st.integers(-3, 3).map(F)
big = st.builds(F, st.integers(-10**6, 10**6), st.integers(10**5, 10**6))


@st.composite
def grid_lines(draw, c=grid):
    a, b = draw(c), draw(c)
    if a == 0 and b == 0:
        a = F(1)
    return line(a, b, draw(c), draw(st.sampled_from("RGBK")))


@st.composite
def axis_lines(draw, c=grid):
    # vertical and horizontal lines among some of any slope
    axis = [line(1, 0, x) for x in draw(st.lists(c, max_size=3, unique=True))]
    axis += [line(0, 1, y) for y in draw(st.lists(c, max_size=3, unique=True))]
    return axis + draw(st.lists(grid_lines(c), max_size=3))


arrangements = st.one_of(
    st.lists(grid_lines(), max_size=7),
    axis_lines(),
    axis_lines(big),
    st.lists(grid_lines(big), max_size=7),
)


class TestBuildArrangementMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(arrangements)
    def test_same_vertices_faces_and_box(self, lines):
        check_matches_reference(lines)

    @pytest.mark.parametrize("n,seed", [(3, 1000), (7, 1004), (12, 1009)])
    def test_random_simple_lines(self, n, seed):
        check_matches_reference(rand_simple_lines(n, seed))

    def test_shielded_counterexample(self):
        check_matches_reference(gen_shielded_counterexample())

    def test_line_through_a_box_corner(self):
        # crossings (0, 0), (5, 5), (5, -5): the box is [-1, 6] x [-6, 6],
        # and x + y = 0 leaves it through the corner (6, -6)
        lines = [line(1, -1, 0, Color.R), line(1, 1, 0, Color.G), line(1, 0, -5, Color.B)]
        check_matches_reference(lines)
        arr = build_arrangement(lines)
        assert arr.box == (-1, -6, 6, 6)
        assert arr.vertices[1] == (6, -6)
        assert len(arr.faces) == 7
        corner_faces = [f for f in arr.faces if (6, -6) in f.vertices]
        assert len(corner_faces) == 2 and not any(f.bounded for f in corner_faces)

    def test_points_closer_than_the_sort_key(self):
        # on y = 0 two crossings 10**-30 apart share their fixed-point key,
        # so that line's points are sorted again on Fractions
        x0 = F(1, 3)
        lines = [line(0, 1, 0, Color.R), line(1, 0, -x0, Color.G),
                 line(1, -1, -(x0 + F(1, 10**30)), Color.B), line(1, 2, 5, Color.R)]
        keys = [(F(x) * 2**cells._KEY_BITS).__floor__() for x in (x0, x0 + F(1, 10**30))]
        assert keys[0] == keys[1]
        check_matches_reference(lines)
        check_matches_reference([line(-l.a, l.b, l.c, l.color) for l in lines])

    def test_no_intersect_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("cells called intersect")

        # cells does not bind the Fraction intersection at all, and what it
        # calls in core does not reach it either
        assert not hasattr(cells, "intersect")
        monkeypatch.setattr(core, "intersect", forbidden)
        lines = rand_simple_lines(6, 2) + [line(1, 0, -1, Color.R), line(0, 1, 2, Color.G)]
        arr = build_arrangement(lines)
        assert len(arr.faces) == 1 + 8 + 8 * 7 // 2
        assert is_complete(find_complete_face(lines))


# -- faces on first read ----------------------------------------------------------


def _spy_subdivide(monkeypatch):
    """The arrangements `cells._subdivide` builds faces for, one entry a call."""
    built = []
    real = cells._subdivide

    def spy(arr):
        built.append(arr)
        return real(arr)

    monkeypatch.setattr(cells, "_subdivide", spy)
    return built


# sha1 of `tricut solve KIND --n N --seed 1 --format svg`, as it was when
# `build_arrangement` still built every face before it returned; the ids name
# the instance, not the digest, so a changed figure keeps the test's name
SVG_DIGESTS = [
    pytest.param("cell", 12, "abc9436cbc3bf3a116dda890f57ca05591df2102", id="cell-12"),
    pytest.param("segment", 4, "f7041fe97a24775cd851a851026c3ae581b96926", id="segment-4"),
]


class TestFacesOnFirstRead:
    """`build_arrangement` checks simplicity and sets the box at once; the
    vertices and faces are built on the first read of either, once.  A
    figure reads only the lines and the box, so it never builds a face."""

    def test_figure_builds_no_face(self, monkeypatch):
        built = _spy_subdivide(monkeypatch)
        lines = rand_simple_lines(9, 5)
        svg.render_arrangement(build_arrangement(lines), find_complete_face(lines))
        assert built == []

    def test_first_read_builds_once(self, monkeypatch):
        built = _spy_subdivide(monkeypatch)
        lines = rand_simple_lines(9, 5)
        arr = build_arrangement(lines)
        complete = scan_all_complete_faces(arr)
        assert len(built) == 1 and complete
        assert scan_all_complete_faces(arr) == complete
        assert arr.vertices is arr.vertices and arr.faces is arr.faces
        assert len(built) == 1
        # the vertices read first build the faces too
        again = build_arrangement(lines)
        assert again.vertices == arr.vertices and again.faces == arr.faces
        assert len(built) == 2 and built[1] is again

    def test_crossings_do_not_compare(self):
        lines = rand_simple_lines(5, 2)
        arr = build_arrangement(lines)
        arr.faces
        assert arr == build_arrangement(lines)
        assert hash(arr) == hash(build_arrangement(lines))
        assert "_crossings" not in repr(arr)

    def test_not_simple_raises_at_build(self, monkeypatch):
        built = _spy_subdivide(monkeypatch)
        ls = [line_slope_intercept(0, 0), line_slope_intercept(1, 0), line_slope_intercept(-1, 0)]
        with pytest.raises(NotSimple) as e:
            build_arrangement(ls)
        assert e.value.witness == (0, 1, 2)
        with pytest.raises(NotSimple) as e:
            build_arrangement([line_slope_intercept(2, 0), line_slope_intercept(2, 5)])
        assert e.value.witness == (0, 1)
        assert built == []

    def test_face_walk_error_on_first_read(self, monkeypatch):
        # directions ranked cw instead of ccw: every walk keeps its face on
        # the right, so the seven cells all read as outer walks.  The message
        # and trace are the ones the build raised when it built every face
        real = cells._dir_cmp
        monkeypatch.setattr(cells, "_dir_cmp", lambda d1, d2: -real(d1, d2))
        monkeypatch.setattr(InternalError, "count", InternalError.count)
        arr = build_arrangement(TRIANGLE)
        assert arr.box == (-1, -1, 5, 5)
        for read in ("faces", "vertices"):
            with pytest.raises(InternalError, match="^expected exactly one outer walk$") as e:
                getattr(arr, read)
            assert e.value.trace == {"count": 7}

    @pytest.mark.parametrize("kind,n,digest", SVG_DIGESTS)
    def test_solve_svg_builds_no_face(self, kind, n, digest, monkeypatch, capsys):
        built = _spy_subdivide(monkeypatch)
        assert cli.run(["solve", kind, "--n", str(n), "--seed", "1", "--format", "svg"]) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest
        assert built == []

    @pytest.mark.parametrize("kind", ["cell", "segment"])
    def test_render_builds_no_face(self, kind, tmp_path, monkeypatch):
        sol = tmp_path / "sol.json"
        assert cli.run(["solve", kind, "--seed", "1", "--out", str(sol)]) == 0
        built = _spy_subdivide(monkeypatch)
        assert cli.run(["render", "--in", str(sol), "--out", str(tmp_path / "sol.svg")]) == 0
        assert built == []

    def test_verify_builds_once(self, tmp_path, monkeypatch, capsys):
        sol = tmp_path / "sol.json"
        built = _spy_subdivide(monkeypatch)
        assert cli.run(["solve", "cell", "--seed", "1", "--verify", "--out", str(sol)]) == 0
        assert len(built) == 1
        assert cli.run(["verify", "--in", str(sol)]) == 0
        assert len(built) == 2 and built[1] is not built[0]


def ref_cycle_parity(colors):
    """`cycle_parity` as it was written first: a frozenset per edge."""
    pairs = {frozenset(p): 0 for p in ((Color.R, Color.G), (Color.R, Color.B), (Color.G, Color.B))}
    m = len(colors)
    for i in range(m):
        k = frozenset((colors[i], colors[(i + 1) % m]))
        if k in pairs:
            pairs[k] += 1
    return (
        pairs[frozenset((Color.R, Color.G))] % 2,
        pairs[frozenset((Color.R, Color.B))] % 2,
        pairs[frozenset((Color.G, Color.B))] % 2,
    )


class TestCycleParity:
    def test_matches_the_frozenset_version(self):
        for m in range(1, 7):
            for colors in itertools.product(list(Color), repeat=m):
                assert cycle_parity(colors) == ref_cycle_parity(colors), colors
                assert cycle_parity(list(colors)) == ref_cycle_parity(colors), colors

    def test_frozen_examples(self):
        R, G, B = Color.R, Color.G, Color.B
        assert cycle_parity((R, R, G, G)) == (0, 0, 0)
        assert cycle_parity((R, G, R, B)) == (0, 0, 0)
        assert cycle_parity((R, R, G, B)) == (1, 1, 1)
        assert cycle_parity((R, G, B)) == (1, 1, 1)

    def test_unbounded_rejected(self):
        arr = build_arrangement([line(1, 0, -2, Color.R)])
        with pytest.raises(UnboundedFace):
            is_complete(arr.faces[0])


class TestFindCompleteFace:
    def test_three_lines_give_the_triangle(self):
        f = find_complete_face(TRIANGLE)
        assert is_complete(f)
        assert sorted(f.vertices) == [(F(0), F(0)), (F(0), F(4)), (F(4), F(0))]

    def test_missing_color(self):
        with pytest.raises(MissingColor):
            find_complete_face([
                line_slope_intercept(0, 0, Color.R),
                line_slope_intercept(1, 2, Color.R),
                line_slope_intercept(2, 1, Color.G),
            ])

    def test_wrong_palette(self):
        ls = TRIANGLE + (line(1, -1, 7, Color.K),)
        with pytest.raises(PreconditionViolated):
            find_complete_face(ls)

    @pytest.mark.parametrize("n,seed", [(3, 5), (5, 6), (8, 7), (11, 8), (15, 9)])
    def test_result_is_a_complete_cell_of_the_arrangement(self, n, seed):
        lines = rand_simple_lines(n, seed)
        face = find_complete_face(lines)
        assert is_complete(face)
        arr = build_arrangement(lines)
        matches = [f for f in arr.faces if set(f.vertices) == set(face.vertices)]
        assert len(matches) == 1
        assert is_complete(matches[0])

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_scan_always_finds_at_least_one(self, seed):
        lines = rand_simple_lines(9, seed)
        arr = build_arrangement(lines)
        found = scan_complete(arr)
        assert len(found) >= 1
        face = find_complete_face(lines)
        assert any(set(f.vertices) == set(face.vertices) for f in found)


def affine_map(seed):
    """(a, d, e, c, f) of the map (x, y) -> (a x + c, e x + d y + f): seeded
    nonzero rationals of large denominators."""
    rng = random.Random(seed)

    def rat():
        return F(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(10**5, 10**6))

    return rat(), rat(), rat(), rat(), rat()


def rational_map(lines, seed):
    """The lines' images under `affine_map(seed)`: the same arrangement, up
    to orientation, with big coefficients."""
    a, d, e, c, f = affine_map(seed)
    out = []
    for l in lines:
        # (A, B) times the inverse of [[a, 0], [e, d]], then the offset
        na, nb = l.a / a - l.b * e / (a * d), l.b / d
        out.append(line(na, nb, l.c - na * c - nb * f, l.color))
    return out


def rational_map_points(points, seed):
    """The points' images under `affine_map(seed)`: the same incidences, with
    big denominators."""
    a, d, e, c, f = affine_map(seed)
    return [pt(a * p.x + c, e * p.x + d * p.y + f, p.color) for p in points]


def mirrored(lines):
    """The lines reflected in the y axis: every cell's orientation flips."""
    return [line(-l.a, l.b, l.c, l.color) for l in lines]


def seed_turn(lines):
    """Orientation of the triangle of the first R, G and B lines."""
    i_r, i_g, i_b = (next(i for i, l in enumerate(lines) if l.color is c) for c in RGB)
    return orient(intersect(lines[i_r], lines[i_g]), intersect(lines[i_r], lines[i_b]),
                  intersect(lines[i_g], lines[i_b]))


class TestCompleteFaceMatchesReference:
    """Integer insertion against the Fraction insertion it replaced."""

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("n", [*range(3, 13), 50, 100, 200])
    def test_generated_and_rationally_mapped(self, n, mapped):
        for seed in range(1, 11):
            lines = generate(GenSpec(GenKind.SimpleLines3C, n, seed))
            if mapped:
                lines = rational_map(lines, seed)
            assert find_complete_face(lines) == reference_complete_face(lines)

    def test_clockwise_seed_triangle(self):
        turns = set()
        for n, seed in [(3, 1), (5, 2), (9, 3), (30, 4)]:
            lines = generate(GenSpec(GenKind.SimpleLines3C, n, seed))
            for ls in (lines, mirrored(lines)):
                turns.add(seed_turn(ls))
                face = find_complete_face(ls)
                assert face == reference_complete_face(ls)
                assert is_complete(face)
        assert turns == {-1, 1}


@st.composite
def prepass_arrangements(draw):
    """At least `_PREPASS_MIN_LINES` lines: generated, maybe rationally
    mapped, and maybe with one planted defect or forced residue hit."""
    n = draw(st.integers(core._PREPASS_MIN_LINES, 40))
    lines = list(generate(GenSpec(GenKind.SimpleLines3C, n, draw(st.integers(1, 10**6)))))
    if draw(st.booleans()):
        lines = rational_map(lines, draw(st.integers(0, 10**6)))
    index = st.integers(0, n - 1)
    plant = draw(st.sampled_from(["none", "triple", "parallel", "equal", "residue"]))
    if plant == "triple":
        # three lines through one lattice point
        u, v = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
        ks = draw(st.lists(index, min_size=3, max_size=3, unique=True))
        slopes = draw(st.lists(st.integers(-10**3, 10**3), min_size=3, max_size=3, unique=True))
        for k, m in zip(ks, slopes):
            lines[k] = line_slope_intercept(m, v - m * u, lines[k].color)
    elif plant in ("parallel", "equal"):
        i, k = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        l = lines[i]
        shift = draw(st.integers(1, 9)) if plant == "parallel" else 0
        lines[k] = line(3 * l.a, 3 * l.b, 3 * l.c + shift, lines[k].color)
    elif plant == "residue":
        # W = p * 1 - 0 * 1 = p: a pair parallel mod p only
        c1, c2 = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        for l in (line(core._RESIDUE_PRIME, 1, c1), line(0, 1, c2)):
            lines.insert(draw(st.integers(0, len(lines))), l)
    return lines


@st.composite
def prepass_point_sets(draw):
    """At least `_PREPASS_MIN_LINES` points: generated `Points3C` or
    `Points3CConvex`, maybe rationally mapped, and maybe with one planted
    collinear triple, coincident pair, or pair that collides only mod p."""
    seed = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        n = draw(st.integers(core._PREPASS_MIN_LINES, 40))
        points = list(generate(GenSpec(GenKind.Points3C, n, seed)))
    else:
        # 6n points
        points = list(generate(GenSpec(GenKind.Points3CConvex, draw(st.integers(5, 7)), seed)))
    if draw(st.booleans()):
        points = rational_map_points(points, draw(st.integers(0, 10**6)))
    index = st.integers(0, len(points) - 1)
    plant = draw(st.sampled_from(["none", "triple", "coincident", "residue"]))
    if plant == "triple":
        # the third point on the line through the first two
        i, j, k = draw(st.lists(index, min_size=3, max_size=3, unique=True))
        t = draw(st.sampled_from([F(-1), F(1, 3), F(1, 2), F(2)]))
        p, q = points[i], points[j]
        points[k] = pt(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y), points[k].color)
    elif plant == "coincident":
        i, k = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        points[k] = pt(points[i].x, points[i].y, points[k].color)
    elif plant == "residue":
        # (u, v) and (u + p, v) join to (0, p, -p v): zero mod p only
        u, v = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
        for x in (u, u + core._RESIDUE_PRIME):
            points.insert(draw(st.integers(0, len(points))), pt(x, v, "R"))
    return points


def no_three_collinear(points):
    check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)


class TestRequireSimpleMatchesExact:
    """The residue pre-pass against the exact loop, on lines
    (`require_simple` against `validate_simple`) and on points
    (`check_general_position` against `point_joins`)."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(prepass_arrangements(), prepass_point_sets()))
    def test_same_verdict_witness_and_message(self, items):
        assert len(items) >= core._PREPASS_MIN_LINES
        if isinstance(items[0], ColoredLine):
            exact, checked = validate_simple, require_simple
            triples, z = [int_line(l) for l in items], cells._AT_INFINITY
        else:
            exact, checked = point_joins, no_three_collinear
            triples, z = int_points(items), None
        try:
            exact(items)
        except PreconditionViolated as e:
            # the residue pass never misses a defect
            assert core._residue_hit(triples, z)
            with pytest.raises(type(e)) as err:
                checked(items)
            assert (getattr(err.value, "witness", None), str(err.value)) == (
                getattr(e, "witness", None), str(e))
            return
        checked(items)

    def test_residue_hit_on_a_simple_arrangement(self):
        # tangents y = s x - s^2 of a parabola, plus y = 0 and p x + y = 0,
        # which meet only at the origin, where W = p is 0 mod p
        p = core._RESIDUE_PRIME
        lines = [line_slope_intercept(s, -s * s) for s in range(1, 30)]
        lines += [line(0, 1, 0), line(p, 1, 0)]
        assert core._residue_hit([int_line(l) for l in lines], cells._AT_INFINITY)
        assert len(validate_simple(lines)) == 31 * 30 // 2
        require_simple(lines)

    def test_residue_hit_on_points_in_general_position(self):
        # points (s, s^2) of a parabola, plus (p, 0), which no line through
        # two parabola points meets; (0, 0) and (p, 0) join to (0, p, 0)
        p = core._RESIDUE_PRIME
        points = [pt(s, s * s, "R") for s in range(30)] + [pt(p, 0, "G")]
        assert core._residue_hit(int_points(points), None)
        # on its own, the pair's zero join is the hit
        assert core._residue_hit(int_points([points[0], points[-1]]), None)
        assert len(point_joins(points)) == 31 * 30 // 2
        no_three_collinear(points)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(prepass_arrangements(), prepass_point_sets()), st.integers(1, 300))
    def test_blocks_agree_with_the_exact_loop(self, items, block):
        # blocks of `block` pairs (a whole row at least) cut the pass into
        # many runs: a hit wherever join_map finds a clash, and the verdict
        # of the pass in one block on every input
        if isinstance(items[0], ColoredLine):
            triples, z = [int_line(l) for l in items], cells._AT_INFINITY
        else:
            triples, z = int_points(items), None
        one_block = core._residue_hit(triples, z)
        with unittest.mock.patch.object(core, "_RESIDUE_BLOCK", block):
            blocked = core._residue_hit(triples, z)
        try:
            core.join_map(triples, z, lambda *clash: LookupError(clash))
        except LookupError:
            assert blocked
        assert blocked == one_block

    @pytest.mark.parametrize("m", [2, 3, 7, 40])
    @pytest.mark.parametrize("block", [1, 5, 38, 39, 1000])
    def test_row_blocks_cover_every_row_once(self, monkeypatch, m, block):
        # row i holds the m - 1 - i pairs (i, j), j > i
        monkeypatch.setattr(core, "_RESIDUE_BLOCK", block)
        runs = list(core._row_blocks(m))
        assert [r0 for r0, _ in runs] == [0] + [r1 for _, r1 in runs[:-1]]
        assert runs[-1][1] == m - 1
        sizes = [sum(m - 1 - r for r in range(r0, r1)) for r0, r1 in runs]
        assert sum(sizes) == m * (m - 1) // 2
        # at most `block` pairs, unless a single row holds more
        assert all(k <= block or r1 - r0 == 1 for k, (r0, r1) in zip(sizes, runs))
        # and as many rows as fit: the next row would overflow the block
        assert all(k + m - 1 - r1 > block for k, (_, r1) in zip(sizes, runs[:-1]))

    def test_many_blocks_without_a_hit(self, monkeypatch):
        monkeypatch.setattr(core, "_RESIDUE_BLOCK", 64)
        lines = generate(GenSpec(GenKind.SimpleLines3C, 60, 1))
        assert not core._residue_hit([int_line(l) for l in lines], cells._AT_INFINITY)
        points = generate(GenSpec(GenKind.Points3CConvex, 10, 1))
        assert not core._residue_hit(int_points(points), None)
        # a repeat across two blocks: the first row's join and the last's
        p, q = points[0], points[1]
        moved = list(points)
        moved[-1] = pt(2 * q.x - p.x, 2 * q.y - p.y, "R")  # on the line through p and q
        assert core._residue_hit(int_points(moved), None)

    def test_no_hit_on_generated_arrangements(self):
        for n in (core._PREPASS_MIN_LINES, 50, 200):
            lines = generate(GenSpec(GenKind.SimpleLines3C, n, 1))
            assert not core._residue_hit([int_line(l) for l in lines], cells._AT_INFINITY)
            assert not core._residue_hit([int_line(l) for l in rational_map(lines, 1)],
                                         cells._AT_INFINITY)

    def test_no_hit_on_generated_point_sets(self):
        for kind, n in [(GenKind.Points3C, core._PREPASS_MIN_LINES), (GenKind.Points3C, 64),
                        (GenKind.Points3CConvex, 5), (GenKind.Points3CConvex, 24)]:
            points = generate(GenSpec(kind, n, 1))
            assert not core._residue_hit(int_points(points), None)
            assert not core._residue_hit(int_points(rational_map_points(points, 1)), None)

    def test_below_the_cutoff_the_exact_loop_runs(self, monkeypatch):
        def forbidden(triples, z):
            raise AssertionError("residue pass below the cutoff")

        monkeypatch.setattr(core, "_residue_hit", forbidden)
        require_simple(generate(GenSpec(GenKind.SimpleLines3C, core._PREPASS_MIN_LINES - 1, 1)))
        with pytest.raises(NotSimple):
            require_simple([line_slope_intercept(2, 0), line_slope_intercept(2, 5)])
        no_three_collinear(generate(GenSpec(GenKind.Points3C, core._PREPASS_MIN_LINES - 1, 1)))
        with pytest.raises(PreconditionViolated, match="collinear"):
            no_three_collinear([pt(0, 0, "R"), pt(1, 1, "G"), pt(2, 2, "B")])


class TestExtract111Segment:
    @pytest.mark.parametrize("n,seed", [(3, 31), (6, 32), (9, 33), (12, 34)])
    def test_segment_crosses_one_line_per_color(self, n, seed):
        lines = rand_simple_lines(n, seed)
        face = find_complete_face(lines)
        seg = extract_111_segment(lines, face)
        assert crossing_counts(seg, lines) == {Color.R: 1, Color.G: 1, Color.B: 1}

    def test_never_vertical(self):
        for seed in range(40, 52):
            lines = rand_simple_lines(6, seed)
            seg = extract_111_segment(lines, find_complete_face(lines))
            assert seg.p[0] != seg.q[0]

    def test_incomplete_face_rejected(self):
        lines = rand_simple_lines(7, 53)
        arr = build_arrangement(lines)
        other = next(f for f in arr.faces if f.bounded and not is_complete(f))
        with pytest.raises(PreconditionViolated):
            extract_111_segment(lines, other)


def _rational_map(points, seed):
    """x' = (a/b) x + c, y' = (e/f) y + (g/h) x with denominators in
    10**5..10**6: an affine map that keeps shared x and no three collinear."""
    rng = random.Random(seed)
    a, c, e, g = (F(rng.randint(1, 10**7), rng.randint(10**5, 10**6)) for _ in range(4))
    return [pt(a * p.x + c, e * p.y + g * p.x, p.color) for p in points]


class TestExtract111SegmentReference:
    """`_segment_111` on rows gives the Segment, or raises the exception, of
    the Fraction pipeline it replaced (`segment_111_reference`); so does
    `extract_111_segment` on ColoredLines."""

    @staticmethod
    def same(lines, colors, face, x_avoid=None):
        """Lines as ColoredLines or (a, b, c) triples at any scale, as the
        reference takes them; an incomplete cell is refused by the public
        function, which checks completeness for the row body."""
        rows = [int_line(l) if isinstance(l, ColoredLine) else l for l in lines]
        corners = [int_point(*v) for v in face.vertices]

        def row_body():
            if not is_complete(face):
                return extract_111_segment(lines, face)
            ends = cells._segment_111(rows, colors, corners, face.boundary_lines, x_avoid)
            return Segment(*map(cells._point, ends))

        try:
            want = reference_extract_111_segment(lines, face, x_avoid)
        except (PreconditionViolated, InternalError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                row_body()
            return None
        assert row_body() == want
        if x_avoid is None and isinstance(lines[0], ColoredLine):
            assert extract_111_segment(lines, face) == want
        return want

    @pytest.mark.parametrize("n", [3, 9, 30, 100])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simple_lines_as_lines_and_triples(self, n, seed):
        lines = generate(GenSpec(GenKind.SimpleLines3C, n, seed))
        colors = [l.color for l in lines]
        face = find_complete_face(lines)
        self.same(lines, colors, face)
        self.same([int_line(l) for l in lines], colors, face)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_bounded_cell_and_x_avoid(self, seed):
        # incomplete cells and cells across x = x_avoid raise; every vertex x
        # and a value beside it is tried as x_avoid
        lines = generate(GenSpec(GenKind.SimpleLines3C, 6, seed))
        colors = [l.color for l in lines]
        faces = [f for f in build_arrangement(lines).faces if f.bounded]
        assert any(is_complete(f) for f in faces) and not all(is_complete(f) for f in faces)
        for face in faces:
            self.same(lines, colors, face)
            for x, _ in face.vertices:
                self.same(lines, colors, face, x)
                self.same(lines, colors, face, x + F(1, 7))

    def test_rational_map_of_lines(self):
        # the image of each line under x' = sx x + ox, y' = sy y + oy
        rng = random.Random(5)
        sx, sy, ox, oy = (F(rng.randint(1, 10**7), rng.randint(10**5, 10**6)) for _ in range(4))
        lines = [line(l.a / sx, l.b / sy, l.c - l.a * ox / sx - l.b * oy / sy, l.color)
                 for l in generate(GenSpec(GenKind.SimpleLines3C, 30, 1))]
        colors = [l.color for l in lines]
        face = find_complete_face(lines)
        self.same(lines, colors, face)
        self.same([int_line(l) for l in lines], colors, face)

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("n,seed", [(3, None), (6, 13), (20, 4), (30, 1), (60, 3)])
    def test_sheared_duals_of_shared_x_points(self, monkeypatch, n, seed, mapped):
        # the dual lines, cell corners and x_avoid=q that find_111_wedge
        # hands over, and the ends it gets back
        if seed is None:
            points = [pt(-1, -2, "R"), pt(-1, 71771, "B"), pt(2, 8317, "G")]
        else:
            points = generate(GenSpec(GenKind.Points3C, n, seed))
        if mapped:
            points = _rational_map(points, n)
        assert len({p.x for p in points}) < len(points)
        calls = []
        real = wedges._segment_111

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(wedges, "_segment_111", spy)
        wedges.find_111_wedge(points)
        (((duals, colors, corners, supports, q), ends),) = calls
        assert q is not None
        face = Face(True, tuple(map(cells._point, corners)), tuple(supports),
                    tuple(colors[k] for k in supports))
        assert Segment(*map(cells._point, ends)) == self.same(duals, colors, face, q)

    @pytest.mark.parametrize("n,seed", [(3, 20), (4, 62), (6, 132), (9, 77)])
    def test_edge_point_at_one_third(self, monkeypatch, n, seed):
        # the corner is straight above or below the middle of the edge
        lines = rand_simple_lines(n, seed)
        colors = [l.color for l in lines]
        face = find_complete_face(lines)
        tried = []
        real = segment_111_reference.reference_cevian

        def spy(coeffs, face, corner_v, edge_k, t_edge, x_avoid):
            tried.append(t_edge)
            return real(coeffs, face, corner_v, edge_k, t_edge, x_avoid)

        monkeypatch.setattr(segment_111_reference, "reference_cevian", spy)
        self.same(lines, colors, face)
        assert tried == [F(1, 2), F(1, 3)]
        self.same([int_line(l) for l in lines], colors, face)


class TestShieldedCounterexample:
    def test_is_simple_and_has_nine_lines(self):
        ls = gen_shielded_counterexample()
        assert len(ls) == 9
        validate_simple(ls)
        assert [l.color for l in ls[:3]] == [Color.R, Color.G, Color.B]
        assert all(l.color is Color.K for l in ls[3:])

    def test_no_cell_meets_all_three_colors(self):
        ls = gen_shielded_counterexample()
        arr = build_arrangement(ls)
        for f in arr.faces:
            cols = set(f.boundary_colors) - {Color.K}
            assert not {Color.R, Color.G, Color.B} <= cols

    def test_removing_shields_restores_a_complete_cell(self):
        ls = gen_shielded_counterexample()[:3]
        f = find_complete_face(ls)
        assert is_complete(f)


class TestParityAudit:
    def test_tricolored_triangle_cycle(self):
        t = ColoredTriangulation(2, ((0, 1), (1, 2), (0, 2)), (0, 1, 2))
        assert good_type_counts(t) == (1, 1, 1)
        assert parity_audit(t) is ParityClass.ALL_ODD

    def test_two_colored_square_cycle(self):
        t = ColoredTriangulation(2, ((0, 1), (1, 2), (2, 3), (0, 3)), (0, 1, 0, 1))
        assert good_type_counts(t) == (0, 0, 4)
        assert parity_audit(t) is ParityClass.ALL_EVEN

    def test_rainbow_tetrahedron_boundary(self):
        t = ColoredTriangulation(
            3,
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
            (0, 1, 2, 3),
        )
        assert good_type_counts(t) == (1, 1, 1, 1)
        assert parity_audit(t) is ParityClass.ALL_ODD

    def test_octahedron_with_antipodal_colors(self):
        faces = (
            (0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1),
            (5, 1, 2), (5, 2, 4), (5, 4, 3), (5, 3, 1),
        )
        t = ColoredTriangulation(3, faces, (0, 1, 2, 2, 1, 0))
        assert good_type_counts(t) == (0, 0, 0, 8)
        assert parity_audit(t) is ParityClass.ALL_EVEN

    def test_open_surface_rejected(self):
        with pytest.raises(NotPseudomanifold):
            parity_audit(ColoredTriangulation(3, ((0, 1, 2),), (0, 1, 2)))

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(PreconditionViolated):
            ColoredTriangulation(2, ((0, 1), (0, 1), (1, 2), (0, 2)), (0, 1, 2))

    def test_random_cycles_never_mix_parity(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randint(3, 24)
            colors = tuple(rng.randint(0, 2) for _ in range(m))
            simplices = tuple((i, (i + 1) % m) for i in range(m))
            parity_audit(ColoredTriangulation(2, simplices, colors))

    def test_random_bipyramids_never_mix_parity(self):
        # bipyramid over an m-cycle: a closed 2-sphere for every m >= 3
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(3, 12)
            north, south = m, m + 1
            tris = []
            for i in range(m):
                j = (i + 1) % m
                tris.append((i, j, north))
                tris.append((i, j, south))
            colors = tuple(rng.randint(0, 3) for _ in range(m + 2))
            parity_audit(ColoredTriangulation(3, tuple(tris), colors))
