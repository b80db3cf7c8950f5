import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tricut.cells import (
    build_arrangement,
    extract_111_segment,
    find_complete_face,
    gen_shielded_counterexample,
    is_complete,
)
from tricut.core import (
    ArcSet,
    CirclePoint,
    Color,
    RGB,
    Segment,
    arcset,
    arcset_color_counts,
    circle_point,
    empty_arcset,
    full_circle,
    line_slope_intercept,
)
from tricut.errors import BoundaryPoint, EndpointOnLine, PreconditionViolated
from tricut.oracles import (
    VerificationReport,
    arcset_points_key,
    count_segment_crossings,
    enumerate_2arc_sets,
    scan_all_complete_faces,
)
from tricut.serialization import _circle_of_rows, dec_circle_rows

R, G, B = Color.R, Color.G, Color.B


def rand_simple_lines(m, seed):
    from tricut.cells import validate_simple
    from tricut.errors import NotSimple

    colors = [RGB[i % 3] for i in range(m)]
    for attempt in range(100):
        rng = random.Random(seed * 389 + attempt)
        slopes = rng.sample(range(-6 * m, 6 * m + 1), m)
        ls = [
            line_slope_intercept(s, F(rng.randint(-40, 40)), c)
            for s, c in zip(slopes, colors)
        ]
        try:
            validate_simple(ls)
            return ls
        except NotSimple:
            continue
    raise AssertionError("no simple instance found")


def rand_circle_points(n, seed, wrap=False):
    # wrap: the first and last parameters sum to 1, so the gap between them
    # has its midpoint at exactly 0
    rng = random.Random(seed)
    m = 3 * n
    if wrap:
        params = [1, 8 * m - 1] + rng.sample(range(2, 8 * m - 1), m - 2)
    else:
        params = rng.sample(range(1, 8 * m), m)
    colors = [R] * n + [G] * n + [B] * n
    rng.shuffle(colors)
    return [circle_point(F(t, 8 * m), c) for t, c in zip(params, colors)]


# -- reference copies of the Fraction-based arc oracle ----------------------------
#
# The oracle module runs on integer count keys and ranks; these loops are the
# plain versions it must agree with: every quadruple of gaps, arcset()
# normalisation and ArcSet.contains membership.


def ref_arcset_points_key(a, points):
    return tuple(i for i, p in enumerate(points) if a.contains(p.t))


def ref_enumerate_2arc_sets(points, k):
    pts = tuple(points)
    m = len(pts)
    order = sorted(range(m), key=lambda i: pts[i].t)
    ts = [pts[i].t for i in order]
    cix = {R: 0, G: 1, B: 2}
    pre = [(0, 0, 0)]
    for i in order:
        v = list(pre[-1])
        v[cix[pts[i].color]] += 1
        pre.append(tuple(v))
    total = pre[m]
    target = (k, k, k)

    def range_counts(i, j):
        if i <= j:
            return tuple(pre[j][c] - pre[i][c] for c in range(3))
        return tuple(total[c] - pre[i][c] + pre[j][c] for c in range(3))

    def gap_mid(g):
        if g == 0:
            v = (ts[m - 1] + ts[0] + 1) / 2
            return v - 1 if v >= 1 else v
        return (ts[g - 1] + ts[g]) / 2

    def one_arc(a, b):
        lo, hi = gap_mid(a), gap_mid(b)
        if hi <= lo:
            hi += 1
        return arcset([(lo, hi)])

    out = []
    if target == (0, 0, 0):
        out.append(empty_arcset())
    if total == target:
        out.append(full_circle())
    for i in range(m):
        for j in range(m):
            if i != j and range_counts(i, j) == target:
                out.append(one_arc(i, j))
    for g1, g2, g3, g4 in itertools.combinations(range(m), 4):
        c_a = tuple(x + y for x, y in zip(range_counts(g1, g2), range_counts(g3, g4)))
        if c_a == target:
            out.append(arcset(list(one_arc(g1, g2).arcs) + list(one_arc(g3, g4).arcs)))
        c_b = tuple(x + y for x, y in zip(range_counts(g2, g3), range_counts(g4, g1)))
        if c_b == target:
            out.append(arcset(list(one_arc(g2, g3).arcs) + list(one_arc(g4, g1).arcs)))
    return sorted(out, key=lambda a: (a.component_count(), a.arcs))


def key_or_boundary(key, a, points):
    try:
        return key(a, points)
    except BoundaryPoint as e:
        return "boundary", str(e)


@st.composite
def arc_instances(draw):
    """n points of each color on a common denominator up to 10^12, some
    with a point at t = 0 and some with t_first + t_last = 1."""
    n = draw(st.integers(1, 6))
    m = 3 * n
    den = draw(st.one_of(st.integers(m + 2, 8 * m), st.integers(m + 2, 10**12)))
    shape = draw(st.sampled_from(["free", "zero", "wrap"]))
    if shape == "wrap":
        lo = draw(st.integers(1, (den - m) // 2))
        inner = draw(st.lists(st.integers(lo + 1, den - lo - 1),
                              min_size=m - 2, max_size=m - 2, unique=True))
        nums = [lo, den - lo] + inner
    else:
        nums = draw(st.lists(st.integers(0, den - 1), min_size=m, max_size=m, unique=True))
        if shape == "zero" and 0 not in nums:
            nums[0] = 0
    colors = draw(st.permutations([R] * n + [G] * n + [B] * n))
    return n, [circle_point(F(x, den), c) for x, c in zip(nums, colors)]


@st.composite
def probe_sets(draw, pts):
    """Sets that are not oracle answers: 1-3 arcs, wrapping or not, with
    endpoints drawn from the point parameters, 0 and fresh fractions."""
    pool = draw(st.lists(
        st.one_of(st.sampled_from([p.t for p in pts] + [F(0)]),
                  st.fractions(min_value=0, max_value=1, max_denominator=10**12)
                  .filter(lambda t: t < 1)),
        min_size=2, max_size=6, unique=True))
    ends = sorted(pool)[: len(pool) // 2 * 2]
    if draw(st.booleans()):
        ends = ends[1:] + [ends[0] + 1]
    return arcset(list(zip(ends[::2], ends[1::2])))


class TestScanAllCompleteFaces:
    def test_rgb_triangle(self):
        ls = [
            line_slope_intercept(0, 0, "R"),
            line_slope_intercept(1, 0, "G"),
            line_slope_intercept(-1, 4, "B"),
        ]
        arr = build_arrangement(ls)
        faces = scan_all_complete_faces(arr)
        assert len(faces) == 1
        assert sorted(c.value for c in faces[0].boundary_colors) == ["B", "G", "R"]

    def test_shielded_counterexample_has_no_4color_face(self):
        ls = gen_shielded_counterexample()
        arr = build_arrangement(ls)
        four = set(Color)
        assert scan_all_complete_faces(arr, required=four) == []

    def test_scan_agrees_with_incremental_finder(self):
        for seed in range(5):
            ls = rand_simple_lines(6, seed)
            arr = build_arrangement(ls)
            faces = scan_all_complete_faces(arr)
            assert faces
            found = find_complete_face(ls)
            assert any(set(f.vertices) == set(found.vertices) for f in faces)

    def test_bounded_face_count_is_exhaustive(self):
        # simple arrangement of L pairwise-crossing lines has exactly
        # (L-1)(L-2)/2 bounded cells; the scan iterates all of them
        for m, seed in ((5, 11), (7, 12)):
            arr = build_arrangement(rand_simple_lines(m, seed))
            bounded = [f for f in arr.faces if f.bounded]
            assert len(bounded) == (m - 1) * (m - 2) // 2

    def test_presence_scan_superset_of_parity_scan(self):
        arr = build_arrangement(rand_simple_lines(6, 3))
        parity = scan_all_complete_faces(arr)
        presence = scan_all_complete_faces(arr, required=set(RGB))
        keys = {f.vertices for f in presence}
        assert all(f.vertices in keys for f in parity)


class TestCountSegmentCrossings:
    def test_segment_inside_one_face(self):
        ls = rand_simple_lines(6, 21)
        arr = build_arrangement(ls)
        face = next(f for f in arr.faces if f.bounded)
        xs = [v[0] for v in face.vertices]
        ys = [v[1] for v in face.vertices]
        c = (sum(xs) / len(xs), sum(ys) / len(ys))
        v0 = face.vertices[0]
        near = ((c[0] * 9 + v0[0]) / 10, (c[1] * 9 + v0[1]) / 10)
        counts = count_segment_crossings(Segment(c, near), ls)
        assert counts == {R: 0, G: 0, B: 0}

    def test_111_segment(self):
        for seed in range(4):
            ls = rand_simple_lines(5, seed + 40)
            seg = extract_111_segment(ls, find_complete_face(ls))
            assert count_segment_crossings(seg, ls) == {R: 1, G: 1, B: 1}

    def test_endpoint_on_line(self):
        ls = [line_slope_intercept(0, 0, "R")]
        with pytest.raises(EndpointOnLine):
            count_segment_crossings(Segment((F(0), F(0)), (F(1), F(1))), ls)

    def test_collinear_overlap_rejected(self):
        ls = [line_slope_intercept(1, 0, "R")]
        with pytest.raises(EndpointOnLine):
            count_segment_crossings(Segment((F(1), F(1)), (F(2), F(2))), ls)

    def test_counts_black_lines_separately(self):
        ls = [line_slope_intercept(0, 0, "K"), line_slope_intercept(0, 2, "R")]
        counts = count_segment_crossings(Segment((F(0), F(-1)), (F(0), F(1))), ls)
        assert counts == {Color.K: 1, R: 0}


class TestEnumerate2ArcSets:
    def test_k_equals_n_contains_full_circle(self):
        pts = rand_circle_points(3, 2)
        assert full_circle() in enumerate_2arc_sets(pts, 3)

    def test_k_zero_contains_empty(self):
        pts = rand_circle_points(2, 3)
        out = enumerate_2arc_sets(pts, 0)
        assert any(a.arcs == () for a in out)

    def test_every_entry_has_target_counts(self):
        pts = rand_circle_points(3, 4)
        for a in enumerate_2arc_sets(pts, 2):
            assert arcset_color_counts(a, pts) == {R: 2, G: 2, B: 2}
            assert a.component_count() <= 2

    def test_blocks_need_two_arcs(self):
        n = 4
        pts = [circle_point(F(2 * i + 1, 6 * n), c)
               for i, c in enumerate([R] * n + [G] * n + [B] * n)]
        out = enumerate_2arc_sets(pts, 1)
        assert out
        assert all(a.component_count() == 2 for a in out)

    def test_completeness_against_subset_enumeration(self):
        for n in range(1, 5):
            for seed in range(6):
                self.check_complete(n, rand_circle_points(n, 5 + 31 * seed, wrap=seed >= 4))

    @staticmethod
    def check_complete(n, pts):
        # ground truth: every subset of points whose indicator has <= 2
        # cyclic blocks in sorted order, bucketed by its color counts
        m = len(pts)
        order = sorted(range(m), key=lambda i: pts[i].t)
        expect = {k: set() for k in range(n + 1)}
        for bits in itertools.product((0, 1), repeat=m):
            blocks = sum(
                1 for i in range(m) if bits[i] and not bits[(i - 1) % m]
            )
            if bits == (1,) * m:
                blocks = 1
            if blocks > 2:
                continue
            chosen = [order[i] for i in range(m) if bits[i]]
            counts = {c: 0 for c in RGB}
            for i in chosen:
                counts[pts[i].color] += 1
            if counts[R] == counts[G] == counts[B]:
                expect[counts[R]].add(frozenset(chosen))
        for k in range(n + 1):
            got = [frozenset(arcset_points_key(a, pts)) for a in enumerate_2arc_sets(pts, k)]
            assert len(got) == len(set(got))
            assert set(got) == expect[k], k

    @settings(max_examples=100, deadline=None)
    @given(arc_instances(), st.data())
    def test_matches_reference(self, inst, data):
        n, pts = inst
        k = data.draw(st.integers(0, n))
        got = enumerate_2arc_sets(pts, k)
        assert got == ref_enumerate_2arc_sets(pts, k)
        probes = [full_circle(), empty_arcset()] + [data.draw(probe_sets(pts)) for _ in range(3)]
        # parameters outside [0, 1) are read mod 1
        shift = data.draw(st.sampled_from([-1, 1, 2]))
        shifted = tuple(CirclePoint(p.t + shift, p.color) for p in pts)
        # a list of equal-valued but distinct points
        copies = [CirclePoint(F(p.t.numerator, p.t.denominator), p.color) for p in pts]
        sets = got + probes
        want = {}
        for name, ps in (("pts", pts), ("shifted", shifted), ("copies", copies)):
            # one point set keyed many times in a row
            want[name] = [key_or_boundary(ref_arcset_points_key, a, ps) for a in sets]
            assert [key_or_boundary(arcset_points_key, a, ps) for a in sets] == want[name]
        # the point sets in turn, so that each call misses the remembered table
        for i, a in enumerate(sets):
            for name, ps in (("shifted", shifted), ("pts", pts), ("copies", copies)):
                assert key_or_boundary(arcset_points_key, a, ps) == want[name][i]

    def test_key_boundary_hits(self):
        pts = [circle_point(F(0), R), circle_point(F(1, 3), G), circle_point(F(2, 3), B)]
        with pytest.raises(BoundaryPoint):
            arcset_points_key(arcset([(F(1, 2), F(1))]), pts)
        with pytest.raises(BoundaryPoint):
            arcset_points_key(arcset([(F(1, 3), F(1, 2))]), pts)
        with pytest.raises(BoundaryPoint):
            arcset_points_key(arcset([(F(5, 6), F(7, 6)), (F(1, 6), F(2, 3))]), pts)
        assert arcset_points_key(arcset([(F(1, 2), F(3, 2))]), pts) == (0, 1, 2)
        assert arcset_points_key(full_circle(), pts) == (0, 1, 2)
        # a point on each kind of arc end: the lo and hi of an arc below 1,
        # the lo and the end hi - 1 of an arc through 0, and hi = 1, whose
        # end is 0; the lowest hit index names the parameter
        pts = [circle_point(t, c) for t, c in zip(
            (F(3, 4), F(1, 8), F(1, 2), F(1, 4), F(0), F(5, 8)), (R, G, B, R, G, B))]
        for a, t in (
            (ArcSet(((F(1, 2), F(5, 8)),)), F(1, 2)),
            (ArcSet(((F(3, 8), F(1, 2)),)), F(1, 2)),
            (ArcSet(((F(5, 8), F(3, 4)),)), F(3, 4)),
            (ArcSet(((F(3, 4), F(9, 8)),)), F(3, 4)),
            (ArcSet(((F(7, 8), F(9, 8)),)), F(1, 8)),
            (ArcSet(((F(1, 4), F(3, 8)), (F(7, 8), F(9, 8)))), F(1, 8)),
            (ArcSet(((F(13, 16), F(1)),)), F(0)),
            (ArcSet(((F(1, 4), F(5, 4)),)), F(1, 4)),
        ):
            for key in (arcset_points_key, ref_arcset_points_key):
                with pytest.raises(BoundaryPoint, match=f"^parameter {t} is an arc endpoint$"):
                    key(a, pts)
        assert arcset_points_key(ArcSet(((F(13, 16), F(17, 16)),)), pts) == (4,)

    def test_key_on_repeated_and_unreduced_parameters(self):
        # the oracle refuses repeated parameters, the key reads them as they
        # are; points built directly may have t outside [0, 1)
        pts = [CirclePoint(t, c) for t, c in zip(
            (F(1, 3), F(4, 3), F(-2, 3), F(1, 3), 2, F(5, 6), F(-1, 6)), (R, G, B, R, G, B, R))]
        for a in (
            full_circle(), empty_arcset(),
            arcset([(F(1, 4), F(1, 2))]),
            arcset([(F(3, 4), F(5, 4))]),
            arcset([(F(1, 2), F(7, 8)), (F(-1, 8), F(1, 8))]),
            arcset([(F(1, 3), F(2, 3))]),
            arcset([(F(0), F(1, 4)), (F(2, 3), F(3, 4))]),
            arcset([(F(5, 6), F(4, 3))]),
        ):
            want = key_or_boundary(ref_arcset_points_key, a, pts)
            assert key_or_boundary(arcset_points_key, a, pts) == want
            assert key_or_boundary(arcset_points_key, a, tuple(pts)) == want
        assert arcset_points_key(arcset([(F(1, 4), F(1, 2))]), pts) == (0, 1, 2, 3)
        assert arcset_points_key(arcset([(F(3, 4), F(5, 4))]), pts) == (4, 5, 6)
        with pytest.raises(BoundaryPoint, match="^parameter 1/3 is an arc endpoint$"):
            arcset_points_key(arcset([(F(1, 3), F(2, 3))]), pts)
        with pytest.raises(BoundaryPoint, match="^parameter 5/6 is an arc endpoint$"):
            arcset_points_key(arcset([(F(5, 6), F(7, 6))]), pts)
        # the end 1/3 holds point 0, below the lo's first point 5
        with pytest.raises(BoundaryPoint, match="^parameter 1/3 is an arc endpoint$"):
            arcset_points_key(arcset([(F(5, 6), F(4, 3))]), pts)

    def test_cli_verify_at_cap(self):
        r = subprocess.run(
            [sys.executable, "-m", "tricut.cli", "solve", "arcs", "--n", "10",
             "--k", "5", "--seed", "1", "--verify"],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0, r.stderr
        env = json.loads(r.stdout)
        v = env["verification"]
        assert v["member"] is True
        pts = _circle_of_rows(*dec_circle_rows(env["instance"]))
        keys = {ref_arcset_points_key(o, pts) for o in ref_enumerate_2arc_sets(pts, 5)}
        assert v["oracle_answers"] == sorted(list(kk) for kk in keys)
        assert len(v["oracle_answers"]) == 266

    def test_deterministic(self):
        pts = rand_circle_points(3, 6)
        assert enumerate_2arc_sets(pts, 1) == enumerate_2arc_sets(pts, 1)

    def test_size_cap(self):
        pts = rand_circle_points(11, 7)
        with pytest.raises(PreconditionViolated):
            enumerate_2arc_sets(pts, 1)

    def test_duplicate_param_rejected(self):
        pts = [circle_point(F(1, 4), "R"), circle_point(F(1, 4), "G"),
               circle_point(F(3, 4), "B")]
        with pytest.raises(PreconditionViolated):
            enumerate_2arc_sets(pts, 1)

    def test_solver_agreement(self):
        from tricut.arcs import find_k_arcset

        rng = random.Random(99)
        for trial in range(30):
            n = rng.randint(2, 8)
            pts = rand_circle_points(n, 1000 + trial)
            k = rng.randint(1, n)
            a = find_k_arcset(pts, k)
            keys = {frozenset(arcset_points_key(o, pts)) for o in enumerate_2arc_sets(pts, k)}
            assert frozenset(arcset_points_key(a, pts)) in keys


class TestVerificationReport:
    def test_json_line_roundtrip(self):
        r = VerificationReport(
            instance_id="demo-1",
            solver_answer={"k": 2},
            oracle_answers=("a", "b"),
            member=True,
            counts=(2, 2, 2),
            target=(2, 2, 2),
            elapsed_s=0.01234567,
        )
        d = json.loads(r.to_json_line())
        assert d["instance_id"] == "demo-1"
        assert d["member"] is True
        assert d["counts"] == [2, 2, 2]
        assert d["elapsed_s"] == 0.012346

    def test_member_requires_matching_counts(self):
        with pytest.raises(PreconditionViolated):
            VerificationReport(
                instance_id="bad",
                solver_answer=None,
                oracle_answers=(),
                member=True,
                counts=(1, 2, 1),
                target=(1, 1, 1),
                elapsed_s=0.0,
            )
