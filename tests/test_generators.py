import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from tricut.cells import require_simple, validate_simple
from tricut.core import Color, GeneralPosition, RGB, check_general_position, orient, sign
from tricut.errors import GenerationFailed, PreconditionViolated, TricutError
from tricut.generators import GenKind, GenSpec, generate
from tricut.llines import LatticePointSet, ortho_hull
from tricut.serialization import enc_instance

R, G, B = Color.R, Color.G, Color.B


# every small size at ten seeds, and three large sizes at one
CONSTRUCTION_CASES = [(n, seed) for n in range(3, 65) for seed in range(1, 11)]
CONSTRUCTION_CASES += [(200, 1), (400, 1), (1200, 1)]


def colors_of(items):
    return [x.color for x in items]


class TestReproducibility:
    @pytest.mark.parametrize(
        "kind,n",
        [
            (GenKind.SimpleLines3C, 7),
            (GenKind.Points3C, 9),
            (GenKind.Points3CConvex, 2),
            (GenKind.CirclePoints3C, 4),
            (GenKind.LatticeRedHull, 5),
            (GenKind.LatticeDiagonalCounterexample, 3),
            (GenKind.ThreeDiskTriangle, 3),
        ],
    )
    def test_same_spec_same_instance(self, kind, n):
        a = generate(GenSpec(kind, n, 42))
        b = generate(GenSpec(kind, n, 42))
        assert a == b

    def test_instances_pinned(self):
        # every kind's envelopes and refusals on a small grid, hashed: a
        # generator change that moves any instance moves this digest
        h = hashlib.sha256()
        for kind in GenKind:
            for n in (*range(1, 10), 12, 16, 24, 32):
                for seed in (1, 2, 17):
                    try:
                        obj = generate(GenSpec(kind, n, seed))
                        s = json.dumps(enc_instance(kind.value, n, seed, obj), sort_keys=True)
                    except TricutError as e:
                        s = f"{kind.value} {n} {seed} {type(e).__name__}: {e}"
                    h.update(s.encode())
        assert h.hexdigest() == (
            "7b41ac3f74732dcbe9cdf7180f4f12a9accf572428fef45ba3111111689b3b58"
        )

    def test_different_seed_differs(self):
        a = generate(GenSpec(GenKind.Points3C, 9, 1))
        b = generate(GenSpec(GenKind.Points3C, 9, 2))
        assert a != b

    def test_kind_accepts_string(self):
        s = GenSpec("CirclePoints3C", 2, 0)
        assert s.kind is GenKind.CirclePoints3C
        assert generate(s) == generate(GenSpec(GenKind.CirclePoints3C, 2, 0))


class TestSimpleLines:
    def test_simple_and_colored(self):
        for seed in range(5):
            ls = generate(GenSpec(GenKind.SimpleLines3C, 8, seed))
            assert len(ls) == 8
            validate_simple(ls)
            assert set(colors_of(ls)) == set(RGB)

    def test_too_few_lines(self):
        with pytest.raises(PreconditionViolated):
            generate(GenSpec(GenKind.SimpleLines3C, 2, 0))

    def test_construction(self):
        # the generator does not check its output: the construction alone
        # must give simple arrangements; require_simple's residue pass is
        # exact when it finds nothing, so the large sizes are proofs too
        for n, seed in CONSTRUCTION_CASES:
            require_simple(generate(GenSpec(GenKind.SimpleLines3C, n, seed)))

    def test_shielded_fixture(self):
        ls = generate(GenSpec(GenKind.SimpleLines4CShielded, 0, 0))
        assert len(ls) == 9
        validate_simple(ls)
        assert set(colors_of(ls)) == {R, G, B, Color.K}


class TestPoints:
    def test_points3c_general_position(self):
        for seed in range(5):
            pts = generate(GenSpec(GenKind.Points3C, 10, seed))
            assert len(pts) == 10
            assert set(colors_of(pts)) == set(RGB)
            m = len(pts)
            for i in range(m):
                for j in range(i + 1, m):
                    for k in range(j + 1, m):
                        assert orient(pts[i], pts[j], pts[k]) != 0

    def test_points3c_construction(self):
        # the generator does not check its output: no three collinear by
        # construction alone
        for n, seed in CONSTRUCTION_CASES:
            check_general_position(generate(GenSpec(GenKind.Points3C, n, seed)),
                                   GeneralPosition.NO_THREE_COLLINEAR)

    def test_points3c_minimum(self):
        pts = generate(GenSpec(GenKind.Points3C, 3, 5))
        assert sorted(c.value for c in colors_of(pts)) == ["B", "G", "R"]

    def test_convex_balanced_on_parabola(self):
        for n in (1, 2, 3):
            pts = generate(GenSpec(GenKind.Points3CConvex, n, 11))
            assert len(pts) == 6 * n
            for c in RGB:
                assert sum(1 for p in pts if p.color is c) == 2 * n
            assert all(p.y == p.x * p.x for p in pts)
            assert len({p.x for p in pts}) == 6 * n


class TestCirclePoints:
    def test_balanced_distinct_params(self):
        pts = generate(GenSpec(GenKind.CirclePoints3C, 5, 3))
        assert len(pts) == 15
        assert len({p.t for p in pts}) == 15
        assert all(0 < p.t < 1 for p in pts)
        for c in RGB:
            assert sum(1 for p in pts if p.color is c) == 5


class TestLatticeRedHull:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_hull_is_all_red(self, n):
        s = generate(GenSpec(GenKind.LatticeRedHull, n, 17))
        assert isinstance(s, LatticePointSet)
        assert s.n == n
        hull = ortho_hull(s)
        assert {p.color for p in hull} == {R}
        # the ring design keeps every red on the hull
        assert len(hull) == n

    def test_construction(self):
        # the generator does not check its hull: the construction alone must
        # give distinct red x and y, an all-red hull, and every red on it
        cases = [(n, seed) for n in range(4, 65) for seed in range(1, 11)]
        for n, seed in cases + [(683, 1), (2048, 1)]:
            s = generate(GenSpec(GenKind.LatticeRedHull, n, seed))
            reds = [(p.x, p.y) for p in s.points if p.color is R]
            assert len({x for x, _ in reds}) == len({y for _, y in reds}) == n, (n, seed)
            hull = ortho_hull(s)
            assert {p.color for p in hull} == {R}, (n, seed)
            assert sorted((p.x, p.y) for p in hull) == sorted(reds), (n, seed)

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_n_is_impossible(self, n):
        with pytest.raises(GenerationFailed):
            generate(GenSpec(GenKind.LatticeRedHull, n, 0))


class TestLatticeDiagonal:
    def test_blocks_on_diagonal(self):
        s = generate(GenSpec(GenKind.LatticeDiagonalCounterexample, 4, 0))
        assert [p.color for p in s.points] == [R] * 4 + [G] * 4 + [B] * 4
        assert all(p.x == p.y for p in s.points)

    def test_hull_not_monochromatic(self):
        s = generate(GenSpec(GenKind.LatticeDiagonalCounterexample, 2, 0))
        assert len({p.color for p in ortho_hull(s)}) == 3


class TestThreeDiskTriangle:
    def halfplane_counts(self, pts):
        """All per-color counts an open halfplane can realize: every cut is
        witnessed by a line through two points with the rest strictly split,
        plus in/out resolutions of the two."""
        out = set()
        m = len(pts)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                left = [p for k, p in enumerate(pts)
                        if k not in (i, j) and orient(pts[i], pts[j], p) > 0]
                for extra in ((), (i,), (j,), (i, j)):
                    chosen = left + [pts[e] for e in extra]
                    out.add(tuple(
                        sum(1 for p in chosen if p.color is c) for c in RGB
                    ))
        return out

    def no_balanced_halfplane(self, pts, n):
        realizable = self.halfplane_counts(pts)
        return all((k, k, k) not in realizable for k in range(1, n))

    def test_no_balanced_halfplane(self):
        n = 3
        pts = generate(GenSpec(GenKind.ThreeDiskTriangle, n, 1))
        assert len(pts) == 9
        assert self.no_balanced_halfplane(pts, n)

    def test_construction(self):
        # the generator does not check its output: the construction alone
        # must give no three collinear, tight clusters, no balanced halfplane
        corners = {R: (0, 0), G: (4, 0), B: (2, 3)}
        for n in range(1, 7):
            for seed in range(1, 6):
                pts = generate(GenSpec(GenKind.ThreeDiskTriangle, n, seed))
                assert [p.color for p in pts] == [R] * n + [G] * n + [B] * n
                assert all(orient(a, b, c) != 0
                           for a, b, c in itertools.combinations(pts, 3)), (n, seed)
                for p in pts:
                    cx, cy = corners[p.color]
                    assert (p.x - cx) ** 2 + (p.y - cy) ** 2 < F(1, 100), (n, seed)
                assert self.no_balanced_halfplane(pts, n), (n, seed)

    def test_clusters_are_tight(self):
        pts = generate(GenSpec(GenKind.ThreeDiskTriangle, 2, 4))
        for c, (cx, cy) in ((R, (0, 0)), (G, (4, 0)), (B, (2, 3))):
            for p in pts:
                if p.color is c:
                    assert abs(p.x - cx) < 1 and abs(p.y - cy) < 1
