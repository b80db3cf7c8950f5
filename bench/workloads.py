"""Instance ladders of the three benchmark workloads.

Each builder takes the workload seed and returns a list of `Instance`s.
Generating the inputs (and writing the CLI input files) happens in the
builder, outside the timed loop.  `Instance.solve` is the timed call;
`Instance.check` inspects its result afterwards, untimed.

Every program call goes through a module attribute (`cells.find_complete_face`,
`cli.run`, ...) looked up at call time, so the wrappers the traced run installs
in those namespaces see every call.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tricut import (
    arcs,
    cells,
    cli,
    core,
    generators,
    llines,
    oracles,
    serialization as ser,
    svg,
    wedges,
)
from tricut.core import Color
from tricut.errors import PreconditionViolated
from tricut.generators import GenKind, GenSpec

KINDS = ("cell", "wedge111", "wedge", "segment", "arcs", "lline")
RGB = (Color.R, Color.G, Color.B)


@dataclass
class Instance:
    kind: str
    label: str
    payload: object  # JSON form of the input; hashed into inputs_sha
    solve: Callable[[], object]
    check: Callable[[object], bool]


def _rgb(counts: dict) -> tuple[int, int, int]:
    return tuple(counts.get(c, 0) for c in RGB)


def _gen(kind: GenKind, n: int, seed: int):
    return generators.generate(GenSpec(kind, n, seed))


# -- answer checks shared by all workloads ----------------------------------------
#
# `corrupt` drops one point (or line) from the data an answer is counted
# against; the benchmark's self-test uses it to prove the checks are live.


def _drop(items, corrupt: bool):
    return tuple(items)[1:] if corrupt else tuple(items)


def _face_ok(face, lines) -> bool:
    """Complete, and every edge lies on the boundary line it names."""
    if not face.bounded or not cells.is_complete(face):
        return False
    m = len(face.vertices)
    for j, (li, c) in enumerate(zip(face.boundary_lines, face.boundary_colors)):
        l = lines[li]
        if l.color is not c:
            return False
        if l.eval_at(face.vertices[j]) != 0 or l.eval_at(face.vertices[(j + 1) % m]) != 0:
            return False
    return True


def _wedge_ok(w, points, n: int, corrupt: bool) -> bool:
    return _rgb(wedges.wedge_color_counts(w, _drop(points, corrupt))) == (n, n, n)


def _segment_ok(seg, lines, n: int, corrupt: bool) -> bool:
    got = oracles.count_segment_crossings(seg, _drop(lines, corrupt))
    return _rgb(got) == (n, n, n)


def _arcs_ok(a, points, k: int, corrupt: bool) -> bool:
    got = core.arcset_color_counts(a, _drop(points, corrupt))
    return a.component_count() <= 2 and _rgb(got) == (k, k, k)


def _lline_ok(l, k: int, s, corrupt: bool) -> bool:
    n = s.n
    got = llines.lline_counts(l, _drop(s.points, corrupt))
    return 1 <= k <= n - 1 and got == ((k, k, k), (n - k, n - k, n - k))


# -- desk-verified: solver, brute-force oracle, SVG, all timed -----------------------


def balanced_points(n: int, seed: int):
    """6n random points, 2n per color, distinct x, no three collinear."""
    rng = random.Random(seed)
    m = 6 * n
    colors = [Color.R] * (2 * n) + [Color.G] * (2 * n) + [Color.B] * (2 * n)
    for _ in range(1000):
        xs = rng.sample(range(-40 * n, 40 * n + 1), m)
        ys = rng.sample(range(-40 * n, 40 * n + 1), m)
        rng.shuffle(colors)
        points = tuple(core.pt(x, y, c) for x, y, c in zip(xs, ys, colors))
        try:
            core.check_general_position(points, core.GeneralPosition.NO_THREE_COLLINEAR)
        except PreconditionViolated:
            continue
        return points
    raise RuntimeError(f"no balanced point set for n={n}, seed={seed}")


def _desk_cell(lines, corrupt):
    def solve():
        face = cells.find_complete_face(lines)
        arr = cells.build_arrangement(lines)
        complete = oracles.scan_all_complete_faces(arr)
        verts = frozenset(face.vertices)
        member = any(frozenset(f.vertices) == verts for f in complete)
        svg.render_arrangement(arr, face)
        return face, member

    def check(res):
        face, member = res
        return member and _face_ok(face, _drop(lines, corrupt))

    return solve, check


def _desk_wedge111(points, corrupt):
    duals = [core.dual_point_to_line(p) for p in points]

    def solve():
        w = wedges.find_111_wedge(points)
        oracle = wedges.brute_oracle_wedges(points, (1, 1, 1))
        member = wedges.wedge_point_indices(w, points) in oracle
        seg = wedges.wedge_dual_segment(w)
        crossings = _rgb(oracles.count_segment_crossings(seg, duals))
        svg.render_wedge(points, w)
        return w, member and crossings == (1, 1, 1)

    def check(res):
        w, member = res
        return member and _wedge_ok(w, points, 1, corrupt)

    return solve, check


def _desk_wedge(points, corrupt):
    n = len(points) // 6

    def solve():
        w = wedges.sweep_balanced_wedge(points, validate=True)
        oracle = wedges.brute_oracle_wedges(points, (n, n, n))
        member = wedges.wedge_point_indices(w, points) in oracle
        svg.render_wedge(points, w)
        return w, member

    def check(res):
        w, member = res
        return member and _wedge_ok(w, points, n, corrupt)

    return solve, check


def _desk_segment(lines, corrupt):
    n = len(lines) // 6
    duals = tuple(core.dual_line_to_point(l) for l in lines)

    def solve():
        seg = wedges.halving_segment(lines)
        # the oracle works on the dual wedge of the segment, as `tricut verify` does
        f1 = core.dual_point_to_line(core.pt(seg.p[0], seg.p[1], Color.K))
        f2 = core.dual_point_to_line(core.pt(seg.q[0], seg.q[1], Color.K))
        apex = core.intersect(f1, f2)
        w = wedges.wedge_from_functionals(
            apex, (f1.a, f1.b, f1.c), (f2.a, f2.b, f2.c), contains_disagree=True
        )
        oracle = wedges.brute_oracle_wedges(duals, (n, n, n))
        member = wedges.wedge_point_indices(w, duals) in oracle
        svg.render_arrangement(cells.build_arrangement(lines))
        return seg, member

    def check(res):
        seg, member = res
        return member and _segment_ok(seg, lines, n, corrupt)

    return solve, check


def _desk_arcs(points, k, corrupt):
    def solve():
        a = arcs.find_k_arcset(points, k)
        keys = {oracles.arcset_points_key(o, points) for o in oracles.enumerate_2arc_sets(points, k)}
        member = oracles.arcset_points_key(a, points) in keys
        svg.render_arcset(points, a)
        return a, member

    def check(res):
        a, member = res
        return member and _arcs_ok(a, points, k, corrupt)

    return solve, check


def _desk_lline(s, corrupt):
    def solve():
        l, k = llines.find_balanced_lline(s, validate=True)
        member = (l, k) in llines.brute_oracle_llines(s)
        svg.render_lline(s, l)
        return l, k, member

    def check(res):
        l, k, member = res
        return member and _lline_ok(l, k, s, corrupt)

    return solve, check


def _desk_instance(kind: str, size: int, k, iseed: int, corrupt: bool):
    """(payload, (solve, check)) for one desk-scale instance."""
    if kind == "cell":
        lines = _gen(GenKind.SimpleLines3C, size, iseed)
        return [ser.enc_line(l) for l in lines], _desk_cell(lines, corrupt)
    if kind == "wedge111":
        points = _gen(GenKind.Points3C, size, iseed)
        return [ser.enc_point(p) for p in points], _desk_wedge111(points, corrupt)
    if kind == "wedge":
        points = balanced_points(size // 6, iseed)
        return [ser.enc_point(p) for p in points], _desk_wedge(points, corrupt)
    if kind == "segment":
        lines = tuple(core.dual_point_to_line(p) for p in balanced_points(size // 6, iseed))
        return [ser.enc_line(l) for l in lines], _desk_segment(lines, corrupt)
    if kind == "arcs":
        points = _gen(GenKind.CirclePoints3C, size, iseed)
        payload = {"points": [ser.enc_circle_point(p) for p in points], "k": k}
        return payload, _desk_arcs(points, k, corrupt)
    s = _gen(GenKind.LatticeRedHull, size, iseed)
    return ser.enc_lattice_set(s), _desk_lline(s, corrupt)


def desk_verified(seed: int, smoke: bool = False, corrupt: bool = False, workdir=None):
    """Criteria 1, 4, 5, 7 and 8 at desk scale, each answer put through its oracle."""
    out: list[Instance] = []
    for kind, size, r, k in _expand(DESK_LADDER, smoke):
        payload, (solve, check) = _desk_instance(
            kind, size, k, _iseed(seed, kind, size, r, k), corrupt)
        out.append(Instance(kind, _label(kind, size, k, r), payload, solve, check))
    return _interleave(out)


# -- scale-cli and rational-scale: `tricut solve` in process, answers counted after --


class _RationalMap:
    """Seeded rational affine map x' = a x + c, y' = d y + e x + f.

    a, d > 0, so x-order, orientation and general position are kept; the
    denominators (10^5..10^6) change only the arithmetic the solvers do.
    """

    def __init__(self, rng: random.Random):
        def rat(lo, hi):
            den = rng.randint(100_000, 1_000_000)
            return Fraction(rng.randint(lo * den, hi * den), den)

        self.rng = rng
        self.a, self.d = rat(1, 3), rat(1, 3)
        self.e, self.c, self.f = rat(-1, 1), rat(-100, 100), rat(-100, 100)

    def point(self, p):
        return core.pt(self.a * p.x + self.c, self.d * p.y + self.e * p.x + self.f, p.color)

    def line(self, l):
        # image of {A x + B y + C = 0}: substitute the inverse map
        a, c, d, e, f = self.a, self.c, self.d, self.e, self.f
        return core.line(
            l.a / a - l.b * e / (a * d),
            l.b / d,
            l.c - l.a * c / a - l.b * f / d + l.b * e * c / (a * d),
            l.color,
        )

    def circle(self, points):
        """Order-preserving relabeling onto distinct large denominators."""
        m = len(points)
        vals: set[Fraction] = set()
        while len(vals) < m:
            den = self.rng.randint(100_000, 1_000_000)
            vals.add(Fraction(self.rng.randint(1, den - 1), den))
        order = sorted(range(m), key=lambda i: points[i].t)
        new = [None] * m
        for t, i in zip(sorted(vals), order):
            new[i] = core.circle_point(t, points[i].color)
        return tuple(new)

    def lattice(self, s):
        """Order-preserving relabeling of both axes to large integers."""
        m = len(s.points)
        nx = sorted(self.rng.sample(range(-10**12, 10**12), m))
        ny = sorted(self.rng.sample(range(-10**12, 10**12), m))
        rx = {x: nx[r] for r, x in enumerate(sorted(p.x for p in s.points))}
        ry = {y: ny[r] for r, y in enumerate(sorted(p.y for p in s.points))}
        return llines.LatticePointSet(
            tuple(core.pt(rx[p.x], ry[p.y], p.color) for p in s.points)
        )


def _read_answer(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["answer"]


def _dec_face(d: dict):
    return cells.Face(
        bounded=bool(d["bounded"]),
        vertices=tuple(ser.dec_xy(v) for v in d["vertices"]),
        boundary_lines=tuple(int(i) for i in d["boundary_lines"]),
        boundary_colors=tuple(Color(c) for c in d["boundary_colors"]),
    )


def _answer_ok(kind: str, obj, k, ans: dict, corrupt: bool) -> bool:
    """The public count functions applied to a `tricut solve` answer."""
    if kind == "cell":
        return _face_ok(_dec_face(ans["face"]), _drop(obj, corrupt))
    if kind == "wedge111":
        return _wedge_ok(ser.dec_wedge(ans["wedge"]), obj, 1, corrupt)
    if kind == "wedge":
        return _wedge_ok(ser.dec_wedge(ans["wedge"]), obj, len(obj) // 6, corrupt)
    if kind == "segment":
        return _segment_ok(ser.dec_segment(ans["segment"]), obj, len(obj) // 6, corrupt)
    if kind == "arcs":
        return _arcs_ok(ser.dec_arcset(ans["arcs"]), obj, k, corrupt)
    return _lline_ok(ser.dec_lline(ans["lline"]), int(ans["k"]), obj, corrupt)


# -- ladders ----------------------------------------------------------------------
#
# A row is (kind, size, replicas, k values).  Size is the generator's n, except
# for wedge and segment, where it is the number of points (lines), 6n.  Each
# replica, and each k, is another instance of that size from its own seed.  The
# workloads' seeds change every instance, so kinds whose solve time depends on
# the input (x0 retries in the wedge sweep, orderings visited by the L-line
# search) get many replicas of a mid size: a run then averages over inputs
# instead of hanging on a few.  One pass takes 10-25 s of CPU time on a 2-core
# x86-64 VM, and holds at least 100 instances.


def _rows(kind, sizes, replicas, ks=lambda n: (None,)):
    return [(kind, n, replicas, tuple(ks(n))) for n in sizes]


def _every_k(n):
    return range(1, n + 1)


def _three_k(n):
    return (1, n // 2 + 1, n - 1)


DESK_LADDER = (
    _rows("cell", range(3, 13), 4)
    + _rows("wedge111", range(3, 16), 4)
    + _rows("wedge", (6, 12), 5)
    + _rows("wedge", (18,), 10)
    + _rows("segment", (6, 12), 5)
    + _rows("segment", (18,), 10)
    + _rows("arcs", range(2, 9), 1, _every_k)
    + _rows("lline", range(4, 9), 8)
)
SCALE_LADDER = (
    _rows("cell", (100,), 5)
    + _rows("cell", (200,), 1)
    + _rows("wedge111", (30,), 12)
    + _rows("wedge111", (45,), 3)
    + _rows("wedge", (24,), 48)
    + _rows("segment", (24,), 48)
    + _rows("arcs", (40,), 6, _three_k)
    + _rows("arcs", (80,), 2, _three_k)
    + _rows("lline", (32,), 36)
)
RATIONAL_LADDER = (
    _rows("cell", (50,), 4)
    + _rows("cell", (100,), 3)
    + _rows("cell", (150,), 1)
    + _rows("wedge111", (15, 30), 8)
    + _rows("wedge", (12, 36), 4)
    + _rows("wedge", (24,), 10)
    + _rows("segment", (12, 36), 4)
    + _rows("segment", (24,), 10)
    + _rows("arcs", (10, 20, 40), 3, _three_k)
    + _rows("lline", (16,), 10)
    + _rows("lline", (24,), 16)
)


def _expand(ladder, smoke: bool):
    """(kind, size, replica, k) for every instance; with `smoke`, only the
    first row of each kind, once, at its first k."""
    seen = set()
    for kind, size, replicas, ks in ladder:
        if smoke:
            if kind in seen:
                continue
            seen.add(kind)
            yield kind, size, 0, ks[0]
            continue
        for r in range(replicas):
            for k in ks:
                yield kind, size, r, k


def _interleave(instances: list[Instance]) -> list[Instance]:
    """Spread each kind evenly over the pass.

    The host's speed drifts over seconds; run back to back, one kind's block
    could fall into a slow spell alone.  Interleaved, every kind samples the
    whole pass.
    """
    count = Counter(inst.kind for inst in instances)
    rank: Counter = Counter()
    keyed = []
    for inst in instances:
        keyed.append(((rank[inst.kind] + 0.5) / count[inst.kind], inst))
        rank[inst.kind] += 1
    return [inst for _, inst in sorted(keyed, key=lambda t: t[0])]


def _iseed(seed: int, kind: str, size: int, replica: int, k) -> int:
    # every instance has its own input, also across k (instances sharing one
    # point set would move together and average nothing); segment instances
    # are the duals of the wedge instances of the same size and replica
    kind = "wedge" if kind == "segment" else kind
    return (((seed * 8 + KINDS.index(kind)) * 1000 + size) * 100 + replica) * 1000 + (k or 0)


def _label(kind: str, size: int, k, replica: int) -> str:
    return f"{kind} n={size}" + ("" if k is None else f" k={k}") + f" #{replica}"


def _scale_inputs(kind: str, size: int, seed: int, amap):
    """(objects the checks count against, instance payload) for one rung."""
    if kind == "cell":
        lines = _gen(GenKind.SimpleLines3C, size, seed)
        if amap:
            lines = tuple(amap.line(l) for l in lines)
        return lines, {"lines": [ser.enc_line(l) for l in lines]}
    if kind == "wedge111":
        points = _gen(GenKind.Points3C, size, seed)
        if amap:
            points = tuple(amap.point(p) for p in points)
        return points, {"points": [ser.enc_point(p) for p in points]}
    if kind in ("wedge", "segment"):
        points = _gen(GenKind.Points3CConvex, size // 6, seed)
        if amap:
            points = tuple(amap.point(p) for p in points)
        if kind == "wedge":
            return points, {"points": [ser.enc_point(p) for p in points]}
        lines = tuple(core.dual_point_to_line(p) for p in points)
        return lines, {"lines": [ser.enc_line(l) for l in lines]}
    if kind == "arcs":
        points = _gen(GenKind.CirclePoints3C, size, seed)
        if amap:
            points = amap.circle(points)
        return points, {"points": [ser.enc_circle_point(p) for p in points]}
    s = _gen(GenKind.LatticeRedHull, size, seed)
    if amap:
        s = amap.lattice(s)
    return s, {"points": ser.enc_lattice_set(s)}


def _scale(ladder, seed: int, rational: bool, smoke: bool, corrupt: bool, workdir: str):
    out: list[Instance] = []
    for kind, size, r, k in _expand(ladder, smoke):
        iseed = _iseed(seed, kind, size, r, k)
        amap = _RationalMap(random.Random(iseed)) if rational else None
        obj, payload = _scale_inputs(kind, size, iseed, amap)
        src = os.path.join(workdir, f"{kind}-{size}-{r}-{k}.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        dst = os.path.join(workdir, f"{kind}-{size}-{r}-{k}.out.json")
        argv = ["solve", kind, "--in", src, "--out", dst]
        if k is not None:
            argv += ["--k", str(k)]

        def check(rc, kind=kind, obj=obj, k=k, dst=dst):
            return rc == 0 and _answer_ok(kind, obj, k, _read_answer(dst), corrupt)

        out.append(Instance(
            kind, _label(kind, size, k, r), {"argv": argv[:2] + argv[6:], "in": payload},
            lambda argv=argv: cli.run(argv), check,
        ))
    return _interleave(out)


def scale_cli(seed: int, smoke: bool = False, corrupt: bool = False, workdir=None):
    """`tricut solve` past the oracle caps; validation, sweeps and JSON dominate."""
    return _scale(SCALE_LADDER, seed, False, smoke, corrupt, workdir)


def rational_scale(seed: int, smoke: bool = False, corrupt: bool = False, workdir=None):
    """The scale shapes, smaller, under a seeded rational map: same combinatorics,
    other arithmetic."""
    return _scale(RATIONAL_LADDER, seed, True, smoke, corrupt, workdir)


WORKLOADS = {
    "desk-verified": desk_verified,
    "scale-cli": scale_cli,
    "rational-scale": rational_scale,
}
