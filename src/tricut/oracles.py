"""Exhaustive verifiers shared by all solvers.

Each oracle walks a finite combinatorial index set that provably covers
every possible answer shape, recomputing counts through its own membership
code so a solver bug cannot hide behind a shared predicate: for arcs,
`arcset_points_key` has its own integer membership test rather than
`ArcSet.contains`, which the solver's self-check `arcset_color_counts`
uses.  Everything here is desk-scale by design and guarded by size
preconditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import Arrangement, Face, is_complete
from .core import (
    ArcSet,
    CirclePoint,
    Color,
    ColoredLine,
    Segment,
    full_circle,
    empty_arcset,
    require_distinct_parameters,
    require_rgb,
    sign,
)
from .errors import BoundaryPoint, EndpointOnLine, PreconditionViolated

# largest point count each exhaustive oracle accepts: `wedge` for
# `wedges.brute_oracle_wedges` (also the dual points of a segment), `lline`
# for `llines.brute_oracle_llines`, `arcs` for `enumerate_2arc_sets`.  The
# L-line oracle's one table of prefix counts holds 3 (m + 1)^2 ints, about
# 8.7 MB at 600 points
ORACLE_MAX_POINTS = {"wedge": 18, "lline": 600, "arcs": 30}


# -- faces ----------------------------------------------------------------------


def scan_all_complete_faces(
    arr: Arrangement, required: set[Color] | None = None
) -> list[Face]:
    """All bounded cells passing the completeness test.

    With `required` unset this is the exhaustive counterpart of the
    incremental cell finder.  Passing a color set switches the test to plain
    presence of every such color on the cell boundary, which is how the
    four-color counterexample is scanned.
    """
    out = []
    for f in arr.faces:
        if not f.bounded:
            continue
        if required is None:
            if is_complete(f):
                out.append(f)
        elif required <= set(f.boundary_colors):
            out.append(f)
    return out


# -- segments -------------------------------------------------------------------


def count_segment_crossings(
    seg: Segment, lines: Sequence[ColoredLine]
) -> dict[Color, int]:
    """Proper crossings of a segment per line color.

    Both endpoints must avoid every line; a segment riding along a line
    (or merely ending on one) is a precondition breach, not a crossing.
    """
    counts: dict[Color, int] = {}
    for i, l in enumerate(lines):
        counts.setdefault(l.color, 0)
        sp = sign(l.eval_at(seg.p))
        sq = sign(l.eval_at(seg.q))
        if sp == 0 or sq == 0:
            raise EndpointOnLine(f"segment endpoint lies on line {i}")
        if sp != sq:
            counts[l.color] += 1
    return counts


# -- arc sets -------------------------------------------------------------------


def arcset_points_key(a: ArcSet, points: Sequence[CirclePoint]) -> tuple[int, ...]:
    """Indices of the points inside the set; the combinatorial class key.

    Membership is decided here on integers, not through `ArcSet.contains`:
    each arc's endpoints are read once as (numerator, denominator) pairs and
    each parameter, taken mod 1, is compared to them by cross-multiplication.
    A parameter on an endpoint raises `BoundaryPoint`.
    """
    if a.is_full_circle:
        return tuple(range(len(points)))
    # per arc: lo, the end hi read mod 1, and whether hi >= 1; such an arc
    # holds t when t > lo or t < end, any other arc when lo < t < end
    arcs = []
    for lo, hi in a.arcs:
        end = hi - 1 if hi >= 1 else hi
        arcs.append((lo.numerator, lo.denominator, end.numerator, end.denominator, hi >= 1))
    out = []
    for i, p in enumerate(points):
        num, den = p.t.numerator, p.t.denominator
        num %= den
        for lo_n, lo_d, end_n, end_d, wraps in arcs:
            vs_lo = num * lo_d - lo_n * den
            vs_end = num * end_d - end_n * den
            if vs_lo == 0 or vs_end == 0:
                raise BoundaryPoint(f"parameter {Fraction(num, den)} is an arc endpoint")
            if (vs_lo > 0 or vs_end < 0) if wraps else (vs_lo > 0 and vs_end < 0):
                out.append(i)
                break
    return tuple(out)


def enumerate_2arc_sets(points: Sequence[CirclePoint], k: int) -> list[ArcSet]:
    """Every at-most-2-arc set with exactly k points of each color.

    Arc endpoints only ever need to sit in the gaps between consecutive
    point parameters, so candidates are indexed by 0, 2 or 4 chosen gaps;
    gap g lies just before sorted point g, and gap 0 wraps past 1.

    Counts are single-int keys: each point's color is one digit in base
    m + 1 (R = (m+1)², G = m + 1, B = 1), so the key of a run of sorted
    points is the difference of two prefix sums, and since no count
    exceeds m, equal keys mean equal count vectors.  A 2-arc set is
    [g1, g2) ∪ [g3, g4) with g1 < g2 < g3 < g4, or its complement
    [g2, g3) ∪ [g4, g1).  One pass over the pairs g1 < g2 looks up the
    pairs (g3, g4) with g3 > g2 whose key completes either shape, from a
    table of pairs by key, so the cost is O(m² + answers).

    Returns one canonical representative per class (endpoints at gap
    midpoints), sorted by (arc count, arc list); the sort runs on the
    integer ranks of the endpoints, which order them as their values do.
    """
    pts = tuple(points)
    m = len(pts)
    cap = ORACLE_MAX_POINTS["arcs"]
    if m == 0 or m > cap:
        raise PreconditionViolated(f"oracle is limited to 1..{cap} points, got {m}")
    if k < 0:
        raise PreconditionViolated(f"negative target {k}")
    require_rgb([p.color for p in pts])
    require_distinct_parameters(pts)

    srt = sorted(pts, key=lambda p: p.t)
    ts = [p.t for p in srt]
    digit = {Color.R: (m + 1) ** 2, Color.G: m + 1, Color.B: 1}
    pre = [0]
    for p in srt:
        pre.append(pre[-1] + digit[p.color])
    total = pre[m]
    target = k * ((m + 1) ** 2 + m + 2)

    # gap 0's midpoint sits below ts[0] when t_first + t_last >= 1 (at
    # exactly 0 when equal) and ranks first, otherwise above ts[-1] and last
    low0 = ts[0] + ts[-1] >= 1
    mid = [(ts[-1] + ts[0] + 1) / 2 - (1 if low0 else 0)]
    mid += [(ts[g - 1] + ts[g]) / 2 for g in range(1, m)]
    rank = list(range(m)) if low0 else [m - 1] + list(range(m - 1))

    def arc(a, b):
        # the arc from gap a's midpoint forward to gap b's, with its ranks;
        # an end not above the start wraps past 1 and ranks after every midpoint
        if rank[b] > rank[a]:
            return (rank[a], rank[b]), (mid[a], mid[b])
        return (rank[a], rank[b] + m), (mid[a], mid[b] + 1)

    def two(x, y):
        if x[0] > y[0]:
            x, y = y, x
        return x[0] + y[0], ArcSet((x[1], y[1]))

    out: list[ArcSet] = []
    if target == 0:
        out.append(empty_arcset())
    if total == target:
        out.append(full_circle())
    singles = []
    for i in range(m):
        for j in range(m):
            if i != j and (pre[j] - pre[i] if i < j else total - pre[i] + pre[j]) == target:
                ranks, lohi = arc(i, j)
                singles.append((ranks, ArcSet((lohi,))))

    # pairs (g3, g4) by key, g3 descending, so each lookup stops at g3 <= g2
    later: dict[int, list[tuple[int, int]]] = {}
    for g3 in range(m - 1, -1, -1):
        for g4 in range(g3 + 1, m):
            later.setdefault(pre[g4] - pre[g3], []).append((g3, g4))
    doubles = []
    for g1 in range(m):
        for g2 in range(g1 + 1, m):
            v = pre[g2] - pre[g1]
            for g3, g4 in later.get(target - v, ()):
                if g3 <= g2:
                    break
                doubles.append(two(arc(g1, g2), arc(g3, g4)))
            for g3, g4 in later.get(total - target - v, ()):
                if g3 <= g2:
                    break
                doubles.append(two(arc(g2, g3), arc(g4, g1)))

    for found in (singles, doubles):
        found.sort(key=lambda e: e[0])
        out.extend(a for _, a in found)
    return out


# -- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Solver answer checked against an oracle; one JSON line per check.

    `solver_answer` and `oracle_answers` must already be plain JSON-able
    data.  `counts` are the per-color counts of the solver answer,
    recomputed by oracle-side code.  `member` true requires those counts to
    equal the target exactly.
    """

    instance_id: str
    solver_answer: object
    oracle_answers: tuple
    member: bool
    counts: tuple
    target: tuple
    elapsed_s: float

    def __post_init__(self):
        if self.member and tuple(self.counts) != tuple(self.target):
            raise PreconditionViolated(
                f"membership claimed but counts {self.counts} != target {self.target}"
            )

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "instance_id": self.instance_id,
                "solver_answer": self.solver_answer,
                "oracle_answers": list(self.oracle_answers),
                "member": self.member,
                "counts": list(self.counts),
                "target": list(self.target),
                "elapsed_s": round(self.elapsed_s, 6),
            },
            default=str,
            sort_keys=True,
        )
