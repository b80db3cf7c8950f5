"""Exhaustive verifiers shared by all solvers.

Each oracle walks a finite combinatorial index set that provably covers
every possible answer shape, recomputing counts through its own membership
code so a solver bug cannot hide behind a shared predicate.  Everything
here is desk-scale by design and guarded by size preconditions.
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
    RGB,
    Segment,
    arcset,
    arcset_component_count,
    full_circle,
    empty_arcset,
    require_distinct_parameters,
    require_rgb,
    sign,
)
from .errors import EndpointOnLine, PreconditionViolated


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
    """Indices of the points inside the set; the combinatorial class key."""
    return tuple(i for i, p in enumerate(points) if a.contains(p.t))


def enumerate_2arc_sets(points: Sequence[CirclePoint], k: int) -> list[ArcSet]:
    """Every at-most-2-arc set with exactly k points of each color.

    Arc endpoints only ever need to sit in the gaps between consecutive
    point parameters, so candidates are indexed by 0, 2 or 4 chosen gaps;
    counts come from prefix sums over the sorted order, not from arc
    membership tests.  Returns one canonical representative per class
    (endpoints at gap midpoints), sorted by (arc count, arc list).
    """
    pts = tuple(points)
    m = len(pts)
    if m == 0 or m > 30:
        raise PreconditionViolated(f"oracle is limited to 1..30 points, got {m}")
    if k < 0:
        raise PreconditionViolated(f"negative target {k}")
    require_rgb([p.color for p in pts])
    require_distinct_parameters(pts)

    order = sorted(range(m), key=lambda i: pts[i].t)
    ts = [pts[i].t for i in order]
    cix = {Color.R: 0, Color.G: 1, Color.B: 2}
    pre = [(0, 0, 0)]
    for i in order:
        v = list(pre[-1])
        v[cix[pts[i].color]] += 1
        pre.append(tuple(v))
    total = pre[m]
    target = (k, k, k)

    def range_counts(i, j):
        # sorted positions i..j-1, cyclically; i == j means empty
        if i <= j:
            return tuple(pre[j][c] - pre[i][c] for c in range(3))
        return tuple(total[c] - pre[i][c] + pre[j][c] for c in range(3))

    def gap_mid(g):
        # gap g lies just before sorted point g; gap 0 wraps past 1
        if g == 0:
            v = (ts[m - 1] + ts[0] + 1) / 2
            return v - 1 if v >= 1 else v
        return (ts[g - 1] + ts[g]) / 2

    def one_arc(a, b):
        lo, hi = gap_mid(a), gap_mid(b)
        if hi <= lo:
            hi += 1
        return arcset([(lo, hi)])

    out: list[ArcSet] = []
    if target == (0, 0, 0):
        out.append(empty_arcset())
    if total == target:
        out.append(full_circle())
    for i in range(m):
        for j in range(m):
            if i != j and range_counts(i, j) == target:
                out.append(one_arc(i, j))
    for g1 in range(m):
        for g2 in range(g1 + 1, m):
            for g3 in range(g2 + 1, m):
                for g4 in range(g3 + 1, m):
                    c_a = tuple(
                        x + y
                        for x, y in zip(range_counts(g1, g2), range_counts(g3, g4))
                    )
                    if c_a == target:
                        out.append(
                            arcset(list(one_arc(g1, g2).arcs) + list(one_arc(g3, g4).arcs))
                        )
                    c_b = tuple(
                        x + y
                        for x, y in zip(range_counts(g2, g3), range_counts(g4, g1))
                    )
                    if c_b == target:
                        out.append(
                            arcset(list(one_arc(g2, g3).arcs) + list(one_arc(g4, g1).arcs))
                        )
    return sorted(out, key=lambda a: (arcset_component_count(a), a.arcs))


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
