"""Seeded instance generators for every input class the solvers accept.

generate(GenSpec(kind, n, seed)) is pure: the same triple always rebuilds
the identical instance, and every instance is run through its class
validator before it is returned.  Bounded retries guard the rejection
sampling; exhausting them raises GenerationFailed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .cells import gen_shielded_counterexample, require_simple
from .core import (
    Color,
    ColoredLine,
    ColoredPoint,
    CirclePoint,
    GeneralPosition,
    RGB,
    check_general_position,
    circle_point,
    line_slope_intercept,
    pt,
)
from .errors import GenerationFailed, NotSimple, PreconditionViolated
from .llines import LatticePointSet, ortho_hull


class GenKind(enum.Enum):
    SimpleLines3C = "SimpleLines3C"
    SimpleLines4CShielded = "SimpleLines4CShielded"
    Points3C = "Points3C"
    Points3CConvex = "Points3CConvex"
    CirclePoints3C = "CirclePoints3C"
    LatticeRedHull = "LatticeRedHull"
    LatticeDiagonalCounterexample = "LatticeDiagonalCounterexample"
    ThreeDiskTriangle = "ThreeDiskTriangle"


@dataclass(frozen=True)
class GenSpec:
    kind: GenKind
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", GenKind(self.kind))


_RETRIES = 200
_RETRIES_RED_HULL = 1000


def _gen_simple_lines(n: int, seed: int) -> tuple[ColoredLine, ...]:
    if n < 3:
        raise PreconditionViolated("need at least 3 lines, one per color")
    colors = [RGB[i % 3] for i in range(n)]
    for attempt in range(_RETRIES):
        rng = random.Random(seed * 1_000_003 + attempt)
        slopes = rng.sample(range(-8 * n, 8 * n + 1), n)
        ls = tuple(
            line_slope_intercept(s, Fraction(rng.randint(-10 * n, 10 * n)), c)
            for s, c in zip(slopes, colors)
        )
        try:
            require_simple(ls)
            return ls
        except NotSimple:
            continue
    raise GenerationFailed(f"no simple arrangement after {_RETRIES} tries")


def _gen_points(n: int, seed: int) -> tuple[ColoredPoint, ...]:
    if n < 3:
        raise PreconditionViolated("need at least 3 points, one per color")
    for attempt in range(_RETRIES):
        rng = random.Random(seed * 2_000_003 + attempt)
        coords = set()
        while len(coords) < n:
            coords.add((rng.randint(-8 * n, 8 * n), rng.randint(-8 * n, 8 * n)))
        coords = sorted(coords)
        rng.shuffle(coords)
        colors = [Color.R, Color.G, Color.B] + [
            rng.choice(RGB) for _ in range(n - 3)
        ]
        points = tuple(pt(x, y, c) for (x, y), c in zip(coords, colors))
        try:
            check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
        except PreconditionViolated:
            continue
        return points
    raise GenerationFailed(f"no general-position point set after {_RETRIES} tries")


def _gen_points_convex(n: int, seed: int) -> tuple[ColoredPoint, ...]:
    # 6n points on a parabola: convex position, distinct x, no 3 collinear
    if n < 1:
        raise PreconditionViolated("n must be positive")
    rng = random.Random(seed * 3_000_017)
    xs = rng.sample(range(-20 * n, 20 * n + 1), 6 * n)
    colors = [Color.R] * (2 * n) + [Color.G] * (2 * n) + [Color.B] * (2 * n)
    rng.shuffle(colors)
    return tuple(pt(x, x * x, c) for x, c in zip(xs, colors))


def _gen_circle_points(n: int, seed: int) -> tuple[CirclePoint, ...]:
    if n < 1:
        raise PreconditionViolated("n must be positive")
    rng = random.Random(seed * 4_000_037)
    m = 3 * n
    ticks = rng.sample(range(1, 24 * m), m)
    colors = [Color.R] * n + [Color.G] * n + [Color.B] * n
    rng.shuffle(colors)
    return tuple(
        circle_point(Fraction(t, 24 * m), c) for t, c in zip(ticks, colors)
    )


def _gen_lattice_red_hull(n: int, seed: int) -> LatticePointSet:
    """n reds on a 4-arm staircase ring, n greens and n blues inside.

    The four anchors dominate the central box in the four quadrant orders,
    so the inner points stay off the orthogonal hull; the arm points are
    quadrant antichains, so every red stays on it.  A monochromatic hull
    forces at least 4 points of the hull color, hence n >= 4.
    """
    if n < 4:
        raise GenerationFailed(
            "no such instance: a monochromatic orthogonal hull needs a hull-color "
            "point in each of the four quadrants of any other point, so n >= 4"
        )
    m = 3 * n + 2
    anchors = [(m, m), (-m, m - 1), (m - 1, -m), (-m + 1, -m + 1)]
    arms = []
    for j in range(n - 4):
        t = j // 4 + 1
        arm = j % 4
        if arm == 0:
            arms.append((m - 2 * t, m + 2 * t))
        elif arm == 1:
            arms.append((-m - 2 * t, m - 1 - 2 * t))
        elif arm == 2:
            arms.append((m - 1 + 2 * t, -m + 2 * t))
        else:
            arms.append((-m + 1 + 2 * t, -m + 1 - 2 * t))
    reds = anchors + arms

    lo, hi = -m + 2, m - 2
    for attempt in range(_RETRIES_RED_HULL):
        rng = random.Random(seed * 5_000_011 + attempt)
        used_x = {x for x, _ in reds}
        used_y = {y for _, y in reds}
        inner = []
        ok = True
        for _ in range(2 * n):
            for _try in range(200):
                x, y = rng.randint(lo, hi), rng.randint(lo, hi)
                if x not in used_x and y not in used_y:
                    break
            else:
                ok = False
                break
            used_x.add(x)
            used_y.add(y)
            inner.append((x, y))
        if not ok:
            continue
        colors = [Color.G] * n + [Color.B] * n
        rng.shuffle(colors)
        points = [pt(x, y, Color.R) for x, y in reds]
        points += [pt(x, y, c) for (x, y), c in zip(inner, colors)]
        try:
            s = LatticePointSet(tuple(points))
        except PreconditionViolated:
            continue
        hull = ortho_hull(s)
        if {p.color for p in hull} == {Color.R}:
            return s
    raise GenerationFailed(f"no red-hull instance after {_RETRIES_RED_HULL} tries")


def _gen_lattice_diagonal(n: int, seed: int) -> LatticePointSet:
    # color blocks ascend the main diagonal; seed is unused but kept for
    # the uniform (kind, n, seed) addressing
    if n < 1:
        raise PreconditionViolated("n must be positive")
    points = [pt(i, i, Color.R) for i in range(n)]
    points += [pt(i, i, Color.G) for i in range(n, 2 * n)]
    points += [pt(i, i, Color.B) for i in range(2 * n, 3 * n)]
    return LatticePointSet(tuple(points))


def _gen_three_disks(n: int, seed: int) -> tuple[ColoredPoint, ...]:
    """n points per color in tiny clusters at triangle corners.

    No line can meet all three clusters, so no halfplane holds exactly k of
    each color for 0 < k < n."""
    if n < 1:
        raise PreconditionViolated("n must be positive")
    corners = {Color.R: (0, 0), Color.G: (4, 0), Color.B: (2, 3)}
    d = 64 * n
    for attempt in range(_RETRIES):
        rng = random.Random(seed * 6_000_101 + attempt)
        points = []
        for c in RGB:
            cx, cy = corners[c]
            offs = set()
            while len(offs) < n:
                offs.add((rng.randint(-2 * n, 2 * n), rng.randint(-2 * n, 2 * n)))
            for dx, dy in sorted(offs):
                points.append(pt(cx + Fraction(dx, d), cy + Fraction(dy, d), c))
        points = tuple(points)
        try:
            check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
        except PreconditionViolated:
            continue
        return points
    raise GenerationFailed(f"no three-disk instance after {_RETRIES} tries")


def generate(spec: GenSpec):
    """Build the instance a GenSpec names.

    Returns lines for the SimpleLines kinds, colored points for the point
    kinds, circle points for CirclePoints3C, and a LatticePointSet for the
    lattice kinds.  SimpleLines4CShielded ignores n and seed: it is the
    fixed 9-line fixture.
    """
    k = spec.kind
    if k is GenKind.SimpleLines3C:
        return _gen_simple_lines(spec.n, spec.seed)
    if k is GenKind.SimpleLines4CShielded:
        return gen_shielded_counterexample()
    if k is GenKind.Points3C:
        return _gen_points(spec.n, spec.seed)
    if k is GenKind.Points3CConvex:
        return _gen_points_convex(spec.n, spec.seed)
    if k is GenKind.CirclePoints3C:
        return _gen_circle_points(spec.n, spec.seed)
    if k is GenKind.LatticeRedHull:
        return _gen_lattice_red_hull(spec.n, spec.seed)
    if k is GenKind.LatticeDiagonalCounterexample:
        return _gen_lattice_diagonal(spec.n, spec.seed)
    if k is GenKind.ThreeDiskTriangle:
        return _gen_three_disks(spec.n, spec.seed)
    raise PreconditionViolated(f"unknown kind {spec.kind}")
