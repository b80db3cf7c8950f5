"""Seeded instance generators for every input class the solvers accept.

generate(GenSpec(kind, n, seed)) is pure: the same triple always rebuilds
the identical instance.  SimpleLines3C, Points3C and ThreeDiskTriangle
sample: one loop draws up to 200 seeded candidates and returns the first
that `require_simple` or `check_general_position` passes, else raises
GenerationFailed.  Every other kind is valid by construction; the lattice
kinds are still run through the `LatticePointSet` validator.
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
from .errors import GenerationFailed, PreconditionViolated
from .llines import LatticePointSet


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


def _sample(base: int, build, check, what: str):
    """build(rng) on rng seeds base, base + 1, ...: the first result that
    `check` lets through, or GenerationFailed after _RETRIES attempts."""
    for attempt in range(_RETRIES):
        got = build(random.Random(base + attempt))
        try:
            check(got)
        except PreconditionViolated:
            continue
        return got
    raise GenerationFailed(f"no {what} after {_RETRIES} tries")


def _no_three_collinear(points) -> None:
    check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)


def _gen_simple_lines(n: int, seed: int) -> tuple[ColoredLine, ...]:
    if n < 3:
        raise PreconditionViolated("need at least 3 lines, one per color")
    colors = [RGB[i % 3] for i in range(n)]

    def build(rng):
        slopes = rng.sample(range(-8 * n, 8 * n + 1), n)
        return tuple(
            line_slope_intercept(s, Fraction(rng.randint(-10 * n, 10 * n)), c)
            for s, c in zip(slopes, colors)
        )

    return _sample(seed * 1_000_003, build, require_simple, "simple arrangement")


def _gen_points(n: int, seed: int) -> tuple[ColoredPoint, ...]:
    if n < 3:
        raise PreconditionViolated("need at least 3 points, one per color")

    def build(rng):
        coords = set()
        while len(coords) < n:
            coords.add((rng.randint(-8 * n, 8 * n), rng.randint(-8 * n, 8 * n)))
        coords = sorted(coords)
        rng.shuffle(coords)
        colors = [Color.R, Color.G, Color.B] + [
            rng.choice(RGB) for _ in range(n - 3)
        ]
        return tuple(pt(x, y, c) for (x, y), c in zip(coords, colors))

    return _sample(seed * 2_000_003, build, _no_three_collinear,
                   "general-position point set")


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

    Red j is anchor + (j // 4) * step on arm j % 4.  Two red x values differ
    in parity or by more than an arm is long, and so do two red y values;
    the inner points take only unused coordinates.  The four anchors
    dominate the inner box [-m + 2, m - 2]^2 in the four quadrant orders,
    so no inner point is on the orthogonal hull; each arm is an antichain
    of its quadrant order, so every red is on it.  A monochromatic hull
    forces at least 4 points of the hull color, hence n >= 4.
    """
    if n < 4:
        raise GenerationFailed(
            "no such instance: a monochromatic orthogonal hull needs a hull-color "
            "point in each of the four quadrants of any other point, so n >= 4"
        )
    m = 3 * n + 2
    arms = (((m, m), (-2, 2)), ((-m, m - 1), (-2, -2)),
            ((m - 1, -m), (2, 2)), ((1 - m, 1 - m), (2, -2)))
    reds = []
    for j in range(n):
        (ax, ay), (dx, dy) = arms[j % 4]
        t = j // 4
        reds.append((ax + t * dx, ay + t * dy))

    # at most n / 2 reds and 2n - 1 inner points hold a box value of the
    # 6n + 1 per axis, so a draw is refused with probability below
    # 1 - (7/12)^2 < 0.67, and 200 refusals in a row below 1e-34
    lo, hi = -m + 2, m - 2
    rng = random.Random(seed * 5_000_011)
    used_x = {x for x, _ in reds}
    used_y = {y for _, y in reds}
    inner = []
    for _ in range(2 * n):
        for _try in range(200):
            x, y = rng.randint(lo, hi), rng.randint(lo, hi)
            if x not in used_x and y not in used_y:
                break
        else:
            raise GenerationFailed("no free inner coordinate after 200 draws")
        used_x.add(x)
        used_y.add(y)
        inner.append((x, y))
    colors = [Color.G] * n + [Color.B] * n
    rng.shuffle(colors)
    points = [pt(x, y, Color.R) for x, y in reds]
    points += [pt(x, y, c) for (x, y), c in zip(inner, colors)]
    return LatticePointSet(tuple(points))


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

    def build(rng):
        points = []
        for c in RGB:
            cx, cy = corners[c]
            offs = set()
            while len(offs) < n:
                offs.add((rng.randint(-2 * n, 2 * n), rng.randint(-2 * n, 2 * n)))
            for dx, dy in sorted(offs):
                points.append(pt(cx + Fraction(dx, d), cy + Fraction(dy, d), c))
        return tuple(points)

    return _sample(seed * 6_000_101, build, _no_three_collinear,
                   "three-disk instance")


_GENERATORS = {
    GenKind.SimpleLines3C: _gen_simple_lines,
    GenKind.SimpleLines4CShielded: lambda n, seed: gen_shielded_counterexample(),
    GenKind.Points3C: _gen_points,
    GenKind.Points3CConvex: _gen_points_convex,
    GenKind.CirclePoints3C: _gen_circle_points,
    GenKind.LatticeRedHull: _gen_lattice_red_hull,
    GenKind.LatticeDiagonalCounterexample: _gen_lattice_diagonal,
    GenKind.ThreeDiskTriangle: _gen_three_disks,
}


def generate(spec: GenSpec):
    """Build the instance a GenSpec names.

    Returns lines for the SimpleLines kinds, colored points for the point
    kinds, circle points for CirclePoints3C, and a LatticePointSet for the
    lattice kinds.  SimpleLines4CShielded ignores n and seed: it is the
    fixed 9-line fixture.
    """
    return _GENERATORS[spec.kind](spec.n, spec.seed)
