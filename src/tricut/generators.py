"""Seeded instance generators for every input class the solvers accept.

generate(GenSpec(kind, n, seed)) is pure: the same triple always rebuilds
the identical instance.  Every kind is valid by construction: each builder
carries its argument in its docstring or comments and does not check its
output, while the solvers still run their own checks.  GenerationFailed
comes only from LatticeRedHull.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cells import gen_shielded_counterexample
from .core import (
    Color,
    ColoredLine,
    ColoredPoint,
    CirclePoint,
    RGB,
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


def _least_prime_at_least(m: int) -> int:
    while any(m % d == 0 for d in range(2, math.isqrt(m) + 1)):
        m += 1
    return m


def _erdos_points(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n integer points, no three collinear, with distinct x.

    p is the least prime >= 16n + 1 and h = p // 2: n distinct i drawn from
    range(p) give (i - h, (i^2 mod p) - h).  The shift by h keeps
    collinearity, collinear integer points stay collinear mod p, and over
    GF(p) a line meets the parabola y = x^2 in at most two points; so no
    three are collinear.  The i differ, so do the x.  Both coordinates lie
    in [-h, h], about +-8n."""
    p = _least_prime_at_least(16 * n + 1)
    h = p // 2
    return [(i - h, i * i % p - h) for i in rng.sample(range(p), n)]


def _gen_simple_lines(n: int, seed: int) -> tuple[ColoredLine, ...]:
    """The dual lines y = a x - b of the points (a, b) of `_erdos_points`.

    The slopes differ, so no two lines are parallel.  Lines through one
    point (x0, y0) have b = x0 a - y0, so their points are collinear; no
    three points are, so no three lines meet: the arrangement is simple."""
    if n < 3:
        raise PreconditionViolated("need at least 3 lines, one per color")
    points = _erdos_points(n, random.Random(seed * 1_000_003))
    return tuple(line_slope_intercept(a, -b, RGB[i % 3]) for i, (a, b) in enumerate(points))


def _gen_points(n: int, seed: int) -> tuple[ColoredPoint, ...]:
    """`_erdos_points` reflected in y = x, colored R, G, B, then at random.

    The reflection keeps no three collinear.  The x are then i^2 mod p - h,
    which i and p - i share, so some instances have equal x and reach the
    shear route of `find_111_wedge`."""
    if n < 3:
        raise PreconditionViolated("need at least 3 points, one per color")
    rng = random.Random(seed * 2_000_003)
    coords = _erdos_points(n, rng)
    colors = [Color.R, Color.G, Color.B] + [rng.choice(RGB) for _ in range(n - 3)]
    return tuple(pt(y, x, c) for (x, y), c in zip(coords, colors))


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
    """n points per color on the circle through the corners (0, 0), (4, 0),
    (2, 3), each near its color's corner.

    The circle has center (2, 5/6) and radius r = 13/6; parameter t gives
    (2 + r (1 - t^2) / (1 + t^2), 5/6 + 2 r t / (1 + t^2)), the corners at
    t = -5, -1/5, 1.  Color c takes t = t_c + j / (128 n) for n distinct j
    in [-2n, 2n]: the t differ, so the points do, and no three points of a
    circle are collinear.  The speed 2r / (1 + t^2) is at most 13/3, so a
    point is within 13/192 < 0.07 of its corner.  A line meeting all three
    such disks would hold the triangle in a strip 0.14 wide, but its least
    height is 3; so no halfplane holds k of each color for 0 < k < n."""
    if n < 1:
        raise PreconditionViolated("n must be positive")
    r = Fraction(13, 6)
    corners = {Color.R: Fraction(-5), Color.G: Fraction(-1, 5), Color.B: Fraction(1)}
    rng = random.Random(seed * 6_000_101)
    points = []
    for c in RGB:
        for j in sorted(rng.sample(range(-2 * n, 2 * n + 1), n)):
            t = corners[c] + Fraction(j, 128 * n)
            q = 1 + t * t
            points.append(pt(2 + r * (1 - t * t) / q, Fraction(5, 6) + 2 * r * t / q, c))
    return tuple(points)


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
