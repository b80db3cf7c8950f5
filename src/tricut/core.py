"""Exact primitives: colors, points, lines, duality, arcs, lattice curves.

Everything here is exact.  Coordinates are `fractions.Fraction` (aliased Rat),
predicates return integer signs, and nothing ever rounds.  Floats appear
nowhere below; rendering code does its own presentation rounding.

The predicates that run over all pairs (simplicity of an arrangement,
collinearity, the wedge sweep's pair events, the wedge oracle's side matrix)
run on Python ints scaled once here: `int_line` scales a line to primitive
integer coefficients and `int_point` a point to a primitive homogeneous
integer triple.  Python ints never overflow, so no bound on the input sizes
is needed.  Fractions come back only where a value leaves the library.

One incidence kernel checks lines and points.  Under projective duality "no
two lines parallel, no three concurrent" and "no three points collinear"
are one test: no two pairs of homogeneous triples share a join (cross
product), and for lines no join touches z = (0, 0, 1), the line at infinity
(W = 0: parallel or equal).  `join_map` is the exact pair loop and the one
source of witnesses; `check_joins` runs a residue pre-pass first
(`_residue_hit`: the joins mod a prime p in numpy, keyed by class mod p).
A hit may be a collision, so the exact loop decides it.  "No hit" is exact:
a join zero mod p is a hit, so is z . join = 0 mod p (for lines W = 0 mod
p), and an exact repeat stays a repeat mod p, as proportional joins stay
proportional.

`clip_line` is the one place a line is cut to a box: the arrangement's
unbounded cells and the SVG figures both take their box hits from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BoundaryPoint,
    MissingColor,
    OriginOnCurve,
    PreconditionViolated,
    VerticalLine,
)

Rat = Fraction
Triple = tuple[int, int, int]


class Color(enum.Enum):
    R = "R"
    G = "G"
    B = "B"
    K = "K"  # neutral: shield lines, uncolored boundaries

    def __repr__(self) -> str:  # keeps test diffs short
        return self.value


RGB = (Color.R, Color.G, Color.B)


def sign(x: Rat | int) -> int:
    return (x > 0) - (x < 0)


def as_rat(x) -> Rat:
    """Coerce ints and strings like '3/4'; a Fraction passes as it is. Floats are rejected."""
    if isinstance(x, float):
        raise PreconditionViolated("float coordinates are not accepted, pass exact rationals")
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ColoredPoint:
    x: Rat
    y: Rat
    color: Color


def pt(x, y, color: Color | str) -> ColoredPoint:
    """Convenience constructor coercing coordinates and color."""
    return ColoredPoint(as_rat(x), as_rat(y), Color(color))


@dataclass(frozen=True)
class ColoredLine:
    """Line a*x + b*y + c = 0, normalized so the first nonzero of (a, b) is 1.

    The normalization makes equal lines compare equal.  Note it can flip the
    sign of the functional relative to how the caller wrote the equation;
    code that cares about which side is which must fix sides after
    construction (see wedges.wedge_from_functionals).
    """

    a: Rat
    b: Rat
    c: Rat
    color: Color

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise PreconditionViolated("line needs a nonzero normal")
        lead = self.a if self.a != 0 else self.b
        if lead != 1:
            object.__setattr__(self, "a", self.a / lead)
            object.__setattr__(self, "b", self.b / lead)
            object.__setattr__(self, "c", self.c / lead)

    def eval_at(self, p: ColoredPoint | tuple[Rat, Rat]) -> Rat:
        x, y = (p.x, p.y) if isinstance(p, ColoredPoint) else p
        return self.a * x + self.b * y + self.c

    def side(self, p: ColoredPoint | tuple[Rat, Rat]) -> int:
        return sign(self.eval_at(p))

    @property
    def is_vertical(self) -> bool:
        return self.b == 0

    @property
    def slope(self) -> Rat:
        if self.b == 0:
            raise VerticalLine("vertical line has no slope")
        return -self.a / self.b

    @property
    def intercept(self) -> Rat:
        if self.b == 0:
            raise VerticalLine("vertical line has no intercept")
        return -self.c / self.b


def line(a, b, c, color: Color | str = Color.K) -> ColoredLine:
    return ColoredLine(as_rat(a), as_rat(b), as_rat(c), Color(color))


def line_slope_intercept(m, k, color: Color | str = Color.K) -> ColoredLine:
    """y = m*x + k."""
    return line(as_rat(m), -1, as_rat(k), color)


def intersect(l1: ColoredLine, l2: ColoredLine) -> tuple[Rat, Rat] | None:
    """Intersection point, or None for parallel (or equal) lines."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l1.c * l2.a - l2.c * l1.a) / det
    return (x, y)


def clip_line(l: ColoredLine | Triple, box) -> tuple[tuple[Rat, Rat], tuple[Rat, Rat]] | None:
    """Exact intersection of a line with a box (xmin, ymin, xmax, ymax): its
    two ends in (x, y) order, or None if it misses the box or only touches
    a corner.  The line may also be given as its `int_line` triple.

    Runs on integers: the line's (A, B, C) and each box side as (num, den).
    A hit's free coordinate is a ratio compared with the box by cross
    multiplication, and the hits are ordered by x alone (by y on a vertical
    line), so Fractions are built only for the two ends returned.
    """
    a, b, c = int_line(l) if isinstance(l, ColoredLine) else l
    x0, y0, x1, y1 = [(v.numerator, v.denominator) for v in box]
    if b == 0:
        # x = -c/a: the bottom and top sides cut it, at their own y
        x = _ratio(-c, a)
        hits = [y0, y1] if _within(x, x0, x1) else []
    else:
        # the left and right sides cut it at y = -(a*x + c)/b, the bottom and
        # top (unless it is horizontal) at x = -(b*y + c)/a
        hits = [(p, q) for p, q in (x0, x1) if _within(_ratio(-(a * p + c * q), b * q), y0, y1)]
        if a:
            hits += [x for x in (_ratio(-(b * p + c * q), a * q) for p, q in (y0, y1))
                     if _within(x, x0, x1)]
    if not hits:
        return None
    lo = hi = hits[0]
    for h in hits[1:]:
        if h[0] * lo[1] < lo[0] * h[1]:
            lo = h
        elif h[0] * hi[1] > hi[0] * h[1]:
            hi = h
    if lo[0] * hi[1] == hi[0] * lo[1]:
        return None
    if b == 0:
        return tuple((Fraction(*x), Fraction(*y)) for y in (lo, hi))
    return tuple((Fraction(p, q), Fraction(-(a * p + c * q), b * q)) for p, q in (lo, hi))


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den (den != 0) as a pair with a positive denominator."""
    return (num, den) if den > 0 else (-num, -den)


def _within(r: tuple[int, int], lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    """lo <= r <= hi, all three (num, den) with positive denominators."""
    return lo[0] * r[1] <= r[0] * lo[1] and r[0] * hi[1] <= hi[0] * r[1]


# -- the integer kernel ----------------------------------------------------------


def int_line(l: ColoredLine) -> tuple[int, int, int]:
    """Primitive integer coefficients (A, B, C) of l, first nonzero of (A, B)
    positive: l's coefficients times the lcm of their own denominators."""
    m = lcm(l.a.denominator, l.b.denominator, l.c.denominator)
    return (l.a.numerator * (m // l.a.denominator),
            l.b.numerator * (m // l.b.denominator),
            l.c.numerator * (m // l.c.denominator))


def int_point(x: Rat, y: Rat) -> tuple[int, int, int]:
    """The point (x, y) as a primitive homogeneous integer triple (X, Y, W):
    x = X/W, y = Y/W, W > 0 the lcm of the two denominators, so equal points
    give equal triples."""
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def int_points(points: Sequence[ColoredPoint]) -> list[tuple[int, int, int]]:
    """`int_point` of each point.  Each point keeps its own scale: a common
    denominator for the whole set would grow with the number of unrelated
    denominators in it."""
    return [int_point(p.x, p.y) for p in points]


def orient(p, q, r) -> int:
    """Sign of the area of triangle pqr: +1 ccw, -1 cw, 0 collinear."""
    px, py = (p.x, p.y) if isinstance(p, ColoredPoint) else p
    qx, qy = (q.x, q.y) if isinstance(q, ColoredPoint) else q
    rx, ry = (r.x, r.y) if isinstance(r, ColoredPoint) else r
    return sign((qx - px) * (ry - py) - (qy - py) * (rx - px))


# -- the incidence kernel ------------------------------------------------------

# a prime below 2**31, so a product of two residues fits in an int64, and so
# does the key (n0 * p + n1) * p + n2 < 2 * p**2 of a join (n0 is 0 or 1);
# p - 2 = 2**30 + 1, so the Fermat inverse costs 30 squarings and one product
_RESIDUE_PRIME = 2**30 + 3
# below this many triples the exact loop is no slower than the residue pass:
# on small integer coefficients the two cost the same at about 27 lines
_PREPASS_MIN_LINES = 30
# pairs per block of the residue pass: a block's joins and inverses take
# about nine int64 arrays of its pairs, the whole pass keeps 8 bytes a pair;
# 200 lines (19,900 pairs) are one block
_RESIDUE_BLOCK = 1 << 15


def join_map(triples: Sequence[Triple], z: Triple | None, clash: Callable) -> dict[Triple, tuple]:
    """{join: (i, j)} for every pair i < j of distinct primitive triples, in
    index order: their cross product over its gcd, signed so z . join > 0,
    or without z so the first nonzero of its first two entries is.  At the
    first pair whose join touches z or repeats that of an earlier pair e,
    raises clash((i, j), None or e, join)."""
    za, zb, zc = z or (0, 0, 0)
    seen: dict[Triple, tuple[int, int]] = {}
    for i, (a1, b1, c1) in enumerate(triples):
        for j in range(i + 1, len(triples)):
            a2, b2, c2 = triples[j]
            x, y, w = b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1
            lead = (x or y) if z is None else za * x + zb * y + zc * w
            if lead == 0:
                raise clash((i, j), None, (x, y, w))
            g = gcd(x, y, w) if lead > 0 else -gcd(x, y, w)
            key = (x // g, y // g, w // g)
            if key in seen:
                raise clash((i, j), seen[key], key)
            seen[key] = (i, j)
    return seen


def check_joins(triples: Sequence[Triple], z: Triple | None, clash: Callable) -> None:
    """Raise what `join_map` would; from `_PREPASS_MIN_LINES` triples on, only on a residue hit."""
    if len(triples) < _PREPASS_MIN_LINES or _residue_hit(triples, z):
        join_map(triples, z, clash)


def _row_blocks(m: int):
    """(r0, r1) runs of whole rows of the pairs i < j of m items, row i
    holding the pairs (i, j), each run at most `_RESIDUE_BLOCK` pairs (one
    row at least)."""
    r0 = 0
    while r0 < m - 1:
        r1, size = r0 + 1, m - 1 - r0
        while r1 < m - 1 and size + m - 1 - r1 <= _RESIDUE_BLOCK:
            size += m - 1 - r1
            r1 += 1
        yield r0, r1
        r0 = r1


def _residue_hit(triples: Sequence[Triple], z: Triple | None) -> bool:
    """True if, mod p, some join is zero, touches z, or repeats.  The joins
    are computed a block of rows of pairs at a time (`_row_blocks`); only
    their keys, one int64 per pair, are kept for the repeat test."""
    p = _RESIDUE_PRIME

    def mod(v: np.ndarray) -> np.ndarray:
        # v % p, written with //: numpy divides by a scalar several times
        # faster than it takes the remainder
        return v - v // p * p

    m = len(triples)
    a, b, c = (np.array([t[k] % p for t in triples], dtype=np.int64) for k in range(3))
    za, zb, zc = (t % p for t in z or (0, 0, 0))
    keys = np.empty(m * (m - 1) // 2, dtype=np.int64)
    done = 0
    for r0, r1 in _row_blocks(m):
        # the pairs of rows r0..r1 - 1: an upper triangle of columns r0..m - 1
        i, j = np.triu_indices(r1 - r0, 1, m - r0)
        i += r0
        j += r0
        x, y, w = (mod(u[i] * v[j] - u[j] * v[i]) for u, v in ((b, c), (c, a), (a, b)))
        del i, j  # as large as the joins
        lead = np.where(x != 0, x, np.where(y != 0, y, w))
        if not lead.all() or (z and not mod(za * x + zb * y + zc * w).all()):
            return True
        inv = lead  # lead ** (p - 2) mod p, square and multiply from the top bit
        for bit in bin(p - 2)[3:]:
            inv = mod(inv * inv)
            if bit == "1":
                inv = mod(inv * lead)
        # each join divided by its first nonzero entry
        keys[done:done + len(x)] = ((x != 0) * p + mod(y * inv)) * p + mod(w * inv)
        done += len(x)
    keys.sort()
    return bool((keys[1:] == keys[:-1]).any())


# -- point/line duality ------------------------------------------------------
#
# point (a, b)  <->  line y = a*x - b.  Incidence and above/below order are
# preserved both ways; vertical lines have no dual point.


def dual_point_to_line(p: ColoredPoint) -> ColoredLine:
    return line_slope_intercept(p.x, -p.y, p.color)


def dual_line_to_point(l: ColoredLine) -> ColoredPoint:
    if l.is_vertical:
        raise VerticalLine("vertical line has no dual point")
    return ColoredPoint(l.slope, -l.intercept, l.color)


# -- general position checks -------------------------------------------------


class GeneralPosition(enum.Enum):
    NO_THREE_COLLINEAR = "no-three-collinear"


def _first_repeat(keyed: Iterable[tuple]) -> tuple | None:
    """(first tag, later tag) of the first key met twice among (key, tag)."""
    seen: dict = {}
    for key, tag in keyed:
        first = seen.setdefault(key, tag)
        if first != tag:
            return first, tag
    return None


def _distinct_rows(ints: list[Triple]) -> list[Triple]:
    """`int_point` triples, after checking that no two coincide."""
    rep = _first_repeat((p, i) for i, p in enumerate(ints))
    if rep:
        raise PreconditionViolated(f"points {rep[0]} and {rep[1]} coincide")
    return ints


def _collinear(pair, earlier, join) -> PreconditionViolated:
    i, j, k = sorted({*earlier, *pair})[:3]
    return PreconditionViolated(f"points {i}, {j}, {k} are collinear")


def point_joins(points: Sequence[ColoredPoint]) -> dict[Triple, tuple[int, int]]:
    """`join_map` of the points: {line (A, B, C): (i, j)}, first nonzero of
    (A, B) positive; raises as `check_general_position(NO_THREE_COLLINEAR)`."""
    return join_map(_distinct_rows(int_points(points)), None, _collinear)


def check_general_position(points: Sequence[ColoredPoint], mode: GeneralPosition) -> None:
    """Raise PreconditionViolated naming the offending indices.

    The one mode, NO_THREE_COLLINEAR, also rejects coincident points: a
    line spanned by two point pairs (`check_joins`) names three collinear
    points.  Repeated x or y values are `require_distinct`'s to find.
    """
    if mode is not GeneralPosition.NO_THREE_COLLINEAR:
        raise ValueError(mode)
    check_joins(_distinct_rows(int_points(points)), None, _collinear)


def require_distinct(values: Sequence, axis: str) -> None:
    """No value repeats: one coordinate of a row of points, named `axis`.
    Raises PreconditionViolated naming the first repeat's two indices."""
    if len(set(values)) == len(values):
        return
    i, j = _first_repeat((v, i) for i, v in enumerate(values))
    raise PreconditionViolated(f"points {i} and {j} share {axis} = {values[j]}")


def require_rgb(colors: Sequence[Color], what: str = "point", per_color: int | None = None) -> None:
    """Every item is R, G or B and every color occurs; with `per_color`,
    each color occurs exactly that often.

    Pass len(items) // 3 as `per_color` to demand equal counts.  Raises
    MissingColor for an absent color, PreconditionViolated otherwise.
    """
    # count() compares by identity first, so no Enum.__hash__ runs per item
    counts = [colors.count(c) for c in RGB]
    if sum(counts) != len(colors):
        i = next(i for i, c in enumerate(colors) if c not in RGB)
        raise PreconditionViolated(f"{what} {i} has color {colors[i].value}, want R, G or B")
    missing = [c.value for c, k in zip(RGB, counts) if k == 0]
    if missing:
        raise MissingColor(f"no {what} of color {','.join(missing)}")
    if per_color is not None:
        for c, k in zip(RGB, counts):
            if k != per_color:
                raise PreconditionViolated(f"color {c.value} has {k} {what}s, want {per_color}")


# -- arcs on the unit-perimeter circle ---------------------------------------
#
# The circle is parameterized by [0, 1) with wraparound.  An arc is stored as
# (lo, hi) with 0 <= lo < 1 and lo < hi <= lo + 1; hi > 1 encodes an arc that
# wraps through 0.  Arcs are half open: parameter t belongs to (lo, hi) read
# modulo 1, endpoints belong to no arc and color counting reports them as
# boundary hits.  The full circle is canonically ((0, 1),).


_FULL_CIRCLE_ARCS = ((Fraction(0), Fraction(1)),)


@dataclass(frozen=True)
class ArcSet:
    arcs: tuple[tuple[Rat, Rat], ...]

    def __post_init__(self):
        prev_end = None
        for lo, hi in self.arcs:
            if not (0 <= lo < 1 and lo < hi <= lo + 1):
                raise PreconditionViolated(f"arc ({lo}, {hi}) out of canonical range")
            if prev_end is not None and lo <= prev_end:
                raise PreconditionViolated("arcs must be sorted and disjoint")
            prev_end = hi
        if len(self.arcs) > 1:
            first_lo, _ = self.arcs[0]
            _, last_hi = self.arcs[-1]
            if last_hi > 1 and last_hi - 1 >= first_lo:
                raise PreconditionViolated("wrapping arc overlaps the first arc")

    @property
    def is_full_circle(self) -> bool:
        return self.arcs == _FULL_CIRCLE_ARCS

    @property
    def is_empty(self) -> bool:
        return self.arcs == ()

    def component_count(self) -> int:
        return len(self.arcs)

    def total_length(self) -> Rat:
        return sum((hi - lo for lo, hi in self.arcs), Fraction(0))

    def contains(self, t: Rat) -> bool:
        """Membership of parameter t (taken mod 1). Endpoints raise."""
        if self.is_full_circle:
            return True
        if not 0 <= t < 1:
            t = t % 1
        for lo, hi in self.arcs:
            # lo is in [0, 1) and hi in (lo, lo + 1], so neither needs a mod
            if t == lo or t == (hi - 1 if hi >= 1 else hi):
                raise BoundaryPoint(f"parameter {t} is an arc endpoint")
            if lo < t < hi or (hi > 1 and t < hi - 1):
                return True
        return False


def arcset(intervals: Iterable[tuple[Rat, Rat]]) -> ArcSet:
    """Normalize arbitrary (lo, hi) intervals (hi > lo, hi - lo <= 1) into an ArcSet.

    Arcs are reduced mod 1, overlapping or touching arcs merge, and a run
    covering everything becomes the full circle.
    """
    pieces: list[tuple[Rat, Rat]] = []
    for lo, hi in intervals:
        lo, hi = as_rat(lo), as_rat(hi)
        if hi <= lo:
            raise PreconditionViolated(f"arc ({lo}, {hi}) has nonpositive length")
        if hi - lo > 1:
            raise PreconditionViolated(f"arc ({lo}, {hi}) is longer than the circle")
        lo_m = lo % 1
        hi_m = lo_m + (hi - lo)
        if hi_m <= 1:
            pieces.append((lo_m, hi_m))
        else:
            pieces.append((lo_m, Fraction(1)))
            pieces.append((Fraction(0), hi_m - 1))
    if not pieces:
        return ArcSet(())
    # pieces tiling the circle merge into (0, 1), the full circle
    pieces.sort()
    merged: list[list[Rat]] = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo < merged[-1][1]:
            raise PreconditionViolated("arcs overlap")
        if lo == merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    # re-wrap a piece ending at 1 into a piece starting at 0
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
        lo0, hi0 = merged.pop(0)
        merged[-1][1] = 1 + hi0
    return ArcSet(tuple((lo, hi) for lo, hi in merged))


def full_circle() -> ArcSet:
    return ArcSet(((Fraction(0), Fraction(1)),))


def empty_arcset() -> ArcSet:
    return ArcSet(())


@dataclass(frozen=True)
class CirclePoint:
    t: Rat
    color: Color


def circle_point(t, color: Color | str) -> CirclePoint:
    t = as_rat(t)
    if not (0 <= t < 1):
        raise PreconditionViolated(f"circle parameter {t} outside [0, 1)")
    return CirclePoint(t, Color(color))


def require_distinct_parameters(points: Sequence[CirclePoint]) -> None:
    seen: set[Rat] = set()
    for p in points:
        if p.t in seen:
            raise PreconditionViolated(f"duplicate parameter {p.t}")
        seen.add(p.t)


def arcset_color_counts(a: ArcSet, points: Sequence[CirclePoint]) -> dict[Color, int]:
    """Count member points per color.  A point on an arc endpoint raises."""
    counts = {c: 0 for c in RGB}
    for p in points:
        if a.contains(p.t):
            counts[p.color] = counts.get(p.color, 0) + 1
    return counts


@dataclass(frozen=True)
class Segment:
    p: tuple[Rat, Rat]
    q: tuple[Rat, Rat]

    def __post_init__(self):
        if self.p == self.q:
            raise PreconditionViolated("degenerate segment")


# -- lattice deficit curves ----------------------------------------------------
#
# The wedge sweep and the L-line search both map an ordering of colored items
# to a closed lattice curve whose vertices at the origin are the balanced
# regions, and both read that curve off one step table.  A curve is an int64
# (m, 2) array of vertices; edge i joins vertex i to vertex i + 1 mod m.


def deficit_steps(colors: Sequence[Color], x_color: Color, y_color: Color) -> np.ndarray:
    """One int64 row per color: 3e - (1, 1), with e = (1, 0) for `x_color`,
    (0, 1) for `y_color` and (0, 0) for the third color.

    A run of steps sums to the origin exactly when it holds each color
    equally often.
    """
    e = np.array([(c is x_color, c is y_color) for c in colors], dtype=np.int64)
    return 3 * e.reshape(-1, 2) - 1


# below this bound cross products of two vertices fit in an int64
_WINDING_BOUND = 2**31


def winding_number(vertices) -> int | np.ndarray:
    """Winding number around the origin of the closed curve through
    `vertices`: an int64 (m, 2) array or a sequence of integer pairs.  A
    stack of curves (..., m, 2) gives an array of one winding per curve.

    Counts signed crossings of the positive x axis; zero-length edges
    (repeated vertices) cross nothing.  Raises OriginOnCurve if a vertex is
    the origin or the origin is interior to an edge, and PreconditionViolated
    for fewer than 2 vertices, non-integer vertices or a coordinate of
    absolute value 2**31 or more.
    """
    v = vertices if isinstance(vertices, np.ndarray) else np.array(vertices, dtype=object)
    if (len(v) if v.ndim < 3 else v.shape[-2]) < 2:
        raise PreconditionViolated("lattice curve needs at least 2 vertices")
    if v.ndim < 2 or v.shape[-1] != 2 or not (
        v.dtype.kind in "iu" or all(isinstance(c, (int, np.integer)) for c in v.flat)
    ):
        raise PreconditionViolated("lattice curve needs integer (x, y) vertices")
    if v.size and max(abs(int(v.max())), abs(int(v.min()))) >= _WINDING_BOUND:
        raise PreconditionViolated(f"lattice curve coordinates must stay below {_WINDING_BOUND}")
    a = np.asarray(v, dtype=np.int64)
    b = np.concatenate((a[..., 1:, :], a[..., :1, :]), axis=-2)
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    cross = ax * by - ay * bx
    at_origin = (ax | ay) == 0
    bad = at_origin | ((cross == 0) & (ax * bx + ay * by < 0))
    if bad.any():
        at = at_origin.flat[bad.argmax()]  # the first bad edge in C order
        raise OriginOnCurve("vertex at origin" if at else "origin interior to an edge")
    up = (ay <= 0) & (by > 0) & (cross > 0)
    down = (by <= 0) & (ay > 0) & (cross < 0)
    w = np.count_nonzero(up, axis=-1) - np.count_nonzero(down, axis=-1)
    return int(w) if a.ndim == 2 else w
