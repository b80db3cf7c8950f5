"""Exact JSON encoding for every CLI-facing structure.

Rationals travel as strings ("5" or "5/2"), so persisted data never loses
precision; lattice coordinates are plain JSON integers.  Every rational is
read once, by one pair parser (`_parse_rat`: an exact (num, den) in lowest
terms).  Each payload shape has one decoder, which gives the integer rows
the solvers take: `dec_line_rows` each line's primitive triple (A, B, C), as
`core.int_line` would; `dec_point_rows` each point's primitive homogeneous
triple (X, Y, W), as `core.int_point` would; `dec_circle_rows` each circle
parameter's (num, den); `dec_lattice_rows` the lattice coordinates as ints.
Each checks what the dataclass constructors check, with the same errors,
so a hand-edited file fails the same way a bad argument would; the
`_*_of_rows` builders make the dataclasses for the oracles and figures.
Data of the wrong shape (a missing key, a string where a list belongs, an
unknown color) raises PreconditionViolated through the `decoding` guard:
one per public decoder, so a payload decoder enters it once, not once per
element.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

from .cells import Face
from .core import (
    ArcSet,
    CirclePoint,
    Color,
    ColoredLine,
    ColoredPoint,
    Rat,
    Segment,
    Triple,
    arcset,
    as_rat,
)
from .errors import PreconditionViolated
from .llines import LatticePointSet, LLine, RayDir, _check_lattice_rows
from .wedges import DoubleWedge


@contextmanager
def decoding():
    """Guard around decoding: the lookups and conversions of a decoder raise
    KeyError, IndexError, TypeError or ValueError on data of the wrong
    shape, and those leave the guard as PreconditionViolated.  Use as
    `@decoding()` on a decoder or `with decoding():` around JSON access."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise PreconditionViolated(f"malformed input: {type(e).__name__}: {e}") from e

# -- scalars ---------------------------------------------------------------------


def enc_rat(x: Rat) -> str:
    return str(as_rat(x))


# the decimal and exponent forms Fraction reads, for sizing them first
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _parse_rat(s: str) -> tuple[int, int]:
    """(num, den) of the rational Fraction(s) reads, in lowest terms with
    den > 0.  The forms `enc_rat` writes (ASCII "-?digits" or
    "-?digits/digits") are read by int(); any other string goes to Fraction.

    Fraction would build 10**exp for an exponent form, so "1e10000000"
    alone makes a ten-million-digit integer.  A decimal or exponent form
    whose numerator or denominator would have more digits than
    `sys.get_int_max_str_digits()` (the bound int() puts on a digit string)
    raises ValueError before anything is built.  A mantissa of zeros reads
    as 0 whatever its (well-formed) exponent, which is not applied."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if s.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        if not slash:
            return int(num), 1
        p, q = int(num), int(den)
        if not q:
            raise ZeroDivisionError(f"{s!r} has a zero denominator")
        g = gcd(p, q)
        return p // g, q // g
    m = _DECIMAL.fullmatch(s)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        whole, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
        if exp and not (whole + frac).strip("0"):
            int(m.group(3))  # Fraction's exponent syntax, as int() reads it
            s = s[: m.start(3) - 1]  # the zero mantissa alone
        else:
            e = int(exp or 0)
            if max(len(whole) + len(frac) + e, len(frac) - e) > limit:
                raise ValueError(f"{s!r} has more than {limit} digits")
    f = Fraction(s)
    return f.numerator, f.denominator


def _rat_pair(v) -> tuple[int, int]:
    """`_parse_rat` of a JSON string, (v, 1) of a JSON integer; anything
    else, or a string that is no rational, raises PreconditionViolated."""
    if isinstance(v, str):
        try:
            return _parse_rat(v)
        except (ValueError, ZeroDivisionError) as e:
            raise PreconditionViolated(f"not a rational: {v!r}") from e
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    raise PreconditionViolated(f"not a rational: {v!r}")


def dec_rat(v) -> Fraction:
    return Fraction(*_rat_pair(v))


_COLORS = {c.value: c for c in Color}


def _color(v) -> Color:
    """Color(v), read from a dict for the color strings."""
    try:
        return _COLORS[v]
    except (KeyError, TypeError):
        return Color(v)


# -- geometry --------------------------------------------------------------------


def enc_point(p: ColoredPoint) -> dict:
    return {"x": enc_rat(p.x), "y": enc_rat(p.y), "color": p.color.value}


def _point_row(d: dict) -> tuple[Triple, Color]:
    """A point's primitive homogeneous triple (X, Y, W), W > 0 the lcm of
    the two denominators (`core.int_point` of the point), and its color."""
    (nx, dx), (ny, dy) = _rat_pair(d["x"]), _rat_pair(d["y"])
    color = _color(d["color"])
    w = lcm(dx, dy)
    return (nx * (w // dx), ny * (w // dy), w), color


def enc_line(l: ColoredLine) -> dict:
    return {
        "a": enc_rat(l.a),
        "b": enc_rat(l.b),
        "c": enc_rat(l.c),
        "color": l.color.value,
    }


def _line_row(d: dict) -> tuple[Triple, Color]:
    """A line's primitive integer triple (A, B, C), the first nonzero of
    (A, B) positive (`core.int_line` of the line), and its color."""
    (na, da), (nb, db), (nc, dc) = _rat_pair(d["a"]), _rat_pair(d["b"]), _rat_pair(d["c"])
    color = _color(d["color"])
    m = lcm(da, db, dc)
    a, b, c = na * (m // da), nb * (m // db), nc * (m // dc)
    lead = a or b
    if not lead:
        raise PreconditionViolated("line needs a nonzero normal")
    g = gcd(a, b, c) if lead > 0 else -gcd(a, b, c)
    return (a // g, b // g, c // g), color


def _line_of_row(t: Triple, color: Color) -> ColoredLine:
    """The ColoredLine of a primitive triple, its lead coefficient made 1."""
    a, b, c = t
    lead = a or b
    return ColoredLine(Fraction(a, lead), Fraction(b, lead), Fraction(c, lead), color)


def _line(d: dict) -> ColoredLine:
    return _line_of_row(*_line_row(d))


def enc_xy(p: tuple[Rat, Rat]) -> list:
    return [enc_rat(p[0]), enc_rat(p[1])]


@decoding()
def dec_xy(v) -> tuple[Fraction, Fraction]:
    return (dec_rat(v[0]), dec_rat(v[1]))


def enc_segment(s: Segment) -> dict:
    return {"p": enc_xy(s.p), "q": enc_xy(s.q)}


@decoding()
def dec_segment(d: dict) -> Segment:
    return Segment(dec_xy(d["p"]), dec_xy(d["q"]))


def enc_circle_point(p: CirclePoint) -> dict:
    return {"t": enc_rat(p.t), "color": p.color.value}


def _circle_row(d: dict) -> tuple[tuple[int, int], Color]:
    """A circle point's (num, den) parameter and color, checked as `circle_point` does."""
    (num, den), color = _rat_pair(d["t"]), d["color"]
    if not 0 <= num < den:
        raise PreconditionViolated(f"circle parameter {Fraction(num, den)} outside [0, 1)")
    return (num, den), _color(color)


def enc_arcset(a: ArcSet) -> list:
    return [[enc_rat(lo), enc_rat(hi)] for lo, hi in a.arcs]


@decoding()
def dec_arcset(v) -> ArcSet:
    return arcset([(dec_rat(lo), dec_rat(hi)) for lo, hi in v])


def enc_lattice_set(s: LatticePointSet) -> list:
    return [{"x": int(p.x), "y": int(p.y), "color": p.color.value} for p in s.points]


def enc_lline(l: LLine) -> dict:
    return {"corner": enc_xy(l.corner), "rays": [r.value for r in l.rays]}


@decoding()
def dec_lline(d: dict) -> LLine:
    return LLine(dec_xy(d["corner"]), tuple(RayDir(r) for r in d["rays"]))


def enc_wedge(w: DoubleWedge) -> dict:
    return {
        "apex": enc_xy(w.apex),
        "line1": enc_line(w.line1),
        "line2": enc_line(w.line2),
        "sector": w.sector,
    }


@decoding()
def dec_wedge(d: dict) -> DoubleWedge:
    return DoubleWedge(
        dec_xy(d["apex"]), _line(d["line1"]), _line(d["line2"]), d["sector"]
    )


def enc_face(f: Face) -> dict:
    return {
        "bounded": f.bounded,
        "vertices": [enc_xy(v) for v in f.vertices],
        "boundary_lines": list(f.boundary_lines),
        "boundary_colors": [c.value for c in f.boundary_colors],
    }


@decoding()
def dec_face(d: dict) -> Face:
    return Face(
        bounded=bool(d["bounded"]),
        vertices=tuple(dec_xy(v) for v in d["vertices"]),
        boundary_lines=tuple(int(i) for i in d["boundary_lines"]),
        boundary_colors=tuple(Color(c) for c in d["boundary_colors"]),
    )


# -- instances -------------------------------------------------------------------


def enc_instance(kind: str, n: int, seed: int, obj) -> dict:
    """Envelope written by the gen command, whose "instance" is also the
    payload solve makes for itself; `obj` is what generate() returned (or,
    for solve segment, the dual lines of those points)."""
    if isinstance(obj, LatticePointSet):
        payload = {"points": enc_lattice_set(obj)}
    elif obj and isinstance(obj[0], ColoredLine):
        payload = {"lines": [enc_line(l) for l in obj]}
    elif obj and isinstance(obj[0], CirclePoint):
        payload = {"points": [enc_circle_point(p) for p in obj]}
    else:
        payload = {"points": [enc_point(p) for p in obj]}
    return {"kind": kind, "n": n, "seed": seed, "instance": payload}


def unwrap_instance(d: dict) -> dict:
    """Accept either a bare instance payload or a gen/solve envelope."""
    return d["instance"] if isinstance(d, dict) and "instance" in d else d


def _items(d: dict, key: str, field: str | None) -> list:
    """The list under `key` in a bare payload or an envelope's instance;
    with `field`, every item must hold it."""
    body = unwrap_instance(d)
    if key not in body or (field and any(field not in e for e in body[key])):
        want = f'{{"{field}"...}}' if field else "..."
        raise PreconditionViolated(f'expected a {{"{key}": [{want}]}} instance')
    return body[key]


def _rows(d: dict, key: str, field: str | None, row) -> tuple[list[tuple], list[Color]]:
    """(rows, colors) of the items under `key`, each read by `row`."""
    read = [row(e) for e in _items(d, key, field)]
    return [t for t, _ in read], [c for _, c in read]


@decoding()
def dec_line_rows(d: dict) -> tuple[list[Triple], list[Color]]:
    """The lines of a payload as (triples, colors): each line's primitive
    integer triple (A, B, C), first nonzero of (A, B) positive, equal to
    `core.int_line` of its ColoredLine."""
    return _rows(d, "lines", None, _line_row)


@decoding()
def dec_point_rows(d: dict) -> tuple[list[Triple], list[Color]]:
    """The points of a payload as (triples, colors): each point's primitive
    homogeneous triple (X, Y, W), W > 0, equal to `core.int_point` of its
    ColoredPoint."""
    return _rows(d, "points", "x", _point_row)


@decoding()
def dec_circle_rows(d: dict) -> tuple[list[tuple[int, int]], list[Color]]:
    """The circle points of a payload as (pairs, colors): each t as (num, den), in [0, 1)."""
    return _rows(d, "points", "t", _circle_row)


def _coordinate(v) -> int | Fraction:
    # an int for an integer, a Fraction (which the lattice check refuses)
    # for any other rational
    num, den = _rat_pair(v)
    return num if den == 1 else Fraction(num, den)


def _lattice_fields(d: dict) -> tuple[list, list, list[Color]]:
    xs, ys, colors = [], [], []
    for e in _items(d, "points", None):
        x = e["x"]  # JSON integers, as `enc_lattice_set` writes them, pass as they are
        xs.append(x if type(x) is int else _coordinate(x))
        y = e["y"]
        ys.append(y if type(y) is int else _coordinate(y))
        colors.append(_color(e["color"]))
    return xs, ys, colors


@decoding()
def dec_lattice_rows(d: dict) -> tuple[list[int], list[int], list[Color]]:
    """The points of a lattice payload as (xs, ys, colors), ints and Colors,
    checked as `LatticePointSet` checks them, with the same errors."""
    xs, ys, colors = _lattice_fields(d)
    _check_lattice_rows(xs, ys, colors)
    return xs, ys, colors


def _lines_of_rows(triples, colors) -> tuple[ColoredLine, ...]:
    """The ColoredLines of `dec_line_rows`' rows."""
    return tuple(map(_line_of_row, triples, colors))


def _circle_of_rows(pairs, colors) -> tuple[CirclePoint, ...]:
    """The CirclePoints of `dec_circle_rows`' rows."""
    return tuple(CirclePoint(Fraction(*t), c) for t, c in zip(pairs, colors))


def _lattice_of_rows(xs, ys, colors) -> LatticePointSet:
    """The LatticePointSet of `dec_lattice_rows`' rows (checked again)."""
    return LatticePointSet(tuple(
        ColoredPoint(Fraction(x), Fraction(y), c) for x, y, c in zip(xs, ys, colors)
    ))
