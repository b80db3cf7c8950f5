"""Exact JSON encoding for every CLI-facing structure.

Rationals travel as strings ("5" or "5/2"), so persisted data never loses
precision; lattice coordinates are plain JSON integers.  Decoders validate
through the normal constructors, so a hand-edited file fails the same way a
bad argument would; data of the wrong shape (a missing key, a string where a
list belongs, an unknown color) raises PreconditionViolated through the
`decoding` guard: one per public decoder, so a payload decoder enters it
once, not once per element.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .cells import Face
from .core import (
    ArcSet,
    CirclePoint,
    Color,
    ColoredLine,
    ColoredPoint,
    Rat,
    Segment,
    arcset,
    as_rat,
    circle_point,
    line,
    pt,
)
from .errors import PreconditionViolated
from .llines import LatticePointSet, LLine, RayDir
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


def _parse_rat(s: str) -> Fraction:
    """Fraction(s), with the forms `enc_rat` writes (ASCII "-?digits" or
    "-?digits/digits") read by int(); any other string goes to Fraction.

    Fraction would build 10**exp for an exponent form, so "1e10000000"
    alone makes a ten-million-digit integer.  A decimal or exponent form
    whose numerator or denominator would have more digits than
    `sys.get_int_max_str_digits()` (the bound int() puts on a digit string)
    raises ValueError before anything is built.  A mantissa of zeros reads
    as 0 whatever its (well-formed) exponent, which is not applied."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if s.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    m = _DECIMAL.fullmatch(s)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        whole, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
        if exp and not (whole + frac).strip("0"):
            int(m.group(3))  # Fraction's exponent syntax, as int() reads it
            return Fraction(s[: m.start(3) - 1])
        e = int(exp or 0)
        if max(len(whole) + len(frac) + e, len(frac) - e) > limit:
            raise ValueError(f"{s!r} has more than {limit} digits")
    return Fraction(s)


def dec_rat(v) -> Fraction:
    if isinstance(v, bool):
        raise PreconditionViolated(f"not a rational: {v!r}")
    if isinstance(v, (int, str)):
        try:
            return _parse_rat(v) if isinstance(v, str) else Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise PreconditionViolated(f"not a rational: {v!r}") from e
    raise PreconditionViolated(f"not a rational: {v!r}")


# -- geometry --------------------------------------------------------------------


def enc_point(p: ColoredPoint) -> dict:
    return {"x": enc_rat(p.x), "y": enc_rat(p.y), "color": p.color.value}


def _point(d: dict) -> ColoredPoint:
    return pt(dec_rat(d["x"]), dec_rat(d["y"]), d["color"])


def enc_line(l: ColoredLine) -> dict:
    return {
        "a": enc_rat(l.a),
        "b": enc_rat(l.b),
        "c": enc_rat(l.c),
        "color": l.color.value,
    }


def _line(d: dict) -> ColoredLine:
    return line(dec_rat(d["a"]), dec_rat(d["b"]), dec_rat(d["c"]), d["color"])


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


def _circle_point(d: dict) -> CirclePoint:
    return circle_point(dec_rat(d["t"]), d["color"])


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


def _elements(d: dict, key: str, field: str | None, element) -> tuple:
    """`element` of each item of the list under `key` in a bare payload or
    an envelope's instance; with `field`, every item must hold it."""
    body = unwrap_instance(d)
    if key not in body or (field and any(field not in e for e in body[key])):
        want = f'{{"{field}"...}}' if field else "..."
        raise PreconditionViolated(f'expected a {{"{key}": [{want}]}} instance')
    return tuple(element(e) for e in body[key])


@decoding()
def dec_lines_payload(d: dict) -> tuple[ColoredLine, ...]:
    return _elements(d, "lines", None, _line)


@decoding()
def dec_points_payload(d: dict) -> tuple[ColoredPoint, ...]:
    return _elements(d, "points", "x", _point)


@decoding()
def dec_circle_payload(d: dict) -> tuple[CirclePoint, ...]:
    return _elements(d, "points", "t", _circle_point)


@decoding()
def dec_lattice_payload(d: dict) -> LatticePointSet:
    return LatticePointSet(_elements(d, "points", None, _point))
