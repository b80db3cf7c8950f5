"""The dataclass payload decoders `serialization` had before every solve kind
decoded its payload to integer rows, kept as references for the row
decoders: `dec_lines_payload`, `dec_points_payload`, `dec_circle_payload`
and `dec_lattice_payload` each read a whole payload into the dataclasses the
public solvers take, through the normal constructors (`ColoredPoint`,
`circle_point`, `LatticePointSet`), inside one `decoding` guard.
"""

from tricut.core import CirclePoint, ColoredLine, ColoredPoint, circle_point
from tricut.llines import LatticePointSet
from tricut.serialization import (
    _color,
    _items,
    _lattice_fields,
    _lattice_of_rows,
    _line_row,
    _lines_of_rows,
    _rows,
    dec_rat,
    decoding,
)


@decoding()
def dec_lines_payload(d: dict) -> tuple[ColoredLine, ...]:
    return _lines_of_rows(*_rows(d, "lines", None, _line_row))


@decoding()
def dec_points_payload(d: dict) -> tuple[ColoredPoint, ...]:
    return tuple(
        ColoredPoint(dec_rat(e["x"]), dec_rat(e["y"]), _color(e["color"]))
        for e in _items(d, "points", "x")
    )


@decoding()
def dec_circle_payload(d: dict) -> tuple[CirclePoint, ...]:
    return tuple(circle_point(dec_rat(e["t"]), e["color"]) for e in _items(d, "points", "t"))


@decoding()
def dec_lattice_payload(d: dict) -> LatticePointSet:
    return _lattice_of_rows(*_lattice_fields(d))
