"""Table implementation of the wedge oracle, kept as a test-only reference.

`table_oracle_wedges` fills one (pairs of point-pair lines) x (points) table
of side-sign products and walks its surviving rows in Python.  It is the
implementation `wedges.brute_oracle_wedges` had before the bitmask pair
table; `test_wedges.py` checks that the library returns the identical list,
order included.
"""

import itertools
from typing import Sequence

import numpy as np

from tricut.core import (
    Color,
    ColoredPoint,
    GeneralPosition,
    check_general_position,
    int_points,
    require_rgb,
    sign,
)
from tricut.errors import PreconditionViolated


def table_oracle_wedges(
    points: Sequence[ColoredPoint], target: tuple[int, int, int]
) -> list[tuple[int, ...]]:
    """Every double-wedge type whose per-color counts (R, G, B) hit `target`,
    sorted by (size, indices)."""
    pts = tuple(points)
    m = len(pts)
    if m == 0 or m > 18:
        raise PreconditionViolated(f"oracle is limited to 1..18 points, got {m}")
    if len(target) != 3 or any(t < 0 for t in target):
        raise PreconditionViolated(f"bad target {target}")
    require_rgb([p.color for p in pts])
    check_general_position(pts, GeneralPosition.NO_THREE_COLLINEAR)

    color_ix = {Color.R: 0, Color.G: 1, Color.B: 2}
    cix = [color_ix[p.color] for p in pts]
    onehot = np.eye(3, dtype=np.int32)[cix]
    tgt = np.asarray(target, dtype=np.int32)

    # side matrix of every point-pair line: signs of A*X + B*Y + C*W, W > 0
    ints = int_points(pts)
    side_rows = []
    for (x1, y1, w1), (x2, y2, w2) in itertools.combinations(ints, 2):
        # the line through the two points, their cross product; negating a
        # line moves its pairs with other lines between the two masks below,
        # which are both scanned, so its sign needs no normalising
        a, b, c = y1 * w2 - y2 * w1, x2 * w1 - x1 * w2, x1 * y2 - x2 * y1
        side_rows.append([sign(a * x + b * y + c * w) for x, y, w in ints])
    side = np.array(side_rows, dtype=np.int8)
    n_lines = len(side_rows)

    ii, jj = np.triu_indices(n_lines)  # includes the diagonal
    prod = side[ii].astype(np.int16) * side[jj].astype(np.int16)
    on_line = prod == 0
    bound = on_line.astype(np.int32) @ onehot

    out: set[tuple[int, ...]] = set()
    for mask in (prod == -1, prod == 1):
        base = mask.astype(np.int32) @ onehot
        rows = np.nonzero(
            np.all(base <= tgt, axis=1) & np.all(base + bound >= tgt, axis=1)
        )[0]
        needs = (tgt - base[rows]).tolist()
        insides = _row_members(mask[rows])
        on_lines = _row_members(on_line[rows])
        for need, inside, online in zip(needs, insides, on_lines):
            # a resolution adding exactly `need` picks sum(need) line points
            for chosen in itertools.combinations(online, sum(need)):
                add = [0, 0, 0]
                for c in chosen:
                    add[cix[c]] += 1
                if add == need:
                    out.add(tuple(sorted(inside + list(chosen))))
    return sorted(out, key=lambda t: (len(t), t))


def _row_members(table: np.ndarray) -> list[list[int]]:
    """Column indices of the True entries of each row of a boolean table."""
    r, cols = np.nonzero(table)
    bounds = np.searchsorted(r, np.arange(len(table) + 1)).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]
