"""Incremental insertion on Fractions, kept as a test-only reference.

`reference_complete_face` is the implementation `cells.find_complete_face`
had before it tracked the cell's corners as integer crossing triples: every
corner a Fraction point from `core.intersect`, every side test a Fraction
`eval_at`.  `test_cells.py` checks that the library returns the same Face.
"""

from typing import Sequence

from tricut.cells import Face, cycle_parity, validate_simple
from tricut.core import RGB, ColoredLine, intersect, require_rgb, sign
from tricut.errors import InternalError


def reference_complete_face(lines: Sequence[ColoredLine]) -> Face:
    """Locate a complete cell by incremental insertion on Fractions."""
    lines = tuple(lines)
    require_rgb([l.color for l in lines], "line")
    validate_simple(lines)

    first = {}
    for i, l in enumerate(lines):
        first.setdefault(l.color, i)
    seed = [first[c] for c in RGB]

    # triangle of the three seed lines, oriented ccw; verts[i] -> verts[i+1]
    # runs on supports[i]
    i_r, i_g, i_b = seed
    v_rg = intersect(lines[i_r], lines[i_g])
    v_rb = intersect(lines[i_r], lines[i_b])
    v_gb = intersect(lines[i_g], lines[i_b])
    verts = [v_rg, v_rb, v_gb]
    owners = [{i_r, i_g}, {i_r, i_b}, {i_g, i_b}]
    area2 = sum(verts[i][0] * verts[(i + 1) % 3][1] - verts[(i + 1) % 3][0] * verts[i][1]
                for i in range(3))
    if area2 < 0:
        verts.reverse()
        owners.reverse()
    supports = [next(iter(owners[i] & owners[(i + 1) % 3])) for i in range(3)]

    for idx in range(len(lines)):
        if idx in seed:
            continue
        l = lines[idx]
        s = [sign(l.eval_at(v)) for v in verts]
        if any(x == 0 for x in s):
            raise InternalError("tracked cell vertex on a new line", {"line": idx})
        if all(x == s[0] for x in s):
            continue
        plus = []
        minus = []
        m = len(verts)
        for i in range(m):
            j = (i + 1) % m
            (plus if s[i] > 0 else minus).append((verts[i], supports[i]))
            if s[i] * s[j] < 0:
                x = intersect(l, lines[supports[i]])
                if s[i] > 0:
                    plus.append((x, idx))
                    minus.append((x, supports[i]))
                else:
                    minus.append((x, idx))
                    plus.append((x, supports[i]))
        keep = None
        for cand in (plus, minus):
            cols = tuple(lines[sp].color for _, sp in cand)
            if cycle_parity(cols) == (1, 1, 1):
                if keep is not None:
                    raise InternalError("both sub-cells complete", {"line": idx})
                keep = cand
        if keep is None:
            raise InternalError("no complete sub-cell after split", {"line": idx})
        verts = [v for v, _ in keep]
        supports = [sp for _, sp in keep]

    return Face(
        bounded=True,
        vertices=tuple(verts),
        boundary_lines=tuple(supports),
        boundary_colors=tuple(lines[sp].color for sp in supports),
    )
