"""The Fraction shear and duals of the halving segment, kept as a test-only
reference.

`reference_sheared_duals` is what `wedges._sheared_duals` computed on
ColoredLines before it took the lines' integer triples: when some line is
vertical, every normalized line (a, b, c) becomes (a, b - a*lam, c) with
lam = floor(max |b|) + 1, and each line gives its dual point
(slope, -intercept) through `core.dual_line_to_point`.
"""

import math

from tricut.core import ColoredLine, dual_line_to_point


def reference_sheared_duals(lines):
    """(lam, the lines' dual points after the shear (x, y) -> (x + lam*y, y)),
    lam None and no shear when no line is vertical."""
    lam = None
    if any(l.is_vertical for l in lines):
        lam = math.floor(max(abs(l.b) for l in lines)) + 1
        lines = tuple(ColoredLine(l.a, l.b - l.a * lam, l.c, l.color) for l in lines)
    return lam, tuple(dual_line_to_point(l) for l in lines)
