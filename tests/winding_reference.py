"""Loop implementation of the winding number, kept as a test-only reference.

`reference_winding_number` walks the edges of a closed integer polygon one
at a time.  It is the implementation `core.winding_number` had before the
vectorised signed-crossing count; `test_core.py` checks that the library
returns the same number, or raises the same error, on random polygons.
"""

from typing import Sequence

from tricut.errors import OriginOnCurve, PreconditionViolated


def reference_winding_number(vertices: Sequence[tuple[int, int]]) -> int:
    """Winding number of the closed curve around the origin.

    Counts signed crossings of the positive x axis.  Raises OriginOnCurve if
    a vertex is the origin or the origin is interior to an edge.
    """
    verts = list(vertices)
    for v in verts:
        if not (isinstance(v[0], int) and isinstance(v[1], int)):
            raise PreconditionViolated("lattice polygon needs integer vertices")
    if len(verts) < 2:
        raise PreconditionViolated("polygon needs at least 2 vertices")
    m = len(verts)
    w = 0
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        if (ax, ay) == (0, 0):
            raise OriginOnCurve("vertex at origin")
        if (ax, ay) == (bx, by):
            continue
        cross = ax * by - ay * bx
        if cross == 0 and ax * bx + ay * by < 0:
            raise OriginOnCurve("origin interior to an edge")
        if ay <= 0 < by and cross > 0:
            w += 1
        elif by <= 0 < ay and cross < 0:
            w -= 1
    return w
