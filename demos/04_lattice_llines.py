"""Balanced L-lines on the integer lattice.

An L-line is an axis-aligned path with at most one corner (two rays, or a
straight axis-parallel line).  Given 3n lattice points, n per color, with
distinct x's, distinct y's, and a monochromatic orthogonal hull, some
L-line avoiding all points has exactly k of each color on one side, for a
nontrivial k.  The finder searches a cyclic family of sided orderings whose
balance-curve winding cannot stay fixed, so a balanced prefix must appear.
The hull precondition is essential: a diagonal point set has none, and the
exhaustive search over the corner grid confirms nothing balances it.
"""

import pathlib

from tricut import (
    GenKind,
    GenSpec,
    brute_oracle_llines,
    find_balanced_lline,
    generate,
    lline_counts,
    ortho_hull,
    svg,
)
from tricut.errors import PreconditionViolated

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    s = generate(GenSpec(GenKind.LatticeRedHull, 5, seed=17))
    hull = ortho_hull(s)
    print(f"{s.n} points per color; orthogonal hull is all "
          f"{''.join(sorted({p.color.value for p in hull}))} ({len(hull)} points)")

    l, k = find_balanced_lline(s, validate=True)
    r1, r2 = lline_counts(l, s)
    corner = f"({l.corner[0]}, {l.corner[1]})"
    rays = "+".join(r.value for r in l.rays)
    print(f"balanced L-line: corner {corner}, rays {rays}")
    print(f"  region 1 counts {r1} (k={k}), region 2 counts {r2}")

    answers = brute_oracle_llines(s)
    assert (l, k) in answers
    print(f"  exhaustive corner-grid search finds {len(answers)} balanced L-lines")

    (OUT / "lline.svg").write_text(svg.render_lline(s, l))
    print(f"wrote {OUT / 'lline.svg'}")

    # the diagonal configuration defeats every L-line
    diag = generate(GenSpec(GenKind.LatticeDiagonalCounterexample, 4, seed=1))
    assert brute_oracle_llines(diag) == []
    try:
        find_balanced_lline(diag)
    except PreconditionViolated as e:
        print(f"diagonal instance rejected: {e}")


if __name__ == "__main__":
    main()
