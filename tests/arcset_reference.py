"""The Fraction check `ArcSet.__post_init__` ran before it compared arc ends
by cross-multiplication, kept as the reference for the integer check: the
same three tests in the same order, on the ends as given (ints and
Fractions), raising `PreconditionViolated` with the same messages.
"""

from tricut.errors import PreconditionViolated


def check_arcs(arcs) -> None:
    prev_end = None
    for lo, hi in arcs:
        if not (0 <= lo < 1 and lo < hi <= lo + 1):
            raise PreconditionViolated(f"arc ({lo}, {hi}) out of canonical range")
        if prev_end is not None and lo <= prev_end:
            raise PreconditionViolated("arcs must be sorted and disjoint")
        prev_end = hi
    if len(arcs) > 1:
        first_lo, _ = arcs[0]
        _, last_hi = arcs[-1]
        if last_hi > 1 and last_hi - 1 >= first_lo:
            raise PreconditionViolated("wrapping arc overlaps the first arc")
