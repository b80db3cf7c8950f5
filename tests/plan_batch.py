"""Whole-range op-plan helpers for the tests: every k at once, in numpy.

`plan_ops_batch` is a vectorised second implementation of `arcs.plan_ops`
and `bfs_shortest_lengths` one of `arcs.bfs_shortest`; criterion 6 and
`test_arcs.py` check the library functions against them.
"""

import numpy as np


def bfs_shortest_lengths(n: int) -> np.ndarray:
    """dist[k] = shortest f/g word length from n to k, for every k in 0..n."""
    dist = np.full(n + 1, -1, dtype=np.int16)
    dist[n] = 0
    frontier = np.array([n], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nxt = np.unique(np.concatenate([frontier // 2, n - frontier]))
        nxt = nxt[dist[nxt] == -1]
        dist[nxt] = d
        frontier = nxt
    return dist


def plan_ops_batch(n: int) -> np.ndarray:
    """Vectorized plan_ops for every k at once.

    Returns an int8 matrix with rows k = 0..n; entry 0 = no op, 1 = f,
    2 = g.  Row k's plan reads left to right skipping zeros (rows are
    right-aligned).  Row 0 is all zeros (k = 0 is not a valid target).
    """
    h = n // 2
    lo = np.arange(n + 1, dtype=np.int64)
    hi = lo.copy()
    active = np.ones(n + 1, dtype=bool)
    active[0] = False
    active[n] = False
    rev_cols = []
    while active.any():
        stop = active & (lo <= h) & (hi >= h)
        fmask = active & (hi < h)
        gmask = active & (lo > h)
        col = np.zeros(n + 1, dtype=np.int8)
        col[fmask | stop] = 1
        col[gmask] = 2
        rev_cols.append(col)
        lo2 = np.where(fmask, 2 * lo, lo)
        hi2 = np.where(fmask, 2 * hi + 1, hi)
        lo = np.where(gmask, n - hi2, lo2)
        hi = np.where(gmask, n - lo2, hi2)
        active &= ~stop
    if not rev_cols:
        return np.zeros((n + 1, 0), dtype=np.int8)
    return np.stack(rev_cols[::-1], axis=1)


def eval_plans_batch(n: int, ops: np.ndarray) -> np.ndarray:
    """Apply every row of a plan matrix to the starting count n."""
    vals = np.full(ops.shape[0], n, dtype=np.int64)
    for j in range(ops.shape[1]):
        col = ops[:, j]
        vals = np.where(col == 1, vals // 2, vals)
        vals = np.where(col == 2, n - vals, vals)
    return vals

