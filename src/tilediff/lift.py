"""The forward king pairs of the lifted n-grid.

The translates of a configuration lift to Z^2 by U(c + n*e) = u(c) - e,
for cell c and integer translate e of the n-grid. Every difference vector
is U(c) - U(c') for king-adjacent lifted cells c, c', and the set is closed
under negation, so the 4 forward king steps of each cell determine it.
`_forward_pairs` tabulates those 4n^2 pairs once per n.

Both the difference set (`diffset`) and the search (`search`) read this
table. It lives here, apart from both, so that a search that never builds a
difference set never runs `diffset` or `model`; the module imports no other
tilediff module.
"""

from functools import lru_cache

# Forward king steps. With their negations and the zero step they reach all 9
# cells within one step of a cell, per coordinate.
_FORWARD_STEPS = ((0, 1), (1, -1), (1, 0), (1, 1))


@lru_cache(maxsize=64)
def _forward_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The 4n^2 forward king pairs of the lifted n-grid as (k, k2, mx, my).

    For each cell p = (i, j) (row-major index k) and forward step delta, the
    lifted neighbour q' = p + delta lies in cell k2 = q' mod n, row-major, of
    the translate m = floor(q' / n) per axis. Lifting u to Z^2 by
    U(c + n*e) = u(c) - e gives U(p) - U(q') = u(k) - u(k2) + m, and m is an
    admissible offset of the cell pair (k, k2): |p_k - p_k2 - m*n| <= 1 per
    axis.
    """
    # wrap[d][a] = (floor((a + d) / n), (a + d) mod n), one axis at a time.
    wrap = {d: [divmod(a + d, n) for a in range(n)] for d in (-1, 0, 1)}
    table = []
    for di, dj in _FORWARD_STEPS:
        for i, (mx, i2) in enumerate(wrap[di]):
            for j, (my, j2) in enumerate(wrap[dj]):
                table.append((i * n + j, i2 * n + j2, mx, my))
    return tuple(table)
