"""Discretization of compact box-union sets to grid-square coverings.

Pipeline: the difference set K-K of a box union K, the squared gap from
integer points outside K-K to K-K, the threshold resolution derived from it,
the covering cell family at a given resolution, and the reduction of a cover
to one cell per residue class, yielding a tiling configuration.

Each box of K meets one rectangle of 1/n-cells, so the n-cover K_n is itself
a union of |K| closed boxes. The integer points of K-K and of K_n-K_n come
from one route, `integer_points_of_union(minkowski_diff(.))`, whatever the
extent of K.

The guarantee being exercised: at any resolution at or above the threshold,
the covering's integer difference set equals that of K exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Box, BoxUnion, TileConfig, Vec, normalize
from .diffset import _integer_points_in_box

# Most cells a cover may take: a cell costs about 150 bytes in the cover's
# set, so a cover at the limit stays near 150 MiB. The largest golden input,
# `wide.boxes`, takes 9,616.
COVER_CELLS_LIMIT = 1_000_000


@dataclass(frozen=True)
class GapResult:
    """Squared minimum distance from outside integer points to K-K, and the
    smallest resolution n0 with n0^2 > 32 / gap_squared."""

    gap_squared: Fraction
    n0: int


@dataclass(frozen=True)
class CellCover:
    """Resolution n plus the cells (j1, j2) whose closed 1/n-square meets K."""

    n: int
    cells: frozenset[Vec]


def minkowski_diff(k: BoxUnion) -> BoxUnion:
    """K - K as the union over ordered box pairs of the closed difference box."""
    boxes: set[Box] = set()
    for (ax0, ay0, ax1, ay1) in k.boxes:
        for (bx0, by0, bx1, by1) in k.boxes:
            boxes.add((ax0 - bx1, ay0 - by1, ax1 - bx0, ay1 - by0))
    return BoxUnion(tuple(sorted(boxes)))


def _point_box_dist_sq(x: int, y: int, box: Box) -> Fraction:
    x0, y0, x1, y1 = box
    dx = max(x0 - x, 0, x - x1)
    dy = max(y0 - y, 0, y - y1)
    return dx * dx + dy * dy


def _dist_sq_to_union(x: int, y: int, k: BoxUnion) -> Fraction:
    return min(_point_box_dist_sq(x, y, b) for b in k.boxes)


def _smallest_n_with_square_above(bound: Fraction) -> int:
    """Smallest positive integer n with n^2 > bound, by exact comparison."""
    n = math.isqrt(max(0, math.floor(bound))) + 1
    while Fraction(n * n) <= bound:
        n += 1
    while n > 1 and Fraction((n - 1) * (n - 1)) > bound:
        n -= 1
    return n


def epsilon_gap(k: BoxUnion) -> GapResult:
    """Exact squared gap between K-K and the integer points outside it.

    Candidates are confined to the bounding box of K-K inflated by 2: just
    beyond the bounding box there is always an integer point outside K-K at
    squared distance <= 5/4 (step one unit past the extreme coordinate,
    round the other coordinate of an extreme point of K-K), while any point
    beyond the inflated window is farther than 2 from the whole set.
    """
    diff = minkowski_diff(k)
    x0, y0, x1, y1 = diff.bounding_box()
    best: Fraction | None = None
    for zx in range(math.ceil(x0) - 2, math.floor(x1) + 3):
        for zy in range(math.ceil(y0) - 2, math.floor(y1) + 3):
            if diff.contains_point(Fraction(zx), Fraction(zy)):
                continue
            d2 = _dist_sq_to_union(zx, zy, diff)
            if d2 == 0:
                # A point outside every closed box is at positive distance.
                raise AssertionError(f"integer point ({zx},{zy}) outside K-K at distance 0")
            if best is None or d2 < best:
                best = d2
    if best is None:
        # The window reaches floor(x1) + 2 > x1, past every box of K-K.
        raise AssertionError("no integer point outside K-K in window")
    n0 = _smallest_n_with_square_above(32 / best)
    return GapResult(best, n0)


def _cell_ranges(k: BoxUnion, n: int):
    """Per box of K, the cell ranges (jx_lo, jx_hi, jy_lo, jy_hi), bounds
    included, of the closed 1/n-squares that meet it."""
    for (x0, y0, x1, y1) in k.boxes:
        # Cell j1 meets [x0, x1] iff j1 <= n*x1 and j1 >= n*x0 - 1.
        yield (
            math.ceil(n * x0 - 1),
            math.floor(n * x1),
            math.ceil(n * y0 - 1),
            math.floor(n * y1),
        )


def cover_cells(k: BoxUnion, n: int) -> CellCover:
    """Cells whose closed 1/n-square intersects K (closed-box test, exact).

    Raises ValueError, before listing any cell, when the boxes' cell ranges
    hold more than COVER_CELLS_LIMIT cells together."""
    if n < 1:
        raise ValueError("non-positive n")
    ranges = list(_cell_ranges(k, n))
    count = sum((jx_hi - jx_lo + 1) * (jy_hi - jy_lo + 1) for jx_lo, jx_hi, jy_lo, jy_hi in ranges)
    if count > COVER_CELLS_LIMIT:
        raise ValueError(f"n={n}: the cover would take {count} cells, over the limit of {COVER_CELLS_LIMIT}")
    cells = {
        (j1, j2)
        for (jx_lo, jx_hi, jy_lo, jy_hi) in ranges
        for j1 in range(jx_lo, jx_hi + 1)
        for j2 in range(jy_lo, jy_hi + 1)
    }
    return CellCover(n, frozenset(cells))


def _cover_boxes(k: BoxUnion, n: int) -> BoxUnion:
    """The n-cover of K as |K| closed boxes: per box of K, the union of the
    cells it meets, [jx_lo/n, (jx_hi+1)/n] x [jy_lo/n, (jy_hi+1)/n]."""
    return BoxUnion(
        tuple(
            (Fraction(jx_lo, n), Fraction(jy_lo, n), Fraction(jx_hi + 1, n), Fraction(jy_hi + 1, n))
            for (jx_lo, jx_hi, jy_lo, jy_hi) in _cell_ranges(k, n)
        )
    )


def integer_points_of_union(k: BoxUnion) -> frozenset[Vec]:
    pts: set[Vec] = set()
    for box in k.boxes:
        pts.update(_integer_points_in_box(*box))
    return frozenset(pts)


def discretization_exact(k: BoxUnion, n: int) -> bool:
    """Whether the integer difference sets of K and of its n-cover coincide.

    The n-cover is the union of |K| closed boxes, each the rectangle of
    1/n-cells one box of K meets, so both sides are
    `integer_points_of_union(minkowski_diff(.))`: exact, and at a cost that
    does not grow with the number of cells. Guaranteed true for n >= n0 from
    `epsilon_gap`.
    """
    if n < 1:
        raise ValueError("non-positive n")
    lhs = integer_points_of_union(minkowski_diff(k))
    rhs = integer_points_of_union(minkowski_diff(_cover_boxes(k, n)))
    return lhs == rhs


def reduce_to_transversal(cover: CellCover) -> TileConfig:
    """Keep one cell per residue class, as a normalized tiling configuration.

    For each residue (i, j) the kept cell is the one whose translate
    (floor(j1/n), floor(j2/n)) is lexicographically smallest; the result is
    then normalized so the base cell's translate is zero.
    """
    n = cover.n
    chosen: dict[tuple[int, int], Vec] = {}
    for (j1, j2) in sorted(cover.cells):
        res = (j1 % n, j2 % n)
        u = (j1 // n, j2 // n)
        if res not in chosen or u < chosen[res]:
            chosen[res] = u
    for i in range(n):
        for j in range(n):
            if (i, j) not in chosen:
                raise ValueError(f"residue uncovered ({i},{j})")
    return normalize(TileConfig.from_map(n, chosen))
