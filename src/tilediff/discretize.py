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
from collections import namedtuple
from fractions import Fraction

from .model import Box, BoxUnion, TileConfig, Vec, normalize
from .diffset import _integer_points_in_box

# Most cells a cover may take: a cell costs about 150 bytes in the cover's
# set, so a cover at the limit stays near 150 MiB. The largest golden input,
# `wide.boxes`, takes 9,616.
COVER_CELLS_LIMIT = 1_000_000


class GapResult(namedtuple("GapResult", ("gap_squared", "n0"))):
    """The exact squared distance `gap_squared` (a `Fraction`) from the
    integer points outside K-K to K-K, and the smallest resolution n0 with
    n0^2 > 32 / gap_squared."""

    __slots__ = ()


class CellCover(namedtuple("CellCover", ("n", "cells"))):
    """Resolution n plus the cells (j1, j2) whose closed 1/n-square meets K."""

    __slots__ = ()


def minkowski_diff(k: BoxUnion) -> BoxUnion:
    """K - K as the union over ordered box pairs of the closed difference box."""
    boxes: set[Box] = set()
    for (ax0, ay0, ax1, ay1) in k.boxes:
        for (bx0, by0, bx1, by1) in k.boxes:
            boxes.add((ax0 - bx1, ay0 - by1, ax1 - bx0, ay1 - by0))
    return BoxUnion(tuple(sorted(boxes)))


def _ring(box: tuple[int, int, int, int], scale: int):
    """(x, y, d2) for each integer point outside a box scaled by `scale` and
    within 2 of it per axis: the point scaled too, and its squared distance."""
    x0, y0, x1, y1 = box
    ys = range(-(-y0 // scale) - 2, y1 // scale + 3)
    # Inside the box's x range, only the rows below and above it are outside.
    beside = [*range(ys.start, -(-y0 // scale)), *range(y1 // scale + 1, ys.stop)]
    for zx in range(-(-x0 // scale) - 2, x1 // scale + 3):
        x = zx * scale
        dx = max(x0 - x, 0, x - x1)
        for zy in beside if dx == 0 else ys:
            y = zy * scale
            yield x, y, dx * dx + max(y0 - y, 0, y - y1) ** 2


def epsilon_gap(k: BoxUnion) -> GapResult:
    """Exact squared gap between K-K and the integer points outside it.

    Every coordinate of K-K is scaled by L, the lcm of its denominators, so
    every squared distance is an int over L^2. An integer point outside K-K
    lies at squared distance <= 5/4 from it: step one unit past the largest
    x of K-K and round y. So the nearest outside point is within
    sqrt(5/4) < 2 of its nearest box on each axis, which puts it in that
    box's ring (`_ring`). The gap is therefore the least squared distance
    from a box to a point of its ring that lies in no box, and only the
    rings are scanned: a cost that grows with the boxes' perimeters, not
    with the area of K-K, in constant memory. Only a point nearer its box
    than the best so far is tested against the other boxes.
    """
    diff = minkowski_diff(k).boxes
    scale = math.lcm(*(c.denominator for box in diff for c in box))
    boxes = [tuple(c.numerator * (scale // c.denominator) for c in box) for box in diff]
    # Above the 5/4 bound, so an outside point always beats it.
    best = 2 * scale * scale
    for box in boxes:
        for x, y, d2 in _ring(box, scale):
            if d2 < best and not any(
                x0 <= x <= x1 and y0 <= y <= y1 for (x0, y0, x1, y1) in boxes
            ):
                best = d2
    # n^2 > 32 L^2 / best exactly when n^2 > floor(32 L^2 / best).
    return GapResult(Fraction(best, scale * scale), math.isqrt(32 * scale * scale // best) + 1)


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


def _cover_ranges(k: BoxUnion, n: int) -> list:
    """The cell ranges of `_cell_ranges`. Raises ValueError when n < 1, or
    when they hold more than COVER_CELLS_LIMIT cells together."""
    if n < 1:
        raise ValueError("non-positive n")
    ranges = list(_cell_ranges(k, n))
    count = sum((jx_hi - jx_lo + 1) * (jy_hi - jy_lo + 1) for jx_lo, jx_hi, jy_lo, jy_hi in ranges)
    if count > COVER_CELLS_LIMIT:
        raise ValueError(f"n={n}: the cover would take {count} cells, over the limit of {COVER_CELLS_LIMIT}")
    return ranges


def _check_cover_size(k: BoxUnion, n: int | None) -> None:
    """Raise ValueError when the n-cover of K, or without n the n0-cover,
    would take more than COVER_CELLS_LIMIT cells; cheap enough to run
    before `epsilon_gap`, which is not.

    n0 is at least 6: the gap is at most 5/4 (see `epsilon_gap`), and 6 is
    the least n with n^2 > 32 / (5/4). The cells of a box of width w at
    resolution n span at least floor(n w) + 1 columns, a count that never
    falls as n grows. So the sum over the boxes of
    (floor(6 w) + 1)(floor(6 h) + 1) is a lower bound on the cover at every
    n0, and a sum over the limit refuses them all."""
    if n is not None:
        _cover_ranges(k, n)
        return
    least = sum((math.floor(6 * (x1 - x0)) + 1) * (math.floor(6 * (y1 - y0)) + 1)
                for x0, y0, x1, y1 in k.boxes)
    if least > COVER_CELLS_LIMIT:
        raise ValueError(
            f"n>=6: the cover would take at least {least} cells, over the limit of {COVER_CELLS_LIMIT}"
        )


def cover_cells(k: BoxUnion, n: int) -> CellCover:
    """Cells whose closed 1/n-square intersects K (closed-box test, exact).

    Raises ValueError, before listing any cell, when n < 1 or the boxes'
    cell ranges hold more than COVER_CELLS_LIMIT cells together."""
    cells = {
        (j1, j2)
        for (jx_lo, jx_hi, jy_lo, jy_hi) in _cover_ranges(k, n)
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
