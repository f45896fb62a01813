"""Integer difference sets of tiling configurations.

Two independent routes compute the same set. `difference_set` uses the
integer offset rule: an integer vector lands in the difference of two
translated grid squares exactly when the cells are within one step of each
other on the n-torus, per coordinate. Lifting the translates to Z^2 by
U(c + n*e) = u(c) - e, the set is {U(c) - U(c') : c, c' king-adjacent}.
It is closed under negation, so the 4 forward king steps of each cell, one
cached table of 4n^2 pairs per n, determine it in O(n^2). That table,
`_forward_pairs`, lives in `lift`, which the search reads too.
`geometric_oracle` builds every pairwise difference box with exact
rationals and lists its integer points; it stays O(n^4) on purpose, as the
independent route, and it is the one function here that imports
`fractions`, when it runs. The routes are property-tested against each
other and must never disagree.

A `DiffSet` is a `frozenset` of the set's vectors, the origin and both
signs of each included; `difference_set` adds the negations and the origin
to the distinct vectors of the forward pairs.

Sets hold vectors only. `witness_pairs` recovers the cell pairs and offsets
behind one vector on demand, with one more O(n^2) scan of the same table.

`lattice_span` reports the subgroup of Z^2 generated by a vector set as a
canonical triangular (Hermite-form) basis.

`impossibility_audit` reports where a configuration breaks the paper's
argument. Every configuration breaks it at the first stage, an off-axes
vector of its difference set, so the audit reads only that set and needs
nothing from the torus or topology layers. The verdicts `AxesCheck`,
`LatticeSpan` and `AuditReport` are named tuples. Every record here is
built on `collections.namedtuple`, not `typing.NamedTuple`, whose class
statement compiles each field annotation when the module loads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Optional

from .lift import _forward_pairs
from .model import TileConfig, Vec

if TYPE_CHECKING:
    from fractions import Fraction

# Witness for the membership of one vector: cells p, q and integer offset m
# with vector == u(p) - u(q) + m.
WitnessPair = tuple[tuple[int, int], tuple[int, int], Vec]


class DiffSet(frozenset):
    """Integer points of the difference set of a configuration's plane set.

    The set is symmetric and contains the origin. Only vectors are kept;
    `witness_pairs` names the cell pairs behind any one of them.
    """

    __slots__ = ()

    @property
    def vectors(self) -> frozenset[Vec]:
        """The set itself."""
        return self


def difference_set(config: TileConfig) -> DiffSet:
    """Exact integer difference set via the offset rule, in O(n^2).

    On the lifted grid the set is {U(c) - U(c') : c, c' king-adjacent}, and
    it is closed under negation. So it is the origin, the vectors V of the
    4n^2 forward pairs of `_forward_pairs`, and -V.
    """
    translates = config.translates
    forward = {
        (translates[k][0] - translates[k2][0] + mx, translates[k][1] - translates[k2][1] + my)
        for k, k2, mx, my in _forward_pairs(config.n)
    }
    return DiffSet(forward.union([(0, 0)], [(-x, -y) for x, y in forward]))


def witness_pairs(config: TileConfig, v: Vec) -> list[WitnessPair]:
    """Every (p, q, m) with u(p) - u(q) + m == v, m an admissible offset.

    One O(n^2) scan of the forward pairs of `difference_set`: a forward pair
    (p, q, m) matching v is a witness, one matching -v gives the reversed
    witness (q, p, -m), and v = (0, 0) adds the n^2 self-pairs (p, p, (0, 0)).
    The list is ordered by p row-major, then q row-major, then m
    lexicographically. It is empty exactly when v is not in the difference
    set; summed over the set's vectors the lists hold 9*n^2 triples.
    """
    n = config.n
    translates = config.translates
    vx, vy = v
    found: list[tuple[int, int, Vec]] = []
    for k, k2, mx, my in _forward_pairs(n):
        ux, uy = translates[k]
        wx, wy = translates[k2]
        bx, by = ux - wx + mx, uy - wy + my
        if bx == vx and by == vy:
            found.append((k, k2, (mx, my)))
        if bx == -vx and by == -vy:
            found.append((k2, k, (-mx, -my)))
    if v == (0, 0):
        found.extend((k, k, (0, 0)) for k in range(n * n))
    found.sort()
    return [(divmod(k, n), divmod(k2, n), m) for k, k2, m in found]


def _integer_points_in_box(x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction):
    for x in range(math.ceil(x0), math.floor(x1) + 1):
        for y in range(math.ceil(y0), math.floor(y1) + 1):
            yield (x, y)


def geometric_oracle(config: TileConfig) -> DiffSet:
    """Independent oracle: exact Minkowski differences of all cell-box pairs.

    For cells p=(i,j) and q=(i',j') the difference of the two translated
    closed squares is the closed box
    [(i-i'-1)/n, (i-i'+1)/n] x [(j-j'-1)/n, (j-j'+1)/n] shifted by
    u(p) - u(q); its integer points are enumerated directly.
    """
    from fractions import Fraction

    n = config.n
    cells = list(config.cells())
    vectors: set[Vec] = set()
    for (i, j) in cells:
        up = config.u(i, j)
        for (i2, j2) in cells:
            uq = config.u(i2, j2)
            dx = up[0] - uq[0]
            dy = up[1] - uq[1]
            x0 = Fraction(i - i2 - 1, n) + dx
            x1 = Fraction(i - i2 + 1, n) + dx
            y0 = Fraction(j - j2 - 1, n) + dy
            y1 = Fraction(j - j2 + 1, n) + dy
            vectors.update(_integer_points_in_box(x0, y0, x1, y1))
    return DiffSet(frozenset(vectors))


def geometric_contains(config: TileConfig, v: Vec) -> bool:
    """Whether v is in `geometric_oracle(config)`, by the same box rule in
    integers and without building the set.

    v lies in the box of cells p and q exactly when
    |n*(v - u(p) + u(q)) - (p - q)| <= 1 on each axis. With the scaled
    corner c(p) = n*u(p) + p, that is c(q) = c(p) - n*v + e for some e in
    {-1, 0, 1}^2, so one set of the n^2 corners answers it in O(9n^2),
    stopping at the first pair found.
    """
    n, (vx, vy) = config.n, v
    corners = {(n * ux + i, n * uy + j)
               for (i, j), (ux, uy) in zip(config.cells(), config.translates)}
    return any((cx - n * vx + ex, cy - n * vy + ey) in corners
               for cx, cy in corners for ex in (-1, 0, 1) for ey in (-1, 0, 1))


class AxesCheck(namedtuple("AxesCheck", ("on_axes", "witness"), defaults=(None,))):
    """Verdict of the axes-confinement test with a deterministic witness."""

    __slots__ = ()  # on_axes: bool; witness: the least off-axes vector, or None


def axes_subset(d: DiffSet) -> AxesCheck:
    """True iff every vector has x=0 or y=0.

    On failure the witness is the lexicographically smallest (x, then y)
    off-axes vector; `witness_pairs` gives the cell pairs behind it. In a
    symmetric set that vector has x < 0.
    """
    witness = min((v for v in d if v[0] and v[1]), default=None)
    if witness is None:
        return AxesCheck(True)
    return AxesCheck(False, witness)


class LatticeSpan(namedtuple("LatticeSpan", ("rank", "basis", "index"))):
    """Subgroup of Z^2 generated by a vector set, in canonical Hermite form.

    rank 2 basis is ((d1, e), (0, d2)) with d1,d2 > 0 and 0 <= e < d2;
    index is d1*d2 for rank 2 and None (infinite) otherwise. A rank-1 basis
    vector has its first nonzero coordinate positive.
    """

    __slots__ = ()

    @property
    def generates_full_lattice(self) -> bool:
        return self.rank == 2 and self.index == 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def lattice_span(vectors: Iterable[Vec]) -> LatticeSpan:
    """Canonical basis of the subgroup of Z^2 generated by the vectors.

    The Hermite form is unique, so the vectors are reduced in any order,
    and the reduction stops once both pivots are units: the span is Z^2.
    """
    # Row-reduce into at most two echelon rows: (a, b) with a > 0, then (0, c).
    row1: Optional[Vec] = None  # pivot in x
    row2: Optional[Vec] = None  # pivot in y only
    for v in vectors:
        x, y = v
        if x != 0:
            if row1 is None:
                row1 = v
                continue
            # Unimodular merge: keep gcd of x-parts in row1, push the
            # x-free remainder down to row2.
            s, t, g = _xgcd(row1[0], x)
            merged = (g, s * row1[1] + t * y)
            leftover_y = (row1[0] // g) * y - (x // g) * row1[1]
            row1 = merged
            x, y = 0, leftover_y
        if y != 0:
            if row2 is None:
                row2 = (0, y)
            else:
                g = math.gcd(row2[1], y)
                row2 = (0, g)
        if row2 is not None and row2[1] in (1, -1) and row1 is not None and row1[0] in (1, -1):
            # Unit pivots: the span is already Z^2, whatever the rest adds.
            return LatticeSpan(2, ((1, 0), (0, 1)), 1)
    if row1 is None and row2 is None:
        return LatticeSpan(0, (), None)
    if row1 is None:
        c = abs(row2[1])
        return LatticeSpan(1, ((0, c),), None)
    if row2 is None:
        a, b = row1
        if a < 0:
            a, b = -a, -b
        return LatticeSpan(1, ((a, b),), None)
    a, b = row1
    if a < 0:
        a, b = -a, -b
    c = abs(row2[1])
    b %= c  # non-negative off-diagonal reduction
    return LatticeSpan(2, ((a, b), (0, c)), a * c)


class AuditReport(namedtuple("AuditReport", ("stage", "witness", "witness_pairs", "detail"))):
    """Where a configuration breaks the argument: the axes stage, with the
    off-axes witness, the cell pairs that carry it and a detail line."""

    __slots__ = ()


def impossibility_audit(config: TileConfig, check: Optional[AxesCheck] = None) -> AuditReport:
    """Report the off-axes witness that breaks the axes stage of the argument.

    `check` is `axes_subset` of the config's difference set when the caller
    has it already; the set of any common shift of the translates is the
    same. Every configuration has an off-axes difference vector (the
    impossibility at bounded scale), so an on-axes verdict would be a
    counterexample to the theorem and raises AssertionError.
    """
    if check is None:
        check = axes_subset(difference_set(config))
    if check.on_axes:
        raise AssertionError("difference set on the axes: a counterexample to the impossibility")
    return AuditReport(
        stage="axes",
        witness=check.witness,
        witness_pairs=tuple(witness_pairs(config, check.witness)),
        detail=f"off-axes vector {check.witness} in difference set",
    )
