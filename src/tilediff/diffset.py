"""Integer difference sets of tiling configurations.

Two independent routes compute the same set. `difference_set` uses the
integer offset rule: an integer vector lands in the difference of two
translated grid squares exactly when the cells are within one step of each
other on the n-torus, per coordinate. Lifting the translates to Z^2 by
U(c + n*e) = u(c) - e, the set is {U(c) - U(c') : c, c' king-adjacent}.
It is closed under negation, so the 4 forward king steps of each cell, one
cached table of 4n^2 pairs per n, determine it in O(n^2).
`geometric_oracle` builds every pairwise difference box with exact
rationals and lists its integer points; it stays O(n^4) on purpose, as the
independent route. The routes are property-tested against each other and
must never disagree.

A `DiffSet` holds generators G and stands for {(0, 0)} | G | -G; for
`difference_set`, G is the distinct vectors of the forward pairs.
Membership, the axes verdict and the lattice span read G directly. The
symmetric closure is built, once per set, only when a caller asks for all
of its vectors, its size or its sorted list.

Sets hold vectors only. `witness_pairs` recovers the cell pairs and offsets
behind one vector on demand, with one more O(n^2) scan of the same table.

`lattice_span` reports the subgroup of Z^2 generated by a vector set as a
canonical triangular (Hermite-form) basis; for a `DiffSet` it reduces the
generators, which span the same subgroup as the closure.

`impossibility_audit` reports where a configuration breaks the paper's
argument. Every configuration breaks it at the first stage, an off-axes
vector of its difference set, so the audit reads only that set and needs
nothing from the torus or topology layers. The verdicts `AxesCheck`,
`LatticeSpan` and `AuditReport` are named tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional

from .model import TileConfig, Vec, validate

# Witness for the membership of one vector: cells p, q and integer offset m
# with vector == u(p) - u(q) + m.
WitnessPair = tuple[tuple[int, int], tuple[int, int], Vec]


@dataclass(frozen=True, eq=False)
class DiffSet:
    """Integer points of the difference set of a configuration's plane set.

    The set is symmetric and contains the origin, so it is held by
    generators G and stands for {(0, 0)} | G | -G. Any G with that closure
    gives an equal, equally hashed `DiffSet`; `geometric_oracle` passes the
    full set, which is its own closure. Only vectors are kept;
    `witness_pairs` names the cell pairs behind any one of them.
    """

    generators: frozenset[Vec]

    @cached_property
    def vectors(self) -> frozenset[Vec]:
        """The symmetric closure with the origin, built on first read."""
        gens = self.generators
        return gens.union([(0, 0)], [(-x, -y) for x, y in gens])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffSet):
            return NotImplemented
        return self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __contains__(self, v: Vec) -> bool:
        return v == (0, 0) or v in self.generators or (-v[0], -v[1]) in self.generators

    def __len__(self) -> int:
        return len(self.vectors)

    def sorted_vectors(self) -> list[Vec]:
        return sorted(self.vectors)


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


def _checked(config: TileConfig) -> None:
    problems = validate(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))


def difference_set(config: TileConfig) -> DiffSet:
    """Exact integer difference set via the offset rule, in O(n^2).

    On the lifted grid the set is {U(c) - U(c') : c, c' king-adjacent}, and
    it is closed under negation. So it is the origin, the vectors V of the
    4n^2 forward pairs of `_forward_pairs`, and -V; the `DiffSet` holds the
    distinct vectors of V as its generators.
    """
    _checked(config)
    translates = config.translates
    forward = {
        (translates[k][0] - translates[k2][0] + mx, translates[k][1] - translates[k2][1] + my)
        for k, k2, mx, my in _forward_pairs(config.n)
    }
    return DiffSet(frozenset(forward))


def witness_pairs(config: TileConfig, v: Vec) -> list[WitnessPair]:
    """Every (p, q, m) with u(p) - u(q) + m == v, m an admissible offset.

    One O(n^2) scan of the forward pairs of `difference_set`: a forward pair
    (p, q, m) matching v is a witness, one matching -v gives the reversed
    witness (q, p, -m), and v = (0, 0) adds the n^2 self-pairs (p, p, (0, 0)).
    The list is ordered by p row-major, then q row-major, then m
    lexicographically. It is empty exactly when v is not in the difference
    set; summed over the set's vectors the lists hold 9*n^2 triples.
    """
    _checked(config)
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
    _checked(config)
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


class AxesCheck(NamedTuple):
    """Verdict of the axes-confinement test with a deterministic witness."""

    on_axes: bool
    witness: Optional[Vec] = None


def axes_subset(d: DiffSet) -> AxesCheck:
    """True iff every vector has x=0 or y=0.

    On failure the witness is the lexicographically smallest (x, then y)
    off-axes vector; `witness_pairs` gives the cell pairs behind it. Only
    the generators are scanned: the closure's off-axes vectors come in pairs
    g, -g, and the one with x < 0 is the smaller, so the witness is the
    least of those.
    """
    witness: Optional[Vec] = None
    for x, y in d.generators:
        if x and y:
            if x > 0:
                x, y = -x, -y
            if witness is None or (x, y) < witness:
                witness = (x, y)
    if witness is None:
        return AxesCheck(True)
    return AxesCheck(False, witness)


class LatticeSpan(NamedTuple):
    """Subgroup of Z^2 generated by a vector set, in canonical Hermite form.

    rank 2 basis is ((d1, e), (0, d2)) with d1,d2 > 0 and 0 <= e < d2;
    index is d1*d2 for rank 2 and None (infinite) otherwise. A rank-1 basis
    vector has its first nonzero coordinate positive.
    """

    rank: int
    basis: tuple[Vec, ...]
    index: Optional[int]

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


def lattice_span(vectors: DiffSet | Iterable[Vec]) -> LatticeSpan:
    """Canonical basis of the subgroup of Z^2 generated by the vectors.

    The Hermite form is unique, so the vectors are reduced in any order,
    and the reduction stops once both pivots are units: the span is Z^2.
    A `DiffSet` gives its generators: negations and the origin add nothing
    to a span, so its closure is never built.
    """
    vecs = vectors.generators if isinstance(vectors, DiffSet) else set(vectors)
    # Row-reduce into at most two echelon rows: (a, b) with a > 0, then (0, c).
    row1: Optional[Vec] = None  # pivot in x
    row2: Optional[Vec] = None  # pivot in y only
    for v in vecs:
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


class AuditReport(NamedTuple):
    """Where a configuration breaks the argument: the axes stage, with the
    off-axes witness, the cell pairs that carry it and a detail line."""

    stage: str
    witness: Vec
    witness_pairs: tuple
    detail: str


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
