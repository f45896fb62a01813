"""Bounded exhaustive search over tiling configurations.

Enumerates every assignment of translates in [-bound, bound]^2 to the free
cells (the base cell is pinned to (0, 0)) and confirms that no configuration
has its integer difference set confined to the coordinate axes.

Difference vectors only arise from torus-adjacent cell pairs. Let cell k
hold (qx, qy) and let M = Mx x My be the admissible offsets of a later cell
f against k. Every vector of the pair lies on the axes exactly when f holds
a value on
  - the cross {x = qx - mx} | {y = qy - my}, when |Mx| = |My| = 1;
  - the column x = qx - mx, when only |Mx| = 1;
  - the row y = qy - my, when only |My| = 1;
and no value at all when both offset sets have several members.

Two engines: `plain`, in the module `plain`, enumerates every full
assignment depth first and serves as the oracle; `run_search` imports it
only for ``--engine plain`` and at n = 1. `pruned` does forward checking
(Haralick & Elliott 1980) in the static diagonal order of `_tables`.
Each free cell keeps a bitmask domain over the value range. Placing a cell
ANDs the closed-form mask above, the OR of one column and one row mask,
into the domain of every later cell it touches, and a domain that empties
cuts the subtree. A leaf the pruned engine reaches is therefore a valid
configuration, and the engines agree exactly. The pruned engine keeps one
live domain list and undoes its changes from a trail when it backtracks,
so its state grows as n^2.

Both engines run in one process and return the `SearchReport` itself;
`run_search` picks the engine and passes it the start time. The pruned
engine stops on the first node past the budget; the plain engine refuses
the search before its first leaf when its leaf count passes the budget.
`jobs` is accepted and validated, but the report does not depend on it.

Both engines read the forward-pair table of `lift` and nothing else of the
package until they need it, looking `model` and `diffset` up when they run.
The plain engine builds a `TileConfig` and its difference set at its first
leaf. The pruned engine builds a `TileConfig` only at a leaf, which the
paper's lift never lets it reach, or at a cut under `witnesses`.
`verify_witnesses` replays records through `diffset.geometric_contains`.
So a default pruned search runs no `model`, `diffset` or `plain` code.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from typing import TYPE_CHECKING

from . import diffset, model
from .lift import _forward_pairs

if TYPE_CHECKING:
    from .model import TileConfig, Vec

PLAIN = "plain"
PRUNED = "pruned"

# Largest size of the tables of `_Forward`, and of the domains, in bytes.
# Past it a pruned search fails before building them: the per-cell tables
# grow as n^2, each axis list of masks as (2b+1)^3 bits, and the domains as
# n^2 (2b+1)^2 bits.
TABLE_BYTES_LIMIT = 256 << 20
# What the n^2-sized tables of a pruned search (forward pairs, placement
# order and swap, constraint links, domains) take per cell, by tracemalloc
# at n = 50 to 200.
_TABLE_BYTES_PER_CELL = 2_200
# What the live domains and the undo trail of a deep pruned search take, in
# bits per cell and value of the range: every domain is an int of up to W^2
# bits, and the trail keeps each one a placement replaced. By tracemalloc at
# the peak, which a budget of a few thousand nodes reaches: 2.10 to 2.25 at
# n = 16 to 40 and bound 60 to 150.
_DOMAIN_BITS_PER_VALUE = 9 / 4


class BudgetExceeded(ValueError):
    """A search stopped at its budget of `nodes` nodes.

    The message is "budget exceeded", and `progress` says in one line how
    far the search got. The plain engine stops before its first leaf when
    its `leaves` pass the budget; a count too long to write out is the
    power "b^e" instead of an int. The pruned engine stops on the first node
    past it, while placing cell `cell`; of the `domain` values cell `first`,
    the first free cell of its order, had after the base cell was placed,
    `explored` were fully searched. Both cells are named by their row-major
    index.
    """

    def __init__(self, nodes: int, cell: int = 0, leaves: int = 0,
                 first: int = 0, explored: int = 0, domain: int = 0):
        super().__init__("budget exceeded")
        self.nodes = nodes
        self.cell = cell
        self.leaves = leaves
        self.first = first
        self.explored = explored
        self.domain = domain

    @property
    def progress(self) -> str:
        if self.leaves:
            return f"plain search would visit {self.leaves} leaves, over the budget of {self.nodes}"
        return (f"search stopped after {self.nodes} nodes, placing cell {self.cell}; "
                f"cell {self.first} fully explored {self.explored} of {self.domain} values")


_SearchSpecFields = namedtuple(
    "_SearchSpecFields",
    ("n", "bound", "engine", "symmetry", "budget", "jobs", "witnesses"),
    defaults=(PRUNED, False, 2_000_000, 1, False),
)


class SearchSpec(_SearchSpecFields):
    """One bounded search: the fields, checked when the spec is built."""

    __slots__ = ()

    def __new__(cls, n, bound, engine, symmetry, budget, jobs, witnesses):
        if n < 1:
            raise ValueError("non-positive n")
        if bound < 0:
            raise ValueError("negative bound")
        if engine not in (PLAIN, PRUNED):
            raise ValueError(f"unknown engine {engine!r}")
        if budget < 1 or jobs < 1:
            raise ValueError("budget and jobs must be positive")
        # As namedtuple's own __new__ does, without its extra call.
        return tuple.__new__(cls, (n, bound, engine, symmetry, budget, jobs, witnesses))

    __new__.__defaults__ = _SearchSpecFields.__new__.__defaults__  # the fields' defaults

    # namedtuple's own _make, which _replace calls, skips __new__'s check.
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SearchReport(namedtuple("SearchReport", (
    "spec", "configs_enumerated", "nodes_visited", "valid_found", "witness_counts",
    "witness_records", "valid_configs", "wall_time",
))):
    """Outcome of one bounded search.

    The guarantee stated by a clean report is bounded: no valid configuration
    with translate max-norm <= bound exists at this n. configs_enumerated
    counts full leaves visited; nodes_visited counts every value tried for a
    free cell (pruned engine). witness_counts aggregates off-axes witness
    vectors: one per enumerated config for plain, and one per wiped-out
    domain for pruned. A wiped-out cell takes the lowest value of the range,
    every cell not yet placed takes (0, 0), and the vector comes from the
    first placed neighbour and offset that put that value off the axes.
    witness_records, retained on request, carry these replayable (config,
    vector) pairs. wall_time is informational and excluded from structured
    output.
    """

    # spec: SearchSpec; configs_enumerated, nodes_visited, valid_found: int;
    # witness_counts: ((x, y), count) pairs; witness_records: (TileConfig,
    # (x, y)) pairs; valid_configs: TileConfigs; wall_time: float seconds.
    __slots__ = ()


def _value_range(bound: int) -> list[Vec]:
    return [(ux, uy) for ux in range(-bound, bound + 1) for uy in range(-bound, bound + 1)]


def _swap_position(k: int, n: int) -> int:
    i, j = divmod(k, n)
    return j * n + i


# Lexicographic-leader scan outcomes for the x<->y swap quotient.
_PRUNE, _UNDECIDED, _CANONICAL, _FIXED = range(4)


def _lex_state(values: list, depth: int, swap: tuple[int, ...]) -> int:
    """Compare the partial assignment against its x<->y swap image.

    values[p] is the translate at position p of a scan order, and swap[p]
    the position of the mirror image of that cell; values[0..depth] are
    assigned. Returns _PRUNE when every completion is lexicographically
    greater than its swap (subtree safe to drop), _CANONICAL when every
    completion is strictly smaller, _FIXED when the full assignment equals
    its swap, and _UNDECIDED otherwise.
    """
    for k, sk in enumerate(swap):
        if k > depth or sk > depth:
            return _UNDECIDED
        mine = values[k]
        theirs = (values[sk][1], values[sk][0])
        if mine < theirs:
            return _CANONICAL
        if mine > theirs:
            return _PRUNE
    return _FIXED


_Tables = namedtuple("_Tables", ("order", "position", "swap", "later", "earlier", "mxs", "mys"))


@functools.lru_cache(maxsize=64)
def _tables(n: int) -> _Tables:
    """The tables of the pruned engine that depend on n alone, built once
    per n and shared, as `_forward_pairs` is; they are all tuples and
    frozensets, so no caller can change them.

    order lists the row-major cells in placement order: by diagonal
    (i + j) mod n, then by i, so the base cell (0, 0) comes first. Each
    diagonal is a closed king loop around the torus, so placing one
    diagonal after another closes loops, and wipes out domains, sooner than
    row-major order does. position is its inverse, the position of each
    row-major cell, and swap[p] the position of the x<->y mirror of the
    cell at position p.

    The links name cells by position. later[k] lists, for each later
    position f whose cell touches the cell at k on the torus, (f, offsets,
    mx, my): offsets are the admissible offsets m of p_f - p_k, for the
    cells p_f and p_k at those positions (|p_f - p_k - m*n| <= 1 per axis),
    sorted with mx outermost, and mx (my) is their single x (y) offset, or
    None when there are several. earlier[f] lists (k, offsets) for each
    earlier k touching f, in that order. mxs and mys hold every single x
    and y offset of a link.

    The links are read in O(n^2) from the forward king pairs (c, c2, m) of
    `_forward_pairs`: m is an offset of p_c - p_c2. With the cells at
    positions k and k2, a pair with k2 < k gives the link k2 -> k with
    offset m, one with k < k2 gives the link k -> k2 with offset -m, and
    each offset of each linked pair comes from exactly one forward pair.
    Self-pairs (n = 1) link nothing.
    """
    order = tuple(sorted(range(n * n), key=lambda k: ((k // n + k % n) % n, k // n)))
    position = tuple(sorted(range(n * n), key=order.__getitem__))
    grouped: list[dict[int, list[Vec]]] = [{} for _ in order]
    for c, c2, mx, my in _forward_pairs(n):
        k, k2 = position[c], position[c2]
        if k2 < k:
            grouped[k2].setdefault(k, []).append((mx, my))
        elif k < k2:
            grouped[k].setdefault(k2, []).append((-mx, -my))
    later, earlier = [], [[] for _ in grouped]
    for k, links in enumerate(grouped):
        row = []
        for f in sorted(links):
            offsets = tuple(sorted(links[f]))
            # offsets is Mx x My with mx outermost, so its first and last
            # entries hold the smallest and largest mx and my.
            (mx, my), (mx_last, my_last) = offsets[0], offsets[-1]
            row.append((f, offsets, mx if mx == mx_last else None, my if my == my_last else None))
            earlier[f].append((k, offsets))
        later.append(tuple(row))
    mxs, mys = (frozenset(link[axis] for row in later for link in row) - {None} for axis in (2, 3))
    swap = tuple(position[_swap_position(c, n)] for c in order)
    return _Tables(order, position, swap, tuple(later), tuple(map(tuple, earlier)), mxs, mys)


class _Forward:
    """Forward-checking tables for one (n, bound), built once per scan.

    Value index i = ix * W + iy, with W = 2 * bound + 1, stands for
    _value_range(bound)[i] = (ix - bound, iy - bound), and a domain is an
    int whose bit i is set when value i is still allowed. Cells are named by
    their position in the placement order. `tables` is the record of
    `_tables(n)`, shared by every scan at n; only the masks depend on the
    bound. later[k] lists (f, xs, ys) for each later cell f touching k: cell
    k holding value i = (ix, iy) allows the domain xs[ix] | ys[iy] of f.

    The masks are kept per axis. Against k at (qx, qy), a single x offset
    mx allows the column x = qx - mx, one block of W bits, and a single y
    offset my the row y = qy - my, a comb of every W-th bit; each is empty
    when it leaves the range. So xs is the W columns of the link's mx and ys
    the W rows of its my, and an axis with several offsets takes one shared
    list of W zeros. A link with both offsets single allows the cross, one
    with neither allows nothing. The lists are shared by every link with the
    same offset, so there are at most three of each. The value list itself
    is not built here, and `later` only on first read: `root` decides a
    search that ends at the base cell without it.

    The constructor raises ValueError before building any table when the
    n^2-sized ones would take more than TABLE_BYTES_LIMIT bytes, and `later`
    raises it before building any mask when the axis lists, W masks of up
    to W^2 bits each, would. `root` raises it before building any mask or
    domain when the domains and the trail, up to a few ints of W^2 bits per
    cell, would. A search that `root` decides builds neither, so its bound
    is not limited.
    """

    def __init__(self, n: int, bound: int):
        size = n * n * _TABLE_BYTES_PER_CELL
        if size > TABLE_BYTES_LIMIT:
            raise ValueError(
                f"n={n}: the search tables would take {size >> 20} MiB, "
                f"over the {TABLE_BYTES_LIMIT >> 20} MiB limit"
            )
        self.n = n
        self.bound = bound
        self.width = 2 * bound + 1
        self.tables = _tables(n)

    @functools.cached_property
    def later(self) -> list[list[tuple[int, list[int], list[int]]]]:
        width, tables = self.width, self.tables
        size = (len(tables.mxs) + len(tables.mys)) * width ** 3 // 8
        if size > TABLE_BYTES_LIMIT:
            raise ValueError(
                f"n={self.n} bound={self.bound}: the pruning tables would take "
                f"{size >> 20} MiB, over the {TABLE_BYTES_LIMIT >> 20} MiB limit"
            )
        block = (1 << width) - 1
        comb = ((1 << width * width) - 1) // block  # bit ix * W for every ix
        span, zeros = range(width), [0] * width
        xs = {mx: [block << (ix - mx) * width if 0 <= ix - mx < width else 0 for ix in span]
              for mx in tables.mxs}
        ys = {my: [comb << iy - my if 0 <= iy - my < width else 0 for iy in span]
              for my in tables.mys}
        return [[(f, xs.get(mx, zeros), ys.get(my, zeros)) for f, _, mx, my in links]
                for links in tables.later]

    def root(self) -> tuple[list[int], int]:
        """The domains with the base cell placed at (0, 0), and the first
        cell whose domain this placement wipes out, or -1.

        Every domain is full here, so the base cell wipes out a later cell
        exactly when neither the link's single mx nor its single my lies in
        [-bound, bound]: the table decides that without any mask, and then
        no domain is built and the list is empty."""
        bound, size, table = self.bound, self.width * self.width, self.tables.later
        for f, _, mx, my in table[0]:
            if not (mx is not None and abs(mx) <= bound or my is not None and abs(my) <= bound):
                return [], f
        domain_bytes = int(len(table) * size * _DOMAIN_BITS_PER_VALUE) // 8
        if domain_bytes > TABLE_BYTES_LIMIT:
            raise ValueError(
                f"n={self.n} bound={bound}: the search domains would take "
                f"{domain_bytes >> 20} MiB, over the {TABLE_BYTES_LIMIT >> 20} MiB limit"
            )
        links = self.later[0]
        domains = [(1 << size) - 1] * len(table)
        domains[0] = 1 << size // 2  # the middle value, (0, 0)
        return domains, _narrow(domains, links, bound, bound, [])

    def witness(self, assigned: list[Vec], depth: int, f: int) -> Vec:
        """The off-axes vector that excludes the lowest value (-bound, -bound)
        from the domain of f, given cells 0..depth placed as in `assigned`."""
        vx = vy = -self.bound
        for k, offsets in self.tables.earlier[f]:
            if k > depth:
                break
            qx, qy = assigned[k]
            for mx, my in offsets:
                wx, wy = vx - qx + mx, vy - qy + my
                if wx != 0 and wy != 0:
                    return (wx, wy)
        raise AssertionError("wiped-out domain with no excluding neighbour")


def _narrow(domains: list[int], links, ix: int, iy: int, trail: list) -> int:
    """AND the masks of a cell holding value index ix * W + iy into the
    domains of its later neighbours, in search order, appending
    (cell, old domain) to `trail` for each domain it changes; return the
    first neighbour whose domain empties (it and the rest are left as they
    were), or -1."""
    for f, xs, ys in links:
        domain = domains[f]
        allowed = domain & (xs[ix] | ys[iy])
        if not allowed:
            return f
        if allowed != domain:
            trail.append((f, domain))
            domains[f] = allowed
    return -1


def _pruned_scan(spec: SearchSpec, start: float) -> SearchReport:
    """Forward-checking search at n >= 2 in the order of `_tables`, each
    cell trying its values in `_value_range` order. Depth d places the cell
    at position d, and the configurations it reports are read back into
    row-major order. The report's wall_time counts from `start`, a
    `time.perf_counter` reading.

    The walk keeps one live domain list and a trail of the (cell, old
    domain) changes `_narrow` made. Each depth notes the trail's length
    when it is entered and, before it places its next value, undoes the
    changes past that mark, newest first, and cuts them off; so the state
    is O(n^2) however deep the search goes. The walk keeps its own stack,
    so a search deeper than Python's recursion limit stops at its budget."""
    n = spec.n
    # Locals, read once: the node loop and `cut` run per node.
    bound, budget, symmetry, witnesses = spec.bound, spec.budget, spec.symmetry, spec.witnesses
    counts: dict[Vec, int] = {}
    records: list[tuple[TileConfig, Vec]] = []
    fwd = _Forward(n, bound)
    last = n * n - 1
    order, position, swap = fwd.tables.order, fwd.tables.position, fwd.tables.swap
    assigned: list[Vec] = [(0, 0)] * (last + 1)

    def cut(depth: int, f: int):
        vec = fwd.witness(assigned, depth, f)
        counts[vec] = counts.get(vec, 0) + 1
        if witnesses:
            translates = assigned[: depth + 1] + [(0, 0)] * (last - depth)
            translates[f] = (-bound, -bound)
            records.append((model.TileConfig(n, tuple(translates[k] for k in position)), vec))

    domains, wiped = fwd.root()
    if wiped >= 0:
        cut(0, wiped)  # the base cell alone cuts the whole tree
        return SearchReport(spec, 0, 0, 0, tuple(counts.items()), tuple(records), (),
                            time.perf_counter() - start)
    later, width = fwd.later, fwd.width
    # Per depth d: the trail's length when d was entered, the values cell d
    # has still to try, and whether the swap order was settled above d.
    trail: list[tuple[int, int]] = []
    marks = [0] * (last + 1)
    remaining = [0] * (last + 1)
    settled = [False] * (last + 1)
    remaining[1] = domains[1]
    # Every leaf reached is valid, so the leaves are the valid configurations.
    valid_configs: list[TileConfig] = []
    depth, nodes, valid = 1, 0, 0
    while depth:
        domain = remaining[depth]
        if not domain:
            depth -= 1
            continue
        low = domain & -domain
        remaining[depth] = domain ^ low
        ix, iy = divmod(low.bit_length() - 1, width)
        nodes += 1
        assigned[depth] = (ix - bound, iy - bound)
        if nodes > budget:
            # Cell 1 tries its values in index order, and no placement
            # narrows it, so domains[1] is still its root domain: the values
            # it has fully searched are those neither left nor under way.
            domain = domains[1].bit_count()
            raise BudgetExceeded(budget, order[depth], first=order[1], domain=domain,
                                 explored=domain - remaining[1].bit_count() - 1)
        mark = marks[depth]
        if len(trail) > mark:
            for f, old in reversed(trail[mark:]):
                domains[f] = old
            del trail[mark:]
        wiped = _narrow(domains, later[depth], ix, iy, trail)
        if wiped >= 0:
            cut(depth, wiped)
            continue
        orbit = 2 if symmetry else 1
        sub_settled = settled[depth]
        if symmetry and not sub_settled:
            state = _lex_state(assigned, depth, swap)
            if state == _PRUNE:
                continue
            if state == _CANONICAL:
                sub_settled = True
            elif state == _FIXED:
                orbit = 1  # self-symmetric leaf; scans always settle at leaves
        if depth == last:
            config = model.TileConfig(n, tuple(assigned[k] for k in position))
            # Adjacent pairs carry every difference vector, so a reached
            # leaf must be valid; cross-check against the full set.
            if not diffset.axes_subset(diffset.difference_set(config)).on_axes:
                raise AssertionError("pruned engine reached an invalid leaf")
            valid += orbit
            valid_configs.append(config)
        else:
            depth += 1
            marks[depth], remaining[depth], settled[depth] = len(trail), domains[depth], sub_settled
    return SearchReport(spec, len(valid_configs), nodes, valid, tuple(sorted(counts.items())),
                        tuple(records), tuple(valid_configs), time.perf_counter() - start)


def run_search(spec: SearchSpec) -> SearchReport:
    """Run the configured engine; the report's wall_time counts from here."""
    start = time.perf_counter()
    if spec.engine == PLAIN or spec.n == 1:
        # At n = 1 no cell is free: the plain scan evaluates the single
        # configuration.
        from .plain import _plain_scan

        return _plain_scan(spec, start)
    return _pruned_scan(spec, start)


def verify_witnesses(report: SearchReport) -> bool:
    """Replay recorded witnesses against the geometric box rule.

    Each witness vector must be off-axes and, by
    `diffset.geometric_contains`, a member of its configuration's
    geometric difference set; anything else is a stale witness.
    """
    records = report.witness_records
    if not records:
        raise ValueError("stale witness: report retained no witness records")
    for config, vec in records:
        if model.on_axes(vec):
            raise ValueError(f"stale witness: {vec} lies on the axes")
        if not diffset.geometric_contains(config, vec):
            raise ValueError(f"stale witness: {vec} not in difference set")
    return True

