"""The plain search engine: every full assignment, depth first.

It serves as the oracle of the pruned engine in `search`, which imports
this module only for ``--engine plain``, and at n = 1, where no cell is
free and the pruned engine scans the single configuration as this one
does. It evaluates each forward pair once per prefix, at the later of its
two cells, except those of the last cell: each node carries the least
vector of those per value of the last cell, so it evaluates a whole leaf
level at once. It checks each valid leaf and the first leaf of each witness
vector against `difference_set`, so it builds a `TileConfig` and a
difference set at its first leaf.

A search whose leaf count passes its budget is refused before the scan
starts, without building the count when it is long.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from . import diffset, model
from .lift import _forward_pairs
from .search import (
    _CANONICAL,
    _FIXED,
    _PRUNE,
    BudgetExceeded,
    SearchReport,
    _lex_state,
    _swap_position,
    _value_range,
)

if TYPE_CHECKING:
    from .model import TileConfig, Vec
    from .search import SearchSpec

# A plain leaf count past this many is reported as a power, "b^e".
_LONG_COUNT = 10**18


def _power_upto(base: int, exponent: int, cap: int) -> int | None:
    """base**exponent, or None once the product passes `cap`. The product is
    built one factor at a time, so a count past the budget is refused after
    about log(cap) multiplications, however large its exponent."""
    power = 1
    for _ in range(exponent if base > 1 else 0):
        power *= base
        if power > cap:
            return None
    return power


def _least(ux: int, uy: int, shifts: list[Vec], least: Vec = (0, 0)) -> Vec:
    """The smallest of `least` and the off-axes vectors (ux, uy) + s for s
    in `shifts`, each signed so that x < 0."""
    for sx, sy in shifts:
        x, y = ux + sx, uy + sy
        if x and y:
            if x > 0:
                x, y = -x, -y
            if (x, y) < least:
                least = (x, y)
    return least


def _plain_scan(spec: SearchSpec, start: float) -> SearchReport:
    """Enumerate every assignment depth first, in `itertools.product` order:
    cell 1 outermost, values in `_value_range` order.

    A witness is the lexicographically smallest off-axes pair vector,
    signed so that x < 0, which is `axes_subset`'s rule; (0, 0) stands for
    none, as every witness is smaller. Each pair of two cells before the
    last is evaluated once per prefix, at the later of its two cells, and
    folded into the witness carried down from the parent. The pairs of the
    last cell are folded per anchor instead: a node carries one entry per
    value of the last cell, the least vector of its pairs with the cells
    placed so far, and builds its entries from its parent's with an
    elementwise `min` over the row of the cell it places, cached per
    (cell, value). The node before the last cell then evaluates all its
    leaves at once, each one tally and no pass over its pairs. Every valid
    leaf, and the first leaf of each distinct witness, is cross-checked
    against `difference_set` from scratch. The walk keeps its own stack: at
    bound 0 a search of any n fits the budget, and its depth n^2 would pass
    Python's recursion limit.

    The report's wall_time counts from `start`, a `time.perf_counter`
    reading. Raises BudgetExceeded, before any leaf, when the leaves would
    pass the budget.
    """
    n, symmetry, witnesses = spec.n, spec.symmetry, spec.witnesses
    last = n * n - 1
    base, exponent = 2 * spec.bound + 1, 2 * last
    count = _power_upto(base, exponent, max(spec.budget, _LONG_COUNT))
    if count is None or count > spec.budget:
        raise BudgetExceeded(spec.budget, leaves=count or f"{base}^{exponent}")
    # At n = 1 the base cell is the only cell, so no value is ever placed.
    values = _value_range(spec.bound) if last else []
    backward = values[::-1]  # stacked, so popped in order
    # The vector of a pair is +-(u(d) - u(other) + o) for its later cell d,
    # and the witness rule does not see the sign.
    groups: list[list[tuple[int, int, int]]] = [[] for _ in range(last + 1)]
    for k, k2, mx, my in _forward_pairs(n):
        if k >= k2:
            groups[k].append((k2, mx, my))
        else:
            groups[k2].append((k, -mx, -my))
    rows: dict[tuple[int, Vec], list[Vec]] = {}
    anchors = {k for k, _, _ in groups[last]} - {last}
    assigned: list[Vec] = [(0, 0)] * (last + 1)
    swap = tuple(_swap_position(k, n) for k in range(last + 1)) if symmetry else ()
    counts: dict[Vec, int] = {}
    records: list[tuple[TileConfig, Vec]] = []
    valid_configs: list[TileConfig] = []
    leaves = valid = 0
    # Nodes still to visit, as (depth, value, parent's witness, parent's
    # last-cell entries, settled). A node is popped after its parent and
    # before its parent's next sibling, so assigned[:depth] holds its
    # ancestors' values.
    stack = [(0, (0, 0), (0, 0), [(0, 0)] * len(values), False)]
    while stack:
        depth, value, witness, entries, settled = stack.pop()
        assigned[depth] = ux, uy = value
        witness = _least(ux, uy, [(ox - assigned[k][0], oy - assigned[k][1])
                                  for k, ox, oy in groups[depth]], witness)
        if symmetry and not settled:
            state = _lex_state(assigned, depth, swap)
            if state == _PRUNE:
                continue
            settled = state == _CANONICAL
        if depth in anchors:
            row = rows.get((depth, value))
            if row is None:
                offsets = [(ox - ux, oy - uy) for k, ox, oy in groups[last] if k == depth]
                row = rows[depth, value] = [_least(x, y, offsets) for x, y in values]
            entries = [e if e < r else r for e, r in zip(entries, row)]
        if depth < last - 1:
            stack.extend((depth + 1, v, witness, entries, settled) for v in backward)
            continue
        # The leaves under this node; at n = 1 the root is the only leaf.
        for v, w in zip(values, entries) if depth < last else [(value, (0, 0))]:
            if witness < w:
                w = witness
            orbit = 2 if symmetry else 1
            if symmetry and not settled:
                assigned[last] = v
                state = _lex_state(assigned, last, swap)
                if state == _PRUNE:
                    continue
                if state == _FIXED:
                    orbit = 1
            leaves += 1
            if w in counts and not witnesses:
                counts[w] += 1
                continue
            assigned[last] = v
            config = model.TileConfig(n, tuple(assigned))
            if w not in counts and (diffset.axes_subset(diffset.difference_set(config)).witness
                                    or (0, 0)) != w:
                raise AssertionError("plain engine disagrees with difference_set")
            if w == (0, 0):
                valid += orbit
                valid_configs.append(config)
            else:
                counts[w] = counts.get(w, 0) + 1
                if witnesses:
                    records.append((config, w))
    return SearchReport(spec, leaves, leaves, valid, tuple(sorted(counts.items())),
                        tuple(records), tuple(valid_configs), time.perf_counter() - start)
