"""Difference sets, the geometric oracle, axes predicate, lattice span."""

import collections
import itertools
import math
import pickle
import random

import pytest

from tilediff import (
    TileConfig,
    axes_subset,
    difference_set,
    geometric_oracle,
    lattice_span,
    witness_pairs,
)
from tilediff.diffset import DiffSet, LatticeSpan, _forward_pairs, _xgcd, geometric_contains
from tilediff.model import on_axes

from conftest import admissible_offsets, random_config

NINE = {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}


def test_single_cell_gives_nine_vectors():
    assert difference_set(TileConfig.uniform(1)).vectors == NINE


def test_uniform_two_grid_gives_nine_vectors():
    assert difference_set(TileConfig.uniform(2)).vectors == NINE


def test_lifted_corner_cell_produces_diagonal_vector():
    config = TileConfig.from_map(
        2, {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 0)}
    )
    ds = difference_set(config)
    assert (1, 1) in ds
    assert ((1, 1), (0, 0), (0, 1)) in witness_pairs(config, (1, 1))
    assert ds.vectors == geometric_oracle(config).vectors
    expected = pair_loop_provenance(config)
    for v in ds.vectors:
        assert witness_pairs(config, v) == expected[v], v


def test_diffset_symmetric_and_contains_origin():
    rng = random.Random(3)
    for _ in range(40):
        ds = difference_set(random_config(rng, rng.randint(1, 4), 3))
        assert (0, 0) in ds
        assert all((-x, -y) in ds for (x, y) in ds.vectors)


def test_oracle_matches_exhaustively_small():
    values = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    # n=1: the lone configuration.
    c = TileConfig.uniform(1)
    assert difference_set(c).vectors == geometric_oracle(c).vectors
    # n=2, bound 1: all 729 assignments of the three free cells.
    for assignment in itertools.product(values, repeat=3):
        c = TileConfig(2, ((0, 0),) + assignment)
        assert difference_set(c).vectors == geometric_oracle(c).vectors


def test_oracle_matches_random_larger():
    rng = random.Random(91)
    for _ in range(120):
        c = random_config(rng, rng.randint(3, 4), 3)
        assert difference_set(c).vectors == geometric_oracle(c).vectors
    # From n = 5 on, most cell pairs do not touch, even across the wrap.
    rng = random.Random(92)
    for n in range(5, 11):
        for _ in range(3 if n <= 8 else 2):
            c = random_config(rng, n, 3)
            assert difference_set(c).vectors == geometric_oracle(c).vectors



def test_geometric_contains_matches_the_oracle_inside_and_out():
    # Every vector of the oracle's set, and every vector of its bounding
    # window widened by one that the set misses, on 300 seeded configs.
    rng = random.Random(300)
    for _ in range(300):
        c = random_config(rng, rng.randint(1, 5), rng.randint(0, 3))
        oracle = geometric_oracle(c).vectors
        reach = max(max(abs(x), abs(y)) for x, y in oracle) + 1
        for x in range(-reach, reach + 1):
            for y in range(-reach, reach + 1):
                assert geometric_contains(c, (x, y)) == ((x, y) in oracle), (c, (x, y))

def pair_loop_provenance(config):
    """Reference: the offset rule applied to all n^4 ordered cell pairs, in
    row-major order of p, then of q, then lexicographic order of m."""
    provenance = {}
    for p in config.cells():
        up = config.u(*p)
        for q in config.cells():
            uq = config.u(*q)
            for m in admissible_offsets((p[0] - q[0], p[1] - q[1]), config.n):
                w = (up[0] - uq[0] + m[0], up[1] - uq[1] + m[1])
                provenance.setdefault(w, []).append((p, q, m))
    return provenance


def test_provenance_matches_pair_loop_in_order():
    rng = random.Random(47)
    multi_pair_witnesses = 0
    for n in range(1, 7):
        for _ in range(12):
            c = random_config(rng, n, 2)
            ds = difference_set(c)
            expected = pair_loop_provenance(c)
            assert ds.vectors == set(expected)
            # List equality: the order inside each list must match too.
            for v in ds.vectors:
                assert witness_pairs(c, v) == expected[v], (c, v)
            # A vector outside the set has no witness pairs.
            assert witness_pairs(c, (max(x for x, _ in ds.vectors) + 1, 0)) == []
            if len(witness_pairs(c, axes_subset(ds).witness)) > 1:
                multi_pair_witnesses += 1
    assert multi_pair_witnesses > 0


def test_provenance_at_n2_where_one_pair_takes_two_offsets():
    # At n = 2 the two indices of an axis are neighbours both directly and
    # across the wrap, so one cell pair admits two offsets per axis.
    offsets = {}
    for c in [TileConfig.uniform(2), TileConfig(2, ((0, 0), (-1, -1), (-2, 0), (2, 1)))]:
        ds = difference_set(c)
        expected = pair_loop_provenance(c)
        assert ds.vectors == set(expected)
        for v in ds.vectors:
            pairs = witness_pairs(c, v)
            assert pairs == expected[v], (c, v)
            for p, q, m in pairs:
                offsets.setdefault((p, q), set()).add(m)
    assert offsets[((0, 0), (1, 1))] == {
        (mx, my) for mx in (-1, 0) for my in (-1, 0)
    }


def test_provenance_holds_nine_triples_per_cell():
    rng = random.Random(53)
    for n in range(1, 13):
        c = random_config(rng, n, 3)
        ds = difference_set(c)
        assert sum(len(witness_pairs(c, v)) for v in ds.vectors) == 9 * n * n


# Resolutions of the kernel comparisons: every n in 1..12, the small ones
# many times, the O(n^4) references at large n once.
KERNEL_SIZES = [n for n in range(1, 13) for _ in range(10 if n <= 4 else 2 if n <= 8 else 1)]


@pytest.mark.parametrize("seed, bound", [(61, 0), (62, 1), (63, 3), (64, 10**12)])
def test_difference_set_matches_both_references(seed, bound):
    # Translates all 0, in [-1, 1], in [-3, 3] and in [-10^12, 10^12].
    rng = random.Random(seed)
    assert len(KERNEL_SIZES) == 52
    for n in KERNEL_SIZES:
        c = random_config(rng, n, bound)
        ds = difference_set(c)
        assert ds.vectors == geometric_oracle(c).vectors, c
        assert ds.vectors == set(pair_loop_provenance(c)), c


def test_forward_pairs_with_reversals_and_self_pairs_give_every_pair_triple():
    for n in range(1, 13):
        table = _forward_pairs(n)
        assert len(table) == 4 * n * n
        triples = collections.Counter()
        for k, k2, mx, my in table:
            triples[(k, k2, (mx, my))] += 1
            triples[(k2, k, (-mx, -my))] += 1
        for k in range(n * n):
            triples[(k, k, (0, 0))] += 1
        reference = collections.Counter(
            (p[0] * n + p[1], q[0] * n + q[1], m)
            for pairs in pair_loop_provenance(TileConfig.uniform(n)).values()
            for p, q, m in pairs
        )
        assert sum(reference.values()) == 9 * n * n
        assert triples == reference, n


def test_results_unchanged_after_clearing_the_table_cache():
    rng = random.Random(67)
    configs = [random_config(rng, n, 3) for n in (1, 2, 3, 7, 12)]

    def results():
        out = []
        for c in configs:
            ds = difference_set(c)
            out.append((ds, [witness_pairs(c, v) for v in sorted(ds.vectors)]))
        return out

    before = results()
    _forward_pairs.cache_clear()
    assert _forward_pairs.cache_info().currsize == 0
    assert results() == before
    assert _forward_pairs.cache_info().misses == 5


def test_axes_subset_true_case():
    check = axes_subset(DiffSet({(0, 0), (1, 0), (-1, 0)}))
    assert check.on_axes and check.witness is None


def test_axes_subset_single_off_vector():
    check = axes_subset(DiffSet({(0, 0), (1, 1), (-1, -1)}))
    assert not check.on_axes
    assert check.witness == (-1, -1)


def test_axes_subset_picks_lexicographically_smallest_witness():
    check = axes_subset(DiffSet(NINE))
    assert not check.on_axes
    assert check.witness == (-1, -1)


def _brute_axes(vectors) -> tuple[bool, object]:
    off = [v for v in vectors if not on_axes(v)]
    return (not off, min(off) if off else None)


def test_diffset_contract_matches_geometric_oracle():
    # The offset rule gives the oracle's set: equal, equally hashed, the same
    # members and sorted list, and the same axes verdict and witness as a
    # brute-force minimum over the oracle's vectors.
    rng = random.Random(41)
    for n in range(1, 9):
        for bound in (0, 1, 3):
            c = random_config(rng, n, bound)
            ds, oracle = difference_set(c), geometric_oracle(c)
            assert ds == oracle and hash(ds) == hash(oracle), c
            assert sorted(ds) == sorted(oracle.vectors)
            outside = (max(x for x, _ in oracle.vectors) + 1, 0)
            assert outside not in ds and (-outside[0], 0) not in ds
            assert (1, 1 + max(y for _, y in oracle.vectors)) not in ds
            check = axes_subset(ds)
            assert (check.on_axes, check.witness) == _brute_axes(oracle.vectors), c


def test_axes_subset_matches_brute_force_on_symmetric_sets():
    # On any symmetric set with the origin, not just a configuration's,
    # axes_subset agrees with a brute-force minimum, on and off the axes.
    rng = random.Random(43)
    for _ in range(300):
        gens = frozenset(
            (rng.randint(-3, 3), rng.randint(-3, 3) if rng.random() < 0.5 else 0)
            for _ in range(rng.randint(0, 6))
        )
        closure = gens | {(0, 0)} | {(-x, -y) for x, y in gens}
        check = axes_subset(DiffSet(closure))
        assert (check.on_axes, check.witness) == _brute_axes(closure), gens


def test_diffset_record_keeps_its_repr_closure_equality_and_frozen_fields():
    # A DiffSet is a frozenset of its vectors, with no instance attributes.
    ds = DiffSet({(-1, 0), (0, 0), (1, 0)})
    assert isinstance(ds, frozenset) and ds.vectors is ds
    assert repr(ds) == f"DiffSet({set(ds)!r})"
    assert ds == frozenset({(1, 0), (0, 0), (-1, 0)}) and hash(ds) == hash(frozenset(ds))
    assert ds != DiffSet({(0, 1), (0, 0), (0, -1)})
    assert len({ds, DiffSet(sorted(ds))}) == 1
    assert set(vars(DiffSet)) == {"__module__", "__doc__", "__slots__", "vectors"}
    for config in (TileConfig.uniform(2), random_config(random.Random(7), 3, 2)):
        fast, oracle = difference_set(config), geometric_oracle(config)
        assert fast == oracle and not fast != oracle
        assert hash(fast) == hash(oracle)
    for name in ("vectors", "x"):
        with pytest.raises(AttributeError):
            setattr(ds, name, frozenset())
    clone = pickle.loads(pickle.dumps(ds))
    assert type(clone) is DiffSet and clone == ds


def test_lattice_span_of_diffset_reads_generators():
    # A set and its symmetric closure with the origin span the same group.
    rng = random.Random(47)
    for k in range(300):
        bound = 3 if k % 2 else 10**12
        ds = difference_set(random_config(rng, 1 + k % 10, bound))
        assert lattice_span(ds) == lattice_span(sorted(v for v in ds if v > (0, 0)))


def test_lattice_span_of_axes_generators():
    span = lattice_span([(-1, 0), (0, -1), (0, 0), (1, 0), (0, 1)])
    assert (span.rank, span.index) == (2, 1)
    assert span.basis == ((1, 0), (0, 1))


def test_lattice_span_even_sublattice():
    span = lattice_span([(2, 0), (0, 2)])
    assert (span.rank, span.index) == (2, 4)
    assert span.basis == ((2, 0), (0, 2))


def _closure_reaches(generators, targets, box=5):
    """Breadth-first closure of sums/negations inside [-box, box]^2."""
    reached = set(generators) | {(-x, -y) for (x, y) in generators} | {(0, 0)}
    frontier = set(reached)
    while frontier:
        new = set()
        for (ax, ay) in frontier:
            for (bx, by) in list(reached):
                s = (ax + bx, ay + by)
                if abs(s[0]) <= box and abs(s[1]) <= box and s not in reached:
                    new.add(s)
        reached |= new
        frontier = new
    return all(t in reached for t in targets)


def test_lattice_span_coprime_pair():
    # Independent check: the additive closure of {(2,1),(1,1)} reaches both
    # unit vectors, so the span must be all of Z^2.
    assert _closure_reaches([(2, 1), (1, 1)], [(1, 0), (0, 1)])
    span = lattice_span([(2, 1), (1, 1)])
    assert (span.rank, span.index) == (2, 1)


def test_lattice_span_rank_one_and_zero():
    assert lattice_span([]).rank == 0
    assert lattice_span([(0, 0)]).rank == 0
    span = lattice_span([(2, 4), (-2, -4)])
    assert span.rank == 1 and span.basis == ((2, 4),) and span.index is None
    span = lattice_span([(0, -3)])
    assert span.basis == ((0, 3),)


def test_lattice_span_membership_oracle_random():
    # The canonical basis must span exactly the closure of the generators.
    rng = random.Random(17)
    for _ in range(60):
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        span = lattice_span(gens)
        if span.rank < 2:
            continue
        (a, b), (_, c) = span.basis
        for (x, y) in gens:
            # Solve x = a*s, y = b*s + c*t exactly.
            assert x % a == 0
            s = x // a
            assert (y - b * s) % c == 0


def test_lattice_span_ignores_input_order():
    # Every order of a vector list, and its DiffSet, gives the sorted order's
    # span. That span holds every generator, and its index is the gcd of the
    # generators' 2x2 minors, so it is no larger than their span either.
    rng = random.Random(23)
    for _ in range(300):
        gens = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(0, 7))]
        span = lattice_span(sorted(set(gens)))
        for _ in range(4):
            rng.shuffle(gens)
            assert lattice_span(gens) == span, gens
        assert lattice_span(DiffSet(gens)) == span
        minors = 0
        for (x1, y1), (x2, y2) in itertools.combinations(gens, 2):
            minors = math.gcd(minors, x1 * y2 - x2 * y1)
        if span.rank == 2:
            (a, b), (_, c) = span.basis
            assert span.index == minors
            for (x, y) in gens:
                assert x % a == 0 and (y - b * (x // a)) % c == 0
        elif span.rank == 1:
            assert minors == 0
            # Each generator is k * basis, and the k have gcd 1.
            ((bx, by),) = span.basis
            ks = 0
            for (x, y) in gens:
                k = x // bx if bx else y // by
                assert (x, y) == (k * bx, k * by)
                ks = math.gcd(ks, k)
            assert ks == 1
        else:
            assert all(v == (0, 0) for v in gens)


def _lattice_span_without_exit(vectors) -> LatticeSpan:
    """`lattice_span` as it was before its unit-pivot early exit: every
    vector is reduced into the two echelon rows."""
    row1 = row2 = None
    for v in set(vectors):
        x, y = v
        if x != 0:
            if row1 is None:
                row1 = v
                continue
            s, t, g = _xgcd(row1[0], x)
            merged = (g, s * row1[1] + t * y)
            leftover_y = (row1[0] // g) * y - (x // g) * row1[1]
            row1 = merged
            x, y = 0, leftover_y
        if y != 0:
            row2 = (0, y) if row2 is None else (0, math.gcd(row2[1], y))
    if row1 is None and row2 is None:
        return LatticeSpan(0, (), None)
    if row1 is None:
        return LatticeSpan(1, ((0, abs(row2[1])),), None)
    a, b = row1
    if a < 0:
        a, b = -a, -b
    if row2 is None:
        return LatticeSpan(1, ((a, b),), None)
    c = abs(row2[1])
    return LatticeSpan(2, ((a, b % c), (0, c)), a * c)


def test_lattice_span_early_exit_matches_full_reduction():
    # Full-rank lists (mostly spanning Z^2 early), rank-1 lists, lists of a
    # sublattice of index > 1, and empty lists.
    rng = random.Random(31)
    kinds = {"full": 0, "rank1": 0, "index>1": 0, "empty": 0}
    for k in range(400):
        kind = list(kinds)[k % 4]
        size = rng.randint(1, 30)
        if kind == "full":
            gens = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)]
        elif kind == "rank1":
            base = (rng.randint(-3, 3), rng.randint(-3, 3))
            gens = [(m * base[0], m * base[1]) for m in (rng.randint(-4, 4) for _ in range(size))]
        elif kind == "index>1":
            # The sublattice with basis (a, b), (0, c), a*c > 1, holds them all.
            a, c = rng.choice([(1, 2), (2, 1), (2, 3), (3, 1), (1, 5)])
            b = rng.randrange(c)
            gens = [(s * a, s * b + t * c) for s, t in
                    ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size))]
        else:
            gens = []
        expected = _lattice_span_without_exit(gens)
        assert lattice_span(gens) == expected, gens
        assert lattice_span(DiffSet(gens)) == expected, gens
        if kind == "index>1":
            assert expected.index != 1
        kinds[kind] += 1
    assert all(count == 100 for count in kinds.values())


def test_every_config_generates_full_lattice():
    rng = random.Random(29)
    for _ in range(100):
        config = random_config(rng, rng.randint(1, 4), 3)
        span = lattice_span(difference_set(config))
        assert (span.rank, span.index) == (2, 1)


def test_on_axes_helper():
    assert on_axes((0, 5)) and on_axes((-2, 0)) and on_axes((0, 0))
    assert not on_axes((1, 1))
