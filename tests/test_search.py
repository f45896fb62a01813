"""Search engines: counts, equivalence, pruning, symmetry, witnesses,
forward-checking domains, the node budget, and reports that do not depend
on the job count."""

import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from tilediff import (
    SearchSpec,
    axes_subset,
    difference_set,
    diffset,
    geometric_oracle,
    run_search,
    search,
    verify_witnesses,
)
from tilediff import plain
from tilediff.model import TileConfig, normalize, on_axes
from tilediff.plain import _plain_scan, _power_upto
from tilediff.search import (
    _DOMAIN_BITS_PER_VALUE,
    _TABLE_BYTES_PER_CELL,
    TABLE_BYTES_LIMIT,
    BudgetExceeded,
    _masks,
    _narrow,
    _tables,
    _value_range,
)

from conftest import (
    PACKAGE_ROOT,
    TWISTS,
    admissible_offsets,
    allowed_mask,
    plain_scan_oracle,
    pruned_scan_oracle,
    random_config,
    twisted_lift,
)


def swap_xy(config: TileConfig) -> TileConfig:
    """Mirror across the main diagonal: cell (i, j) -> (j, i), translate
    components swapped."""
    n = config.n
    return TileConfig.from_map(
        n,
        {
            (j, i): (config.u(i, j)[1], config.u(i, j)[0])
            for i in range(n)
            for j in range(n)
        },
    )


def reflect_x(config: TileConfig) -> TileConfig:
    """Mirror x -> -x, renormalized. The mirrored box of cell (i, j) is the
    box of cell (n-1-i, j) translated by (-1 - ux, uy)."""
    n = config.n
    return normalize(
        TileConfig.from_map(
            n,
            {
                (n - 1 - i, j): (-1 - config.u(i, j)[0], config.u(i, j)[1])
                for i in range(n)
                for j in range(n)
            },
        )
    )


def reflect_y(config: TileConfig) -> TileConfig:
    n = config.n
    return normalize(
        TileConfig.from_map(
            n,
            {
                (i, n - 1 - j): (config.u(i, j)[0], -1 - config.u(i, j)[1])
                for i in range(n)
                for j in range(n)
            },
        )
    )


def swap_antidiagonal(config: TileConfig) -> TileConfig:
    n = config.n
    return normalize(
        TileConfig.from_map(
            n,
            {
                (n - 1 - j, n - 1 - i): (-1 - config.u(i, j)[1], -1 - config.u(i, j)[0])
                for i in range(n)
                for j in range(n)
            },
        )
    )


# The reflection family of the axes condition: the x<->y swap (used for the
# symmetry quotient; it preserves the bounded search space exactly) and the
# remaining axis reflections (which renormalize and may grow the bound,
# so they are soundness checks rather than quotient maps).
CONFIG_SYMMETRIES = {
    "swap_xy": swap_xy,
    "reflect_x": reflect_x,
    "reflect_y": reflect_y,
    "swap_antidiagonal": swap_antidiagonal,
}


def test_search_spec_validation():
    with pytest.raises(ValueError, match="^non-positive n$"):
        SearchSpec(n=0, bound=1)
    with pytest.raises(ValueError, match="^negative bound$"):
        SearchSpec(2, -1)
    with pytest.raises(ValueError, match="^unknown engine 'smart'$"):
        SearchSpec(n=2, bound=1, engine="smart")
    for kwargs in ({"jobs": 0}, {"budget": 0}):
        with pytest.raises(ValueError, match="^budget and jobs must be positive$"):
            SearchSpec(n=2, bound=1, **kwargs)


def test_search_spec_record_keeps_its_repr_defaults_and_frozen_fields():
    spec = SearchSpec(n=1, bound=0)
    assert repr(spec) == (
        "SearchSpec(n=1, bound=0, engine='pruned', symmetry=False, budget=2000000, "
        "jobs=1, witnesses=False)"
    )
    full = SearchSpec(2, 1, "plain", True, 50, 3, True)
    named = SearchSpec(n=2, bound=1, engine="plain", symmetry=True, budget=50, jobs=3,
                       witnesses=True)
    assert full == named and hash(full) == hash(named)
    assert SearchSpec(1, 0) == spec and SearchSpec(1, 0, jobs=2) != spec
    for name in ("n", "bound", "engine", "symmetry", "budget", "jobs", "witnesses"):
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))


def test_search_report_record_keeps_its_repr_equality_and_frozen_fields():
    spec = SearchSpec(n=1, bound=0)
    fields = dict(
        spec=spec, configs_enumerated=1, nodes_visited=1, valid_found=0,
        witness_counts=(((-1, -1), 1),), witness_records=(), valid_configs=(), wall_time=0.0,
    )
    report = search.SearchReport(**fields)
    assert repr(report) == (
        "SearchReport(spec=SearchSpec(n=1, bound=0, engine='pruned', symmetry=False, "
        "budget=2000000, jobs=1, witnesses=False), configs_enumerated=1, nodes_visited=1, "
        "valid_found=0, witness_counts=(((-1, -1), 1),), witness_records=(), "
        "valid_configs=(), wall_time=0.0)"
    )
    assert report == search.SearchReport(*fields.values())
    assert hash(report) == hash(search.SearchReport(*fields.values()))
    assert report != search.SearchReport(**{**fields, "wall_time": 1.0})
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(report, name, getattr(report, name))


def untimed(scan, spec):
    """The report of the engine `scan` on `spec`, with the wall_time the
    oracles give, 0.0."""
    return scan(spec, time.perf_counter())._replace(wall_time=0.0)


@pytest.mark.parametrize("spec", [
    SearchSpec(n=2, bound=1, engine="plain"),
    SearchSpec(n=2, bound=1, engine="plain", symmetry=True, witnesses=True),
    SearchSpec(n=1, bound=2),
    SearchSpec(n=2, bound=1),
    SearchSpec(n=3, bound=2),
    SearchSpec(n=3, bound=2, symmetry=True),
    SearchSpec(n=3, bound=1, witnesses=True),
], ids=["plain", "plain-symmetry-witnesses", "n1", "root", "pruned", "symmetry", "witnesses"])
def test_run_search_returns_the_scans_report_with_its_wall_time(spec, monkeypatch):
    # One clock reading before the scan and one as it builds its report:
    # run_search adds nothing to the scan's report but that wall_time.
    monkeypatch.setattr(time, "perf_counter", iter([10.0, 12.5]).__next__)
    report = run_search(spec)
    assert report.spec is spec and report.wall_time == 2.5
    scan = _plain_scan if spec.engine == "plain" or spec.n == 1 else search._pruned_scan
    monkeypatch.setattr(time, "perf_counter", iter([12.5]).__next__)
    assert scan(spec, 10.0) == report


def test_verify_without_records_is_stale():
    report = run_search(SearchSpec(n=2, bound=0, engine="plain"))
    with pytest.raises(ValueError, match="stale witness"):
        verify_witnesses(report)


def test_plain_single_cell():
    report = run_search(SearchSpec(n=1, bound=3, engine="plain", witnesses=True))
    assert report.configs_enumerated == 1
    assert report.valid_found == 0
    assert report.witness_counts == (((-1, -1), 1),)


def test_plain_two_grid_bound_one():
    report = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    assert report.configs_enumerated == 3 ** 6  # == 9 ** 3 == 729
    assert report.valid_found == 0


@pytest.mark.parametrize("n, bound", [(2, 1), (1, 0), (1, 1), (1, 2), (1, 3)])
def test_plain_witnesses_match_geometric_oracle(n, bound):
    # Each leaf's witness is the lexicographically smallest off-axes vector
    # of its geometric-oracle set, tallied over every assignment.
    values = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
    tally = {}
    for assignment in itertools.product(values, repeat=n * n - 1):
        oracle = geometric_oracle(TileConfig(n, ((0, 0),) + assignment))
        witness = min(v for v in oracle.vectors if not on_axes(v))
        tally[witness] = tally.get(witness, 0) + 1
    report = run_search(SearchSpec(n=n, bound=bound, engine="plain"))
    assert report.valid_found == 0
    assert report.witness_counts == tuple(sorted(tally.items()))


@pytest.mark.parametrize("witnesses", [False, True], ids=["counts", "records"])
@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
@pytest.mark.parametrize(
    "n, bound", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (40, 0)]
)
def test_plain_scan_matches_from_scratch_oracle(n, bound, symmetry, witnesses):
    # Field for field: counts, witness tallies, records in order, valid
    # configs. (40, 0) is one leaf 1,600 cells deep.
    spec = SearchSpec(n=n, bound=bound, engine="plain", symmetry=symmetry, witnesses=witnesses)
    assert untimed(_plain_scan, spec) == plain_scan_oracle(spec)


def test_plain_scan_builds_one_difference_set_per_distinct_witness(monkeypatch):
    calls = []

    def counting(config):
        calls.append(config)
        return difference_set(config)

    monkeypatch.setattr(diffset, "difference_set", counting)
    report = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    assert report.configs_enumerated == 729
    assert len(calls) == len(report.witness_counts) == 13


@pytest.mark.parametrize("a, counts", TWISTS.values(), ids=TWISTS)
def test_plain_scan_finds_the_valid_configurations_of_a_twisted_lift(a, counts, monkeypatch):
    pairs, twisted = twisted_lift(a)
    monkeypatch.setattr(plain, "_forward_pairs", pairs)
    monkeypatch.setattr(diffset, "difference_set", twisted)
    for bound, count in zip((1, 2), counts):
        spec = SearchSpec(n=2, bound=bound, engine="plain")
        report = untimed(_plain_scan, spec)
        assert report.valid_found == len(report.valid_configs) == count
        assert report == plain_scan_oracle(spec, twisted)


def test_plain_scan_raises_when_difference_set_disagrees(monkeypatch):
    # The engine folds the A = 0 table, and the cross-check builds the
    # paper's set: the first leaf, all zeros, is valid only for the former.
    monkeypatch.setattr(plain, "_forward_pairs", twisted_lift(TWISTS["zero"][0])[0])
    with pytest.raises(AssertionError, match="disagrees with difference_set"):
        _plain_scan(SearchSpec(n=2, bound=1, engine="plain"), time.perf_counter())


def test_plain_symmetry_weights_valid_orbits_of_a_twisted_lift(monkeypatch):
    # Under A = 0 the x<->y swap is still a symmetry, and some valid
    # configurations are their own swap, so both orbit weights are used.
    pairs, twisted = twisted_lift(TWISTS["zero"][0])
    monkeypatch.setattr(plain, "_forward_pairs", pairs)
    monkeypatch.setattr(diffset, "difference_set", twisted)
    spec = SearchSpec(n=2, bound=1, engine="plain", symmetry=True)
    report = untimed(_plain_scan, spec)
    assert report.valid_found == 53
    fixed = [c for c in report.valid_configs if swap_xy(c) == c]
    assert 0 < len(fixed) < len(report.valid_configs)
    assert report == plain_scan_oracle(spec, twisted)


@pytest.fixture
def twist(monkeypatch):
    """Install the twisted lift of a matrix A in both engines: the
    forward-pair table, the difference set the leaves are checked against,
    and the pruned engine's per-n tables, which are rebuilt from the
    patched pairs and again after the test."""

    def install(a):
        pairs, twisted = twisted_lift(a)
        monkeypatch.setattr(search, "_forward_pairs", pairs)
        monkeypatch.setattr(plain, "_forward_pairs", pairs)
        monkeypatch.setattr(diffset, "difference_set", twisted)
        _tables.cache_clear()
        return twisted

    yield install
    _tables.cache_clear()


def _with_swaps(configs):
    return {c for config in configs for c in (config, swap_xy(config))}


@pytest.mark.parametrize("name", ["zero", "diag10"])
def test_pruned_scan_finds_the_valid_configurations_of_a_twisted_lift(name, twist):
    # Both engines find the same valid configurations, each once, in their
    # own orders. (rank1 is left out: at n = 2 its twisted offsets are not a
    # product Mx x My, which the pruned tables assume.)
    a, counts = TWISTS[name]
    twist(a)
    for bound, count in zip((1, 2), counts):
        plain = run_search(SearchSpec(n=2, bound=bound, engine="plain"))
        pruned = run_search(SearchSpec(n=2, bound=bound))
        assert pruned.valid_found == len(pruned.valid_configs) == count
        assert sorted(pruned.valid_configs) == sorted(plain.valid_configs)


def test_pruned_symmetry_weights_valid_orbits_of_a_twisted_lift(twist):
    # Under A = 0 each engine keeps one representative per swap orbit, the
    # least in its own cell order, and both weights sum to the full count.
    a, counts = TWISTS["zero"]
    twist(a)
    for bound, count in zip((1, 2), counts):
        plain = run_search(SearchSpec(n=2, bound=bound, engine="plain", symmetry=True))
        pruned = run_search(SearchSpec(n=2, bound=bound, symmetry=True))
        full = run_search(SearchSpec(n=2, bound=bound))
        assert plain.valid_found == pruned.valid_found == count
        fixed = [c for c in pruned.valid_configs if swap_xy(c) == c]
        assert 0 < len(fixed) < len(pruned.valid_configs) < count
        assert _with_swaps(pruned.valid_configs) == _with_swaps(plain.valid_configs)
        assert _with_swaps(pruned.valid_configs) == set(full.valid_configs)


def test_pruned_scan_raises_at_a_leaf_difference_set_rejects(twist, monkeypatch):
    # The engine narrows by the A = 0 table, and the leaf check builds the
    # paper's set, for which no leaf is valid.
    twist(TWISTS["zero"][0])
    monkeypatch.setattr(diffset, "difference_set", difference_set)
    with pytest.raises(AssertionError, match="reached an invalid leaf"):
        run_search(SearchSpec(n=2, bound=1))


@pytest.mark.parametrize(
    "a, n, bound, symmetry, count",
    [
        (TWISTS["zero"][0], 3, 1, False, 13_121),
        (TWISTS["diag10"][0], 3, 1, False, 6_639),
        (((1, 1), (1, 1)), 4, 2, False, 12),
        (((1, 1), (1, 1)), 4, 2, True, 12),
        (((1, -1), (1, -1)), 4, 1, False, 12),
    ],
    ids=["zero-3-1", "diag10-3-1", "ones-4-2", "ones-4-2-symmetry", "antiones-4-1"],
)
def test_pruned_scan_counts_the_valid_configurations_of_a_twisted_lift(
    a, n, bound, symmetry, count, twist
):
    # Past n = 2 the plain engine is over its budget; these counts agree
    # with the row-major pruned engine. Every leaf reached is checked
    # against the twisted difference set. The swap is a symmetry of
    # [[1,1],[1,1]], since it commutes with the matrix.
    twist(a)
    report = run_search(SearchSpec(n=n, bound=bound, symmetry=symmetry))
    assert report.valid_found == count
    if not symmetry:
        assert len(set(report.valid_configs)) == count


def test_per_n_tables_cannot_go_stale_under_a_twist(twist):
    # The pruned engine keeps every per-n table in the one cache of
    # `_tables`, whose links depend on the lift; installing a twist clears
    # it. So an untwisted (3,1) search leaves nothing that a twisted one
    # reads: the twisted run equals one on a freshly cleared cache. Clearing
    # first keeps the test independent of the order the tests run in.
    _tables.cache_clear()
    spec = SearchSpec(n=3, bound=1)
    assert run_search(spec).valid_found == 0
    twist(TWISTS["diag10"][0])
    after = run_search(spec)
    _tables.cache_clear()
    fresh = run_search(spec)
    assert after._replace(wall_time=0) == fresh._replace(wall_time=0)
    assert after.valid_found == 6_639


def test_plain_two_grid_bound_zero():
    report = run_search(SearchSpec(n=2, bound=0, engine="plain"))
    assert report.configs_enumerated == 1
    assert report.valid_found == 0


def test_engines_agree_at_two_grid():
    plain = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    pruned = run_search(SearchSpec(n=2, bound=1, engine="pruned"))
    assert plain.valid_found == pruned.valid_found == 0
    assert plain.valid_configs == pruned.valid_configs == ()
    assert pruned.nodes_visited < 729 * 4


def test_pruned_two_grid_bound_two():
    report = run_search(SearchSpec(n=2, bound=2, engine="pruned"))
    assert report.valid_found == 0


def test_pruned_three_grid_bound_one():
    report = run_search(SearchSpec(n=3, bound=1, engine="pruned"))
    assert report.valid_found == 0
    assert report.nodes_visited < 100_000


def test_pruned_three_grid_bound_two():
    # The plain space here is 25^8 (~1.5e11); pruning collapses it outright.
    report = run_search(SearchSpec(n=3, bound=2, engine="pruned"))
    assert report.valid_found == 0
    assert report.configs_enumerated == 0


def test_budget_guard_plain():
    with pytest.raises(BudgetExceeded, match="^budget exceeded$") as stop:
        run_search(SearchSpec(n=3, bound=1, engine="plain"))
    assert (stop.value.leaves, stop.value.nodes) == (9 ** 8, 2_000_000)


@pytest.mark.parametrize(
    "n, bound, leaves",
    [(3, 2, 5**16), (5, 1, "3^48"), (68, 1, "3^9246"), (40, 12, "25^3198")],
)
def test_budget_guard_plain_names_a_long_count_as_a_power(n, bound, leaves):
    # Counts up to 10^18 are written out; 3^9246 and 25^3198 are past the
    # 4,300 digits `str` converts.
    with pytest.raises(BudgetExceeded, match="^budget exceeded$") as stop:
        run_search(SearchSpec(n=n, bound=bound, engine="plain"))
    assert stop.value.leaves == leaves
    assert stop.value.progress == (
        f"plain search would visit {leaves} leaves, over the budget of 2000000"
    )


def test_leaf_count_stops_multiplying_once_past_the_cap():
    # 3^199999998 (n = 10,000, bound 1) has about 95 million digits.
    assert _power_upto(3, 199_999_998, 2_000_000) is None
    assert _power_upto(3, 16, 3**16) == 3**16


def test_budget_guard_pruned():
    # (3,1) takes 57 nodes.
    with pytest.raises(ValueError, match="budget exceeded"):
        run_search(SearchSpec(n=3, bound=1, engine="pruned", budget=50))


def test_monotonicity_in_bound():
    counts = [
        run_search(SearchSpec(n=2, bound=b, engine="pruned")).valid_found
        for b in (0, 1, 2)
    ]
    assert counts == sorted(counts) == [0, 0, 0]


def test_witness_replay():
    report = run_search(SearchSpec(n=2, bound=1, engine="plain", witnesses=True))
    assert len(report.witness_records) == 729
    assert verify_witnesses(report) is True


def test_witness_replay_pruned_records():
    report = run_search(SearchSpec(n=2, bound=1, engine="pruned", witnesses=True))
    assert report.witness_records
    assert verify_witnesses(report) is True


def test_tampered_witness_detected():
    report = run_search(SearchSpec(n=1, bound=1, engine="plain", witnesses=True))
    (config, _vec) = report.witness_records[0]
    with pytest.raises(ValueError, match="stale witness"):
        verify_witnesses(report._replace(witness_records=((config, (0, 1)),)))


def test_reports_are_deterministic():
    # wall_time varies; every load-bearing field must not.
    spec = SearchSpec(n=2, bound=1, engine="pruned", witnesses=True)
    a = run_search(spec)
    b = run_search(spec)
    for field in ("configs_enumerated", "nodes_visited", "valid_found",
                  "witness_counts", "witness_records", "valid_configs"):
        assert getattr(a, field) == getattr(b, field)


def test_jobs_leave_the_report_unchanged():
    # `jobs` is validated, but no scan reads it: a jobs=3 report equals the
    # jobs=1 one, at n = 2 and at n = 3 under `symmetry`.
    for spec in (SearchSpec(n=2, bound=2, witnesses=True),
                 SearchSpec(n=3, bound=2, witnesses=True, symmetry=True)):
        seq = run_search(spec)
        par = run_search(spec._replace(jobs=3))
        for field in ("configs_enumerated", "nodes_visited", "valid_found",
                      "witness_counts", "witness_records", "valid_configs"):
            assert getattr(seq, field) == getattr(par, field)


def root_domains(n, bound):
    """The domains with the base cell placed at (0, 0), narrowed by its
    masks, and the first cell whose domain that wipes out, or -1."""
    size = (2 * bound + 1) ** 2
    domains = [(1 << size) - 1] * (n * n)
    domains[0] = 1 << size // 2
    return domains, _narrow(domains, _masks(n, bound)[0], bound, bound, [])


def test_first_free_cell_root_domain_is_the_base_cells_cross():
    # The first free cell, (1,2) at n = 3, keeps only the values that the
    # base cell allows: the cross x = 0 or y = -1 at (3,2), since the pair
    # wraps in y.
    domains, wiped = root_domains(3, 2)
    assert wiped < 0
    assert _tables(3).order[1] == 5
    assert domains[1] == allowed_mask(2, 3, {0: (0, 0)}, 5)
    first = [v for i, v in enumerate(_value_range(2)) if domains[1] >> i & 1]
    assert first == [v for v in _value_range(2) if v[0] == 0 or v[1] == -1]


def test_n_1_runs_the_plain_scan_under_either_engine():
    # At n = 1 no cell is free, and `run_search` sends both engines to the
    # plain scan: every field but the spec and the time agrees.
    for bound, symmetry, witnesses in itertools.product(range(4), (False, True), (False, True)):
        spec = SearchSpec(n=1, bound=bound, symmetry=symmetry, witnesses=witnesses)
        pruned = run_search(spec)
        plain = run_search(spec._replace(engine="plain"))
        assert pruned._replace(spec=None, wall_time=0) == plain._replace(spec=None, wall_time=0)


def test_n_1_search_at_a_large_bound_lists_no_values():
    # The base cell is the only cell, so the bound changes only the spec:
    # (1,300) reports what (1,3) does, and never lists its 601^2 values.
    for symmetry, witnesses in itertools.product((False, True), (False, True)):
        small = run_search(SearchSpec(n=1, bound=3, symmetry=symmetry, witnesses=witnesses))
        spec = small.spec._replace(bound=300)
        tracemalloc.start()
        try:
            large = run_search(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert large._replace(wall_time=0) == small._replace(spec=spec, wall_time=0)
        assert peak < 64 * 1024, (symmetry, witnesses, peak)


def test_symmetry_maps_preserve_axes_verdict():
    rng = random.Random(55)
    for _ in range(40):
        config = random_config(rng, rng.randint(1, 4), 2)
        verdict = axes_subset(difference_set(config)).on_axes
        for name, op in CONFIG_SYMMETRIES.items():
            mapped = op(config)
            assert axes_subset(difference_set(mapped)).on_axes == verdict, name


def test_swap_symmetry_is_involution():
    rng = random.Random(56)
    for _ in range(20):
        config = random_config(rng, rng.randint(1, 4), 3)
        assert swap_xy(swap_xy(config)) == config


def test_symmetry_quotient_orbits_cover_space():
    # Canonical representatives weighted by orbit size recover the full count.
    full = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    sym = run_search(SearchSpec(n=2, bound=1, engine="plain", symmetry=True))
    assert sym.configs_enumerated < full.configs_enumerated
    orbit_total = 0
    values = _value_range(1)
    for assignment in itertools.product(values, repeat=3):
        translates = ((0, 0),) + assignment
        n = 2
        swapped = tuple(
            (translates[(k % n) * n + k // n][1], translates[(k % n) * n + k // n][0])
            for k in range(4)
        )
        if translates <= swapped:
            orbit_total += 1 if translates == swapped else 2
    assert orbit_total == 729


def test_symmetry_engines_agree():
    plain = run_search(SearchSpec(n=2, bound=1, engine="plain", symmetry=True))
    pruned = run_search(SearchSpec(n=2, bound=1, engine="pruned", symmetry=True))
    assert plain.valid_found == pruned.valid_found == 0
    assert plain.valid_configs == pruned.valid_configs == ()


def test_pruned_leaves_match_plain_validity_semantics():
    # Any leaf the pruned engine reaches must be a valid configuration; with
    # none existing, enumerated leaves are zero while plain scans them all.
    plain = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    pruned = run_search(SearchSpec(n=2, bound=1, engine="pruned"))
    assert plain.configs_enumerated == 729
    assert pruned.configs_enumerated == len(pruned.valid_configs) == 0


def _admissible_links(n):
    """Brute force: the constraint table from the offset rule on every pair
    of positions k < f of the search order, each link (f, offsets, mx, my)."""
    order = _tables(n).order
    table = []
    for k, ck in enumerate(order):
        links = []
        for f in range(k + 1, n * n):
            cf = order[f]
            offsets = admissible_offsets((cf // n - ck // n, cf % n - ck % n), n)
            if offsets:
                mxs = {mx for mx, _ in offsets}
                mys = {my for _, my in offsets}
                links.append((f, tuple(offsets),
                              min(mxs) if len(mxs) == 1 else None,
                              min(mys) if len(mys) == 1 else None))
        table.append(tuple(links))
    return table


def test_links_from_forward_pairs_match_offset_rule():
    # The O(n^2) tables read from the forward pairs equal the n^4 pair loop
    # entry for entry, order included: later keeps each link's single
    # offsets, and earlier is read back from the same links with their
    # offsets.
    for n in range(1, 8):
        _, _, _, later, earlier = _tables(n)
        expected = _admissible_links(n)
        assert later == tuple(tuple((f, mx, my) for f, _, mx, my in links)
                              for links in expected), n
        for links in later:
            fs = [f for f, _, _ in links]
            assert fs == sorted(set(fs)), n
        assert earlier == tuple(
            tuple((k, offsets) for k, links in enumerate(expected) for f2, offsets, _, _ in links
                  if f2 == f)
            for f in range(n * n)
        ), n


def test_constraint_table_is_cached_and_read_only():
    for n in range(1, 8):
        tables = _tables(n)
        assert tables is _tables(n)
        assert tables == _tables.__wrapped__(n), n
        order, position, swap, later, earlier = tables
        assert type(order) is type(position) is type(swap) is tuple
        assert type(later) is type(earlier) is tuple
        assert [position[c] for c in order] == list(range(n * n)), n
        for links in later:
            assert type(links) is tuple
            assert all(type(link) is tuple and len(link) == 3 for link in links)
        for links in earlier:
            assert type(links) is tuple
            assert all(type(link) is tuple and type(link[1]) is tuple for link in links)


def test_swap_table_mirrors_each_position():
    # swap[p] is the position of the x<->y mirror of the cell at p, found
    # here by search; it is an involution fixing exactly the diagonal cells.
    for n in range(1, 8):
        tables = _tables(n)
        order, swap = tables.order, tables.swap
        assert swap == tuple(order.index(c % n * n + c // n) for c in order), n
        assert all(swap[swap[p]] == p for p in range(n * n)), n
        fixed = {p for p in range(n * n) if swap[p] == p}
        assert fixed == {p for p, c in enumerate(order) if c // n == c % n}, n


def test_a_second_symmetry_search_builds_no_per_n_table():
    spec = SearchSpec(n=3, bound=1, symmetry=True)
    first = run_search(spec)
    misses = _tables.cache_info().misses
    second = run_search(spec)
    assert _tables.cache_info().misses == misses
    assert first._replace(wall_time=0) == second._replace(wall_time=0)


def test_oversize_tables_fail_before_any_mask_is_built():
    # (3,400) would need 367 MiB of axis masks: 3 column and 3 row lists,
    # each 801 masks of up to 801^2 bits.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^n=3 bound=400: .* 367 MiB, over the 256 MiB limit$"):
            run_search(SearchSpec(n=3, bound=400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < TABLE_BYTES_LIMIT // 1000


def test_oversize_n_fails_before_any_table_is_built():
    # The n^2-sized tables of (2000,1) would take about 8.4 GB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^n=2000: .* 8392 MiB, over the 256 MiB limit$"):
            run_search(SearchSpec(n=2000, bound=1, budget=10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < TABLE_BYTES_LIMIT // 1000


def test_oversize_domains_fail_before_any_mask_or_domain_is_built():
    # (100,300) passes the n^2 table check (22 MiB) and the mask check
    # (163 MiB), but its domains and trail, ints of 601^2 bits, would take
    # about 968 MiB at full depth; it used to die of MemoryError in 1 GB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
            r"^n=100 bound=300: the search domains would take 968 MiB, over the 256 MiB limit$"
        )):
            run_search(SearchSpec(n=100, bound=300, budget=100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < TABLE_BYTES_LIMIT // 8


def test_domain_projection_covers_a_deep_search():
    # At its peak a deep search holds its tables, its masks (3 column and 3
    # row lists of 161 masks of up to 161^2 bits) and its domains and trail,
    # which the refusal projects; the budget reaches the full depth.
    n, bound = 20, 80
    width = 2 * bound + 1
    projected = (n * n * _TABLE_BYTES_PER_CELL + 6 * width**3 // 8
                 + int(n * n * width * width * _DOMAIN_BITS_PER_VALUE) // 8)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            run_search(SearchSpec(n=n, bound=bound, budget=2_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert projected // 2 < peak < projected


def test_pruned_search_at_n_2_takes_any_bound():
    # The base cell wipes out its diagonal neighbour, which its links decide
    # before the search projects the domains, here terabytes.
    report = run_search(SearchSpec(n=2, bound=10**6))
    assert report.witness_counts == (((-10**6, -10**6), 1),)


def test_a_search_the_root_decides_builds_no_mask(monkeypatch):
    # The base cell's links alone end these searches, so each reports what
    # an unpatched run does while `_masks` refuses to run; (3,1) needs it.
    specs = [SearchSpec(n=2, bound=12),
             SearchSpec(n=2, bound=10**6, symmetry=True, witnesses=True),
             SearchSpec(n=3, bound=0)]
    expected = [run_search(spec)._replace(wall_time=0) for spec in specs]
    assert expected[2].witness_counts == (((1, 1), 1),)

    def refuse(n, bound):
        raise AssertionError(f"masks built for ({n},{bound})")

    monkeypatch.setattr(search, "_masks", refuse)
    for spec, report in zip(specs, expected):
        assert run_search(spec)._replace(wall_time=0) == report
    with pytest.raises(AssertionError, match=r"^masks built for \(3,1\)$"):
        run_search(SearchSpec(n=3, bound=1))


def test_no_benchmark_or_golden_search_reaches_the_table_limit():
    # The largest pruned searches timed, traced or frozen: the (2,b) rungs
    # and the frontier ladder up to (5,1).
    for n, bound in [(2, 12), (3, 3), (4, 2), (5, 1)]:
        assert _masks(n, bound)


def test_pruned_search_runs_past_the_cross_class_limit():
    # W^2 cross masks per offset class refused this search at 329 MiB; the
    # six axis lists take about 2 MiB.
    report = run_search(SearchSpec(n=3, bound=70))
    assert (report.valid_found, report.nodes_visited) == (0, 81_063)


def test_deep_pruned_search_keeps_one_domain_list():
    # Copying the 1,600 domains at each depth held about 22 MiB here; one
    # live list and its trail hold a few.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            run_search(SearchSpec(n=40, bound=1, budget=5_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_budget_stop_counts_cell_one_values_as_the_budget_grows():
    # The first free cell's domain is what the base cell at (0, 0) allows;
    # a larger budget never finishes fewer of its values, and the last node
    # leaves only the last value unfinished.
    first = _tables(3).order[1]
    domain = allowed_mask(1, 3, {0: (0, 0)}, first).bit_count()
    total = run_search(SearchSpec(n=3, bound=1)).nodes_visited
    explored = []
    for budget in range(1, total):
        with pytest.raises(BudgetExceeded, match="^budget exceeded$") as stop:
            run_search(SearchSpec(n=3, bound=1, budget=budget))
        assert stop.value.nodes == budget
        assert (stop.value.first, stop.value.domain) == (first, domain)
        explored.append(stop.value.explored)
    assert explored == sorted(explored)
    assert (explored[0], explored[-1]) == (0, domain - 1)


def test_closed_form_masks_match_brute_force():
    # Every torus-adjacent pair (so every offset class) at n <= 5, b <= 3,
    # and at n = 2 every bound the benchmark times (widths 1 to 25), where
    # the classes are row-only, column-only and empty: the mask equals the
    # per-pair rule for every value of the earlier cell. Tables name cells
    # by search position.
    cases = [(n, bound) for n in range(1, 6) for bound in range(4)]
    cases += [(2, bound) for bound in range(4, 13)]
    for n, bound in cases:
        masks, width = _masks(n, bound), 2 * bound + 1
        values = _value_range(bound)
        order = _tables(n).order
        for k, ck in enumerate(order):
            links = {f: (xs, ys) for f, xs, ys in masks[k]}
            for f in range(k + 1, n * n):
                cf = order[f]
                d = (cf // n - ck // n, cf % n - ck % n)
                assert (f in links) == bool(admissible_offsets(d, n)), (n, k, f)
                if f not in links:
                    continue
                xs, ys = links[f]
                assert len(xs) == len(ys) == width, (n, bound, k, f)
                for i, value in enumerate(values):
                    ix, iy = divmod(i, width)
                    expected = allowed_mask(bound, n, {ck: value}, cf)
                    assert xs[ix] | ys[iy] == expected, (n, bound, k, f, value)


def test_forward_domains_match_brute_force_on_random_prefixes():
    rng = random.Random(1980)
    for n in (2, 3, 4, 5):
        for bound in range(4):
            masks, width = _masks(n, bound), 2 * bound + 1
            values = _value_range(bound)
            order = _tables(n).order
            for _ in range(12):
                domains, wiped = root_domains(n, bound)
                root = domains[:]
                trail = []
                placed = {0: (0, 0)}  # row-major cell -> translate
                depth = 0
                while wiped < 0 and depth < n * n - 1:
                    depth += 1
                    choices = [i for i in range(len(values)) if domains[depth] >> i & 1]
                    i = rng.choice(choices)
                    placed[order[depth]] = values[i]
                    wiped = _narrow(domains, masks[depth], *divmod(i, width), trail)
                    if rng.random() < 0.2:
                        break
                # The trail logs only real changes, and undoing it in reverse
                # gives back the root domains.
                undone = domains[:]
                for f, old in reversed(trail):
                    assert undone[f] != old
                    undone[f] = old
                assert undone == root, (n, bound, placed)
                if wiped >= 0:
                    assert allowed_mask(bound, n, placed, order[wiped]) == 0
                    assert all(allowed_mask(bound, n, placed, order[f])
                               for f in range(depth + 1, wiped)), (n, bound, placed)
                    continue
                for f in range(depth + 1, n * n):
                    assert domains[f] == allowed_mask(bound, n, placed, order[f]), (
                        n, bound, placed, f)


def test_pruned_four_grid_bound_one_finishes_in_default_budget():
    report = run_search(SearchSpec(n=4, bound=1, engine="pruned"))
    assert report.valid_found == 0
    assert report.nodes_visited <= SearchSpec(n=4, bound=1).budget


def test_pruned_four_grid_bound_two_finishes_in_default_budget():
    report = run_search(SearchSpec(n=4, bound=2))
    assert report.valid_found == 0
    assert report.nodes_visited == 194_988 <= SearchSpec(n=4, bound=2).budget


def test_search_order_runs_diagonal_by_diagonal():
    # Sorted by ((i + j) mod n, i): the base cell first, each diagonal a
    # closed king loop, and one tuple per n.
    assert _tables(1).order == (0,)
    assert _tables(2).order == (0, 3, 1, 2)
    assert _tables(3).order == (0, 5, 7, 1, 3, 8, 2, 4, 6)
    for n in range(1, 9):
        order = _tables(n).order
        assert order is _tables(n).order
        assert sorted(order) == list(range(n * n))
        keys = [((c // n + c % n) % n, c // n) for c in order]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "n, bound, symmetry, nodes",
    [(3, 1, False, 57), (3, 2, False, 143), (3, 2, True, 87), (3, 3, False, 261),
     (4, 1, False, 12_911)],
)
def test_pruned_node_counts(n, bound, symmetry, nodes):
    # In row-major order these took 131, 753, 550, 2,639 and 53,654 nodes.
    report = run_search(SearchSpec(n=n, bound=bound, symmetry=symmetry))
    assert report.nodes_visited == nodes


@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
@pytest.mark.parametrize("n, bound", [(n, b) for n in (2, 3, 4) for b in (0, 1, 2)])
def test_pruned_scan_matches_forward_checking_oracle(n, bound, symmetry):
    # The whole report, records in order; without records it is the same
    # report but for them; and a search stopped halfway says the same
    # progress line.
    spec = SearchSpec(n=n, bound=bound, symmetry=symmetry, witnesses=True)
    expected = pruned_scan_oracle(spec)
    assert untimed(search._pruned_scan, spec) == expected
    unrecorded = spec._replace(witnesses=False)
    assert untimed(search._pruned_scan, unrecorded) == expected._replace(
        spec=unrecorded, witness_records=())
    if expected.nodes_visited < 2:
        return
    halfway = spec._replace(budget=expected.nodes_visited // 2, witnesses=False)
    with pytest.raises(BudgetExceeded) as stop:
        search._pruned_scan(halfway, time.perf_counter())
    with pytest.raises(BudgetExceeded) as oracle_stop:
        pruned_scan_oracle(halfway)
    assert stop.value.progress == oracle_stop.value.progress


def test_two_grid_ends_at_the_root_at_a_large_bound():
    # The diagonal cell pair empties a domain before any value is tried, so
    # the set-up is the whole search. The constraint table decides the root
    # without any mask or value list, so bound 250 (251,001 values) holds
    # only the full domain, one int of 31 KB.
    tracemalloc.start()
    try:
        report = run_search(SearchSpec(n=2, bound=250))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.nodes_visited == 0
    assert report.witness_counts == (((-250, -250), 1),)
    report = run_search(SearchSpec(n=2, bound=250, witnesses=True))
    [(config, _)] = report.witness_records
    assert config.translates == ((0, 0), (0, 0), (0, 0), (-250, -250))
    assert verify_witnesses(report)


def test_pruned_three_grid_bound_three_node_count():
    report = run_search(SearchSpec(n=3, bound=3, engine="pruned"))
    assert report.valid_found == 0
    assert report.nodes_visited < 10_000


def test_budget_stops_on_first_node_past_it():
    nodes = run_search(SearchSpec(n=3, bound=1, engine="pruned")).nodes_visited
    for jobs in (1, 3):
        exact = run_search(SearchSpec(n=3, bound=1, engine="pruned", budget=nodes, jobs=jobs))
        assert exact.nodes_visited == nodes
        with pytest.raises(ValueError, match="^budget exceeded$"):
            run_search(SearchSpec(n=3, bound=1, engine="pruned", budget=nodes - 1, jobs=jobs))


@pytest.mark.parametrize("n, bound", [(2, 2), (3, 1), (3, 2), (4, 1)])
def test_witness_replay_forward_checking(n, bound):
    report = run_search(SearchSpec(n=n, bound=bound, engine="pruned", witnesses=True))
    assert sum(c for _, c in report.witness_counts) == len(report.witness_records)
    assert verify_witnesses(report) is True
    # Counts do not depend on whether the records are kept.
    unrecorded = run_search(SearchSpec(n=n, bound=bound, engine="pruned"))
    assert unrecorded.witness_counts == report.witness_counts


def test_cli_import_starts_no_process_machinery():
    # The search runs in one process, so the CLI loads no process pool.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    code = (
        "import sys, tilediff.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"
