"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.

Criterion 6 checks the component dichotomy on the boundary convention where
it holds: regular-neighbourhood ("cross") boundaries, with the wedge reading
checked where the pinch graph is a forest. Its verdict line also reports how
often the strict dichotomy fails under the default corner-splitting ("split")
convention, with its first counterexample, so that the convention
subtlety stays visible on every run; see the test's docstring.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

from tilediff import (
    BoxUnion,
    SearchSpec,
    TileConfig,
    boundary_curves,
    components_of_classes,
    difference_set,
    edge_labels,
    epsilon_gap,
    format_coloring,
    format_config,
    geometric_oracle,
    homotopy_class,
    interiors_decomposition,
    lattice_span,
    pi1_image,
    run_search,
    discretization_exact,
    vertex_labels,
)

from conftest import (
    band_coloring,
    cocycle_defects,
    column_gain,
    cover_integer_diff_points_oracle,
    curve_gain,
    edge_values_subset,
    pinch_graph_is_forest,
    random_closed_curve,
    random_config,
    random_square_classes,
    row_gain,
    run_cli,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_1_bounded_search_suite():
    start = time.perf_counter()
    single = run_search(SearchSpec(n=1, bound=3, engine="plain"))
    plain = run_search(SearchSpec(n=2, bound=1, engine="plain"))
    pruned = run_search(SearchSpec(n=2, bound=1, engine="pruned"))
    wide = run_search(SearchSpec(n=2, bound=2, engine="pruned"))
    deep = run_search(SearchSpec(n=3, bound=1, engine="pruned"))
    elapsed = time.perf_counter() - start
    ok = (
        single.valid_found == 0
        and plain.valid_found == 0
        and pruned.valid_found == 0
        and wide.valid_found == 0
        and deep.valid_found == 0
        and plain.configs_enumerated == 729
        and plain.valid_configs == pruned.valid_configs == ()
        and elapsed < 60.0
    )
    _verdict(
        1,
        "bounded impossibility search",
        ok,
        f"729 plain leaves, engines agree, all valid_found=0, {elapsed:.1f}s",
    )


CORPUS = {
    "unit_square": BoxUnion.of((0, 0, 1, 1)),
    "half_square": BoxUnion.of((0, 0, F(1, 2), F(1, 2))),
    "two_boxes_disconnected": BoxUnion.of((0, 0, 1, 1), (2, 0, 3, 1)),
    "point": BoxUnion.of((0, 0, 0, 0)),
    "fractional_point": BoxUnion.of((F(1, 3), F(1, 4), F(1, 3), F(1, 4))),
    "segment": BoxUnion.of((0, 0, 1, 0)),
    "flat_rectangle": BoxUnion.of((0, 0, F(3, 2), F(1, 2))),
    "l_shape": BoxUnion.of((0, 0, 1, 1), (1, 0, 2, F(1, 2))),
    "offset_square": BoxUnion.of((F(1, 4), F(1, 4), F(3, 4), F(3, 4))),
    "diagonal_squares": BoxUnion.of(
        (0, 0, F(1, 2), F(1, 2)), (F(3, 4), F(3, 4), F(5, 4), F(5, 4))
    ),
    "tall_thin": BoxUnion.of((0, 0, F(1, 4), 2)),
    "touching_checker": BoxUnion.of((0, 0, F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), 1, 1)),
}


def test_criterion_2_discretization_exactness():
    assert len(CORPUS) >= 10
    failures = []
    for name, k in CORPUS.items():
        n0 = epsilon_gap(k).n0
        if not discretization_exact(k, n0):
            failures.append(f"{name}@n0={n0}")
        if not discretization_exact(k, n0 + 3):
            failures.append(f"{name}@n0+3={n0 + 3}")
    unit = CORPUS["unit_square"]
    g = epsilon_gap(unit)
    if g.n0 != 6:
        failures.append(f"unit square n0={g.n0} != 6")
    if discretization_exact(unit, 2):
        failures.append("unit square n=2 unexpectedly equal")
    from tilediff.discretize import cover_cells, integer_points_of_union, minkowski_diff

    extra = cover_integer_diff_points_oracle(cover_cells(unit, 2)) - integer_points_of_union(
        minkowski_diff(unit)
    )
    if (2, 2) not in extra:
        failures.append("(2,2) not among extra vectors at n=2")
    _verdict(
        2,
        "discretization set equality",
        not failures,
        f"{len(CORPUS)} box unions at n0 and n0+3, unit-square n=2 counterexample reproduced"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_3_difference_sets_generate():
    rng = random.Random(1003)
    bad = 0
    for _ in range(1000):
        config = random_config(rng, rng.randint(1, 4), rng.randint(0, 3))
        span = lattice_span(difference_set(config))
        if (span.rank, span.index) != (2, 1):
            bad += 1
    _verdict(3, "generation of the full lattice", bad == 0, f"1000 configs, {bad} exceptions")


def test_criterion_4_cocycle_seam_class_suite():
    rng = random.Random(1004)
    bad = []
    for k in range(500):
        config = random_config(rng, rng.randint(1, 5), rng.randint(0, 3))
        el = edge_labels(vertex_labels(config))
        if cocycle_defects(el):
            bad.append(f"cocycle#{k}")
        if row_gain(el) != (-1, 0) or column_gain(el) != (0, -1):
            bad.append(f"gain#{k}")
        if not edge_values_subset(el, difference_set(config)):
            bad.append(f"membership#{k}")
    _verdict(
        4,
        "cocycle, seam and class sums",
        not bad,
        "500 configs, all square sums zero, gains exact, values in difference set"
        if not bad
        else "; ".join(bad[:5]),
    )


def test_criterion_5_oracle_equivalences():
    failures = []
    # Exhaustive: n=1 and every n=2 assignment with translates bounded by 1.
    values = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    lone = TileConfig.uniform(1)
    if difference_set(lone).vectors != geometric_oracle(lone).vectors:
        failures.append("n=1")
    for assignment in itertools.product(values, repeat=3):
        config = TileConfig(2, ((0, 0),) + assignment)
        if difference_set(config).vectors != geometric_oracle(config).vectors:
            failures.append(f"n=2 {assignment}")
            break
    rng = random.Random(1005)
    for k in range(500):
        config = random_config(rng, rng.randint(3, 4), rng.randint(0, 3))
        if difference_set(config).vectors != geometric_oracle(config).vectors:
            failures.append(f"random#{k}")
            break
    curves_checked = 0
    for _ in range(25):
        config = random_config(rng, rng.randint(2, 5), 3)
        el = edge_labels(vertex_labels(config))
        for _ in range(20):
            curve = random_closed_curve(rng, el.n, length=rng.randint(2, 24))
            gain = curve_gain(curve, el)
            if homotopy_class(curve) != (-gain[0], -gain[1]):
                failures.append("winding/gain mismatch")
                break
            curves_checked += 1
    ok = not failures and curves_checked == 500
    _verdict(
        5,
        "independent oracle equivalences",
        ok,
        f"730 exhaustive + 500 random set comparisons, {curves_checked} curves, zero tolerance"
        if ok
        else "; ".join(failures[:5]),
    )


def test_criterion_6_component_dichotomy():
    """Component dichotomy and wedge property over random components.

    Asserted on the seeded sample: (a) no component whose boundary curves
    under the crossing pairing (the boundary cycles of a regular
    neighbourhood of the component) are all contractible has a
    fundamental-group image of rank 1; (b) on every component whose pinch
    graph is a forest, the pieces' fundamental-group generators span the
    component's image (the wedge reading).

    Reported but not asserted: the strict dichotomy under the default
    corner-splitting boundary convention. It is false there. The
    counterexamples are components whose torus winding is carried only by
    loops that thread corner pinches: wrapping chains of diagonally touching
    blobs (smallest case: the diagonal {(0,0),(1,1),(2,2)} on the 3-torus),
    and edge-connected blobs whose wrap closes through one pinch. The split
    convention breaks each pinch into two per-corner boundary passes, so
    every boundary curve is a contractible local loop and the winding is
    invisible to the boundary, yet the image has rank 1. Likewise the wedge
    equality can fail on components whose pinch graph has a cycle. The
    verdict line prints both counts and the first split counterexample.
    """
    rng = random.Random(1006)
    total = 0
    rank1_split = []
    rank1_cross = []
    wedge_failures = []
    wedge_failures_forest = []
    while total < 10_000:
        n = rng.randint(2, 8)
        for comp in components_of_classes(random_square_classes(rng, n), "corner"):
            total += 1
            image = pi1_image(comp)
            if image.rank == 1:
                if all(homotopy_class(c) == (0, 0) for c in boundary_curves(comp)):
                    rank1_split.append(comp)
                if all(
                    homotopy_class(c) == (0, 0)
                    for c in boundary_curves(comp, pairing="cross")
                ):
                    rank1_cross.append(comp)
            pieces = interiors_decomposition(comp)
            gens = [b for p in pieces for b in pi1_image(p).basis]
            if lattice_span(gens).basis != image.basis:
                wedge_failures.append(comp)
                if pinch_graph_is_forest(comp):
                    wedge_failures_forest.append(comp)
    ok = not rank1_cross and not wedge_failures_forest
    first = min(rank1_split, key=lambda c: (c.n, sorted(c.squares)), default=None)
    witness = (
        f"n={first.n} squares={sorted(first.squares)} pi1={pi1_image(first).basis}"
        if first
        else "none"
    )
    detail = (
        f"{total} components: cross-pairing boundary leaves {len(rank1_cross)} "
        f"rank-1 cases with contractible boundaries; "
        f"{len(wedge_failures_forest)} wedge-equality failures on forest pinch "
        f"graphs ({len(wedge_failures)} on all pinch graphs); "
        f"split convention: {len(rank1_split)} rank-1 cases with contractible "
        f"boundaries (first: {witness})"
    )
    _verdict(6, "component dichotomy and wedge property", ok, detail)


def test_criterion_7_byte_identical_reports(tmp_path):
    (tmp_path / "single.txt").write_text(format_config(TileConfig.uniform(1)))
    (tmp_path / "unit.boxes").write_text("box 0 0 1 1\n")
    (tmp_path / "band.coloring").write_text(format_coloring(band_coloring(3, rows=(1,))))
    command_sets = [
        ["check", "single.txt", "--json"],
        ["discretize", "unit.boxes", "--reduce", "--json"],
        ["search", "--n", "2", "--bound", "1", "--engine", "plain", "--json"],
        ["search", "--n", "2", "--bound", "2", "--engine", "pruned", "--json"],
        ["analyze", "band.coloring", "--json"],
        ["analyze", "single.txt", "--json"],
    ]
    failures = []

    def run(args):
        # Every command here succeeds; two identical failures (say, a child
        # that cannot import the package) must not pass as byte-identical.
        result = run_cli(args, tmp_path)
        if result.returncode != 0:
            failures.append(f"exit {result.returncode}: {' '.join(args)}")
        return result

    for args in command_sets:
        first = run(args)
        second = run(args)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            failures.append(" ".join(args))
    seq = run(["search", "--n", "2", "--bound", "2", "--jobs", "1", "--json"])
    par = run(["search", "--n", "2", "--bound", "2", "--jobs", "3", "--json"])
    if seq.stdout != par.stdout:
        failures.append("search with --jobs 3")
    for args in (
        ["render", "single.txt", "-o", "a.svg", "--show", "edges,colors,labels"],
        ["render", "band.coloring", "-o", "b.svg", "--show", "edges,colors,components"],
    ):
        run(args)
        out = Path(tmp_path / args[3]).read_bytes()
        run(args)
        if Path(tmp_path / args[3]).read_bytes() != out:
            failures.append("render " + args[1])
    json_doc = json.loads(run(["search", "--n", "2", "--bound", "1", "--json"]).stdout)
    if "wall_time" in json_doc:
        failures.append("timing leaked into structured report")
    _verdict(
        7,
        "deterministic structured reports",
        not failures,
        "all subcommands byte-identical across runs and --jobs values"
        if not failures
        else "; ".join(failures),
    )
