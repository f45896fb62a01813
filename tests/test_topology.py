"""Components, boundary curves, gains, winding classes, pi1 images, audit."""

import random

import pytest

from tilediff import (
    AxesCheck,
    Component,
    LatticeSpan,
    Curve,
    Step,
    TileConfig,
    axes_subset,
    boundary_curves,
    components,
    components_of_classes,
    difference_set,
    edge_labels,
    geometric_oracle,
    homotopy_class,
    interiors_decomposition,
    normalize,
    pi1_image,
    impossibility_audit,
    vertex_labels,
)
from tilediff.torus import BLUE, RED, WHITE, EdgeColoring, SquareClasses, square_colors
from tilediff.topology import boundary_steps

from conftest import (
    band_coloring,
    block_coloring,
    boundary_steps_oracle,
    column_loop,
    curve_gain,
    pinch_graph_is_forest,
    product_labeling,
    random_closed_curve,
    random_config,
    random_square_classes,
    row_loop,
    uniform_coloring,
)


def _classes_with(n, colored, color=RED):
    return SquareClasses(n, tuple(
        tuple(color if (i, j) in colored else WHITE for j in range(n)) for i in range(n)
    ))


def test_curve_and_component_validation():
    with pytest.raises(ValueError, match="empty curve"):
        Curve(2, ())
    with pytest.raises(ValueError, match="not a closed chain"):
        Curve(3, (Step("h", 0, 0, True), Step("h", 2, 0, True), Step("h", 1, 0, True)))
    with pytest.raises(ValueError, match="adjacency mode"):
        Component(2, RED, frozenset({(0, 0)}), "diagonal")
    with pytest.raises(ValueError, match="empty component"):
        Component(2, RED, frozenset(), "corner")
    with pytest.raises(ValueError, match="unknown pairing"):
        boundary_curves(Component(3, RED, frozenset({(0, 0)}), "corner"), pairing="x")
    disconnected = Component(5, RED, frozenset({(0, 0), (2, 2)}), "corner")
    with pytest.raises(ValueError, match="not connected"):
        pi1_image(disconnected)


def test_components_isolated_red_square():
    comps = components_of_classes(_classes_with(3, {(0, 0)}), "corner")
    assert [(c.color, len(c.squares)) for c in comps] == [(RED, 1), (WHITE, 8)]


def test_components_corner_mode_joins_diagonal():
    comps = components_of_classes(_classes_with(3, {(0, 0), (1, 1)}), "corner")
    reds = [c for c in comps if c.color == RED]
    assert len(reds) == 1 and len(reds[0].squares) == 2


def test_components_edge_mode_splits_diagonal():
    comps = components_of_classes(_classes_with(3, {(0, 0), (1, 1)}), "edge")
    reds = [c for c in comps if c.color == RED]
    assert len(reds) == 2


def test_components_partition_property():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 8)
        sc = random_square_classes(rng, n, colors=(RED, BLUE, WHITE))
        for mode in ("corner", "edge"):
            comps = components_of_classes(sc, mode)
            seen = set()
            for c in comps:
                assert not (c.squares & seen)
                seen |= c.squares
                assert all(sc.classes[i][j] == c.color for (i, j) in c.squares)
            assert len(seen) == n * n


def test_components_requires_valid_coloring():
    bad = uniform_coloring(1, h_color=RED, v_color=BLUE)
    with pytest.raises(ValueError) as exc:
        components(bad)
    assert str(exc.value) == "coloring invalid: (0, 0): red and blue edges"


def test_components_of_edge_coloring_band():
    comps = components(band_coloring(4, rows=(1, 2)))
    assert sorted((c.color, len(c.squares)) for c in comps) == [(RED, 8), (WHITE, 8)]


def test_boundary_single_square():
    comp = Component(3, RED, frozenset({(1, 1)}), "corner")
    curves = boundary_curves(comp)
    assert len(curves) == 1
    assert len(curves[0]) == 4
    assert homotopy_class(curves[0]) == (0, 0)


def test_boundary_full_torus_empty():
    comp = Component(2, WHITE, frozenset((i, j) for i in range(2) for j in range(2)), "corner")
    assert boundary_curves(comp) == []


def test_boundary_band_two_wrapping_curves():
    n = 5
    comp = Component(n, RED, frozenset((i, 2) for i in range(n)), "corner")
    curves = boundary_curves(comp)
    assert len(curves) == 2
    assert sorted(len(c) for c in curves) == [n, n]
    assert sorted(homotopy_class(c) for c in curves) == [(-1, 0), (1, 0)]


def test_boundary_orientation_keeps_component_left():
    # Single square: counterclockwise traversal, so the winding of each
    # edge's direction around the square center is +1 turn in total.
    comp = Component(4, RED, frozenset({(2, 1)}), "corner")
    (curve,) = boundary_curves(comp)
    kinds = [(s.kind, s.forward) for s in curve.steps]
    assert kinds == [("h", True), ("v", True), ("h", False), ("v", False)]


def test_boundary_edges_of_legal_components_are_white():
    colorings = [
        band_coloring(5, rows=(0,)),
        band_coloring(5, rows=(1, 2)),
        block_coloring(5, corners=[(0, 0), (3, 3)]),
        block_coloring(6, corners=[(0, 0), (2, 2), (4, 4)]),
    ]
    for ec in colorings:
        for comp in components_of_classes(square_colors(ec), "corner"):
            if comp.color == WHITE:
                continue
            for step in boundary_steps(comp):
                grid = ec.h if step.kind == "h" else ec.v
                assert grid[step.i][step.j] == WHITE


def test_boundary_steps_match_the_full_grid_scan():
    # Sides of the component's own squares against every torus edge; at
    # n = 1 and n = 2 a square's opposite sides wrap onto one edge or onto
    # edges shared with the same neighbour.
    rng = random.Random(87)
    for n in range(1, 9):
        for mode in ("corner", "edge"):
            for _ in range(12):
                classes = random_square_classes(rng, n, (RED, BLUE, WHITE))
                for comp in components_of_classes(classes, mode):
                    assert boundary_steps(comp) == boundary_steps_oracle(comp), (
                        n, mode, sorted(comp.squares))


def test_curve_gain_row_and_column_loops():
    rng = random.Random(77)
    for _ in range(25):
        config = random_config(rng, rng.randint(1, 5), 3)
        el = edge_labels(vertex_labels(config))
        assert curve_gain(row_loop(el.n), el) == (-1, 0)
        assert curve_gain(column_loop(el.n), el) == (0, -1)


def test_square_boundary_gain_vanishes():
    rng = random.Random(78)
    for _ in range(20):
        config = random_config(rng, rng.randint(2, 5), 3)
        el = edge_labels(vertex_labels(config))
        comp = Component(el.n, RED, frozenset({(1, 0)}), "corner")
        (curve,) = boundary_curves(comp)
        assert curve_gain(curve, el) == (0, 0)


def test_homotopy_class_examples():
    assert homotopy_class(row_loop(3)) == (1, 0)
    assert homotopy_class(column_loop(3)) == (0, 1)
    # Staircase wrapping once right and once up.
    n = 3
    steps = []
    for k in range(n):
        steps.append(Step("h", k, k, True))
        steps.append(Step("v", (k + 1) % n, k, True))
    staircase = Curve(n, tuple(steps))
    assert homotopy_class(staircase) == (1, 1)


def test_class_equals_negated_gain():
    rng = random.Random(79)
    for _ in range(25):
        config = random_config(rng, rng.randint(2, 5), 3)
        el = edge_labels(vertex_labels(config))
        for _ in range(20):
            curve = random_closed_curve(rng, el.n, length=rng.randint(4, 20))
            gain = curve_gain(curve, el)
            winding = homotopy_class(curve)
            assert winding == (-gain[0], -gain[1])


def test_pi1_single_square_rank_zero():
    comp = Component(3, RED, frozenset({(0, 0)}), "corner")
    assert pi1_image(comp).rank == 0


def test_pi1_full_torus_rank_two():
    for n in (1, 2, 4):
        squares = frozenset((i, j) for i in range(n) for j in range(n))
        image = pi1_image(Component(n, WHITE, squares, "corner"))
        assert (image.rank, image.index) == (2, 1)


def test_pi1_band_rank_one():
    comp = Component(4, RED, frozenset((i, 1) for i in range(4)), "corner")
    assert pi1_image(comp) == LatticeSpan(1, ((1, 0),), None)


def test_interiors_decomposition_examples():
    corner_pair = Component(4, RED, frozenset({(0, 0), (1, 1)}), "corner")
    assert len(interiors_decomposition(corner_pair)) == 2
    blob = Component(4, RED, frozenset({(0, 0), (1, 0), (1, 1)}), "corner")
    assert len(interiors_decomposition(blob)) == 1
    plus = Component(5, RED, frozenset({(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)}), "corner")
    assert len(interiors_decomposition(plus)) == 1


def _pi1_by_bfs_from_other_root(comp):
    # Independent spanning-tree computation: BFS from the largest square,
    # with its own deck-displacement walk, periods collected the same way.
    # The resulting subgroup must not depend on traversal or root (gauge
    # invariance of the period construction).
    from collections import deque

    from tilediff import lattice_span

    n = comp.n
    inside = comp.squares
    root = max(inside)
    lift = {root: (0, 0)}
    queue = deque([root])
    periods = []
    while queue:
        src = queue.popleft()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                # Unwrapped neighbour; the carry is how many tori it crossed.
                ui, uj = src[0] + dx, src[1] + dy
                dst = (ui % n, uj % n)
                if (dx, dy) == (0, 0) or dst not in inside:
                    continue
                shifted = (lift[src][0] + ui // n, lift[src][1] + uj // n)
                if dst not in lift:
                    lift[dst] = shifted
                    queue.append(dst)
                else:
                    period = (shifted[0] - lift[dst][0], shifted[1] - lift[dst][1])
                    if period != (0, 0):
                        periods.append(period)
    return lattice_span(periods)


def test_pi1_image_is_tree_independent():
    rng = random.Random(85)
    for _ in range(60):
        n = rng.randint(2, 7)
        for comp in components_of_classes(random_square_classes(rng, n), "corner"):
            image = pi1_image(comp)
            alt = _pi1_by_bfs_from_other_root(comp)
            assert (alt.rank, alt.basis, alt.index) == (
                image.rank,
                image.basis,
                image.index,
            )


def test_random_walk_displacements_lie_in_pi1_image():
    # Any closed walk through the component's squares (edge and pinch moves)
    # has its deck displacement inside the reported subgroup.
    rng = random.Random(86)
    for _ in range(40):
        n = rng.randint(2, 7)
        comps = components_of_classes(random_square_classes(rng, n), "corner")
        comp = max(comps, key=lambda c: len(c.squares))
        image = pi1_image(comp)
        basis = image.basis
        for _ in range(30):
            sq = min(comp.squares)
            start = sq
            dx = dy = 0
            for _step in range(rng.randint(2, 25)):
                moves = []
                for mx in (-1, 0, 1):
                    for my in (-1, 0, 1):
                        if (mx, my) == (0, 0):
                            continue
                        target = ((sq[0] + mx) % n, (sq[1] + my) % n)
                        if target in comp.squares:
                            moves.append((mx, my, target))
                if not moves:
                    break
                mx, my, target = rng.choice(moves)
                dx += (sq[0] + mx) // n
                dy += (sq[1] + my) // n
                sq = target
            if sq != start:
                continue  # walk did not close; try the next one
            # Membership: solve against the canonical triangular basis.
            if (dx, dy) == (0, 0):
                continue
            if image.rank == 0:
                raise AssertionError(f"nonzero displacement {(dx, dy)} in rank-0 image")
            if image.rank == 1:
                (bx, by) = basis[0]
                if bx != 0:
                    assert dx % bx == 0 and (dx // bx) * by == dy
                else:
                    assert dx == 0 and dy % by == 0
            else:
                (a, b), (_, c) = basis
                assert dx % a == 0
                s = dx // a
                assert (dy - s * b) % c == 0


def test_wedge_components_generate_pi1():
    rng = random.Random(80)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        for comp in components_of_classes(random_square_classes(rng, n), "corner"):
            if not pinch_graph_is_forest(comp):
                continue
            pieces = interiors_decomposition(comp)
            gens = [b for piece in pieces for b in pi1_image(piece).basis]
            from tilediff import lattice_span

            assert lattice_span(gens).basis == pi1_image(comp).basis
            checked += 1
    assert checked > 300


def test_gain_color_confinement_on_legal_labeled_torus():
    # Synthetic cocycle: vertical edges in band rows carry x-axis values, so
    # the coloring is legal; any loop with nonzero x-gain must cross a red edge.
    rng = random.Random(81)
    n = 6
    col_values = [(2, 0) if j in (1, 2) else (0, 0) for j in range(n)]
    el = product_labeling(n, [(0, 0)] * n, col_values)
    from tilediff.torus import color_edges

    coloring = color_edges(el)
    square_colors(coloring)  # raises ValueError unless the square rules hold
    for _ in range(200):
        curve = random_closed_curve(rng, n, length=rng.randint(2, 16))
        gain = curve_gain(curve, el)
        if gain[0] != 0:
            assert any(
                (coloring.h if s.kind == "h" else coloring.v)[s.i][s.j] == RED
                for s in curve.steps
            )


def test_audit_single_cell_fails_at_axes():
    report = impossibility_audit(TileConfig.uniform(1))
    assert report.stage == "axes"
    assert report.witness == (-1, -1)
    assert ((0, 0), (0, 0), (-1, -1)) in report.witness_pairs


def test_audit_uniform_two_fails_at_axes():
    report = impossibility_audit(TileConfig.uniform(2))
    assert report.stage == "axes"
    assert report.witness == (-1, -1)


def test_audit_spread_translates_witness_verified_by_oracle():
    config = TileConfig.from_map(
        2, {(0, 0): (0, 0), (1, 0): (0, 3), (0, 1): (5, 0), (1, 1): (0, 0)}
    )
    report = impossibility_audit(config)
    assert report.stage == "axes"
    assert report.witness is not None
    assert report.witness[0] != 0 and report.witness[1] != 0
    oracle = geometric_oracle(config)
    assert report.witness in oracle.vectors
    off = sorted(v for v in oracle.vectors if v[0] != 0 and v[1] != 0)
    assert report.witness == off[0]
    for (p, q, m) in report.witness_pairs:
        u_p = config.u(*p)
        u_q = config.u(*q)
        assert (u_p[0] - u_q[0] + m[0], u_p[1] - u_q[1] + m[1]) == report.witness


def test_audit_every_config_fails_at_axes():
    rng = random.Random(82)
    for _ in range(60):
        config = random_config(rng, rng.randint(1, 4), 3)
        assert impossibility_audit(config).stage == "axes"


def test_audit_with_a_given_axes_check_matches_its_own():
    # `check` passes the axes check of a config's set to the audit of the
    # same, unnormalized config; the audit of the normalized config agrees,
    # since a common shift changes neither the set nor the pairs.
    rng = random.Random(85)
    for _ in range(80):
        config = random_config(rng, rng.randint(1, 6), 3)
        base = (rng.randint(-4, 4), rng.randint(-4, 4))
        shifted = TileConfig(
            config.n, tuple((x + base[0], y + base[1]) for x, y in config.translates)
        )
        report = impossibility_audit(normalize(shifted))
        check = axes_subset(difference_set(shifted))
        assert impossibility_audit(normalize(shifted), check) == report
        assert impossibility_audit(shifted) == report


def test_audit_of_an_on_axes_verdict_is_a_counterexample():
    # No configuration has an on-axes difference set, so the audit refuses
    # such a verdict instead of reporting on it.
    with pytest.raises(AssertionError, match="counterexample"):
        impossibility_audit(TileConfig.uniform(2), AxesCheck(True))


def test_boundary_curves_partition_boundary_steps():
    # Every boundary step lies on exactly one curve (either pairing), and its
    # orientation keeps the component on its left.
    rng = random.Random(84)
    for _ in range(40):
        n = rng.randint(2, 7)
        for comp in components_of_classes(random_square_classes(rng, n), "corner"):
            steps = boundary_steps(comp)
            for step in steps:
                if step.kind == "h":
                    left_sq = (step.i, step.j) if step.forward else (step.i, (step.j - 1) % n)
                else:
                    left_sq = (((step.i - 1) % n, step.j) if step.forward
                               else (step.i, step.j))
                assert left_sq in comp.squares
            for pairing in ("split", "cross"):
                curves = boundary_curves(comp, pairing=pairing)
                flattened = [s for c in curves for s in c.steps]
                assert sorted(flattened) == steps
                assert len(set(flattened)) == len(flattened)


def test_cross_pairing_dichotomy_property():
    # Regular-neighbourhood boundaries: a component whose thickened boundary
    # curves are all contractible has fundamental-group image 0 or all of Z^2
    # (subsurface-of-the-torus classification). Rank 1 never appears.
    rng = random.Random(83)
    count = 0
    while count < 2000:
        n = rng.randint(2, 8)
        for comp in components_of_classes(random_square_classes(rng, n), "corner"):
            count += 1
            contractible = all(
                homotopy_class(c) == (0, 0)
                for c in boundary_curves(comp, pairing="cross")
            )
            if contractible:
                assert pi1_image(comp).rank in (0, 2), sorted(comp.squares)


def test_legal_coloring_with_pinch_threaded_white_chain():
    # A violation-free edge coloring whose white component is the diagonal
    # chain: six red edges arranged so each off-diagonal square has exactly
    # two of them. The chain's winding is carried only through corner
    # pinches, so all its split-convention boundary curves are contractible
    # while its fundamental-group image has rank 1: the strict dichotomy can
    # fail even for components of legal colorings, which is why the
    # acceptance check reports it as an escalation rather than a regression.
    n = 3
    h = [[WHITE] * n for _ in range(n)]
    v = [[WHITE] * n for _ in range(n)]
    for (i, j) in [(0, 2), (1, 0), (2, 1)]:
        h[i][j] = RED
    for (i, j) in [(0, 1), (2, 0), (1, 2)]:
        v[i][j] = RED
    ec = EdgeColoring(n, tuple(map(tuple, h)), tuple(map(tuple, v)))
    comps = {c.color: c for c in components_of_classes(square_colors(ec), "corner")}
    chain = comps[WHITE]
    assert sorted(chain.squares) == [(0, 0), (1, 1), (2, 2)]
    assert all(homotopy_class(c) == (0, 0) for c in boundary_curves(chain))
    image = pi1_image(chain)
    assert (image.rank, image.basis) == (1, ((1, 1),))
    assert pi1_image(comps[RED]).rank == 2


def test_boundary_pairing_cross_on_necklace():
    # A wrapping chain of diagonally touching squares: split pairing yields
    # per-square contractible curves; cross pairing yields two wrapping curves
    # (the boundary of a regular neighbourhood).
    chain = Component(3, WHITE, frozenset({(0, 0), (1, 1), (2, 2)}), "corner")
    split = boundary_curves(chain)
    assert [homotopy_class(c) for c in split] == [(0, 0)] * 3
    cross = boundary_curves(chain, pairing="cross")
    assert sorted(homotopy_class(c) for c in cross) == [(-1, -1), (1, 1)]
    assert pi1_image(chain).rank == 1
    assert not pinch_graph_is_forest(chain)
