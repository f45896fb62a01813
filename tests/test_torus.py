"""Torus square complex: vertex labels, cocycle, coloring, square rules."""

import random
from pathlib import Path

import pytest

from tilediff import (
    TileConfig,
    color_edges,
    difference_set,
    edge_labels,
    normalize,
    parse_coloring,
    parse_config,
    square_colors,
    vertex_labels,
)
from tilediff.render import ALL_LAYERS, RenderSpec, render_svg
from tilediff.torus import (
    BLUE,
    RED,
    WHITE,
    EdgeColoring,
    VertexLabeling,
)

from conftest import (
    BAND_COLORING_TEXT,
    WHITE_COLORING_TEXT,
    band_coloring,
    block_coloring,
    cocycle_defects,
    column_gain,
    edge_values_subset,
    random_config,
    row_gain,
    uniform_coloring,
)


def test_vertex_labels_single_cell_table():
    vl = vertex_labels(TileConfig.uniform(1))
    assert vl.labels == (((0, 0), (0, -1)), ((-1, 0), (-1, -1)))


def test_vertex_labels_uniform_two():
    vl = vertex_labels(TileConfig.uniform(2))
    for j in range(2):
        assert vl.labels[2][j] == (-1, 0)
    for i in range(2):
        assert vl.labels[i][2] == (0, -1)
    assert vl.labels[2][2] == (-1, -1)


def test_a_shifted_config_labels_and_renders_as_its_normal_form():
    # The base translate is (2, -1); a common shift moves every vertex
    # label, and so leaves their differences, the edge values, as they are.
    path = Path(__file__).parent / "golden" / "check" / "n3-three-pairs-shifted.txt"
    config = parse_config(path.read_text())
    assert config.translates[0] == (2, -1)
    normal = normalize(config)
    assert edge_labels(vertex_labels(config)) == edge_labels(vertex_labels(normal))
    spec = RenderSpec(show=frozenset(ALL_LAYERS))
    assert render_svg(config, spec) == render_svg(normal, spec)


def test_edge_labels_single_cell():
    el = edge_labels(vertex_labels(TileConfig.uniform(1)))
    assert el.h[0][0] == (-1, 0)
    assert el.v[0][0] == (0, -1)


def test_edge_labels_uniform_two():
    el = edge_labels(vertex_labels(TileConfig.uniform(2)))
    for j in range(2):
        assert el.h[0][j] == (0, 0)
        assert el.h[1][j] == (-1, 0)
    for i in range(2):
        assert el.v[i][0] == (0, 0)
        assert el.v[i][1] == (0, -1)
    assert cocycle_defects(el) == []


def test_seam_mismatch_detected_on_handmade_labeling():
    labels = (
        ((0, 0), (0, -1)),
        ((-1, 0), (0, 0)),  # far corner should be (-1, -1)
    )
    with pytest.raises(ValueError, match="seam mismatch"):
        edge_labels(VertexLabeling(1, labels))


def test_cocycle_and_class_sums_random_configs():
    rng = random.Random(5)
    for _ in range(60):
        config = random_config(rng, rng.randint(1, 5), 3)
        el = edge_labels(vertex_labels(config))
        assert cocycle_defects(el) == []
        assert row_gain(el) == (-1, 0)
        assert column_gain(el) == (0, -1)


def test_edge_values_lie_in_difference_set():
    rng = random.Random(6)
    for _ in range(40):
        config = random_config(rng, rng.randint(1, 4), 3)
        el = edge_labels(vertex_labels(config))
        assert edge_values_subset(el, difference_set(config))


def test_color_edges_single_cell():
    coloring = color_edges(edge_labels(vertex_labels(TileConfig.uniform(1))))
    assert coloring.h[0][0] == RED
    assert coloring.v[0][0] == BLUE


def test_color_edges_all_zero_synthetic():
    from tilediff.torus import EdgeLabeling

    zero = ((0, 0),)
    el = EdgeLabeling(1, (zero,), (zero,))
    coloring = color_edges(el)
    assert coloring.h[0][0] == WHITE and coloring.v[0][0] == WHITE


def test_color_edges_names_the_first_four_off_axes_edges():
    # Six edge values are off the axes: h (0, 0), (0, 1), (1, 0) and
    # v (0, 0), (0, 1), (1, 0). The horizontal ones come first.
    config = TileConfig.from_map(
        2, {(0, 0): (0, 0), (0, 1): (1, 2), (1, 0): (2, 1), (1, 1): (0, 0)}
    )
    with pytest.raises(ValueError) as exc:
        color_edges(edge_labels(vertex_labels(config)))
    assert str(exc.value) == (
        "edge values off the axes: h (0, 0): (2, 1); h (0, 1): (-1, -2); "
        "h (1, 0): (-3, -1); v (0, 0): (1, 2)"
    )


def test_square_colors_single_cell_violation():
    coloring = color_edges(edge_labels(vertex_labels(TileConfig.uniform(1))))
    with pytest.raises(ValueError) as exc:
        square_colors(coloring)
    assert str(exc.value) == "coloring invalid: (0, 0): red and blue edges"


def test_square_colors_all_white():
    result = square_colors(uniform_coloring(3))
    assert result.classes == ((WHITE,) * 3,) * 3


def test_square_colors_shared_edges_propagate_to_neighbours():
    # Colouring only the bottom and top edges of square (0,0) red gives the
    # vertically adjacent squares exactly one red edge each: on the torus a
    # two-red-edge square cannot sit in an all-white sea.
    h = [[WHITE] * 3 for _ in range(3)]
    h[0][0] = RED
    h[0][1] = RED
    ec = EdgeColoring(3, tuple(map(tuple, h)), tuple((WHITE,) * 3 for _ in range(3)))
    with pytest.raises(ValueError) as exc:
        square_colors(ec)
    assert str(exc.value) == (
        "coloring invalid: (0, 1): exactly one red edge; (0, 2): exactly one red edge"
    )


def test_square_colors_names_the_first_four_violations():
    # A red row of bottom edges leaves one red edge on each square below
    # and above it: six violations, in square order, of which four are named.
    h = tuple((RED, WHITE, WHITE) for _ in range(3))
    ec = EdgeColoring(3, h, tuple((WHITE,) * 3 for _ in range(3)))
    with pytest.raises(ValueError) as exc:
        square_colors(ec)
    assert str(exc.value) == (
        "coloring invalid: (0, 0): exactly one red edge; (0, 2): exactly one red edge; "
        "(1, 0): exactly one red edge; (1, 2): exactly one red edge"
    )


def test_square_colors_band_is_legal():
    ec = band_coloring(4, rows=(1, 2))
    result = square_colors(ec)
    for i in range(4):
        for j in range(4):
            assert result.classes[i][j] == (RED if j in (1, 2) else WHITE)


def test_square_colors_block_is_legal():
    ec = block_coloring(5, corners=[(0, 0), (3, 3)])
    result = square_colors(ec)
    reds = {(i, j) for i in range(5) for j in range(5) if result.classes[i][j] == RED}
    assert reds == {(0, 0), (0, 1), (1, 0), (1, 1), (3, 3), (3, 4), (4, 3), (4, 4)}


def test_square_colors_n1_counts_each_edge_in_both_slots():
    # At n = 1 the square's bottom and top are the one h edge, and its left
    # and right the one v edge: a red h edge is two red sides, not one.
    for h_color, v_color, color in ((RED, WHITE, RED), (WHITE, BLUE, BLUE)):
        ec = uniform_coloring(1, h_color=h_color, v_color=v_color)
        assert square_colors(ec).classes == ((color,),)


def test_mixed_red_blue_square_flagged():
    h = [[WHITE] * 2 for _ in range(2)]
    v = [[WHITE] * 2 for _ in range(2)]
    h[0][0] = h[0][1] = RED
    v[0][0] = v[1][0] = BLUE
    with pytest.raises(ValueError) as exc:
        square_colors(EdgeColoring(2, tuple(map(tuple, h)), tuple(map(tuple, v))))
    assert str(exc.value) == "coloring invalid: (0, 0): red and blue edges"


def test_every_config_breaks_somewhere_in_the_chain():
    # Contrapositive of the impossibility: each configuration shows an
    # off-axes edge value, an off-axes non-edge difference vector, or a
    # square rule violation. A config dodging all three would satisfy the
    # axes condition.
    rng = random.Random(8)
    for _ in range(60):
        config = random_config(rng, rng.randint(1, 4), 2)
        el = edge_labels(vertex_labels(config))
        try:
            square_colors(color_edges(el))
        except ValueError:  # an off-axes edge value, or a broken square
            continue
        ds = difference_set(config)
        assert any(v[0] != 0 and v[1] != 0 for v in ds.vectors)


def test_coloring_roundtrip():
    text = """\
n 3
h 0 0 white
h 0 1 red
h 0 2 white
h 1 0 white
h 1 1 red
h 1 2 white
h 2 0 white
h 2 1 white
h 2 2 white
v 0 0 white
v 0 1 white
v 0 2 white
v 1 0 red
v 1 1 red
v 1 2 white
v 2 0 white
v 2 1 white
v 2 2 white
"""
    assert parse_coloring(text) == block_coloring(3, corners=[(0, 0)])
    # The coloring files the command-line tests write.
    assert parse_coloring(WHITE_COLORING_TEXT) == uniform_coloring(2)
    assert parse_coloring(BAND_COLORING_TEXT) == band_coloring(3, rows=(1,))


def test_coloring_parse_errors():
    from tilediff.model import FileFormatError

    with pytest.raises(FileFormatError):
        parse_coloring("n 1\nh 0 0 red\n")  # missing the v edge
    with pytest.raises(FileFormatError):
        parse_coloring("n 1\nh 0 0 red\nv 0 0 green\n")
    with pytest.raises(FileFormatError):
        parse_coloring("n 1\nh 0 0 red\nh 0 0 red\nv 0 0 blue\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("n 1_0\n", "line 1: expected integer, got '1_0'"),
        ("n 1\nh 0_0 0 white\nv 0 0 white\n", "line 2: expected integer, got '0_0'"),
    ],
    ids=["size", "index"],
)
def test_coloring_integers_are_plain_decimal(text, error):
    # The config parser's rule: `int` alone would read "1_0" as 10.
    from tilediff.model import FileFormatError

    with pytest.raises(FileFormatError) as exc:
        parse_coloring(text)
    assert str(exc.value) == error
