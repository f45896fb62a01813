"""Discretization: difference of box unions, gap, covers, transversals."""

import math
import random
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from tilediff import (
    BoxUnion,
    TileConfig,
    cover_cells,
    difference_set,
    discretize,
    epsilon_gap,
    minkowski_diff,
    reduce_to_transversal,
    discretization_exact,
    format_boxes,
    parse_boxes,
)
from tilediff.cli import main
from tilediff.discretize import (
    CellCover, _cell_ranges, _check_cover_size, _cover_boxes, integer_points_of_union,
)

from conftest import cover_integer_diff_points_oracle

UNIT = BoxUnion.of((0, 0, 1, 1))
HALF = BoxUnion.of((0, 0, F(1, 2), F(1, 2)))
POINT = BoxUnion.of((0, 0, 0, 0))
TWO_BOXES = BoxUnion.of((0, 0, 1, 1), (2, 0, 3, 1))
GOLDEN_BOXES = Path(__file__).parent / "golden" / "discretize"


def test_minkowski_diff_unit_square():
    assert minkowski_diff(UNIT).boxes == ((-1, -1, 1, 1),)


def test_minkowski_diff_two_boxes_merges_duplicates():
    diff = minkowski_diff(TWO_BOXES)
    assert set(diff.boxes) == {
        (-1, -1, 1, 1),
        (1, -1, 3, 1),
        (-3, -1, -1, 1),
    }


def test_minkowski_diff_point():
    assert minkowski_diff(POINT).boxes == ((0, 0, 0, 0),)


def _gap_by_enumeration(k):
    """Independent oracle: scan every integer point of the bounding window of
    K-K inflated by 2, in Fractions, and take the least nonzero squared
    distance to K-K; a point at distance zero is inside."""
    diff = minkowski_diff(k).boxes
    xs0, ys0, xs1, ys1 = zip(*diff)
    best = None
    for x in range(math.ceil(min(xs0)) - 2, math.floor(max(xs1)) + 3):
        for y in range(math.ceil(min(ys0)) - 2, math.floor(max(ys1)) + 3):
            d2 = min(
                max(x0 - x, 0, x - x1) ** 2 + max(y0 - y, 0, y - y1) ** 2
                for (x0, y0, x1, y1) in diff
            )
            if d2 and (best is None or d2 < best):
                best = d2
    return best


@pytest.mark.parametrize(
    "k,expected_gap,expected_n0",
    [(UNIT, F(1), 6), (HALF, F(1, 4), 12), (POINT, F(1), 6)],
)
def test_epsilon_gap_examples(k, expected_gap, expected_n0):
    assert _gap_by_enumeration(k) == expected_gap
    result = epsilon_gap(k)
    assert result.gap_squared == expected_gap
    assert result.n0 == expected_n0


def test_n0_is_smallest_with_square_above_threshold():
    for k in (UNIT, HALF, POINT, TWO_BOXES):
        result = epsilon_gap(k)
        n0 = result.n0
        assert n0 * n0 * result.gap_squared > 32
        assert (n0 - 1) * (n0 - 1) * result.gap_squared <= 32


def _random_grid_union(rng):
    """1-4 closed boxes, each with its corners on a 1/d grid in [-2, 4] for
    its own d from 1 to 7; a side is zero about one time in seven."""
    boxes = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 7)
        xs = sorted(F(rng.randint(-2 * d, 4 * d), d) for _ in range(2))
        ys = sorted(F(rng.randint(-2 * d, 4 * d), d) for _ in range(2))
        if rng.random() < 0.15:
            xs[1] = xs[0]
        if rng.random() < 0.15:
            ys[1] = ys[0]
        boxes.append((xs[0], ys[0], xs[1], ys[1]))
    return BoxUnion(tuple(boxes))


def test_ring_scan_matches_the_window_scan():
    rng = random.Random(2718)
    unions = [parse_boxes(path.read_text()) for path in sorted(GOLDEN_BOXES.glob("*.boxes"))]
    unions += [_random_grid_union(rng) for _ in range(300)]
    for k in unions:
        result = epsilon_gap(k)
        assert result.gap_squared == _gap_by_enumeration(k), k.boxes
        assert result.n0 ** 2 * result.gap_squared > 32 >= (result.n0 - 1) ** 2 * result.gap_squared


def test_a_large_box_fails_fast_at_the_cover_limit(tmp_path, monkeypatch):
    # K-K is 6000 wide: the ring scan takes its perimeter, not its area.
    # The call refuses the cover before it finds the gap: at every n >= 6,
    # the least n0, it takes at least 18001^2 cells.
    big = BoxUnion.of((0, 0, 3000, 3000))
    assert epsilon_gap(big) == (1, 6)
    (tmp_path / "big.boxes").write_text(format_boxes(big))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(["discretize", "big.boxes"])
    assert raised.value.code == (
        "error: n>=6: the cover would take at least 324036001 cells, over the limit of 1000000"
    )


@pytest.mark.parametrize("extra, message", [
    ([], "error: n>=6: the cover would take at least 6000001 cells, over the limit of 1000000"),
    (["--n", "6"], "error: n=6: the cover would take 12000004 cells, over the limit of 1000000"),
])
def test_a_long_box_is_refused_before_its_gap_is_found(extra, message, tmp_path, monkeypatch):
    # The ring of a 2,000,000-long difference box takes seconds to scan; the
    # cover limit is checked first, from the box ranges alone.
    (tmp_path / "long.boxes").write_text("box 0 0 1000000 0\n")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as raised:
        main(["discretize", "long.boxes", *extra])
    assert time.perf_counter() - start < 1
    assert raised.value.code == message


def test_the_least_cover_bounds_every_cover_past_n_six(monkeypatch):
    # Without --n the cover is refused when its size at n = 6, counted at
    # floor(6 w) + 1 columns and floor(6 h) + 1 rows per box, is over the
    # limit. That count never exceeds the cover's at any n >= 6, so a
    # cover the limit admits is never refused.
    rng = random.Random(61)
    unions = [parse_boxes(path.read_text()) for path in sorted(GOLDEN_BOXES.glob("*.boxes"))]
    unions += [_random_grid_union(rng) for _ in range(100)]
    for k in unions:
        least = sum((math.floor(6 * (x1 - x0)) + 1) * (math.floor(6 * (y1 - y0)) + 1)
                    for x0, y0, x1, y1 in k.boxes)
        for n in range(6, 13):
            count = sum((jx_hi - jx_lo + 1) * (jy_hi - jy_lo + 1)
                        for jx_lo, jx_hi, jy_lo, jy_hi in _cell_ranges(k, n))
            assert least <= count, (k.boxes, n)
            monkeypatch.setattr(discretize, "COVER_CELLS_LIMIT", count)
            _check_cover_size(k, None)
            _check_cover_size(k, n)
        monkeypatch.setattr(discretize, "COVER_CELLS_LIMIT", least - 1)
        with pytest.raises(ValueError, match=rf"^n>=6: .* at least {least} cells, over the limit"):
            _check_cover_size(k, None)


def test_cover_cells_unit_square_n6():
    cover = cover_cells(UNIT, 6)
    assert cover.cells == frozenset((i, j) for i in range(-1, 7) for j in range(-1, 7))
    assert len(cover.cells) == 64


def test_cover_cells_unit_square_n2():
    cover = cover_cells(UNIT, 2)
    assert cover.cells == frozenset((i, j) for i in range(-1, 3) for j in range(-1, 3))


def test_cover_cells_interior_point():
    k = BoxUnion.of((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
    assert cover_cells(k, 2).cells == frozenset({(0, 0)})


def test_cover_contains_k_at_sample_points():
    # Box corners and centers of K land inside some covering cell.
    for k in (UNIT, HALF, TWO_BOXES):
        for n in (2, 5, 9):
            cover = cover_cells(k, n)
            for (x0, y0, x1, y1) in k.boxes:
                for (px, py) in [
                    (x0, y0), (x1, y1), (x0, y1), (x1, y0),
                    ((x0 + x1) / 2, (y0 + y1) / 2),
                ]:
                    assert any(
                        F(j1, n) <= px <= F(j1 + 1, n) and F(j2, n) <= py <= F(j2 + 1, n)
                        for (j1, j2) in cover.cells
                    )


def test_discretization_exact_unit_square_threshold():
    assert discretization_exact(UNIT, 6) is True
    assert discretization_exact(UNIT, 2) is False


def test_unit_square_n2_gains_two_two():
    lhs = integer_points_of_union(minkowski_diff(UNIT))
    rhs = cover_integer_diff_points_oracle(cover_cells(UNIT, 2))
    assert lhs == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    assert (2, 2) in rhs - lhs


def _random_rational(rng, lo, hi):
    q = rng.randint(1, 6)
    return F(rng.randint(lo * q, hi * q), q)


def _random_box_union(rng):
    """1-4 closed boxes with corners in [-1, 1] and sides up to 1, each
    side zero a quarter of the time (points and segments)."""
    boxes = []
    for _ in range(rng.randint(1, 4)):
        x0, y0 = _random_rational(rng, -1, 1), _random_rational(rng, -1, 1)
        w = 0 if rng.random() < 0.25 else _random_rational(rng, 0, 1)
        h = 0 if rng.random() < 0.25 else _random_rational(rng, 0, 1)
        boxes.append((x0, y0, x0 + w, y0 + h))
    return BoxUnion(tuple(boxes))


def test_cover_boxes_match_the_per_cell_scan():
    rng = random.Random(1717)
    verdicts = set()
    for _ in range(40):
        k = _random_box_union(rng)
        lhs = integer_points_of_union(minkowski_diff(k))
        n0 = epsilon_gap(k).n0
        for n in range(1, 7):
            points = integer_points_of_union(minkowski_diff(_cover_boxes(k, n)))
            oracle = cover_integer_diff_points_oracle(cover_cells(k, n))
            assert points == oracle, (k.boxes, n)
            assert discretization_exact(k, n) is (lhs == oracle)
            verdicts.add((n < n0, lhs == oracle))
    # Covers below n0 that gain vectors, and covers at or above n0 that match.
    assert {(True, False), (False, True)} <= verdicts


def test_cover_past_the_cell_limit_fails_before_listing_cells(monkeypatch):
    # 100,002^2 cells: refused from the box ranges alone.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^n=100000: .* 10000400004 cells, over the limit of 1000000$"):
            cover_cells(UNIT, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # The limit counts each box's range: the two unit boxes hold 2 * 6^2
    # cells at n = 4.
    monkeypatch.setattr(discretize, "COVER_CELLS_LIMIT", 72)
    assert len(cover_cells(TWO_BOXES, 4).cells) == 72
    with pytest.raises(ValueError, match=r"^n=5: the cover would take 98 cells, over the limit of 72$"):
        cover_cells(TWO_BOXES, 5)


def test_discretization_exact_point():
    assert discretization_exact(POINT, 6) is True


def test_reduce_to_transversal_prefers_lex_smallest_translate():
    cover = cover_cells(UNIT, 6)
    config = reduce_to_transversal(cover)
    for j in range(6):
        assert config.u(5, j)[0] == -1
        assert config.u(j, 5)[1] == -1
    assert config.u(0, 0) == (0, 0)


def test_reduce_identity_cover():
    for n in (1, 2, 4):
        cover = CellCover(n, frozenset((i, j) for i in range(n) for j in range(n)))
        assert reduce_to_transversal(cover) == TileConfig.uniform(n)


def test_reduce_missing_residue_errors():
    cover = CellCover(2, frozenset({(0, 1), (1, 0), (1, 1)}))
    with pytest.raises(ValueError, match=r"residue uncovered \(0,0\)"):
        reduce_to_transversal(cover)


def test_transversal_diffset_within_cover_diffset():
    for k in (UNIT, TWO_BOXES):
        n = epsilon_gap(k).n0
        cover = cover_cells(k, n)
        config = reduce_to_transversal(cover)
        cover_points = cover_integer_diff_points_oracle(cover)
        assert difference_set(config).vectors <= cover_points
