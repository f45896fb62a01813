"""Shared generators for randomized property tests (seeded, deterministic),
the brute-force offset rule, the from-scratch plain search, the line-by-line
config parser, and the subprocess runner for the command-line tests."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import tilediff
from tilediff import (
    Component,
    FileFormatError,
    SquareClasses,
    TileConfig,
    Vec,
    axes_subset,
    components_of_classes,
    difference_set,
)
from tilediff.search import _Partial, _record_witness, _swap_position, _value_range
from tilediff.torus import BLUE, RED, WHITE, EdgeColoring, EdgeLabeling
from tilediff.topology import Curve, Step


# The directory that holds the imported ``tilediff`` package (``src`` in a
# checkout, site-packages when installed). A child process started in a temp
# directory cannot resolve a relative PYTHONPATH such as ``src``, so the
# absolute root goes first.
PACKAGE_ROOT = Path(tilediff.__file__).resolve().parents[1]


def run_cli(args, cwd):
    """Run ``python -m tilediff.cli ARGS`` in ``cwd``, importing the same
    ``tilediff`` as the test process; output is captured as text."""
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE_ROOT), inherited])),
    }
    return subprocess.run(
        [sys.executable, "-m", "tilediff.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def admissible_offsets(d, n: int) -> list:
    """Brute-force oracle: integer offsets m with |d - m*n| <= 1 per
    coordinate, m in {-1,0,1}^2, in lexicographic order.

    d is the (i, j) index difference of two cells. Non-empty exactly when the
    cells touch on the n-torus (8-neighbourhood including self).
    """
    mxs = [m for m in (-1, 0, 1) if abs(d[0] - m * n) <= 1]
    mys = [m for m in (-1, 0, 1) if abs(d[1] - m * n) <= 1]
    return [(mx, my) for mx in mxs for my in mys]


def plain_scan_oracle(spec, difference_set=difference_set):
    """From-scratch oracle of the plain search engine: every assignment in
    `itertools.product` order, each one a `TileConfig` whose axes verdict
    comes from `axes_subset(difference_set(config))`. Under `symmetry` it
    keeps the assignments no greater than their x<->y swap, counting a
    valid one twice unless it is its own swap."""
    n = spec.n
    total_cells = n * n
    part = _Partial()
    for assignment in itertools.product(_value_range(spec.bound), repeat=total_cells - 1):
        translates = ((0, 0),) + assignment
        orbit = 1
        if spec.symmetry:
            swapped = tuple(
                (translates[_swap_position(k, n)][1], translates[_swap_position(k, n)][0])
                for k in range(total_cells)
            )
            if translates > swapped:
                continue
            orbit = 1 if translates == swapped else 2
        part.configs_enumerated += 1
        part.nodes_visited += 1
        config = TileConfig(n, translates)
        check = axes_subset(difference_set(config))
        if check.on_axes:
            part.valid_found += orbit
            part.valid_configs.append(config)
        else:
            _record_witness(part, check.witness, config if spec.witnesses else None)
    return part


def _content_lines(text: str):
    """Yield (line_no, stripped_line) skipping blanks and '#' comments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


_INT = re.compile(r"^[+-]?\d+$")
_CELL_LINE = re.compile(r"u\s+([+-]?\d+)\s+([+-]?\d+)\s+([+-]?\d+)\s+([+-]?\d+)")


def _parse_int(token: str, line_no: int) -> int:
    if not _INT.match(token):
        raise FileFormatError(line_no, f"expected integer, got {token!r}")
    return int(token)


def parse_config_oracle(text: str) -> TileConfig:
    """Line-by-line oracle of `parse_config`: one generator step, split,
    strip and regex match per line, checking each cell as it comes."""
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError(1, "empty config file")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FileFormatError(line_no, f"expected 'n <N>', got {header!r}")
    n = _parse_int(parts[1], line_no)
    if n < 1:
        raise FileFormatError(line_no, "non-positive n")
    seen: dict[tuple[int, int], Vec] = {}
    for line_no, line in lines[1:]:
        match = _CELL_LINE.fullmatch(line)
        if match is not None:
            i, j, ux, uy = map(int, match.groups())
        else:
            parts = line.split()
            if len(parts) != 5 or parts[0] != "u":
                raise FileFormatError(line_no, f"expected 'u <i> <j> <ux> <uy>', got {line!r}")
            i, j, ux, uy = (_parse_int(p, line_no) for p in parts[1:])
        if not (0 <= i < n and 0 <= j < n):
            raise FileFormatError(line_no, f"cell ({i},{j}) out of range for n={n}")
        if (i, j) in seen:
            raise FileFormatError(line_no, f"duplicate cell ({i},{j})")
        seen[(i, j)] = (ux, uy)
    if len(seen) != n * n:
        raise FileFormatError(lines[-1][0], f"expected {n * n} cells, got {len(seen)}")
    return TileConfig.from_map(n, seen)


def random_config(rng: random.Random, n: int, bound: int) -> TileConfig:
    translates = [(0, 0)] + [
        (rng.randint(-bound, bound), rng.randint(-bound, bound))
        for _ in range(n * n - 1)
    ]
    return TileConfig(n, tuple(translates))


def random_square_classes(rng: random.Random, n: int, colors=(RED, WHITE)) -> SquareClasses:
    return SquareClasses(
        n, tuple(tuple(rng.choice(colors) for _ in range(n)) for _ in range(n))
    )


def random_blob_component(rng: random.Random, n: int, size: int, mode: str = "corner") -> Component:
    """Grow a connected blob by repeatedly annexing a random neighbour."""
    from tilediff.topology import _neighbors

    start = (rng.randrange(n), rng.randrange(n))
    blob = {start}
    frontier = [start]
    while len(blob) < min(size, n * n) and frontier:
        sq = rng.choice(frontier)
        options = [nb for nb in _neighbors(sq, n, mode) if nb not in blob]
        if not options:
            frontier.remove(sq)
            continue
        nb = rng.choice(options)
        blob.add(nb)
        frontier.append(nb)
    return Component(n, RED, frozenset(blob), mode)


def uniform_coloring(n: int, h_color: str = WHITE, v_color: str = WHITE) -> EdgeColoring:
    return EdgeColoring(
        n,
        tuple((h_color,) * n for _ in range(n)),
        tuple((v_color,) * n for _ in range(n)),
    )


def band_coloring(n: int, rows, color: str = RED) -> EdgeColoring:
    """Horizontal band(s) of colored squares realized by coloring every
    vertical edge inside the band rows; legal for any row subset."""
    rows = set(rows)
    v = tuple(
        tuple(color if j in rows else WHITE for j in range(n)) for _ in range(n)
    )
    h = tuple((WHITE,) * n for _ in range(n))
    return EdgeColoring(n, h, v)


def column_band_coloring(n: int, cols, color: str = BLUE) -> EdgeColoring:
    cols = set(cols)
    h = tuple(
        tuple(color if i in cols else WHITE for j in range(n)) for i in range(n)
    )
    v = tuple((WHITE,) * n for _ in range(n))
    return EdgeColoring(n, h, v)


def block_coloring(n: int, corners, color: str = RED) -> EdgeColoring:
    """2x2 monochrome blocks (lower-left corners given) via their four
    internal edges; corners must be pairwise non-edge-adjacent."""
    h = [[WHITE] * n for _ in range(n)]
    v = [[WHITE] * n for _ in range(n)]
    for (a, b) in corners:
        v[(a + 1) % n][b] = color
        v[(a + 1) % n][(b + 1) % n] = color
        h[a][(b + 1) % n] = color
        h[(a + 1) % n][(b + 1) % n] = color
    return EdgeColoring(n, tuple(map(tuple, h)), tuple(map(tuple, v)))


def product_labeling(n: int, row_values, col_values) -> EdgeLabeling:
    """Cocycle with h-edge values depending only on the column index and
    v-edge values only on the row index; every square sum telescopes to zero."""
    h = tuple(tuple(row_values[i] for _j in range(n)) for i in range(n))
    v = tuple(tuple(col_values[j] for j in range(n)) for _i in range(n))
    return EdgeLabeling(n, h, v)


def random_closed_curve(rng: random.Random, n: int, length: int = 12) -> Curve:
    """Random walk closed up by walking right then up back to the start."""
    steps: list[Step] = []
    pos = (rng.randrange(n), rng.randrange(n))
    start = pos

    def move(direction: str):
        nonlocal pos
        i, j = pos
        if direction == "right":
            steps.append(Step("h", i, j, True))
            pos = ((i + 1) % n, j)
        elif direction == "left":
            steps.append(Step("h", (i - 1) % n, j, False))
            pos = ((i - 1) % n, j)
        elif direction == "up":
            steps.append(Step("v", i, j, True))
            pos = (i, (j + 1) % n)
        else:
            steps.append(Step("v", i, (j - 1) % n, False))
            pos = (i, (j - 1) % n)

    for _ in range(length):
        move(rng.choice(("right", "left", "up", "down")))
    for _ in range((start[0] - pos[0]) % n):
        move("right")
    for _ in range((start[1] - pos[1]) % n):
        move("up")
    return Curve(n, tuple(steps))


def all_components_of_random_grid(rng: random.Random, n: int, mode: str = "corner"):
    return components_of_classes(random_square_classes(rng, n), mode)
