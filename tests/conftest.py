"""Shared generators for randomized property tests (seeded, deterministic),
the brute-force offset and domain rules, the from-scratch plain and pruned
searches, the twisted lifts that give both engines valid configurations,
the line-by-line config parser, the per-cell scan of a cover's integer
difference points, the full-grid scan of a component's boundary, the
cocycle, curve-gain and pinch-graph helpers only the tests call, and the
subprocess runner for the command-line tests."""

from __future__ import annotations

import functools
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import tilediff
from tilediff import (
    CellCover,
    Component,
    DiffSet,
    FileFormatError,
    SquareClasses,
    TileConfig,
    Vec,
    axes_subset,
    components_of_classes,
    difference_set,
    interiors_decomposition,
)
from tilediff.lift import _forward_pairs
from tilediff.model import on_axes
from tilediff.search import (
    BudgetExceeded,
    SearchReport,
    _swap_position,
    _tables,
    _value_range,
)
from tilediff.torus import BLUE, RED, WHITE, EdgeColoring, EdgeLabeling
from tilediff.topology import Curve, Step


# The directory that holds the imported ``tilediff`` package (``src`` in a
# checkout, site-packages when installed). A child process started in a temp
# directory cannot resolve a relative PYTHONPATH such as ``src``, so the
# absolute root goes first.
PACKAGE_ROOT = Path(tilediff.__file__).resolve().parents[1]


def run_cli(args, cwd, module="tilediff.cli"):
    """Run ``python -m MODULE ARGS`` in ``cwd``, importing the same
    ``tilediff`` as the test process; output is captured as text."""
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE_ROOT), inherited])),
    }
    return subprocess.run(
        [sys.executable, "-m", module, *args],
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
    valid one twice unless it is its own swap. The report's wall_time is
    0.0."""
    n = spec.n
    total_cells = n * n
    leaves = valid = 0
    counts, records, valid_configs = {}, [], []
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
        leaves += 1
        config = TileConfig(n, translates)
        check = axes_subset(difference_set(config))
        if check.on_axes:
            valid += orbit
            valid_configs.append(config)
        else:
            counts[check.witness] = counts.get(check.witness, 0) + 1
            if spec.witnesses:
                records.append((config, check.witness))
    return SearchReport(spec, leaves, leaves, valid, tuple(sorted(counts.items())),
                        tuple(records), tuple(valid_configs), 0.0)


@functools.lru_cache(maxsize=None)
def _passing(n, k, f, bound):
    """The differences w = v - q of two translates in [-bound, bound]^2 for
    which v - q + m lies on the axes for every admissible offset m of the
    row-major cell pair (f, k), found by trying each w."""
    offsets = admissible_offsets((f // n - k // n, f % n - k % n), n)
    span = range(-2 * bound, 2 * bound + 1)
    return tuple((wx, wy) for wx in span for wy in span
                 if all(on_axes((wx + mx, wy + my)) for mx, my in offsets))


@functools.lru_cache(maxsize=None)
def _pair_mask(bound, n, k, value, f):
    """The mask of values of row-major cell f that keep every difference
    vector against cell k, holding `value`, on the axes."""
    index = {v: i for i, v in enumerate(_value_range(bound))}
    qx, qy = value
    mask = 0
    for wx, wy in _passing(n, k, f, bound):
        i = index.get((qx + wx, qy + wy))
        if i is not None:
            mask |= 1 << i
    return mask


def allowed_mask(bound, n, placed, f):
    """Brute force: the mask of values of row-major cell f that keep every
    difference vector against the placed cells {k: translate} on the axes."""
    mask = (1 << (2 * bound + 1) ** 2) - 1
    for k, value in placed.items():
        mask &= _pair_mask(bound, n, k, value, f)
    return mask


def pruned_scan_oracle(spec):
    """From-scratch oracle of the pruned engine at n >= 2: forward checking
    in the order of `_tables(n)`, with each domain narrowed by the brute-force
    `allowed_mask` of every placed cell and no closed-form mask.

    It walks recursively, trying each cell's values in `_value_range` order.
    Placing a cell narrows every later cell in order and cuts at the first
    that empties; the cut's witness excludes the lowest value (-bound,
    -bound) of that cell, from the first placed cell and admissible offset
    that put it off the axes. Under `symmetry` a subtree is dropped when the
    longest prefix of positions whose mirror positions are placed too
    compares greater than its x<->y swap. Past `budget` nodes it raises
    `BudgetExceeded` with the fields of the engine's progress line. The
    report's wall_time is 0.0."""
    n, bound = spec.n, spec.bound
    order = _tables(n).order
    last = n * n - 1
    values = _value_range(bound)
    swap = [order.index(_swap_position(c, n)) for c in order]
    assigned = [(0, 0)] * (last + 1)  # by position
    counts, records, valid_configs = {}, [], []
    nodes = valid = 0

    def narrow(domains, depth):
        for f in range(depth + 1, last + 1):
            domains[f] &= _pair_mask(bound, n, order[depth], assigned[depth], order[f])
            if not domains[f]:
                return f
        return -1

    def cut(depth, f):
        fi, fj = divmod(order[f], n)
        vectors = (
            (-bound - qx + mx, -bound - qy + my)
            for (qx, qy), c in zip(assigned[: depth + 1], order)
            for mx, my in admissible_offsets((fi - c // n, fj - c % n), n)
        )
        vector = next(w for w in vectors if not on_axes(w))
        cells = {order[k]: assigned[k] for k in range(depth + 1)}
        cells[order[f]] = (-bound, -bound)
        config = TileConfig(n, tuple(cells.get(c, (0, 0)) for c in range(last + 1)))
        counts[vector] = counts.get(vector, 0) + 1
        if spec.witnesses:
            records.append((config, vector))

    def swap_order(depth):
        known = next((p for p in range(last + 1) if p > depth or swap[p] > depth), last + 1)
        mine = assigned[:known]
        theirs = [(assigned[swap[p]][1], assigned[swap[p]][0]) for p in range(known)]
        return (mine > theirs) - (mine < theirs), known > last

    def visit(depth, domains, settled):
        nonlocal nodes, valid
        for i, value in enumerate(values):
            if not domains[depth] >> i & 1:
                continue
            nodes += 1
            assigned[depth] = value
            if nodes > spec.budget:
                raise BudgetExceeded(
                    spec.budget, order[depth], first=order[1], domain=root[1].bit_count(),
                    explored=sum(root[1] >> j & 1 for j in range(values.index(assigned[1]))))
            child = domains[:]
            wiped = narrow(child, depth)
            if wiped >= 0:
                cut(depth, wiped)
                continue
            orbit, below = 1 + spec.symmetry, settled
            if spec.symmetry and not settled:
                sign, whole = swap_order(depth)
                if sign > 0:
                    continue
                below = sign < 0
                if sign == 0 and whole:
                    orbit = 1
            if depth < last:
                visit(depth + 1, child, below)
                continue
            config = TileConfig(n, tuple(assigned[order.index(c)] for c in range(last + 1)))
            assert axes_subset(difference_set(config)).on_axes
            valid += orbit
            valid_configs.append(config)

    root = [(1 << len(values)) - 1] * (last + 1)
    root[0] = 1 << values.index((0, 0))
    wiped = narrow(root, 0)
    if wiped >= 0:
        cut(0, wiped)
    else:
        visit(1, root, False)
    return SearchReport(spec, len(valid_configs), nodes, valid, tuple(sorted(counts.items())),
                        tuple(records), tuple(valid_configs), 0.0)


def twisted_lift(a):
    """Test-side copies of the forward-pair table and of `difference_set`
    for the lift U(c + n*e) = u(c) - A*e: a pair's vector becomes
    u(k) - u(k2) + A*m. The paper's lift is A = I."""
    (a11, a12), (a21, a22) = a

    @functools.cache
    def pairs(n):
        return tuple((k, k2, a11 * mx + a12 * my, a21 * mx + a22 * my)
                     for k, k2, mx, my in _forward_pairs(n))

    def twisted_difference_set(config):
        t = config.translates
        forward = {(t[k][0] - t[k2][0] + ax, t[k][1] - t[k2][1] + ay)
                   for k, k2, ax, ay in pairs(config.n)}
        return DiffSet(forward.union([(0, 0)], [(-x, -y) for x, y in forward]))

    return pairs, twisted_difference_set


# Singular twists with valid configurations, and their counts at (2, 1) and
# (2, 2), found by brute force over every configuration.
TWISTS = {
    "zero": (((0, 0), (0, 0)), (53, 249)),
    "diag10": (((1, 0), (0, 0)), (27, 125)),
    "rank1": (((2, 0), (1, 0)), (1, 2)),
}


def cover_integer_diff_points_oracle(cover: CellCover) -> frozenset[Vec]:
    """Integer points of K_n - K_n for the cover's cell union.

    A candidate m is in the difference iff some pair of cells is within one
    step of m*n apart per coordinate; scanning cells against a hash set keeps
    this linear in the cover size per candidate.
    """
    n = cover.n
    cells = cover.cells
    if not cells:
        return frozenset()
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    span_x = max(xs) - min(xs) + 1
    span_y = max(ys) - min(ys) + 1
    mx_range = range(-((span_x + 1) // n + 1), (span_x + 1) // n + 2)
    my_range = range(-((span_y + 1) // n + 1), (span_y + 1) // n + 2)
    out: set[Vec] = set()
    for mx in mx_range:
        for my in my_range:
            found = False
            for (j1, j2) in cells:
                tx = j1 - mx * n
                ty = j2 - my * n
                for dx in (-1, 0, 1):
                    if found:
                        break
                    for dy in (-1, 0, 1):
                        if (tx + dx, ty + dy) in cells:
                            found = True
                            break
                if found:
                    break
            if found:
                out.add((mx, my))
    return frozenset(out)


def cocycle_defects(el: EdgeLabeling) -> list[tuple[int, int, Vec]]:
    """Squares whose signed edge sum is nonzero (always empty for labelings
    derived from a configuration)."""
    n, h, v = el.n, el.h, el.v
    bad = []
    for i in range(n):
        for j in range(n):
            bottom, top = h[i][j], h[i][(j + 1) % n]
            left, right = v[i][j], v[(i + 1) % n][j]
            s = (
                bottom[0] + right[0] - top[0] - left[0],
                bottom[1] + right[1] - top[1] - left[1],
            )
            if s != (0, 0):
                bad.append((i, j, s))
    return bad


def row_gain(el: EdgeLabeling, j: int = 0) -> Vec:
    gx = sum(el.h[i][j][0] for i in range(el.n))
    gy = sum(el.h[i][j][1] for i in range(el.n))
    return (gx, gy)


def column_gain(el: EdgeLabeling, i: int = 0) -> Vec:
    gx = sum(el.v[i][j][0] for j in range(el.n))
    gy = sum(el.v[i][j][1] for j in range(el.n))
    return (gx, gy)


def curve_gain(curve: Curve, el: EdgeLabeling) -> Vec:
    """Sum of cocycle values along the curve; backward steps count negated."""
    if curve.n != el.n:
        raise ValueError("curve and labeling live on different tori")
    gx = gy = 0
    for s in curve.steps:
        value = el.h[s.i][s.j] if s.kind == "h" else el.v[s.i][s.j]
        sign = 1 if s.forward else -1
        gx += sign * value[0]
        gy += sign * value[1]
    return (gx, gy)


def edge_values_subset(el: EdgeLabeling, d: DiffSet) -> bool:
    """Every cocycle value belongs to the difference set (membership claim
    for labelings built from a configuration)."""
    n = el.n
    return all(
        el.h[i][j] in d and el.v[i][j] in d for i in range(n) for j in range(n)
    )


def row_loop(n: int, j: int = 0) -> Curve:
    return Curve(n, tuple(Step("h", i, j % n, True) for i in range(n)))


def column_loop(n: int, i: int = 0) -> Curve:
    return Curve(n, tuple(Step("v", i % n, j, True) for j in range(n)))


def pinch_graph_is_forest(component: Component) -> bool:
    """Whether the component's pieces meet like an iterated wedge sum.

    Nodes are edge-connected pieces; each pinch vertex where two distinct
    pieces touch diagonally is an edge. The free-product (wedge) reading of
    the component requires this multigraph to be acyclic; wrapping pinch
    necklaces are exactly the components failing it.
    """
    pieces = interiors_decomposition(component)
    if len(pieces) <= 1:
        return True
    owner: dict[Vec, int] = {}
    for idx, piece in enumerate(pieces):
        for sq in piece.squares:
            owner[sq] = idx
    n = component.n
    inside = component.squares
    edges = 0
    for (i, j) in sorted(inside):
        # Diagonal pinch at vertex (i, j): this square meets (i-1, j-1) with
        # the antidiagonal pair absent; likewise the antidiagonal pinch at
        # vertex (i, j+1). Each pinch vertex is discovered exactly once.
        sw = ((i - 1) % n, (j - 1) % n)
        if (
            sw in inside
            and ((i - 1) % n, j) not in inside
            and (i, (j - 1) % n) not in inside
            and owner[sw] != owner[(i, j)]
        ):
            edges += 1
        nw = ((i - 1) % n, (j + 1) % n)
        if (
            nw in inside
            and ((i - 1) % n, j) not in inside
            and (i, (j + 1) % n) not in inside
            and owner[nw] != owner[(i, j)]
        ):
            edges += 1
    # The piece multigraph of a connected component is connected, so it is a
    # forest exactly when it is a tree.
    return edges == len(pieces) - 1


def boundary_steps_oracle(component: Component) -> list[Step]:
    """The component's boundary steps by a scan of all 2n^2 torus edges: an
    edge is a step when exactly one of its two squares is inside, oriented
    with that square on the left."""
    n = component.n
    inside = component.squares
    steps = []
    for i in range(n):
        for j in range(n):
            # Horizontal edge (i, j): square above is (i, j), below is (i, j-1).
            above = (i, j) in inside
            below = (i, (j - 1) % n) in inside
            if above != below:
                steps.append(Step("h", i, j, above))
            # Vertical edge (i, j): square right is (i, j), left is (i-1, j).
            right = (i, j) in inside
            left = ((i - 1) % n, j) in inside
            if right != left:
                steps.append(Step("v", i, j, left))
    return sorted(steps)


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


def is_config_source_oracle(text: str) -> bool:
    """Per-line oracle of the config-or-coloring choice in `commands._parse_source`:
    a text is a config when the first token of some line, before any '#',
    is ``u``."""
    tags = set()
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tags.add(stripped.split()[0])
    return "u" in tags


# Every line break of `str.splitlines`, and whitespace that is not one
# (`str.split` and `str.strip` drop it). The tags are near misses of ``u``;
# the zero-width space in one of them is not whitespace.
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = (" ", "\t", "\x1f", "\xa0", "\u1680", "\u2003", "\u200a", "\u202f", "\u205f", "\u3000")
_TAGS = ("u", "u", "u", "n", "h", "v", "uu", "U", "xu", "u0", "\u200bu", "\u00fc", "1", "-")


def random_source_text(rng: random.Random) -> str:
    """A text of up to 6 lines for the config-or-coloring choice: tags such as
    ``u``, ``uu`` and ``u#x``, leading and trailing Unicode whitespace,
    comments that may hold a ``u`` tag, blank lines and every line break."""
    lines = []
    for _ in range(rng.randrange(7)):
        pad = "".join(rng.choice(SPACES) for _ in range(rng.choice((0, 0, 1, 2))))
        shape = rng.randrange(6)
        if shape == 0:
            line = pad
        elif shape == 1:
            line = pad + "#" + rng.choice(("", " u", "u 0 0 1 1", "x"))
        else:
            line = pad + rng.choice(_TAGS)
            if rng.random() < 0.5:
                line += rng.choice(SPACES) + rng.choice(("0 0 1 1", "u", "red", "#"))
            if rng.random() < 0.3:
                line += rng.choice(("#", " #", "#u", "# u 0 0 1 1"))
        lines.append(line)
    breaks = [rng.choice(LINE_BREAKS) for _ in lines]
    if lines and rng.random() < 0.3:
        breaks[-1] = ""
    return "".join(map(str.__add__, lines, breaks))


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
