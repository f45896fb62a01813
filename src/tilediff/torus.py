"""The n-torus square complex of a configuration: vertex labels, the edge
cocycle, and the red/blue/white edge coloring.

The unit square subdivided into n^2 squares, with opposite sides identified,
carries one integer-vector label per vertex (extended from the configuration's
translates) and one per directed edge (head label minus tail label). Edges are
directed rightward/upward; horizontal edge (i, j) leaves vertex (i, j)
rightward, vertical edge (i, j) leaves it upward, indices on the torus.

Colors: white for value zero, red for a nonzero value on the x-axis, blue for
a nonzero value on the y-axis. Synthetic colorings (not derived from any
configuration) are first-class and file-loadable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import FileFormatError, TileConfig, Vec, vsub, _parse_int, _read_header

WHITE = "white"
RED = "red"
BLUE = "blue"
COLORS = (WHITE, RED, BLUE)

Grid = tuple[tuple[Vec, ...], ...]


@dataclass(frozen=True)
class VertexLabeling:
    """(n+1) x (n+1) vertex labels; labels[i][j] is the label of vertex (i, j)."""

    n: int
    labels: Grid


@dataclass(frozen=True)
class EdgeLabeling:
    """Cocycle values on the 2n^2 torus edges, n x n arrays per direction."""

    n: int
    h: Grid
    v: Grid


@dataclass(frozen=True)
class EdgeColoring:
    """Per-edge color in {white, red, blue}, same indexing as EdgeLabeling."""

    n: int
    h: tuple[tuple[str, ...], ...]
    v: tuple[tuple[str, ...], ...]


def vertex_labels(config: TileConfig) -> VertexLabeling:
    """Extended vertex labels of a configuration.

    Vertex (i, j) of the (n+1) x (n+1) grid is cell c = (i mod n, j mod n)
    moved by e = (i div n, j div n), so it carries the lift
    U(c + n*e) = u(c) - e: the right seam column repeats column 0 shifted by
    (-1, 0), the top seam row repeats row 0 shifted by (0, -1), and the far
    corner is u(0, 0) - (1, 1). Any translates will do: a common shift of
    them moves every label and no edge value.
    """
    n = config.n
    return VertexLabeling(n, tuple(
        tuple(vsub(config.u(i % n, j % n), (i // n, j // n)) for j in range(n + 1))
        for i in range(n + 1)
    ))


def edge_labels(vl: VertexLabeling) -> EdgeLabeling:
    """Fold the vertex-difference labeling onto the torus.

    Verifies the seam identities first (edge values along the top row and
    right column duplicate row 0 / column 0); they hold automatically for
    labelings built by `vertex_labels` and guard hand-made inputs.
    """
    n, labels = vl.n, vl.labels
    for i in range(n):
        bottom = vsub(labels[i + 1][0], labels[i][0])
        top = vsub(labels[i + 1][n], labels[i][n])
        if bottom != top:
            raise ValueError(f"seam mismatch: horizontal edge {i}")
    for j in range(n):
        left = vsub(labels[0][j + 1], labels[0][j])
        right = vsub(labels[n][j + 1], labels[n][j])
        if left != right:
            raise ValueError(f"seam mismatch: vertical edge {j}")
    h = tuple(
        tuple(vsub(labels[i + 1][j], labels[i][j]) for j in range(n)) for i in range(n)
    )
    v = tuple(
        tuple(vsub(labels[i][j + 1], labels[i][j]) for j in range(n)) for i in range(n)
    )
    return EdgeLabeling(n, h, v)


def classify_value(value: Vec) -> Optional[str]:
    """Color of an edge value, or None when off both axes."""
    if value == (0, 0):
        return WHITE
    if value[1] == 0:
        return RED
    if value[0] == 0:
        return BLUE
    return None


def color_edges(el: EdgeLabeling) -> EdgeColoring:
    """Color every edge by its value. Raises ValueError, naming the first
    four "h (i, j): (x, y)" entries (horizontal edges first), when some
    value is off both axes and so has no color."""
    h = tuple(tuple(map(classify_value, row)) for row in el.h)
    v = tuple(tuple(map(classify_value, row)) for row in el.v)
    off = [
        f"{kind} {(i, j)}: {values[i][j]}"
        for kind, colors, values in (("h", h, el.h), ("v", v, el.v))
        for i, row in enumerate(colors)
        for j, color in enumerate(row)
        if color is None
    ]
    if off:
        raise ValueError(f"edge values off the axes: {'; '.join(off[:4])}")
    return EdgeColoring(el.n, h, v)


@dataclass(frozen=True)
class SquareClasses:
    """Per-square class in {red, blue, white}; classes[i][j] for square (i, j).

    A square is white only when all four of its edge slots are white, red when
    it mixes red and white edges, blue when blue and white.
    """

    n: int
    classes: tuple[tuple[str, ...], ...]


def square_colors(ec: EdgeColoring) -> SquareClasses:
    """Classify every square.

    Raises ValueError, naming the first four "(i, j): reason" violations,
    when some square breaks the local rules: a square with both red and
    blue edges, or with exactly one red edge, or exactly one blue edge
    (impossible for colorings derived from a cocycle, whose signed sums
    vanish on every square).
    """
    n, h, v = ec.n, ec.h, ec.v
    violations: list[str] = []
    classes: list[list[str]] = []
    for i in range(n):
        row = []
        for j in range(n):
            # Bottom, top, left, right; at n = 1 a direction's two are one edge.
            edges = (h[i][j], h[i][(j + 1) % n], v[i][j], v[(i + 1) % n][j])
            reds = edges.count(RED)
            blues = edges.count(BLUE)
            if reds and blues:
                violations.append(f"{(i, j)}: red and blue edges")
            if reds == 1:
                violations.append(f"{(i, j)}: exactly one red edge")
            if blues == 1:
                violations.append(f"{(i, j)}: exactly one blue edge")
            row.append(RED if reds else (BLUE if blues else WHITE))
        classes.append(tuple(row))
    if violations:
        raise ValueError(f"coloring invalid: {'; '.join(violations[:4])}")
    return SquareClasses(n, tuple(classes))


def parse_coloring(text: str) -> EdgeColoring:
    """Parse the coloring format: ``n <N>`` then one line per torus edge,
    ``h <i> <j> <color>`` or ``v <i> <j> <color>``, all 2n^2 present."""
    lines, n = _read_header(text, "coloring")
    seen: dict[tuple[str, int, int], str] = {}
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] not in ("h", "v"):
            raise FileFormatError(line_no, f"expected 'h|v <i> <j> <color>', got {line!r}")
        kind = parts[0]
        i, j = _parse_int(parts[1], line_no), _parse_int(parts[2], line_no)
        if not (0 <= i < n and 0 <= j < n):
            raise FileFormatError(line_no, f"edge ({i},{j}) out of range for n={n}")
        color = parts[3]
        if color not in COLORS:
            raise FileFormatError(line_no, f"unknown color {color!r}")
        if (kind, i, j) in seen:
            raise FileFormatError(line_no, f"duplicate edge {kind} ({i},{j})")
        seen[(kind, i, j)] = color
    if len(seen) != 2 * n * n:
        raise FileFormatError(lines[-1][0], f"expected {2 * n * n} edges, got {len(seen)}")
    h = tuple(tuple(seen[("h", i, j)] for j in range(n)) for i in range(n))
    v = tuple(tuple(seen[("v", i, j)] for j in range(n)) for i in range(n))
    return EdgeColoring(n, h, v)


def format_coloring(ec: EdgeColoring) -> str:
    out = [f"n {ec.n}"]
    for kind, grid in (("h", ec.h), ("v", ec.v)):
        for i in range(ec.n):
            for j in range(ec.n):
                out.append(f"{kind} {i} {j} {grid[i][j]}")
    return "\n".join(out) + "\n"
