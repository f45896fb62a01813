"""Deterministic SVG rendering of configurations and colorings.

Output is byte-identical for identical inputs: integer pixel coordinates
only, fixed element order, no timestamps. The torus is drawn unfolded as an
(n+1) x (n+1) grid of vertices; edges identified across a seam are stroked
once on each side of it.

Each source is drawn from what it holds. A configuration's edges are its
cocycle values, coloured by `classify_value` (gray off both axes) and
labelled. A coloring's edges take its own colours, and only a coloring has
components: no configuration keeps the square rules, since each has an
off-axes difference vector, so none has a component structure to shade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .model import TileConfig, normalize
from .torus import (
    BLUE,
    RED,
    WHITE,
    EdgeColoring,
    classify_value,
    edge_labels,
    vertex_labels,
)
from .topology import components

ALL_LAYERS = ("edges", "colors", "components", "labels")

_STROKES = {WHITE: "white", RED: "red", BLUE: "blue", None: "gray"}
_TINTS = {
    RED: ("#ffd9d9", "#ffc0c0", "#ffa8a8"),
    BLUE: ("#d9d9ff", "#c0c0ff", "#a8a8ff"),
    WHITE: ("#ffffff", "#f0f0f0", "#e4e4e4"),
}


@dataclass(frozen=True)
class RenderSpec:
    cell_px: int = 24
    show: frozenset = field(default_factory=lambda: frozenset(("edges", "colors")))

    def __post_init__(self):
        if self.cell_px < 4:
            raise ValueError("cell_px too small")
        unknown = set(self.show) - set(ALL_LAYERS)
        if unknown:
            raise ValueError(f"unknown render layers {sorted(unknown)}")


def render_svg(source: Union[TileConfig, EdgeColoring], spec: RenderSpec) -> str:
    """Render a configuration (cocycle values, coloured and labelled) or a
    bare coloring (its own colours and its corner components)."""
    labeling = None
    comps = []  # shaded by the components layer
    if isinstance(source, TileConfig):
        labeling = edge_labels(vertex_labels(normalize(source)))
        n = labeling.n
        h = [[classify_value(value) for value in row] for row in labeling.h]
        v = [[classify_value(value) for value in row] for row in labeling.v]
    else:
        n, h, v = source.n, source.h, source.v
        if "components" in spec.show:
            try:
                comps = components(source, "corner")
            except ValueError:
                pass  # a coloring that breaks the square rules has none

    px = spec.cell_px
    margin = px
    size = 2 * margin + n * px

    def vx(i: int) -> int:
        return margin + i * px

    def vy(j: int) -> int:
        return margin + (n - j) * px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#f4f4f4"/>',
    ]

    shade_index = {RED: 0, BLUE: 0, WHITE: 0}
    for comp in comps:
        palette = _TINTS[comp.color]
        fill = palette[shade_index[comp.color] % len(palette)]
        shade_index[comp.color] += 1
        for (i, j) in sorted(comp.squares):
            parts.append(
                f'<rect x="{vx(i)}" y="{vy(j + 1)}" width="{px}" height="{px}" '
                f'fill="{fill}"/>'
            )

    stroke_w = max(1, px // 8)
    if "edges" in spec.show:
        use_colors = "colors" in spec.show
        # Horizontal edges: torus rows 0..n-1 plus the seam copy of row 0.
        for i in range(n):
            for j in range(n + 1):
                stroke = _STROKES[h[i][j % n]] if use_colors else "black"
                parts.append(
                    f'<line x1="{vx(i)}" y1="{vy(j)}" x2="{vx(i + 1)}" y2="{vy(j)}" '
                    f'stroke="{stroke}" stroke-width="{stroke_w}"/>'
                )
        for i in range(n + 1):
            for j in range(n):
                stroke = _STROKES[v[i % n][j]] if use_colors else "black"
                parts.append(
                    f'<line x1="{vx(i)}" y1="{vy(j)}" x2="{vx(i)}" y2="{vy(j + 1)}" '
                    f'stroke="{stroke}" stroke-width="{stroke_w}"/>'
                )

    font = max(6, px // 4)
    if "labels" in spec.show and labeling is not None:
        for i in range(n):
            for j in range(n):
                hx, hy = labeling.h[i][j]
                parts.append(
                    f'<text x="{vx(i) + px // 2}" y="{vy(j) - 2}" font-size="{font}" '
                    f'text-anchor="middle" fill="#333333">{hx},{hy}</text>'
                )
                wx, wy = labeling.v[i][j]
                parts.append(
                    f'<text x="{vx(i) + 2}" y="{vy(j) - px // 2}" font-size="{font}" '
                    f'fill="#333333">{wx},{wy}</text>'
                )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
