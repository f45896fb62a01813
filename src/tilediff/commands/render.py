"""``tilediff render``: an SVG diagram of a coloring or a config."""

from __future__ import annotations

from pathlib import Path

from .. import render
from ..cli import _parse_file
from . import _parse_source


def run(args) -> int:
    source = _parse_file(args.file, _parse_source)
    spec = render.RenderSpec(cell_px=args.cell_px, show=frozenset(args.show.split(",")))
    svg = render.render_svg(source, spec)
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {args.out}: {exc.strerror}")
    print(f"wrote {args.out}")
    return 0
