"""``tilediff discretize``: gap, threshold resolution and covering."""

from __future__ import annotations

import sys

from .. import discretize, model
from ..cli import _emit_json, _parse_file


def run(args) -> int:
    boxes = _parse_file(args.boxes, model.parse_boxes)
    # An oversize cover is refused before the gap, the slow step, is found.
    discretize._check_cover_size(boxes, args.n)
    gap = discretize.epsilon_gap(boxes)
    n = args.n if args.n is not None else gap.n0
    cover = discretize.cover_cells(boxes, n)
    equal = discretize.discretization_exact(boxes, n)
    transversal = discretize.reduce_to_transversal(cover) if args.reduce else None
    if args.json:
        _emit_json(
            {
                "command": "discretize",
                "gap_squared": model._format_rational(gap.gap_squared),
                "n0": gap.n0,
                "n": n,
                "cell_count": len(cover.cells),
                "diff_sets_equal": equal,
                "transversal": None if transversal is None else model.format_config(transversal),
            }
        )
        return 0
    print(f"gap_squared: {model._format_rational(gap.gap_squared)}")
    print(f"n0: {gap.n0}")
    print(f"n: {n}")
    print(f"cells: {len(cover.cells)}")
    print(f"difference sets equal: {'true' if equal else 'false'}")
    if transversal is not None:
        sys.stdout.write(model.format_config(transversal))
    return 0
