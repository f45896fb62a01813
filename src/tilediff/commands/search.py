"""``tilediff search``: bounded exhaustive search."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import model, search
from ..cli import _emit_json


def run(args) -> int:
    spec = search.SearchSpec(
        n=args.n,
        bound=args.bound,
        engine=args.engine,
        symmetry=args.symmetry,
        budget=args.budget,
        jobs=args.jobs,
        witnesses=args.witnesses,
    )
    try:
        report = search.run_search(spec)
    except search.BudgetExceeded as stop:
        print(stop.progress, file=sys.stderr)
        raise SystemExit(f"error: {stop}")
    dumped = []
    for k, config in enumerate(report.valid_configs):
        path = Path(f"valid-config-{k:03d}.txt")
        path.write_text(model.format_config(config), encoding="utf-8")
        dumped.append(str(path))
    if args.json:
        _emit_json(
            {
                "command": "search",
                "n": spec.n,
                "bound": spec.bound,
                "engine": spec.engine,
                "symmetry": spec.symmetry,
                "configs_enumerated": report.configs_enumerated,
                "nodes_visited": report.nodes_visited,
                "valid_found": report.valid_found,
                "witness_counts": report.witness_counts,
                "valid_config_files": dumped,
            }
        )
    else:
        print(f"search n={spec.n} bound={spec.bound} engine={spec.engine}")
        if report.valid_found == 0:
            print(f"guarantee: no valid configuration with max-norm <= {spec.bound}")
        else:
            print("VALID CONFIGURATION FOUND")
        print(f"configs enumerated: {report.configs_enumerated}")
        print(f"nodes visited: {report.nodes_visited}")
        print(f"valid found: {report.valid_found}")
        top = sorted(report.witness_counts, key=lambda vc: (-vc[1], vc[0]))[:5]
        for vec, count in top:
            print(f"witness {vec}: {count}")
        for path in dumped:
            print(f"dumped {path}")
        print(f"wall time: {report.wall_time:.3f}s")
    return 0 if report.valid_found == 0 else 2
