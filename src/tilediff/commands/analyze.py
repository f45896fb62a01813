"""``tilediff analyze``: a coloring's component table, or a config's audit."""

from __future__ import annotations

from .. import diffset, model, topology
from ..cli import _emit_json, _parse_file
from . import _parse_source


def run(args) -> int:
    source = _parse_file(args.file, _parse_source)
    if isinstance(source, model.TileConfig):
        report = diffset.impossibility_audit(source)
        if args.json:
            _emit_json({"command": "analyze", "kind": "config", "audit": report._asdict()})
        else:
            print(f"audit stage: {report.stage}")
            print(f"witness: {report.witness}")
            print(f"detail: {report.detail}")
        return 0
    rows = []
    for idx, comp in enumerate(topology.components(source, args.mode)):
        curves = topology.boundary_curves(comp)
        image = topology.pi1_image(comp)
        rows.append(
            {
                "id": idx,
                "color": comp.color,
                "size": len(comp.squares),
                "squares": sorted(comp.squares),
                "boundary_curves": len(curves),
                "boundary_classes": [topology.homotopy_class(c) for c in curves],
                "pi1_rank": image.rank,
                "pi1_basis": image.basis,
                "pi1_index": image.index,
                "pieces": len(topology.interiors_decomposition(comp)),
            }
        )
    if args.json:
        _emit_json(
            {
                "command": "analyze",
                "kind": "coloring",
                "n": source.n,
                "mode": args.mode,
                "components": rows,
            }
        )
    else:
        print(f"n={source.n} mode={args.mode} components={len(rows)}")
        for row in rows:
            classes = " ".join(str(c) for c in row["boundary_classes"]) or "-"
            print(
                f"  [{row['id']}] {row['color']:5s} size={row['size']:3d} "
                f"pieces={row['pieces']} pi1_rank={row['pi1_rank']} "
                f"boundary_classes={classes}"
            )
    return 0
