"""``tilediff check``: difference set, axes and generation verdicts."""

from __future__ import annotations

from .. import diffset, model
from ..cli import _emit_json, _parse_file


def run(args) -> int:
    config = _parse_file(args.config, model.parse_config)
    ds = diffset.difference_set(config)
    check = diffset.axes_subset(ds)
    span = diffset.lattice_span(ds)
    audit = diffset.impossibility_audit(config, check)
    if args.json:
        _emit_json(
            {
                "command": "check",
                "n": config.n,
                "difference_set_size": len(ds),
                "difference_set": sorted(ds),
                "axes_subset": check.on_axes,
                "axes_witness": check.witness,
                "span_rank": span.rank,
                "span_index": span.index,
                "span_basis": span.basis,
                "generates_lattice": span.generates_full_lattice,
                "audit": audit._asdict(),
            }
        )
        return 0
    print(f"n: {config.n}")
    print(f"difference set: {len(ds)} vectors")
    if args.vectors:
        for (x, y) in sorted(ds):
            print(f"({x},{y})")
    if check.on_axes:
        print("axes subset: true")
    else:
        print(f"axes subset: false (witness {check.witness})")
    gen = "true" if span.generates_full_lattice else "false"
    index = "inf" if span.index is None else span.index
    print(f"generates Z^2: {gen} (rank {span.rank}, index {index})")
    print(f"audit stage: {audit.stage}")
    return 0
