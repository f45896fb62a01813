"""Command-line front end: check, discretize, search, analyze, render.

Human-readable text by default; ``--json`` switches every subcommand to a
structured document with stable field names (sorted keys, no timing fields),
which repeated runs reproduce byte-identically.

A call parses with the argument parser of the subcommand it names alone,
built on the first call in the process and reused after that. The full
parser, with every subcommand, is built afresh only to print the top-level
help or a usage error, so those read exactly as they always have.

The library is reached through its submodules' attributes at call time,
so a call runs only the submodules its subcommand uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import diffset, discretize, model, render, search, topology, torus


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _audit_doc(report: diffset.AuditReport) -> dict:
    # Every audit stops at the axes stage; the fields a later stage would
    # fill stay in the document as nulls.
    return {
        "stage": report.stage,
        "witness": report.witness,
        "witness_pairs": report.witness_pairs,
        "component_id": None,
        "curve": None,
        "gain": None,
        "class": None,
        "detail": report.detail,
    }


def _parse_file(path: str, parse):
    """Read the file at `path` and parse its text with `parse`. An unreadable
    or malformed file exits with ``error: ...``; so does a number past
    `int`'s digit limit, which the parsers raise as a plain ValueError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    try:
        return parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {path}: {exc}")


# A line whose first token before any '#' is ``u``, over the text's lines
# rejoined with "\n" so that every `str.splitlines` break ends a line.
# Compiled on the first call by `re`'s cache, so `check` and `search` never
# pay for it.
_CONFIG_LINE = r"^[^\S\n]*u(?![^\s#])"


def _parse_source(text: str) -> model.TileConfig | torus.EdgeColoring:
    """Parse a config (text with a ``u`` line) or else a coloring."""
    if re.search(_CONFIG_LINE, "\n".join(text.splitlines()), re.M):
        return model.parse_config(text)
    return torus.parse_coloring(text)


def cmd_check(args) -> int:
    config = _parse_file(args.config, model.parse_config)
    problems = model.validate(config)
    ds = diffset.difference_set(config)
    check = diffset.axes_subset(ds)
    span = diffset.lattice_span(ds)
    audit = diffset.impossibility_audit(config, check)
    if args.json:
        _emit_json(
            {
                "command": "check",
                "n": config.n,
                "violations": problems,
                "difference_set_size": len(ds),
                "difference_set": ds.sorted_vectors(),
                "axes_subset": check.on_axes,
                "axes_witness": check.witness,
                "span_rank": span.rank,
                "span_index": span.index,
                "span_basis": span.basis,
                "generates_lattice": span.generates_full_lattice,
                "audit": _audit_doc(audit),
            }
        )
        return 0
    print(f"n: {config.n}")
    print(f"difference set: {len(ds)} vectors")
    if args.vectors:
        for (x, y) in ds.sorted_vectors():
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


def cmd_discretize(args) -> int:
    boxes = _parse_file(args.boxes, model.parse_boxes)
    gap = discretize.epsilon_gap(boxes)
    n = args.n if args.n is not None else gap.n0
    try:
        cover = discretize.cover_cells(boxes, n)
        equal = discretize.discretization_exact(boxes, n)
        transversal = discretize.reduce_to_transversal(cover) if args.reduce else None
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        _emit_json(
            {
                "command": "discretize",
                "gap_squared": _frac(gap.gap_squared),
                "n0": gap.n0,
                "n": n,
                "cell_count": len(cover.cells),
                "diff_sets_equal": equal,
                "transversal": None if transversal is None else model.format_config(transversal),
            }
        )
        return 0
    print(f"gap_squared: {_frac(gap.gap_squared)}")
    print(f"n0: {gap.n0}")
    print(f"n: {n}")
    print(f"cells: {len(cover.cells)}")
    print(f"difference sets equal: {'true' if equal else 'false'}")
    if transversal is not None:
        sys.stdout.write(model.format_config(transversal))
    return 0


def cmd_search(args) -> int:
    try:
        spec = search.SearchSpec(
            n=args.n,
            bound=args.bound,
            engine=args.engine,
            symmetry=args.symmetry,
            budget=args.budget,
            jobs=args.jobs,
            witnesses=args.witnesses,
        )
        report = search.run_search(spec)
    except search.BudgetExceeded as stop:
        print(stop.progress, file=sys.stderr)
        raise SystemExit(f"error: {stop}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
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


def cmd_analyze(args) -> int:
    source = _parse_file(args.file, _parse_source)
    if isinstance(source, model.TileConfig):
        report = diffset.impossibility_audit(source)
        if args.json:
            _emit_json({"command": "analyze", "kind": "config", "audit": _audit_doc(report)})
        else:
            print(f"audit stage: {report.stage}")
            print("passed: (none)")
            print(f"witness: {report.witness}")
            print(f"detail: {report.detail}")
        return 0
    try:
        comps = topology.components(source, args.mode)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    rows = []
    for idx, comp in enumerate(comps):
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


def cmd_render(args) -> int:
    source = _parse_file(args.file, _parse_source)
    try:
        spec = render.RenderSpec(cell_px=args.cell_px, show=frozenset(args.show.split(",")))
        svg = render.render_svg(source, spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {args.out}: {exc.strerror}")
    print(f"wrote {args.out}")
    return 0


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="config file")
    p.add_argument("--vectors", action="store_true", help="list the difference set, one pair per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)


def _discretize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("boxes", help="box-union file")
    p.add_argument("--n", type=int, default=None, help="resolution (default: n0)")
    p.add_argument("--reduce", action="store_true", help="emit the transversal config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_discretize)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--engine", choices=[search.PLAIN, search.PRUNED], default=search.PRUNED)
    p.add_argument("--budget", type=int, default=2_000_000, help="node budget")
    p.add_argument("--witnesses", action="store_true", help="retain witness records")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--symmetry", action="store_true", help="quotient by the x<->y swap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="coloring or config file")
    p.add_argument("--mode", choices=["corner", "edge"], default="corner")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="coloring or config file")
    p.add_argument("-o", "--out", required=True, help="output SVG path")
    p.add_argument("--cell-px", type=int, default=24, dest="cell_px")
    p.add_argument(
        "--show",
        default="edges,colors",
        help=f"comma-separated layers from: {','.join(render.ALL_LAYERS)}",
    )
    p.set_defaults(func=cmd_render)


# Subcommand name -> (help text, function adding its arguments). Both the
# full parser and the one-subcommand parser of `main` read this table.
COMMANDS = {
    "check": ("difference set, axes and generation verdicts", _check_arguments),
    "discretize": ("gap, threshold resolution and covering", _discretize_arguments),
    "search": ("bounded exhaustive search", _search_arguments),
    "analyze": ("component table or config audit", _analyze_arguments),
    "render": ("render an SVG diagram", _render_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilediff",
        description="Difference sets of grid-square tilings: exact checks, "
        "discretization, torus analysis, and bounded exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone. Parsing gives each call a
    fresh namespace and leaves the parser as it was, so one per process
    serves every call; help is formatted when printed, reading COLUMNS."""
    parser = argparse.ArgumentParser(prog=f"tilediff {name}")
    COMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. An argv that does not
    start with a subcommand, or leaves arguments unrecognized, goes to the
    full parser, which reports it under the top-level usage line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args.func(args)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
