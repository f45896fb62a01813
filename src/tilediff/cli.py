"""Command-line front end: check, discretize, search, analyze, render.

Human-readable text by default; ``--json`` switches every subcommand to a
structured document with stable field names (sorted keys, no timing fields),
which repeated runs reproduce byte-identically.

Every subcommand's arguments are described once, in the COMMANDS table.
A well-formed call, with each option spelled exactly and every value valid,
is read from the table directly, without argparse. Any other call (help,
an abbreviation, ``--n=2``, a bad value, a missing or stray argument) goes
to the argparse parser built from the same table, which prints the help
or the usage error, so those read exactly as they always have. argparse is
imported only then.

The library is reached through its submodules' attributes at call time,
so a call runs only the submodules its subcommand uses.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import diffset, discretize, model, render, search, topology, torus


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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


FLAG = "flag"  # the kind of an option that takes no value: False unless given


class Arg:
    """One argument of a subcommand. `flags` holds the option spellings, or
    is empty for a positional. `kind` is FLAG, `int`, `str`, or the tuple of
    a choice's values. (A plain class: a named tuple class would add about
    0.15 ms to the import that every call pays.)"""

    __slots__ = ("flags", "dest", "kind", "default", "required", "help")

    def __init__(self, flags, dest, kind=str, default=None, required=False, help=None):
        self.flags, self.dest, self.kind = flags, dest, kind
        self.default, self.required, self.help = default, required, help


class Command:
    """One subcommand: its help line, the function it runs, its arguments."""

    __slots__ = ("help", "func", "args")

    def __init__(self, help, func, args):
        self.help, self.func, self.args = help, func, args


# The one description of every subcommand's arguments. `build_parser` builds
# the argparse parser from it, and `_read_argv` reads well-formed calls with
# it. The engine and layer names are written out, not read from `search` and
# `render`, so that the table loads neither; a test checks they agree.
COMMANDS = {
    "check": Command("difference set, axes and generation verdicts", cmd_check, (
        Arg((), "config", help="config file"),
        Arg(("--vectors",), "vectors", FLAG, help="list the difference set, one pair per line"),
        Arg(("--json",), "json", FLAG),
    )),
    "discretize": Command("gap, threshold resolution and covering", cmd_discretize, (
        Arg((), "boxes", help="box-union file"),
        Arg(("--n",), "n", int, help="resolution (default: n0)"),
        Arg(("--reduce",), "reduce", FLAG, help="emit the transversal config"),
        Arg(("--json",), "json", FLAG),
    )),
    "search": Command("bounded exhaustive search", cmd_search, (
        Arg(("--n",), "n", int, required=True),
        Arg(("--bound",), "bound", int, required=True),
        Arg(("--engine",), "engine", ("plain", "pruned"), "pruned"),
        Arg(("--budget",), "budget", int, 2_000_000, help="node budget"),
        Arg(("--witnesses",), "witnesses", FLAG, help="retain witness records"),
        Arg(("--jobs",), "jobs", int, 1),
        Arg(("--symmetry",), "symmetry", FLAG, help="quotient by the x<->y swap"),
        Arg(("--json",), "json", FLAG),
    )),
    "analyze": Command("component table or config audit", cmd_analyze, (
        Arg((), "file", help="coloring or config file"),
        Arg(("--mode",), "mode", ("corner", "edge"), "corner"),
        Arg(("--json",), "json", FLAG),
    )),
    "render": Command("render an SVG diagram", cmd_render, (
        Arg((), "file", help="coloring or config file"),
        Arg(("-o", "--out"), "out", required=True, help="output SVG path"),
        Arg(("--cell-px",), "cell_px", int, 24),
        Arg(("--show",), "show", str, "edges,colors",
            help="comma-separated layers from: edges,colors,components,labels"),
    )),
}


def build_parser():
    """The argparse parser of every subcommand, built from COMMANDS. It
    prints the help, and reads every call `_read_argv` declines, so usage
    errors and their exit codes are argparse's own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tilediff",
        description="Difference sets of grid-square tilings: exact checks, "
        "discretization, torus analysis, and bounded exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            if not arg.flags:
                p.add_argument(arg.dest, help=arg.help)
                continue
            if arg.kind is FLAG:
                options = {"action": "store_true"}
            elif isinstance(arg.kind, tuple):
                options = {"choices": arg.kind, "default": arg.default}
            else:
                options = {"type": arg.kind, "default": arg.default}
            p.add_argument(
                *arg.flags, dest=arg.dest, required=arg.required, help=arg.help, **options
            )
        p.set_defaults(func=command.func)
    return parser


def _is_value(token: str) -> bool:
    """Whether argparse reads `token` as an argument, not as an option: it
    does not start with '-', or it is a negative integer such as "-3"."""
    return not token.startswith("-") or token[1:].isdigit() and token.isascii()


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a well-formed call, or None.

    A well-formed call names a subcommand, then spells each option exactly
    and at most once, gives each a value that converts and is one of its
    choices, every required option, and as many other arguments as the
    subcommand has positionals. Anything else (help, "--", "--n=2", an
    abbreviation, a repeat, a bad value, a missing or stray argument) is
    left to `build_parser`."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {flag: arg for arg in command.args for flag in arg.flags}
    values = {arg.dest: False if arg.kind is FLAG else arg.default for arg in command.args if arg.flags}
    given, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        arg = options.get(token)
        if arg is None:
            if not _is_value(token):
                return None
            positionals.append(token)
            continue
        if arg.dest in given:
            return None
        given.add(arg.dest)
        if arg.kind is FLAG:
            values[arg.dest] = True
            continue
        value = next(tokens, None)
        if value is None or not _is_value(value):
            return None
        if arg.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif arg.kind is not str and value not in arg.kind:
            return None
        values[arg.dest] = value
    names = [arg.dest for arg in command.args if not arg.flags]
    required = {arg.dest for arg in command.args if arg.required}
    if len(positionals) != len(names) or not required <= given:
        return None
    values.update(zip(names, positionals))
    return SimpleNamespace(command=argv[0], func=command.func, **values)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. A well-formed call is
    read from COMMANDS directly; any other goes to the full parser, which
    prints help or reports the error under the usage line it always has."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
