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

Each subcommand's handler is `run(args)` in its own module,
`commands.<name>`, which `main` imports when it dispatches; so a call
compiles only its own handler. The handlers reach the library through its
submodules' attributes at call time, so a call runs only the submodules its
subcommand uses. The library reports bad input by raising ValueError, and
`_dispatch` alone turns that into the ``error: ...`` line and exit 1.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

_ENCODER = None


def _emit_json(doc: dict) -> None:
    # The first document imports `json`, so a text-mode call never does.
    # Every document is a fresh tree, so the encoder skips the cycle check.
    global _ENCODER
    if _ENCODER is None:
        import json

        _ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    sys.stdout.write(_ENCODER.encode(doc) + "\n")


def _parse_file(path: str, parse):
    """Read the file at `path` and parse its text with `parse`. An unreadable
    or malformed file exits with ``error: ...``, as does a file that is not
    UTF-8; so does a number past `int`'s digit limit, which the parsers
    raise as a plain ValueError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {path}: {exc}")


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
    """One subcommand: its help line and its arguments. Its handler is
    `run` in the module `commands.<name>`. The arguments are indexed once,
    for `_read_argv`: the options by flag, the options' defaults (False for
    a FLAG), the positionals' names in order, and the required dests."""

    __slots__ = ("help", "args", "options", "defaults", "positionals", "required")

    def __init__(self, help, args):
        self.help, self.args = help, args
        self.options = {flag: arg for arg in args for flag in arg.flags}
        self.defaults = {arg.dest: False if arg.kind is FLAG else arg.default for arg in args if arg.flags}
        self.positionals = [arg.dest for arg in args if not arg.flags]
        self.required = {arg.dest for arg in args if arg.required}


# The one description of every subcommand's arguments. `build_parser` builds
# the argparse parser from it, and `_read_argv` reads well-formed calls with
# it. The engine and layer names are written out, not read from `search` and
# `render`, so that the table loads neither; a test checks they agree.
COMMANDS = {
    "check": Command("difference set, axes and generation verdicts", (
        Arg((), "config", help="config file"),
        Arg(("--vectors",), "vectors", FLAG, help="list the difference set, one pair per line"),
        Arg(("--json",), "json", FLAG),
    )),
    "discretize": Command("gap, threshold resolution and covering", (
        Arg((), "boxes", help="box-union file"),
        Arg(("--n",), "n", int, help="resolution (default: n0)"),
        Arg(("--reduce",), "reduce", FLAG, help="emit the transversal config"),
        Arg(("--json",), "json", FLAG),
    )),
    "search": Command("bounded exhaustive search", (
        Arg(("--n",), "n", int, required=True),
        Arg(("--bound",), "bound", int, required=True),
        Arg(("--engine",), "engine", ("plain", "pruned"), "pruned"),
        Arg(("--budget",), "budget", int, 2_000_000, help="node budget"),
        Arg(("--witnesses",), "witnesses", FLAG, help="retain witness records"),
        Arg(("--jobs",), "jobs", int, 1),
        Arg(("--symmetry",), "symmetry", FLAG, help="quotient by the x<->y swap"),
        Arg(("--json",), "json", FLAG),
    )),
    "analyze": Command("component table or config audit", (
        Arg((), "file", help="coloring or config file"),
        Arg(("--mode",), "mode", ("corner", "edge"), "corner"),
        Arg(("--json",), "json", FLAG),
    )),
    "render": Command("render an SVG diagram", (
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
    options, values = command.options, command.defaults.copy()
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
    if len(positionals) != len(command.positionals) or not command.required <= given:
        return None
    values.update(zip(command.positionals, positionals))
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. A well-formed call is
    read from COMMANDS directly; any other goes to the full parser, which
    prints help or reports the error under the usage line it always has."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout's reader has gone: exit 1, quietly
        # Send the unwritten output to devnull, or the last flush raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args: SimpleNamespace) -> int:
    """Run the handler of `args.command` and return its exit code. A
    ValueError from the library, whatever its source, ends the call here
    with one ``error: ...`` line and exit 1."""
    # The handler module is imported on the first call that names it; a
    # repeated call finds it in sys.modules.
    name = f"{__package__}.commands.{args.command}"
    handler = sys.modules.get(name) or import_module(name)
    try:
        return handler.run(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
