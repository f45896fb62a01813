"""The argument reader of `cli.main` against the full argparse parser.

`main` reads a well-formed call from the argument table itself and hands
every other argv to `build_parser`. On argvs drawn from each subcommand's
flags, their abbreviations, ``--x=v`` forms, help, ``--``, numbers in
several spellings, bad choices and stray positionals, the reader's
namespace must be the one argparse gives, and `main` must print, raise and
return what the full parser does. The subcommands' handler modules are
replaced by one whose `run` returns its namespace, so no call reads a file
or searches.
"""

import contextlib
import io
import sys
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import tilediff.cli as cli  # noqa: E402

FLAGS = sorted({flag for command in cli.COMMANDS.values() for arg in command.args for flag in arg.flags})
ABBREVIATIONS = sorted(
    {flag[:k] for flag in FLAGS if flag.startswith("--") for k in range(3, len(flag))} - set(FLAGS)
)
NUMBERS = ["0", "1", "2", "7", "-1", "-3", "1_0", "-1.5", "1.5", " 2", "+2", "0x1", "9" * 4301]
VALUES = [*NUMBERS, "", "x", "nope", "plain", "pruned", "corner", "edge", "edges,colors"]
NOISE = st.one_of(
    st.sampled_from([*FLAGS, *ABBREVIATIONS, "-h", "--help", "--", "-", "-o5", "--bogus"]),
    st.sampled_from(VALUES),
    st.sampled_from(["a.txt", "b", "check", "search"]),
    st.builds("{}={}".format, st.sampled_from(FLAGS + ABBREVIATIONS), st.sampled_from(VALUES)),
)


def _value(arg):
    """Mostly a value the argument accepts, sometimes any value."""
    if arg.kind is int:
        valid = st.integers(-3, 12).map(str)
    elif isinstance(arg.kind, tuple):
        valid = st.sampled_from(arg.kind)
    else:
        valid = st.sampled_from(["a.txt", "out.svg", "edges", "-"])
    return st.one_of(valid, valid, st.sampled_from(VALUES))


@st.composite
def argvs(draw):
    """A subcommand (or none, or an unknown one), some of its arguments in
    any order, and a little noise."""
    name = draw(st.sampled_from([*cli.COMMANDS, "bogus", None]))
    if name is None:
        return draw(st.lists(NOISE, max_size=3))
    parts = []
    for arg in cli.COMMANDS.get(name, cli.COMMANDS["check"]).args:
        needed = arg.required or not arg.flags
        if not draw(st.integers(0, 4) if needed else st.booleans()):
            continue
        if not arg.flags:
            parts.append([draw(st.sampled_from(["a.txt", "-5", "-1.5", "b"]))])
            continue
        part = [draw(st.sampled_from(arg.flags))]
        if arg.kind is not cli.FLAG:
            part.append(draw(_value(arg)))
        if not draw(st.integers(0, 5)):  # the same option as one "--x=v" token
            part = [f"{part[0]}={part[-1] if len(part) > 1 else draw(st.sampled_from(VALUES))}"]
        parts.append(part)
    tokens = [token for part in draw(st.permutations(parts)) for token in part]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(NOISE))
    return [name, *tokens]


def _outcome(run, argv):
    """What ``run(argv)`` returns, or its exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = run(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_parser_dispatch(argv):
    return cli._dispatch(cli.build_parser().parse_args(argv))


@pytest.fixture
def echo_commands(monkeypatch):
    # Each subcommand's handler module returns the namespace it is given;
    # `main` finds these in sys.modules before it would import the real ones.
    monkeypatch.setenv("COLUMNS", "80")
    for name in cli.COMMANDS:
        monkeypatch.setitem(sys.modules, f"tilediff.commands.{name}", SimpleNamespace(run=vars))


@settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_reader_agrees_with_the_full_parser(argv, echo_commands):
    expected = _outcome(_full_parser_dispatch, argv)
    read = cli._read_argv(list(argv))
    if read is not None:
        assert expected == (vars(read), "", "")
    assert _outcome(cli.main, argv) == expected


def test_reader_takes_well_formed_calls_and_declines_the_rest(echo_commands):
    # The drawn argvs above must reach both sides of the reader.
    assert cli._read_argv(["search", "--bound", "-2", "--n", "1_0", "--engine", "plain"]) is not None
    for argv in (
        ["search", "--n=2", "--bound", "1"],
        ["search", "--n", "2", "--bou", "1"],
        ["search", "--n", "2", "--bound", "1", "--n", "2"],
        ["search", "--n", "2", "--bound", "-1.5"],
        ["search", "--n", "2"],
        ["search", "--", "--n", "2", "--bound", "1"],
        ["check", "-h", "a.txt"],
        ["check", "a.txt", "b"],
        ["analyze", "a.txt", "--mode", "nope"],
    ):
        assert cli._read_argv(argv) is None, argv


def test_each_command_indexes_its_arguments():
    # The index `_read_argv` reads is built once per command from its args:
    # each flag names its Arg, each option has its default (False for a
    # FLAG) in the order of the args, the positionals keep their order, and
    # exactly the required args are in the required set.
    for name, command in cli.COMMANDS.items():
        options = [arg for arg in command.args if arg.flags]
        assert len(command.options) == sum(len(arg.flags) for arg in options), name
        for arg in options:
            assert all(command.options[flag] is arg for flag in arg.flags), name
            default = command.defaults[arg.dest]
            assert (default is False) if arg.kind is cli.FLAG else (default == arg.default), name
        assert list(command.defaults) == [arg.dest for arg in options], name
        assert command.positionals == [arg.dest for arg in command.args if not arg.flags], name
        assert command.required == {arg.dest for arg in command.args if arg.required}, name


def test_reader_calls_never_share_or_change_the_defaults():
    defaults = dict(cli.COMMANDS["search"].defaults)
    plain = cli._read_argv(["search", "--n", "2", "--bound", "1", "--engine", "plain", "--symmetry", "--json"])
    pruned = cli._read_argv(["search", "--n", "3", "--bound", "2"])
    assert (plain.n, plain.engine, plain.symmetry, plain.json) == (2, "plain", True, True)
    assert (pruned.n, pruned.engine, pruned.symmetry, pruned.json) == (3, "pruned", False, False)
    plain.budget = 5
    assert pruned.budget == 2_000_000
    assert cli.COMMANDS["search"].defaults == defaults
    again = cli._read_argv(["search", "--n", "3", "--bound", "2"])
    assert vars(again) == vars(pruned)
