"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import os
import random
import sys
from pathlib import Path

import pytest

import tilediff.cli as cli
import tilediff.commands as commands
from tilediff import TileConfig, format_coloring, format_config, search, torus
from tilediff.cli import build_parser, main
from tilediff.render import ALL_LAYERS, RenderSpec, render_svg
from conftest import (
    band_coloring,
    is_config_source_oracle,
    random_config,
    random_source_text,
    run_cli,
    uniform_coloring,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "single.txt").write_text(format_config(TileConfig.uniform(1)))
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    (tmp_path / "unit.boxes").write_text("box 0 0 1 1\n")
    (tmp_path / "band.coloring").write_text(format_coloring(band_coloring(3, rows=(1,))))
    (tmp_path / "white.coloring").write_text(format_coloring(uniform_coloring(2)))
    return tmp_path


def test_check_single_cell(workdir):
    result = run_cli(["check", "single.txt", "--json"], workdir)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["difference_set_size"] == 9
    assert doc["axes_subset"] is False
    assert doc["axes_witness"] == [-1, -1]
    assert doc["generates_lattice"] is True
    assert doc["audit"]["stage"] == "axes"


def test_check_zero_two_grid(workdir):
    result = run_cli(["check", "zero2.txt", "--json"], workdir)
    doc = json.loads(result.stdout)
    assert doc["difference_set_size"] == 9
    assert doc["generates_lattice"] is True


def test_check_vectors_listing(workdir):
    result = run_cli(["check", "single.txt", "--vectors"], workdir)
    lines = result.stdout.splitlines()
    pairs = [line for line in lines if line.startswith("(")]
    assert pairs == sorted(pairs)
    assert len(pairs) == 9
    assert pairs[0] == "(-1,-1)"
    doc = json.loads(run_cli(["check", "single.txt", "--json"], workdir).stdout)
    assert doc["difference_set"][0] == [-1, -1]
    assert len(doc["difference_set"]) == 9


def test_check_parse_error_reports_line(workdir):
    (workdir / "bad.txt").write_text("n 1\nu 0 0 x\n")
    result = run_cli(["check", "bad.txt"], workdir)
    assert result.returncode == 1
    assert "line 2" in result.stderr


def test_discretize_malformed_boxes_names_file_and_line(workdir):
    (workdir / "bad.boxes").write_text("box 0 0 1 1\nbox 0 0 1\n")
    result = run_cli(["discretize", "bad.boxes", "--json"], workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: bad.boxes: line 2: expected 'box <x0> <y0> <x1> <y1>', got 'box 0 0 1'\n"
    )


def test_analyze_malformed_coloring_names_file_and_line(workdir):
    (workdir / "bad.coloring").write_text("n 2\nh 0 0 green\n")
    result = run_cli(["analyze", "bad.coloring", "--json"], workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: bad.coloring: line 2: unknown color 'green'\n"


@pytest.mark.parametrize(
    "args",
    [["check", "long.txt"], ["analyze", "long.txt"], ["render", "long.txt", "-o", "long.svg"],
     ["discretize", "long.boxes"]],
    ids=lambda args: args[0],
)
def test_integer_past_the_digit_limit_exits_without_traceback(workdir, args):
    # 5,000 digits is past CPython's default limit of 4,300 for int(str).
    digits = "9" * 5000
    (workdir / "long.txt").write_text(f"n 1\nu 0 0 {digits} 0\n")
    (workdir / "long.boxes").write_text(f"box 0 0 {digits} 1\n")
    result = run_cli(args, workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: {args[1]}: ")


@pytest.mark.parametrize(
    "args",
    [["check", "wide.txt"], ["check", "wide.txt", "--json"], ["analyze", "wide.txt"],
     ["analyze", "wide.txt", "--json"]],
    ids=" ".join,
)
def test_difference_past_the_digit_limit_exits_without_traceback(workdir, args):
    # Each translate has 4,300 digits, within int's limit, but the
    # difference of the cells at +-(10^4300 - 1) has 4,301, so writing the
    # witness out raises ValueError inside the handler.
    far = "9" * 4300
    (workdir / "wide.txt").write_text(f"n 2\nu 0 0 0 0\nu 1 0 {far} 0\nu 0 1 -{far} 0\nu 1 1 0 0\n")
    result = run_cli(args, workdir)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [["check", "bad.txt"], ["analyze", "bad.txt"], ["render", "bad.txt", "-o", "bad.svg"],
     ["discretize", "bad.boxes"]],
    ids=lambda args: args[0],
)
def test_file_that_is_not_utf8_exits_without_traceback(workdir, args):
    (workdir / "bad.txt").write_bytes(b"n 1\nu 0 0 \xff 0\n")
    (workdir / "bad.boxes").write_bytes(b"box 0 0 \xff 1\n")
    result = run_cli(args, workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(
        f"error: cannot read {args[1]}: 'utf-8' codec can't decode byte 0xff in position ")


@pytest.mark.parametrize(
    "args",
    [["check", str(GOLDEN / "check" / "n19-random.txt"), "--vectors"],
     ["search", "--n", "2", "--bound", "3", "--json"]],
    ids=lambda args: args[0],
)
def test_a_closed_stdout_ends_the_call_quietly(tmp_path, args):
    # The read end is closed before the call starts, so its first write to
    # stdout, or the last flush, always fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_cli(args, tmp_path, module="tilediff", stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def test_python_m_tilediff_runs_the_cli(tmp_path):
    result = run_cli(["search", "--n", "2", "--bound", "3", "--json"], tmp_path, module="tilediff")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "search" / "pruned-n2-b3.json").read_text()


def test_source_kind_matches_line_by_line_oracle(monkeypatch):
    """`_parse_source` picks the config parser exactly when the old per-line
    tag scan finds a ``u`` tag, on 4,000 seeded texts."""
    monkeypatch.setattr(commands.model, "parse_config", lambda text: "config")
    monkeypatch.setattr(commands.torus, "parse_coloring", lambda text: "coloring")
    rng = random.Random(16)
    seen = {"config": 0, "coloring": 0}
    for _ in range(4000):
        text = random_source_text(rng)
        kind = commands._parse_source(text)
        assert kind == ("config" if is_config_source_oracle(text) else "coloring"), repr(text)
        seen[kind] += 1
    assert min(seen.values()) >= 1000, seen


def test_discretize_unit_square(workdir):
    result = run_cli(["discretize", "unit.boxes", "--json"], workdir)
    doc = json.loads(result.stdout)
    assert doc["n0"] == 6
    assert doc["gap_squared"] == "1"
    assert doc["cell_count"] == 64
    assert doc["diff_sets_equal"] is True


def test_discretize_reduce_emits_parseable_config(workdir):
    result = run_cli(["discretize", "unit.boxes", "--reduce", "--json"], workdir)
    doc = json.loads(result.stdout)
    from tilediff import parse_config

    config = parse_config(doc["transversal"])
    assert config.n == 6
    assert config.u(0, 0) == (0, 0)


def test_discretize_explicit_resolution(workdir):
    result = run_cli(["discretize", "unit.boxes", "--n", "2", "--json"], workdir)
    doc = json.loads(result.stdout)
    assert doc["n"] == 2
    assert doc["cell_count"] == 16
    assert doc["diff_sets_equal"] is False


def test_analyze_edge_mode(workdir):
    result = run_cli(["analyze", "band.coloring", "--mode", "edge", "--json"], workdir)
    assert result.returncode == 0
    assert json.loads(result.stdout)["mode"] == "edge"


def test_search_exit_status_and_counts(workdir):
    result = run_cli(
        ["search", "--n", "2", "--bound", "1", "--engine", "plain", "--json"], workdir
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["configs_enumerated"] == 729
    assert doc["valid_found"] == 0


def test_search_budget_error(workdir):
    result = run_cli(["search", "--n", "3", "--bound", "1", "--engine", "plain"], workdir)
    assert result.returncode == 1
    assert "budget exceeded" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "2", "--bound", "1", "--jobs", "0"], "budget and jobs must be positive"),
        (["--n", "2", "--bound", "1", "--budget", "0"], "budget and jobs must be positive"),
        (["--n", "2", "--bound", "-1"], "negative bound"),
        (["--n", "0", "--bound", "1"], "non-positive n"),
        # 4,000,000 cells at about 2.2 KB each: refused before any table.
        (
            ["--n", "2000", "--bound", "1", "--budget", "10"],
            "n=2000: the search tables would take 8392 MiB, over the 256 MiB limit",
        ),
    ],
)
def test_search_rejects_bad_spec_without_traceback(workdir, args, message):
    result = run_cli(["search", *args], workdir)
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["discretize", "unit.boxes", "--n", "0"], "non-positive n"),
        (["discretize", "unit.boxes", "--n", "-3"], "non-positive n"),
        (["discretize", "unit.boxes", "--n", "0", "--reduce"], "non-positive n"),
        (
            ["render", "single.txt", "-o", "missing/x.svg"],
            "cannot write missing/x.svg: No such file or directory",
        ),
        (["render", "single.txt", "-o", "."], "cannot write .: Is a directory"),
        # 100,002^2 cells of the unit square: refused before any is listed.
        (
            ["discretize", "unit.boxes", "--n", "100000"],
            "n=100000: the cover would take 10000400004 cells, over the limit of 1000000",
        ),
    ],
)
def test_bad_resolution_or_output_path_exits_without_traceback(workdir, args, message):
    result = run_cli(args, workdir)
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


def test_analyze_coloring_table(workdir):
    result = run_cli(["analyze", "band.coloring", "--mode", "corner", "--json"], workdir)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "coloring"
    colors = sorted((row["color"], row["size"]) for row in doc["components"])
    assert colors == [["red", 3], ["white", 6]] or colors == [("red", 3), ("white", 6)]


def test_analyze_config_audit(workdir):
    result = run_cli(["analyze", "single.txt", "--json"], workdir)
    doc = json.loads(result.stdout)
    assert doc["kind"] == "config"
    assert doc["audit"]["stage"] == "axes"
    assert doc["audit"]["witness"] == [-1, -1]


def test_render_single_cell(workdir):
    result = run_cli(["render", "single.txt", "-o", "out.svg"], workdir)
    assert result.returncode == 0
    svg = (workdir / "out.svg").read_text()
    assert svg.count('stroke="red"') == 2
    assert svg.count('stroke="blue"') == 2


def test_render_all_white(workdir):
    result = run_cli(["render", "white.coloring", "-o", "white.svg"], workdir)
    assert result.returncode == 0
    svg = (workdir / "white.svg").read_text()
    assert svg.count('stroke="white"') == 12  # 2*2*2 torus edges + 4 seam copies
    assert 'stroke="red"' not in svg


def test_render_cell_px_too_small(workdir):
    result = run_cli(["render", "single.txt", "-o", "x.svg", "--cell-px", "3"], workdir)
    assert result.returncode != 0
    assert "cell_px too small" in result.stderr


def test_render_unknown_layer_rejected(workdir):
    # A former layer name is rejected like any other.
    for layer in ("sparkles", "gains"):
        result = run_cli(["render", "single.txt", "-o", "x.svg", "--show", layer], workdir)
        assert result.returncode != 0, layer
        assert f"unknown render layers ['{layer}']" in result.stderr


def test_render_components_layer_deterministic(workdir):
    args = ["render", "band.coloring", "-o", "band.svg", "--show",
            "edges,colors,components"]
    assert run_cli(args, workdir).returncode == 0
    first = (workdir / "band.svg").read_bytes()
    assert run_cli(args, workdir).returncode == 0
    assert (workdir / "band.svg").read_bytes() == first


def test_render_in_process_is_byte_stable():
    spec = RenderSpec(cell_px=16, show=frozenset(("edges", "colors", "components")))
    ec = band_coloring(4, rows=(0, 1))
    assert render_svg(ec, spec) == render_svg(ec, spec)


def test_render_on_a_config_builds_no_coloring(monkeypatch):
    # No configuration keeps the square rules, so render reads a config's
    # colours from its cocycle values and shades no components.
    def refuse(*args, **kwargs):
        raise AssertionError("render built a coloring of a configuration")

    for name in ("color_edges", "square_colors"):
        original = getattr(torus, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("tilediff"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
    every = RenderSpec(show=frozenset(ALL_LAYERS))
    no_components = RenderSpec(show=frozenset(ALL_LAYERS) - {"components"})
    rng = random.Random(2323)
    for _ in range(200):
        config = random_config(rng, rng.randint(1, 4), rng.randint(0, 1))
        assert render_svg(config, every) == render_svg(config, no_components)


def test_json_outputs_byte_identical(workdir):
    for args in (
        ["check", "single.txt", "--json"],
        ["discretize", "unit.boxes", "--json"],
        ["search", "--n", "2", "--bound", "1", "--json"],
        ["analyze", "band.coloring", "--json"],
    ):
        first = run_cli(args, workdir)
        second = run_cli(args, workdir)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_main_entry_returns_exit_code(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    code = main(["check", "single.txt"])
    assert code == 0
    out = capsys.readouterr().out
    assert "difference set: 9 vectors" in out


def test_search_exit_two_dumps_config_when_a_valid_one_appears(
    workdir, capsys, monkeypatch
):
    # No valid configuration exists, so fabricate a report to pin the
    # contract: exit status 2 and the surviving config dumped to a file.
    import tilediff.search as search
    from tilediff.search import SearchReport, SearchSpec

    fake = SearchReport(
        spec=SearchSpec(n=1, bound=0),
        configs_enumerated=1,
        nodes_visited=1,
        valid_found=1,
        witness_counts=(),
        witness_records=(),
        valid_configs=(TileConfig.uniform(1),),
        wall_time=0.0,
    )
    monkeypatch.setattr(search, "run_search", lambda spec: fake)
    monkeypatch.chdir(workdir)
    code = main(["search", "--n", "1", "--bound", "0"])
    assert code == 2
    dumped = workdir / "valid-config-000.txt"
    assert dumped.exists()
    assert parse_config_text(dumped.read_text()) == TileConfig.uniform(1)


def parse_config_text(text):
    from tilediff import parse_config

    return parse_config(text)


def test_check_builds_the_difference_set_once(workdir, capsys, monkeypatch):
    import tilediff.diffset as diffset
    from tilediff.diffset import difference_set

    calls = []

    def counted(config):
        calls.append(config)
        return difference_set(config)

    monkeypatch.setattr(diffset, "difference_set", counted)
    assert main(["check", str(workdir / "zero2.txt"), "--json"]) == 0
    assert calls == [TileConfig.uniform(2)]
    assert json.loads(capsys.readouterr().out)["audit"]["stage"] == "axes"


def test_check_scans_the_set_for_off_axes_vectors_once(workdir, capsys, monkeypatch):
    import tilediff.diffset as diffset
    from tilediff.diffset import axes_subset

    calls = []

    def counted(ds):
        calls.append(ds)
        return axes_subset(ds)

    monkeypatch.setattr(diffset, "axes_subset", counted)
    assert main(["check", str(workdir / "zero2.txt"), "--json"]) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["audit"]["stage"] == "axes"
    assert doc["audit"]["witness"] == doc["axes_witness"] == [-1, -1]


def _outcome(run, argv, capsys):
    """Exit code, stdout and stderr of ``run(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _full_parser_dispatch(argv):
    return cli._dispatch(build_parser().parse_args(argv))


FRONT_END_ARGVS = [
    *([name, "--help"] for name in cli.COMMANDS),
    ["--help"],
    [],
    ["bogus"],
    ["check"],
    ["search", "--n", "2"],
    ["check", "x", "--bogus"],
    ["search", "--n", "2", "--bound", "1", "--engine", "nope"],
    ["check", "--", "single.txt"],
    ["check", "single.txt", "--json"],
    ["search", "--n", "0", "--bound", "1"],
]


@pytest.mark.parametrize("argv", FRONT_END_ARGVS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_matches_the_full_parser(argv, workdir, capsys, monkeypatch):
    # Help, usage errors and exit codes are those of the full parser.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(workdir)
    expected = _outcome(_full_parser_dispatch, argv, capsys)
    assert _outcome(main, argv, capsys) == expected


def test_the_argument_table_names_every_engine_and_layer():
    # The table spells the choices out so that reading it loads neither
    # `search` nor `render`.
    args = {(name, arg.dest): arg for name, command in cli.COMMANDS.items() for arg in command.args}
    assert args["search", "engine"].kind == (search.PLAIN, search.PRUNED)
    assert args["search", "engine"].default == search.SearchSpec(n=1, bound=0).engine
    assert args["render", "show"].help.endswith(f"from: {','.join(ALL_LAYERS)}")


# Calls in one process: a plain search with a small budget, then one that
# must get the default engine and budget back ((4,1) tries 12,911 nodes,
# past 5000), and a missing required argument between valid calls.
SEQUENCE_ARGVS = [
    ["search", "--n", "2", "--bound", "1", "--engine", "plain", "--budget", "5000", "--json"],
    ["search", "--n", "4", "--bound", "1", "--json"],
    ["search", "--n", "2"],
    ["search", "--n", "2", "--bound", "1", "--json"],
    ["check", "single.txt", "--vectors"],
    ["check", "single.txt"],
]


def test_calls_match_the_full_parser_call_after_call(workdir, capsys, monkeypatch):
    # One process, one argument table: no call sees what an earlier call
    # parsed, defaulted or failed on.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(workdir)
    for argv in [*FRONT_END_ARGVS, *SEQUENCE_ARGVS, *FRONT_END_ARGVS]:
        expected = _outcome(_full_parser_dispatch, argv, capsys)
        assert _outcome(main, argv, capsys) == expected, argv


def test_search_over_budget_says_how_far_it_got(workdir):
    # Cells are named row-major: the first free cell of the diagonal order
    # is (1,2), cell 5, and the tenth node places cell 1, (0,1).
    result = run_cli(["search", "--n", "3", "--bound", "1", "--budget", "10"], workdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "search stopped after 10 nodes, placing cell 1; "
        "cell 5 fully explored 1 of 5 values\n"
        "error: budget exceeded\n"
    )


def test_search_deeper_than_the_recursion_limit_stops_at_its_budget(workdir):
    # 1,599 free cells: the pruned walk would need a frame per depth.
    result = run_cli(["search", "--n", "40", "--bound", "1", "--budget", "2000"], workdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "search stopped after 2000 nodes, placing cell 1481; "
        "cell 79 fully explored 0 of 5 values\n"
        "error: budget exceeded\n"
    )


def test_plain_search_over_budget_says_how_many_leaves(workdir):
    result = run_cli(["search", "--n", "3", "--bound", "1", "--engine", "plain"], workdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "plain search would visit 43046721 leaves, over the budget of 2000000\n"
        "error: budget exceeded\n"
    )


def test_plain_search_over_budget_names_a_long_count_as_a_power(workdir):
    # 3^9246 has more digits than int's string conversion allows.
    result = run_cli(["search", "--n", "68", "--bound", "1", "--engine", "plain"], workdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "plain search would visit 3^9246 leaves, over the budget of 2000000\n"
        "error: budget exceeded\n"
    )


def test_search_with_oversize_tables_fails_fast(workdir):
    result = run_cli(["search", "--n", "3", "--bound", "400"], workdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: n=3 bound=400: the pruning tables would take 367 MiB, "
        "over the 256 MiB limit\n"
    )


def test_search_at_n2_takes_any_bound(workdir, capsys, monkeypatch):
    # The base cell wipes out the only other cell, so no mask is built:
    # (2,600) would need 413 MiB of them.
    monkeypatch.chdir(workdir)
    assert main(["search", "--n", "2", "--bound", "600", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["valid_found"], doc["nodes_visited"]) == (0, 0)


def test_unrecognized_arguments_get_the_top_level_usage(workdir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(main, ["check", "x", "--bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: tilediff [-h]")
    assert err.endswith("tilediff: error: unrecognized arguments: --bogus\n")


def test_valid_calls_never_build_the_full_parser(workdir, capsys, monkeypatch):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.chdir(workdir)
    assert main(["check", "single.txt", "--json"]) == 0
    assert main(["search", "--n", "2", "--bound", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["valid_found"] == 0


def test_main_reads_sys_argv_when_argv_is_none(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(sys, "argv", ["tilediff", "check", "single.txt", "--json"])
    assert main() == 0
    from_sys_argv = capsys.readouterr()
    assert main(["check", "single.txt", "--json"]) == 0
    assert capsys.readouterr() == from_sys_argv
    assert json.loads(from_sys_argv.out)["difference_set_size"] == 9
