"""Golden outputs: ``--json`` stdout of fixed inputs, byte for byte.

Each ``tests/golden/check/NAME.txt`` holds a config and ``NAME.json`` the
stdout of ``tilediff check NAME.txt --json``. The corpus covers n = 1, 2, 3,
8 and 19, axes witnesses with one, two and three witness pairs, and a config
whose base cell is not at the origin.

``tests/golden/analyze/NAME.json`` is the stdout of ``tilediff analyze
NAME.txt --json`` for the same configs: the audit that builds its own
difference set. The text outputs are frozen too: ``check/NAME.out`` is the
stdout of ``tilediff check NAME.txt --vectors`` and ``analyze/NAME.out``
that of ``tilediff analyze NAME.txt``.
``tests/golden/search/ENGINE-nN-bB[-symmetry].json`` is the stdout of
``tilediff search --engine ENGINE --n N --bound B [--symmetry] --json``;
the plain engine tallies one witness per leaf it enumerates.

``tests/golden/discretize/NAME.boxes`` holds a box union, ``NAME.json`` the
stdout of ``tilediff discretize NAME.boxes --json`` and ``NAME.reduce.json``
that of the same call with ``--reduce``. A name ending in ``-nN`` adds
``--n N``. ``tests/golden/coloring/NAME.coloring`` holds an edge coloring and
``NAME.MODE.json`` the stdout of ``tilediff analyze NAME.coloring --mode MODE
--json``. ``tests/golden/render/NAME.svg`` is the file written by ``tilediff
render SOURCE -o NAME.svg --show`` every layer, where SOURCE is
``check/NAME.txt`` or ``coloring/NAME.coloring``. ``tests/golden/help/NAME.txt``
is the stdout of ``tilediff NAME --help`` at ``COLUMNS=80``, and
``tilediff.txt`` that of ``tilediff --help``.

Regenerate a file only for an intended change of the output.
"""

import sys
from pathlib import Path

import pytest

from tilediff.cli import COMMANDS, main
from tilediff.render import ALL_LAYERS

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted((GOLDEN / "check").glob("*.txt"))
ANALYZE = sorted((GOLDEN / "analyze").glob("*.json"))
CHECK_TEXT = sorted((GOLDEN / "check").glob("*.out"))
ANALYZE_TEXT = sorted((GOLDEN / "analyze").glob("*.out"))
SEARCHES = sorted((GOLDEN / "search").glob("*.json"))
BOXES = sorted((GOLDEN / "discretize").glob("*.boxes"))
COLORINGS = sorted((GOLDEN / "coloring").glob("*.coloring"))
RENDERS = sorted((GOLDEN / "render").glob("*.svg"))
HELP = sorted((GOLDEN / "help").glob("*.txt"))


def search_argv(name: str) -> list[str]:
    """The ``search`` arguments a golden's file name stands for."""
    engine, n, bound, *symmetry = name.split("-")
    argv = ["search", "--engine", engine, "--n", n[1:], "--bound", bound[1:], "--json"]
    return argv + ["--symmetry"] * len(symmetry)


def discretize_argv(boxes: Path) -> list[str]:
    """The ``discretize`` arguments of a box golden: ``--n N`` for a name
    ending in ``-nN``."""
    head, _, tail = boxes.stem.rpartition("-n")
    resolution = ["--n", tail] if head and tail.isdigit() else []
    return ["discretize", str(boxes), *resolution, "--json"]


def render_source(golden: Path) -> Path:
    """The config or coloring a render golden draws."""
    config = GOLDEN / "check" / f"{golden.stem}.txt"
    return config if config.exists() else GOLDEN / "coloring" / f"{golden.stem}.coloring"


def test_golden_check_corpus_is_present():
    assert len(CONFIGS) == 8


def test_golden_analyze_and_search_corpora_are_present():
    assert [p.stem for p in ANALYZE] == [p.stem for p in CONFIGS]
    assert [p.stem for p in SEARCHES] == [
        "plain-n1-b3",
        "plain-n2-b1-symmetry",
        "plain-n2-b1",
        "plain-n2-b2-symmetry",
        "plain-n2-b2",
        "pruned-n2-b3",
        "pruned-n3-b2-symmetry",
        "pruned-n3-b2",
        "pruned-n4-b2",
    ]


def test_golden_text_corpora_are_present():
    assert len(CHECK_TEXT) == len(ANALYZE_TEXT) == 8
    assert [p.stem for p in HELP] == [*sorted(COMMANDS), "tilediff"]
    assert [p.stem for p in CHECK_TEXT] == [p.stem for p in CONFIGS]
    assert [p.stem for p in ANALYZE_TEXT] == [p.stem for p in CONFIGS]


def test_golden_discretize_coloring_and_render_corpora_are_present():
    assert [p.stem for p in BOXES] == ["brick", "ell-n4", "thirds-l", "unit", "wide"]
    assert [p.stem for p in COLORINGS] == ["band3", "blocks5", "columns4"]
    assert [p.stem for p in RENDERS] == ["blocks5", "n3-two-pairs"]
    for boxes in BOXES:
        assert boxes.with_suffix(".json").exists()
        assert boxes.with_suffix(".reduce.json").exists()
    for coloring in COLORINGS:
        for mode in ("corner", "edge"):
            assert coloring.with_suffix(f".{mode}.json").exists()
    assert all(render_source(svg).exists() for svg in RENDERS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_json_matches_golden(config, capsys):
    assert main(["check", str(config), "--json"]) == 0
    assert capsys.readouterr().out.encode() == config.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_analyze_json_matches_golden(config, capsys):
    assert main(["analyze", str(config), "--json"]) == 0
    golden = GOLDEN / "analyze" / f"{config.stem}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_text_matches_golden(config, capsys):
    assert main(["check", str(config), "--vectors"]) == 0
    assert capsys.readouterr().out.encode() == config.with_suffix(".out").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_analyze_text_matches_golden(config, capsys):
    assert main(["analyze", str(config)]) == 0
    golden = GOLDEN / "analyze" / f"{config.stem}.out"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("golden", SEARCHES, ids=lambda path: path.stem)
def test_search_json_matches_golden(golden, capsys, tmp_path, monkeypatch):
    # A search that found a valid config would write files into the cwd.
    monkeypatch.chdir(tmp_path)
    assert main(search_argv(golden.stem)) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("boxes", BOXES, ids=lambda path: path.stem)
@pytest.mark.parametrize("reduce", [False, True], ids=["plain", "reduce"])
def test_discretize_json_matches_golden(boxes, reduce, capsys):
    argv = discretize_argv(boxes) + ["--reduce"] * reduce
    assert main(argv) == 0
    golden = boxes.with_suffix(".reduce.json" if reduce else ".json")
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("coloring", COLORINGS, ids=lambda path: path.stem)
@pytest.mark.parametrize("mode", ["corner", "edge"])
def test_analyze_coloring_json_matches_golden(coloring, mode, capsys):
    assert main(["analyze", str(coloring), "--mode", mode, "--json"]) == 0
    golden = coloring.with_suffix(f".{mode}.json")
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("golden", RENDERS, ids=lambda path: path.stem)
def test_render_svg_matches_golden(golden, tmp_path, capsys):
    out = tmp_path / golden.name
    argv = ["render", str(render_source(golden)), "-o", str(out), "--show", ",".join(ALL_LAYERS)]
    assert main(argv) == 0
    assert out.read_bytes() == golden.read_bytes()


# argparse words and lays out help differently before 3.11 ("optional
# arguments:") and from 3.13 ("-o, --out OUT"); the goldens are 3.11's.
@pytest.mark.skipif(
    not (3, 11) <= sys.version_info[:2] <= (3, 12), reason="argparse help layout of 3.11 and 3.12"
)
@pytest.mark.parametrize("golden", HELP, ids=lambda path: path.stem)
def test_help_matches_golden(golden, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    command = [] if golden.stem == "tilediff" else [golden.stem]
    with pytest.raises(SystemExit) as exit:
        main([*command, "--help"])
    assert exit.value.code == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()
