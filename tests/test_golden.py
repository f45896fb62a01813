"""Golden outputs: ``--json`` stdout of fixed inputs, byte for byte.

Each ``tests/golden/check/NAME.txt`` holds a config and ``NAME.json`` the
stdout of ``tilediff check NAME.txt --json``. The corpus covers n = 1, 2, 3,
8 and 19, axes witnesses with one, two and three witness pairs, and a config
whose base cell is not at the origin.

``tests/golden/analyze/NAME.json`` is the stdout of ``tilediff analyze
NAME.txt --json`` for the same configs: the audit that builds its own
difference set. ``tests/golden/search/ENGINE-nN-bB[-symmetry].json`` is the
stdout of ``tilediff search --engine ENGINE --n N --bound B [--symmetry]
--json``; every leaf of the plain engine builds a difference set.

Regenerate a file only for an intended change of the output.
"""

from pathlib import Path

import pytest

from tilediff.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted((GOLDEN / "check").glob("*.txt"))
ANALYZE = sorted((GOLDEN / "analyze").glob("*.json"))
SEARCHES = sorted((GOLDEN / "search").glob("*.json"))


def search_argv(name: str) -> list[str]:
    """The ``search`` arguments a golden's file name stands for."""
    engine, n, bound, *symmetry = name.split("-")
    argv = ["search", "--engine", engine, "--n", n[1:], "--bound", bound[1:], "--json"]
    return argv + ["--symmetry"] * len(symmetry)


def test_golden_check_corpus_is_present():
    assert len(CONFIGS) == 8


def test_golden_analyze_and_search_corpora_are_present():
    assert [p.stem for p in ANALYZE] == [p.stem for p in CONFIGS]
    assert [p.stem for p in SEARCHES] == [
        "plain-n1-b3",
        "plain-n2-b1-symmetry",
        "plain-n2-b1",
        "pruned-n2-b3",
        "pruned-n3-b2-symmetry",
        "pruned-n3-b2",
    ]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_json_matches_golden(config, capsys):
    assert main(["check", str(config), "--json"]) == 0
    assert capsys.readouterr().out.encode() == config.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_analyze_json_matches_golden(config, capsys):
    assert main(["analyze", str(config), "--json"]) == 0
    golden = GOLDEN / "analyze" / f"{config.stem}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("golden", SEARCHES, ids=lambda path: path.stem)
def test_search_json_matches_golden(golden, capsys, tmp_path, monkeypatch):
    # A search that found a valid config would write files into the cwd.
    monkeypatch.chdir(tmp_path)
    assert main(search_argv(golden.stem)) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()
