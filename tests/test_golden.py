"""Golden outputs: ``check --json`` stdout of fixed configs, byte for byte.

Each ``tests/golden/check/NAME.txt`` holds a config and ``NAME.json`` the
stdout of ``tilediff check NAME.txt --json``. The corpus covers n = 1, 2, 3,
8 and 19, axes witnesses with one, two and three witness pairs, and a config
whose base cell is not at the origin. Regenerate a file only for an intended
change of the output.
"""

from pathlib import Path

import pytest

from tilediff.cli import main

GOLDEN_CHECK = Path(__file__).parent / "golden" / "check"
CONFIGS = sorted(GOLDEN_CHECK.glob("*.txt"))


def test_golden_check_corpus_is_present():
    assert len(CONFIGS) == 8


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_json_matches_golden(config, capsys):
    assert main(["check", str(config), "--json"]) == 0
    assert capsys.readouterr().out.encode() == config.with_suffix(".json").read_bytes()
