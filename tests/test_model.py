"""Core model: normalization, validation, text formats."""

import json
import random
from pathlib import Path

import pytest

from tilediff import (
    TileConfig,
    difference_set,
    format_boxes,
    format_config,
    normalize,
    parse_boxes,
    parse_config,
    validate,
)
from tilediff.model import BoxUnion, FileFormatError

from conftest import random_config


def test_normalize_single_cell():
    config = TileConfig(1, ((5, -3),))
    assert normalize(config).translates == ((0, 0),)


def test_normalize_uniform_shift():
    config = TileConfig.uniform(2, (1, 1))
    assert normalize(config) == TileConfig.uniform(2, (0, 0))


def test_normalize_identity_on_normalized():
    config = TileConfig.from_map(2, {(0, 0): (0, 0), (0, 1): (2, 3), (1, 0): (-1, 0), (1, 1): (4, -2)})
    assert normalize(config) == config


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        config = random_config(rng, rng.randint(1, 4), 3)
        shifted = TileConfig(config.n, tuple((x + 2, y - 5) for (x, y) in config.translates))
        once = normalize(shifted)
        assert normalize(once) == once


def test_validate_ok():
    assert validate(TileConfig.uniform(2)) == []


def test_validate_wrong_cell_count():
    assert validate(TileConfig(2, ((0, 0),) * 3)) == ["wrong cell count"]


def test_validate_non_positive_n():
    violations = validate(TileConfig(0, ()))
    assert "non-positive n" in violations


def test_difference_set_translation_invariant():
    rng = random.Random(23)
    for _ in range(30):
        config = random_config(rng, rng.randint(1, 3), 2)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        shifted = TileConfig(config.n, tuple((x + t[0], y + t[1]) for (x, y) in config.translates))
        assert difference_set(config).vectors == difference_set(shifted).vectors


def test_config_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        config = random_config(rng, rng.randint(1, 4), 5)
        text = format_config(config)
        assert parse_config(text) == config
        assert format_config(parse_config(text)) == text


def test_config_parse_any_order_and_comments():
    text = "# a comment\nn 2\nu 1 1 4 5\nu 0 0 0 0\nu 1 0 -1 2\nu 0 1 3 -3\n"
    config = parse_config(text)
    assert config.u(1, 1) == (4, 5)
    assert config.u(1, 0) == (-1, 2)


@pytest.mark.parametrize(
    "text,line",
    [
        ("n 2\nu 0 0 x 0\n", 2),
        ("m 2\n", 1),
        ("n 2\nu 0 0 0 0\nu 0 0 1 1\n", 3),
        ("n 1\nu 3 0 0 0\n", 2),
        ("n 1\n", 1),
    ],
)
def test_config_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FileFormatError) as err:
        parse_config(text)
    assert err.value.line_no == line


# Config texts and what `parse_config` made of each when the corpus was
# written: the error message and line, or the canonical config. It covers
# bad tokens, wrong field counts, cells out of range, duplicate and missing
# cells, bad headers, and Unicode digits and whitespace, accepted or not.
PARSE_CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "parse_config.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(PARSE_CORPUS))
def test_config_parse_corpus(name):
    case = PARSE_CORPUS[name]
    if "error" in case:
        with pytest.raises(FileFormatError) as err:
            parse_config(case["text"])
        assert (str(err.value), err.value.line_no) == (case["error"], case["line"])
    else:
        assert format_config(parse_config(case["text"])) == case["config"]


def test_boxes_roundtrip():
    text = "box 0 0 1 1\nbox -1/2 0 3/2 2/3\n"
    k = parse_boxes(text)
    assert format_boxes(k) == text
    assert parse_boxes(format_boxes(k)) == k


def test_boxes_reject_inverted():
    with pytest.raises(FileFormatError):
        parse_boxes("box 1 0 0 1\n")


def test_box_union_rejects_empty():
    with pytest.raises(ValueError):
        BoxUnion(())


def test_boxes_reject_zero_denominator():
    with pytest.raises(FileFormatError, match="zero denominator"):
        parse_boxes("box 0 0 1/0 1\n")


def test_cover_cells_rejects_non_positive_n():
    from tilediff import BoxUnion as BU, cover_cells, discretization_exact

    unit = BU.of((0, 0, 1, 1))
    with pytest.raises(ValueError, match="non-positive n"):
        cover_cells(unit, 0)
    with pytest.raises(ValueError, match="non-positive n"):
        discretization_exact(unit, 0)
