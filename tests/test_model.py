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
)
from tilediff.model import BoxUnion, FileFormatError

from conftest import parse_config_oracle, random_config


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


# Pieces of the fuzzed config texts: every str.splitlines break, Unicode
# whitespace inside a line, and three families of Unicode decimal digits.
LINE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029")
SPACES = (" ", " ", " ", "  ", "\t", "\xa0", "\u3000", "\x1f", " \t")
DIGIT_ZEROS = ("0", "\u0660", "\u0966", "\uff10")


def _fuzz_int(rng: random.Random, value: int) -> str:
    digits = str(abs(value))
    if rng.random() < 0.1:
        digits = "0" + digits
    if rng.random() < 0.2:
        zero = ord(rng.choice(DIGIT_ZEROS))
        digits = "".join(chr(zero + int(d)) for d in digits)
    sign = "-" if value < 0 else rng.choice(("", "", "", "+"))
    return sign + digits


def _fuzz_line(rng: random.Random, tokens) -> str:
    line = rng.choice(("", "", "", " ", "\t")) + rng.choice(SPACES).join(tokens)
    line += rng.choice(("", "", "", " ", "\xa0"))
    if rng.random() < 0.15:
        line += rng.choice(SPACES + ("",)) + "#" + rng.choice(("", " note", "u 0 0 0 0", " 1_0", "#"))
    return line


MUTATIONS = (
    "drop", "duplicate", "repeat", "out-of-range", "three-fields", "six-fields",
    "bad-tag", "underscore", "decimal-point", "bad-header", "zero-n",
)


def fuzz_config_text(rng: random.Random) -> str:
    """A config text, well-formed or with one mutation, as token lists per
    line, then dressed with comments, blank lines and mixed line breaks."""
    n = rng.randint(1, 4)
    cells = [
        ["u", i, j, rng.randint(-12, 12), rng.randint(-12, 12)] for i in range(n) for j in range(n)
    ]
    rng.shuffle(cells)
    header = ["n", n]
    mutation = rng.choice(MUTATIONS) if rng.random() < 0.6 else None
    k = rng.randrange(len(cells))
    if mutation == "drop":
        del cells[k]
    elif mutation == "duplicate":
        cells.insert(rng.randrange(len(cells) + 1), [*cells[k][:3], 7, -7])
    elif mutation == "repeat":  # a duplicate in place of another cell
        cells[k][1:3] = rng.choice(cells)[1:3]
    elif mutation == "out-of-range":
        cells[k][rng.choice((1, 2))] = rng.choice((-1, n, n + 3))
    elif mutation == "three-fields":
        cells[k] = cells[k][:4]
    elif mutation == "six-fields":
        cells[k] = cells[k] + [0]
    elif mutation == "bad-tag":
        cells[k][0] = rng.choice(("v", "U", "n", "uu"))
    elif mutation == "underscore":
        cells[k][rng.randint(1, 4)] = "1_0"
    elif mutation == "decimal-point":
        cells[k][rng.randint(1, 4)] = "1.0"
    elif mutation == "bad-header":
        header = rng.choice((["N", n], ["n"], ["n", n, n], ["n", "two"], ["u", n], ["n", "1_0"]))
    elif mutation == "zero-n":
        header = ["n", rng.choice((0, -1))]
    lines = [_fuzz_line(rng, [t if isinstance(t, str) else _fuzz_int(rng, t) for t in row])
             for row in [header, *cells]]
    for _ in range(rng.choice((0, 0, 1, 3))):
        blank = rng.choice(("", " ", "\t\xa0", "# comment", "  # u 9 9 9 9", "#"))
        lines.insert(rng.randrange(len(lines) + 1), blank)
    text = "".join(line + rng.choice(LINE_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except FileFormatError as err:
        return (str(err), err.line_no)
    except ValueError as err:  # an integer past int's digit limit
        return (type(err), str(err))


def test_config_parse_matches_line_by_line_oracle():
    rng = random.Random(15)
    accepted = 0
    for _ in range(4000):
        text = fuzz_config_text(rng)
        expected = _outcome(parse_config_oracle, text)
        assert _outcome(parse_config, text) == expected, repr(text)
        accepted += isinstance(expected, TileConfig)
    # Both sides of the grammar are exercised.
    assert 1000 < accepted < 3000


@pytest.mark.parametrize(
    "text",
    [
        "n 1\nu 0 0 " + "7" * 5000 + " 0\n",
        # The earlier bad line is the error, as when each line was checked in turn.
        "n 2\nu 0 5 0 0\nu 0 1 " + "7" * 5000 + " 0\nu 1 0 0 0\nu 1 1 0 0\n",
        "n 2\nu 0 0 0 0\nu 0 0 0 0\nu 1 0 " + "7" * 5000 + " 0\nu 1 1 0 0\n",
    ],
    ids=["alone", "after-out-of-range", "after-duplicate"],
)
def test_config_parse_long_integer_matches_oracle(text):
    assert _outcome(parse_config, text) == _outcome(parse_config_oracle, text)


def test_boxes_roundtrip():
    text = "box 0 0 1 1\nbox -1/2 0 3/2 2/3\n"
    k = parse_boxes(text)
    assert format_boxes(k) == text
    assert parse_boxes(format_boxes(k)) == k


def test_boxes_reject_inverted():
    # Worded as BoxUnion words it, after the line number the error carries.
    with pytest.raises(FileFormatError, match=r"^line 1: inverted box \(1,1,0,0\)$"):
        parse_boxes("box 1 1 0 0\n")
    with pytest.raises(FileFormatError, match=r"^line 2: inverted box \(1/2,0,0,1\)$"):
        parse_boxes("box 0 0 1 1\nbox 1/2 0 0 1\n")


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


def test_tile_config_record_keeps_its_repr_equality_and_frozen_fields():
    translates = ((0, 0), (1, 0), (0, 1), (0, 0))
    config = TileConfig(2, translates)
    assert repr(config) == "TileConfig(n=2, translates=((0, 0), (1, 0), (0, 1), (0, 0)))"
    assert repr(TileConfig.uniform(1)) == "TileConfig(n=1, translates=((0, 0),))"
    assert config == TileConfig(n=2, translates=translates)
    assert hash(config) == hash(TileConfig(n=2, translates=translates))
    assert config != TileConfig(2, ((0, 0),) * 4)
    for name in ("n", "translates"):
        with pytest.raises(AttributeError):
            setattr(config, name, getattr(config, name))


def test_box_union_record_keeps_its_repr_equality_errors_and_frozen_field():
    unit = BoxUnion.of((0, 0, 1, 1))
    assert repr(unit) == (
        "BoxUnion(boxes=((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)),))"
    )
    assert unit == BoxUnion(boxes=unit.boxes) == BoxUnion(unit.boxes)
    assert hash(unit) == hash(BoxUnion(boxes=unit.boxes))
    assert unit != BoxUnion.of((0, 0, 1, 2))
    with pytest.raises(AttributeError):
        unit.boxes = ()
    with pytest.raises(ValueError, match=r"^empty box union$"):
        BoxUnion(boxes=())
    with pytest.raises(ValueError, match=r"^inverted box \(1,0,0,1\)$"):
        BoxUnion(((1, 0, 0, 1),))
    with pytest.raises(ValueError, match=r"^inverted box \(0,1,1,0\)$"):
        BoxUnion.of((0, 1, 1, 0))
