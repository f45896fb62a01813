"""Core data model: integer vectors, tiling configurations, rational box unions.

A tiling configuration is a grid resolution ``n`` plus one integer translate
per grid cell; it encodes the plane set built by translating each of the n^2
closed squares of side 1/n inside the unit square by its cell's translate.
Everything downstream (difference sets, discretization, the torus complex)
consumes these values.

All types are immutable after construction. `TileConfig` is a named
tuple, so it unpacks as ``n, translates = config`` and compares equal to the
plain tuple ``(n, translates)``; `BoxUnion` is one too, over a single
``boxes`` field. Each checks its own shape when built, by ``_replace`` and
``_make`` too, and raises `ValueError` on a bad one, so no consumer checks
it again. Both are built on `collections.namedtuple` with empty
``__slots__``: a `typing.NamedTuple` class compiles each of its field
annotations when it is built, which every call that loads this module
would pay.

Only the code that builds a rational (`parse_boxes` and `BoxUnion.of`)
imports `fractions`, so reading and checking configurations never loads it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from fractions import Fraction

Vec = tuple[int, int]


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def on_axes(v: Vec) -> bool:
    """True when the vector lies on a coordinate axis (origin included)."""
    return v[0] == 0 or v[1] == 0


class TileConfig(namedtuple("TileConfig", ("n", "translates"))):
    """Grid resolution ``n`` plus one translate per cell.

    Translates are stored row-major by (i, j) with i the x-index:
    ``translates[i * n + j]`` is the translate of cell (i, j). A config
    with n < 1, or without n^2 translates, raises `ValueError`.
    """

    __slots__ = ()

    def __new__(cls, n: int, translates: tuple[Vec, ...]):
        if n < 1 or len(translates) != n * n:
            problems = [problem for problem, found in (
                ("non-positive n", n < 1), ("wrong cell count", len(translates) != n * n)
            ) if found]
            raise ValueError("invalid config: " + "; ".join(problems))
        # As namedtuple's own __new__ does, without its extra call.
        return tuple.__new__(cls, (n, translates))

    # namedtuple's own _make, which _replace calls, skips __new__'s check.
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def u(self, i: int, j: int) -> Vec:
        return self.translates[i * self.n + j]

    def cells(self):
        for i in range(self.n):
            for j in range(self.n):
                yield (i, j)

    @staticmethod
    def from_map(n: int, mapping: dict[tuple[int, int], Vec]) -> "TileConfig":
        return TileConfig(n, tuple(mapping[(i, j)] for i in range(n) for j in range(n)))

    @staticmethod
    def uniform(n: int, u: Vec = (0, 0)) -> "TileConfig":
        return TileConfig(n, (u,) * (n * n))


def normalize(config: TileConfig) -> TileConfig:
    """Shift every translate by -u(0,0) so the base cell's translate is zero.

    Difference sets are invariant under this common shift.
    """
    base = config.translates[0]
    if base == (0, 0):
        return config
    return TileConfig(config.n, tuple(vsub(u, base) for u in config.translates))


# A closed axis-aligned box with rational corners: (x0, y0, x1, y1), x0<=x1, y0<=y1.
# Spelled with forward references, so that only code that builds a Fraction
# imports `fractions`.
Box = tuple["Fraction", "Fraction", "Fraction", "Fraction"]


_BoxUnionFields = namedtuple("_BoxUnionFields", ("boxes",))


class BoxUnion(_BoxUnionFields):
    """A compact set given as a finite union of closed rational boxes.

    Degenerate boxes (points, segments) are allowed; the box list must be
    non-empty.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.boxes:
            raise ValueError("empty box union")
        for (x0, y0, x1, y1) in self.boxes:
            if x0 > x1 or y0 > y1:
                raise ValueError(f"inverted box ({x0},{y0},{x1},{y1})")
        return self

    @staticmethod
    def of(*boxes) -> "BoxUnion":
        from fractions import Fraction

        return BoxUnion(tuple(tuple(Fraction(c) for c in b) for b in boxes))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FileFormatError(ValueError):
    """Parse failure in one of the text formats; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.reason = message


def _content_lines(text: str):
    """Yield (line_no, stripped_line) skipping blanks and '#' comments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


_INT = re.compile(r"^[+-]?\d+$")
_COMMENT = re.compile("#.*")


def _parse_int(token: str, line_no: int) -> int:
    if not _INT.match(token):
        raise FileFormatError(line_no, f"expected integer, got {token!r}")
    return int(token)


def _parse_rational(token: str, line_no: int) -> Fraction:
    from fractions import Fraction

    if "/" in token:
        num, _, den = token.partition("/")
        if not (_INT.match(num) and _INT.match(den)):
            raise FileFormatError(line_no, f"expected rational p/q, got {token!r}")
        if int(den) == 0:
            raise FileFormatError(line_no, "zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(_parse_int(token, line_no))


def _read_header(text: str, noun: str) -> tuple[list[tuple[int, str]], int]:
    """The content lines of a config or coloring text, and N from its first
    line ``n <N>``. An empty text, a bad header or N < 1 raises its
    `FileFormatError`; `noun` names the file kind in the empty-file error."""
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError(1, f"empty {noun} file")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FileFormatError(line_no, f"expected 'n <N>', got {header!r}")
    n = _parse_int(parts[1], line_no)
    if n < 1:
        raise FileFormatError(line_no, "non-positive n")
    return lines, n


def parse_config(text: str) -> TileConfig:
    """Parse the config text format.

    Line 1 is ``n <N>``; then exactly N^2 lines ``u <i> <j> <ux> <uy>``,
    one per cell, any order, no duplicates. '#' comments are ignored.

    A well-formed text is read in a fixed number of passes over its text,
    then one placement step per cell. Without underscores, ``int`` accepts
    exactly the ``_INT`` tokens. A rejected text is worded by `_reject_config`.
    """
    body = _COMMENT.sub("", "\n".join(text.splitlines()))
    rows = list(filter(None, map(str.split, body.split("\n"))))
    try:
        if "_" not in body and rows and len(rows[0]) == 2 and rows[0][0] == "n":
            n = int(rows[0][1])
            cells = rows[1:]
            well_formed = set(map(len, cells)) == {5} and set(map(itemgetter(0), cells)) == {"u"}
            if n >= 1 and len(cells) == n * n and well_formed:
                values = list(map(int, chain.from_iterable(map(itemgetter(1, 2, 3, 4), cells))))
                translates = [None] * (n * n)
                for i, j, ux, uy in zip(*[iter(values)] * 4):
                    if not (0 <= i < n and 0 <= j < n) or translates[i * n + j] is not None:
                        break
                    translates[i * n + j] = (ux, uy)
                else:
                    return TileConfig(n, tuple(translates))
    except ValueError:  # a bad token, or one past int's digit limit
        pass
    _reject_config(text)


def _reject_config(text: str) -> NoReturn:
    """Raise the error of a config text that `parse_config` rejected: the
    first bad line in file order, else the cell count. A token past
    ``int``'s digit limit raises its ``ValueError`` at its line."""
    lines, n = _read_header(text, "config")
    seen = set()
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "u":
            raise FileFormatError(line_no, f"expected 'u <i> <j> <ux> <uy>', got {line!r}")
        i, j, _, _ = (_parse_int(p, line_no) for p in parts[1:])
        if not (0 <= i < n and 0 <= j < n):
            raise FileFormatError(line_no, f"cell ({i},{j}) out of range for n={n}")
        if (i, j) in seen:
            raise FileFormatError(line_no, f"duplicate cell ({i},{j})")
        seen.add((i, j))
    assert len(seen) != n * n, "parse_config rejected a well-formed config"
    raise FileFormatError(lines[-1][0], f"expected {n * n} cells, got {len(seen)}")


def format_config(config: TileConfig) -> str:
    """Canonical emission: header then cells row-major by (i, j)."""
    out = [f"n {config.n}"]
    for i in range(config.n):
        for j in range(config.n):
            ux, uy = config.u(i, j)
            out.append(f"u {i} {j} {ux} {uy}")
    return "\n".join(out) + "\n"


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_boxes(text: str) -> BoxUnion:
    """Parse the box-union format: lines ``box <x0> <y0> <x1> <y1>`` with rationals."""
    boxes = []
    for line_no, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "box":
            raise FileFormatError(line_no, f"expected 'box <x0> <y0> <x1> <y1>', got {line!r}")
        x0, y0, x1, y1 = (_parse_rational(p, line_no) for p in parts[1:])
        if x0 > x1 or y0 > y1:
            raise FileFormatError(line_no, f"inverted box ({x0},{y0},{x1},{y1})")
        boxes.append((x0, y0, x1, y1))
    if not boxes:
        raise FileFormatError(1, "no boxes")
    return BoxUnion(tuple(boxes))


def format_boxes(k: BoxUnion) -> str:
    out = []
    for (x0, y0, x1, y1) in k.boxes:
        out.append("box " + " ".join(_format_rational(c) for c in (x0, y0, x1, y1)))
    return "\n".join(out) + "\n"
