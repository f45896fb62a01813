"""Topology of colored squares on the n-torus.

Components are maximal monochromatic connected square sets (corner contact
counts as connected by default); one flood fill finds them and their
edge-connected pieces. Their boundaries, the sides of their squares that
face out, decompose into simple closed edge curves; curves carry winding
classes (by lifting to the plane, independent of any cocycle). The image of a component's loops in the torus fundamental
group is a `diffset.LatticeSpan`, from its deck-labeled square adjacencies.

Boundary convention ("split"): at a vertex where four boundary edges meet,
incoming and outgoing edges pair by maximal left turn, keeping the component
locally on the left; this splits the pinch into per-corner passes and every
resulting curve is simple. The alternative pairing ("cross", maximal right
turn) yields the boundary cycles of a regular neighbourhood of the component
instead; curves may then revisit pinch vertices.

Every configuration breaks the argument at its first stage, the axes check
of its difference set, so `diffset.impossibility_audit` reports that
stage's witness without this module. The red/blue component argument that
would follow is exercised on colorings by the functions above, not on
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import namedtuple
from typing import Callable, Iterable

from .model import Vec, vadd, vneg, vsub
from .diffset import LatticeSpan, lattice_span

# The audit lives in `diffset`, so a program that only checks configurations
# never runs this module. The name stays bound here because the benchmark's
# tracer looks the function up as `tilediff.topology.impossibility_audit`.
from .diffset import impossibility_audit
from . import torus


class Step(namedtuple("Step", ("kind", "i", "j", "forward"))):
    """A directed torus edge: horizontal/vertical edge (i, j) traversed
    forward (rightward/upward) or backward."""

    __slots__ = ()  # kind: "h" or "v"; i, j: int; forward: bool

    def tail(self, n: int) -> Vec:
        if self.forward:
            return (self.i, self.j)
        return self.head_of_forward(n)

    def head(self, n: int) -> Vec:
        if self.forward:
            return self.head_of_forward(n)
        return (self.i, self.j)

    def head_of_forward(self, n: int) -> Vec:
        if self.kind == "h":
            return ((self.i + 1) % n, self.j)
        return (self.i, (self.j + 1) % n)

    @property
    def direction(self) -> Vec:
        d = (1, 0) if self.kind == "h" else (0, 1)
        return d if self.forward else vneg(d)


@dataclass(frozen=True)
class Curve:
    """A closed directed edge path on the n-torus."""

    n: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("empty curve")
        for a, b in zip(self.steps, self.steps[1:] + self.steps[:1]):
            if a.head(self.n) != b.tail(self.n):
                raise ValueError("curve not a closed chain")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Component:
    """A maximal monochromatic connected set of squares on the torus."""

    n: int
    color: str
    squares: frozenset[Vec]
    adjacency_mode: str  # "corner" or "edge"

    def __post_init__(self):
        if self.adjacency_mode not in ("corner", "edge"):
            raise ValueError(f"unknown adjacency mode {self.adjacency_mode!r}")
        if not self.squares:
            raise ValueError("empty component")


_EDGE_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_CORNER_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def _neighbors(square: Vec, n: int, mode: str):
    offsets = _CORNER_OFFSETS if mode == "corner" else _EDGE_OFFSETS
    i, j = square
    for dx, dy in offsets:
        yield ((i + dx) % n, (j + dy) % n)


def _flood_fill(squares: Iterable[Vec], n: int, mode: str, key: Callable) -> list[tuple]:
    """Split `squares` into maximal connected sets of one key each, as
    (key, set) pairs in order of their smallest square. A neighbour joins
    when its key is the start's, so a `key` that tests membership in
    `squares` keeps every set inside them."""
    seen: set[Vec] = set()
    out = []
    for start in sorted(squares):
        if start in seen:
            continue
        k = key(start)
        blob = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            sq = frontier.pop()
            for nb in _neighbors(sq, n, mode):
                if nb not in seen and key(nb) == k:
                    seen.add(nb)
                    blob.add(nb)
                    frontier.append(nb)
        out.append((k, frozenset(blob)))
    return out


def components_of_classes(sc: torus.SquareClasses, mode: str = "corner") -> list[Component]:
    """Partition all squares into maximal same-class connected sets."""
    n = sc.n
    squares = ((i, j) for i in range(n) for j in range(n))
    return [
        Component(n, color, blob, mode)
        for color, blob in _flood_fill(squares, n, mode, lambda sq: sc.classes[sq[0]][sq[1]])
    ]


def components(ec: torus.EdgeColoring, mode: str = "corner") -> list[Component]:
    """Components of an edge coloring; raises ValueError, as
    `torus.square_colors` does, when the square rules fail."""
    return components_of_classes(torus.square_colors(ec), mode)


def boundary_steps(component: Component) -> list[Step]:
    """Directed edges adjacent to exactly one square of the component,
    oriented with the component on the left."""
    n = component.n
    inside = component.squares
    steps = []
    for (i, j) in inside:
        # Sides: bottom h(i, j), top h(i, j+1), left v(i, j), right v(i+1, j).
        # A side is on the boundary when the square across it is outside.
        up, right = (j + 1) % n, (i + 1) % n
        if (i, (j - 1) % n) not in inside:
            steps.append(Step("h", i, j, True))
        if (i, up) not in inside:
            steps.append(Step("h", i, up, False))
        if ((i - 1) % n, j) not in inside:
            steps.append(Step("v", i, j, False))
        if (right, j) not in inside:
            steps.append(Step("v", right, j, True))
    return sorted(steps)


def _turn_preference(d: Vec, pairing: str) -> tuple[Vec, Vec, Vec]:
    left = (-d[1], d[0])
    right = (d[1], -d[0])
    if pairing == "split":
        return (left, d, right)
    return (right, d, left)


def boundary_curves(component: Component, pairing: str = "split") -> list[Curve]:
    """Decompose the component's boundary into closed curves.

    "split" (default) pairs edges at four-edge vertices by maximal left turn:
    every curve is simple and hugs one corner of the component per pass.
    "cross" pairs by maximal right turn, tracing the boundary cycles of a
    regular neighbourhood of the component.
    """
    if pairing not in ("split", "cross"):
        raise ValueError(f"unknown pairing {pairing!r}")
    n = component.n
    steps = boundary_steps(component)
    outgoing: dict[Vec, dict[Vec, Step]] = {}
    for s in steps:
        outgoing.setdefault(s.tail(n), {})[s.direction] = s
    curves = []
    used: set[Step] = set()
    for start in steps:
        if start in used:
            continue
        path = [start]
        used.add(start)
        current = start
        while True:
            vertex = current.head(n)
            options = outgoing[vertex]
            nxt = None
            for d in _turn_preference(current.direction, pairing):
                if d in options:
                    nxt = options[d]
                    break
            if nxt is None:
                raise AssertionError("boundary walk hit a dead end")
            if nxt == start:
                break
            path.append(nxt)
            used.add(nxt)
            current = nxt
        curves.append(Curve(n, tuple(path)))
    return curves


def homotopy_class(curve: Curve) -> Vec:
    """Winding pair of a closed curve, by lifting unit steps to the plane.

    Independent of any edge labeling; for labelings derived from a
    configuration the class equals the negated gain (the cocycle sum along
    the curve).
    """
    tx = ty = 0
    for s in curve.steps:
        d = s.direction
        tx += d[0]
        ty += d[1]
    if tx % curve.n or ty % curve.n:
        raise AssertionError("closed curve with non-integral winding")
    return (tx // curve.n, ty // curve.n)


def pi1_image(component: Component) -> LatticeSpan:
    """Subgroup of Z^2 realized by loops inside the component.

    A spanning tree of the component's square adjacencies, each with its deck
    displacement (the per-coordinate wrap carry), assigns each square a
    planar lift; every non-tree adjacency contributes its period (lift
    mismatch), and the canonical span of the periods is the image. The
    Hermite basis is unique, so the order the tree grows in does not matter.
    Corner contacts are part of the underlying point set whatever the
    discovery mode, so adjacency is always over the full 8-neighbourhood.
    """
    n = component.n
    inside = component.squares
    root = min(inside)
    lift: dict[Vec, Vec] = {root: (0, 0)}
    stack = [root]
    periods: list[Vec] = []
    while stack:
        src = stack.pop()
        for dx, dy in _CORNER_OFFSETS:
            ri, rj = src[0] + dx, src[1] + dy
            dst = (ri % n, rj % n)
            if dst not in inside:
                continue
            # ri, rj lie in [-1, n]; floor division is the wrap carry.
            shifted = vadd(lift[src], (ri // n, rj // n))
            if dst not in lift:
                lift[dst] = shifted
                stack.append(dst)
            else:
                period = vsub(shifted, lift[dst])
                if period != (0, 0):
                    periods.append(period)
    if len(lift) != len(inside):
        raise ValueError("component not connected on the torus")
    return lattice_span(periods)


def interiors_decomposition(component: Component) -> list[Component]:
    """Maximal edge-connected pieces of the component (its connected-interior
    parts, which meet each other only at corner pinches)."""
    inside = component.squares
    return [
        Component(component.n, component.color, blob, "edge")
        for _, blob in _flood_fill(inside, component.n, "edge", inside.__contains__)
    ]
