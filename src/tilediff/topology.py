"""Topology of colored squares on the n-torus.

Components are maximal monochromatic connected square sets (corner contact
counts as connected by default). Their boundaries decompose into simple
closed edge curves; curves carry gains (cocycle sums) and winding classes
(computed by lifting to the plane, independent of any cocycle). The image of
a component's loops in the torus fundamental group is computed from its
square-adjacency graph with deck displacements.

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
from typing import NamedTuple, Optional

from .model import Vec, vadd, vneg, vsub
from .diffset import lattice_span

# The audit lives in `diffset`, so a program that only checks configurations
# never runs this module. The name stays bound here because the benchmark's
# tracer looks the function up as `tilediff.topology.impossibility_audit`.
from .diffset import impossibility_audit
from . import torus


class Step(NamedTuple):
    """A directed torus edge: horizontal/vertical edge (i, j) traversed
    forward (rightward/upward) or backward."""

    kind: str  # "h" or "v"
    i: int
    j: int
    forward: bool

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

    def reversed(self) -> "Step":
        return Step(self.kind, self.i, self.j, not self.forward)


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


def row_loop(n: int, j: int = 0) -> Curve:
    return Curve(n, tuple(Step("h", i, j % n, True) for i in range(n)))


def column_loop(n: int, i: int = 0) -> Curve:
    return Curve(n, tuple(Step("v", i % n, j, True) for j in range(n)))


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


def components_of_classes(sc: torus.SquareClasses, mode: str = "corner") -> list[Component]:
    """Partition all squares into maximal same-class connected sets."""
    n = sc.n
    seen: set[Vec] = set()
    out: list[Component] = []
    for start in sorted((i, j) for i in range(n) for j in range(n)):
        if start in seen:
            continue
        color = sc.at(*start)
        blob = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            sq = frontier.pop()
            for nb in _neighbors(sq, n, mode):
                if nb not in seen and sc.at(*nb) == color:
                    seen.add(nb)
                    blob.add(nb)
                    frontier.append(nb)
        out.append(Component(n, color, frozenset(blob), mode))
    return out


def components(ec: torus.EdgeColoring, mode: str = "corner") -> list[Component]:
    """Components of an edge coloring; requires the square rules to hold."""
    sq = torus.square_colors(ec)
    if isinstance(sq, list):
        detail = "; ".join(f"{v.square}: {v.reason}" for v in sq[:4])
        raise ValueError(f"coloring invalid: {detail}")
    return components_of_classes(sq, mode)


def boundary_steps(component: Component) -> list[Step]:
    """Directed edges adjacent to exactly one square of the component,
    oriented with the component on the left."""
    n = component.n
    inside = component.squares
    steps = []
    for i in range(n):
        for j in range(n):
            # Horizontal edge (i, j): square above is (i, j), below is (i, j-1).
            above = (i, j) in inside
            below = (i, (j - 1) % n) in inside
            if above != below:
                steps.append(Step("h", i, j, above))
            # Vertical edge (i, j): square right is (i, j), left is (i-1, j).
            right = (i, j) in inside
            left = ((i - 1) % n, j) in inside
            if right != left:
                steps.append(Step("v", i, j, left))
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


def curve_gain(curve: Curve, el: torus.EdgeLabeling) -> Vec:
    """Sum of cocycle values along the curve; backward steps count negated."""
    if curve.n != el.n:
        raise ValueError("curve and labeling live on different tori")
    gx = gy = 0
    for s in curve.steps:
        value = el.h[s.i][s.j] if s.kind == "h" else el.v[s.i][s.j]
        sign = 1 if s.forward else -1
        gx += sign * value[0]
        gy += sign * value[1]
    return (gx, gy)


def homotopy_class(curve: Curve) -> Vec:
    """Winding pair of a closed curve, by lifting unit steps to the plane.

    Independent of any edge labeling; for labelings derived from a
    configuration the class equals the negated gain.
    """
    tx = ty = 0
    for s in curve.steps:
        d = s.direction
        tx += d[0]
        ty += d[1]
    if tx % curve.n or ty % curve.n:
        raise AssertionError("closed curve with non-integral winding")
    return (tx // curve.n, ty // curve.n)


@dataclass(frozen=True)
class Pi1Image:
    """Image of a component's loops in the torus fundamental group Z^2,
    canonicalized like a lattice span."""

    rank: int
    basis: tuple[Vec, ...]
    index: Optional[int]


def _deck_adjacencies(component: Component):
    """Square adjacencies of the component over the 8-neighbourhood, each with
    its deck displacement (the per-coordinate wrap carry).

    Corner contacts are part of the underlying point set whatever the
    discovery mode, so the offsets are always the full 8-neighbourhood.
    """
    n = component.n
    inside = component.squares
    for (i, j) in sorted(inside):
        for dx, dy in _CORNER_OFFSETS:
            ri, rj = i + dx, j + dy
            target = (ri % n, rj % n)
            if target in inside:
                # ri, rj lie in [-1, n]; floor division is the wrap carry.
                yield (i, j), target, (ri // n, rj // n)


def pi1_image(component: Component) -> Pi1Image:
    """Subgroup of Z^2 realized by loops inside the component.

    A spanning tree of the deck-labeled adjacency graph assigns each square a
    planar lift; every non-tree adjacency contributes its period (lift
    mismatch), and the canonical span of the periods is the image.
    """
    n = component.n
    squares = sorted(component.squares)
    adj: dict[Vec, list[tuple[Vec, Vec]]] = {s: [] for s in squares}
    for src, dst, carry in _deck_adjacencies(component):
        adj[src].append((dst, carry))
    root = squares[0]
    lift: dict[Vec, Vec] = {root: (0, 0)}
    queue = [root]
    periods: list[Vec] = []
    while queue:
        src = queue.pop(0)
        for dst, carry in adj[src]:
            shifted = vadd(lift[src], carry)
            if dst not in lift:
                lift[dst] = shifted
                queue.append(dst)
            else:
                period = vsub(shifted, lift[dst])
                if period != (0, 0):
                    periods.append(period)
    if len(lift) != len(squares):
        raise ValueError("component not connected on the torus")
    span = lattice_span(periods)
    return Pi1Image(span.rank, span.basis, span.index)


def interiors_decomposition(component: Component) -> list[Component]:
    """Maximal edge-connected pieces of the component (its connected-interior
    parts, which meet each other only at corner pinches)."""
    n = component.n
    inside = component.squares
    seen: set[Vec] = set()
    pieces = []
    for start in sorted(inside):
        if start in seen:
            continue
        blob = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            sq = frontier.pop()
            for nb in _neighbors(sq, n, "edge"):
                if nb in inside and nb not in seen:
                    seen.add(nb)
                    blob.add(nb)
                    frontier.append(nb)
        pieces.append(Component(n, component.color, frozenset(blob), "edge"))
    return pieces


def pinch_graph_is_forest(component: Component) -> bool:
    """Whether the component's pieces meet like an iterated wedge sum.

    Nodes are edge-connected pieces; each pinch vertex where two distinct
    pieces touch diagonally is an edge. The free-product (wedge) reading of
    the component requires this multigraph to be acyclic; wrapping pinch
    necklaces are exactly the components failing it.
    """
    pieces = interiors_decomposition(component)
    if len(pieces) <= 1:
        return True
    owner: dict[Vec, int] = {}
    for idx, piece in enumerate(pieces):
        for sq in piece.squares:
            owner[sq] = idx
    n = component.n
    inside = component.squares
    edges = 0
    for (i, j) in sorted(inside):
        # Diagonal pinch at vertex (i, j): this square meets (i-1, j-1) with
        # the antidiagonal pair absent; likewise the antidiagonal pinch at
        # vertex (i, j+1). Each pinch vertex is discovered exactly once.
        sw = ((i - 1) % n, (j - 1) % n)
        if (
            sw in inside
            and ((i - 1) % n, j) not in inside
            and (i, (j - 1) % n) not in inside
            and owner[sw] != owner[(i, j)]
        ):
            edges += 1
        nw = ((i - 1) % n, (j + 1) % n)
        if (
            nw in inside
            and ((i - 1) % n, j) not in inside
            and (i, (j + 1) % n) not in inside
            and owner[nw] != owner[(i, j)]
        ):
            edges += 1
    # The piece multigraph of a connected component is connected, so it is a
    # forest exactly when it is a tree.
    return edges == len(pieces) - 1
