"""Output checks, each by a route independent of the code under test.

Each checker takes a workload's job and the first outcome of that job and
returns None when the output is right, or a one-line reason. Outcomes of
later passes must repeat the first byte for byte; the runner checks that.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import Job

# Largest resolution at which the O(n^4) geometric oracle is also consulted.
ORACLE_MAX_N = 8
BUDGET_EXCEEDED = "error: budget exceeded"


def _doc(outcome) -> dict:
    if outcome.code != 0:
        raise ValueError(f"exit {outcome.code!r}")
    return json.loads(outcome.stdout)


# --- search -----------------------------------------------------------------


class SearchChecker:
    """Checks search reports and tallies the frontier ladder."""

    def __init__(self):
        self.docs: dict[str, dict] = {}
        self.frontier_solved = 0

    def __call__(self, job: Job, outcome) -> str | None:
        meta = job.meta
        if meta.get("frontier"):
            if outcome.code == BUDGET_EXCEEDED:
                return None
            doc = _doc(outcome)
            self.docs[job.name] = doc
            if doc["valid_found"] != 0:
                return "valid configuration reported"
            self.frontier_solved += 1
            return None
        doc = _doc(outcome)
        self.docs[job.name] = doc
        n, bound = meta["n"], meta["bound"]
        if (doc["n"], doc["bound"]) != (n, bound):
            return "report for another search"
        if doc["valid_found"] != 0 or doc["valid_config_files"]:
            return "valid configuration reported"
        if meta.get("plain"):
            values = 2 * bound + 1
            leaves = values ** (2 * (n * n - 1))
            if meta.get("symmetry"):
                # One leaf per orbit of the x<->y swap; the swap fixes one
                # value choice per diagonal cell and per off-diagonal pair.
                leaves = (leaves + values ** (n * n - 1)) // 2
            if doc["configs_enumerated"] != leaves or doc["nodes_visited"] != leaves:
                return f"plain engine visited {doc['nodes_visited']} of {leaves} leaves"
        elif doc["configs_enumerated"] != 0:
            return "pruned engine reached a leaf"
        if meta.get("witnesses"):
            return self._replay_witnesses(n, bound, doc)
        return None

    def check_parallel(self, job: Job) -> str | None:
        """A --jobs run reports the same counts as its one-process twin."""
        mine, twin = self.docs.get(job.name), self.docs.get(job.meta["same_as"])
        if mine is None or twin is None:
            return None
        keys = ("nodes_visited", "configs_enumerated", "witness_counts")
        if any(mine[k] != twin[k] for k in keys):
            return f"counts differ from {job.meta['same_as']}"
        return None

    @staticmethod
    def _replay_witnesses(n: int, bound: int, doc: dict) -> str | None:
        from tilediff.search import SearchSpec, run_search, verify_witnesses

        report = run_search(SearchSpec(n=n, bound=bound, witnesses=True))
        try:
            verify_witnesses(report)
        except ValueError as exc:
            return str(exc)
        if doc["witness_counts"] != [[list(v), c] for v, c in report.witness_counts]:
            return "witness counts differ from the replayed search"
        if sum(c for _, c in report.witness_counts) != len(report.witness_records):
            return "witness records do not match their counts"
        return None


# --- check ------------------------------------------------------------------


def plane_difference_set(n: int, translates: dict) -> set:
    """Integer points of K - K, with K read as cells of the 1/n grid.

    Cell (i, j) with translate u sits at grid cell c = (i + n*ux, j + n*uy).
    An integer z lies in K - K when some cell c of K touches a cell d + n*z
    of K + z. For each of the 9 grid cells c + e next to c, the only
    candidate d is the cell of K in the residue class of c + e.
    """
    grid = {(i, j): (i + n * ux, j + n * uy) for (i, j), (ux, uy) in translates.items()}
    out = set()
    for gx, gy in grid.values():
        for ex in (-1, 0, 1):
            for ey in (-1, 0, 1):
                tx, ty = gx + ex, gy + ey
                dx, dy = grid[(tx % n, ty % n)]
                out.add(((tx - dx) // n, (ty - dy) // n))
    return out


def check_check(job: Job, outcome) -> str | None:
    from tilediff.diffset import geometric_oracle
    from tilediff.model import TileConfig

    doc = _doc(outcome)
    n, translates = job.meta["n"], job.meta["translates"]
    expected = plane_difference_set(n, translates)
    got = {tuple(v) for v in doc["difference_set"]}
    if got != expected or doc["difference_set_size"] != len(expected):
        return "difference set differs from the grid-cell route"
    if n <= ORACLE_MAX_N:
        oracle = geometric_oracle(TileConfig.from_map(n, translates))
        if got != set(oracle.vectors):
            return "difference set differs from geometric_oracle"
    off_axes = sorted(v for v in expected if v[0] != 0 and v[1] != 0)
    witness = list(off_axes[0]) if off_axes else None
    if doc["axes_subset"] != (not off_axes) or doc["axes_witness"] != witness:
        return "axes verdict or witness wrong"
    if doc["generates_lattice"] != (doc["span_rank"] == 2 and doc["span_index"] == 1):
        return "lattice verdict inconsistent with its rank and index"
    if off_axes and (doc["audit"]["stage"] != "axes" or doc["audit"]["witness"] != witness):
        return f"audit stopped at {doc['audit']['stage']}, not at the axes witness"
    return None


# --- discretize -------------------------------------------------------------


def cover_size(boxes, n: int) -> int:
    """Cells [a/n, (a+1)/n] x [b/n, (b+1)/n] meeting some closed box."""
    cells = set()
    for x0, y0, x1, y1 in boxes:
        xs = [a for a in range(math.floor(n * x0) - 1, math.ceil(n * x1) + 1)
              if Fraction(a, n) <= x1 and Fraction(a + 1, n) >= x0]
        ys = [b for b in range(math.floor(n * y0) - 1, math.ceil(n * y1) + 1)
              if Fraction(b, n) <= y1 and Fraction(b + 1, n) >= y0]
        cells.update((a, b) for a in xs for b in ys)
    return len(cells)


def check_discretize(job: Job, outcome) -> str | None:
    doc = _doc(outcome)
    n0, gap = doc["n0"], Fraction(doc["gap_squared"])
    if doc["n"] != n0 or not doc["diff_sets_equal"]:
        return "difference sets differ at n0"
    if gap != job.meta["gap"]:
        return f"gap {gap} differs from the scaled-integer gap {job.meta['gap']}"
    if not (n0 * n0 * gap > 32 and (n0 == 1 or (n0 - 1) ** 2 * gap <= 32)):
        return f"n0={n0} is not the threshold for gap {gap}"
    if doc["cell_count"] != cover_size(job.meta["boxes"], n0):
        return "cover size differs from the closed-cell count"
    transversal = doc["transversal"]
    if not job.meta["reduce"]:
        return None if transversal is None else "unrequested transversal"
    lines = transversal.splitlines() if transversal else []
    cells = {tuple(map(int, line.split()[1:3])) for line in lines[1:]}
    if lines[:1] != [f"n {n0}"] or len(lines) != n0 * n0 + 1 or len(cells) != n0 * n0:
        return "transversal is not one cell per residue class"
    return None


# --- analyze ----------------------------------------------------------------


def component_count(colour: dict, n: int, mode: str) -> int:
    """Same-colour components of the torus square grid, counted by networkx."""
    import networkx as nx

    steps = [(1, 0), (0, 1)] + ([(1, 1), (1, -1)] if mode == "corner" else [])
    graph = nx.Graph()
    graph.add_nodes_from(colour)
    for (i, j), c in colour.items():
        for di, dj in steps:
            other = ((i + di) % n, (j + dj) % n)
            if colour[other] == c:
                graph.add_edge((i, j), other)
    return nx.number_connected_components(graph)


def check_analyze(job: Job, outcome) -> str | None:
    meta = job.meta
    if "svg" in meta:
        if outcome.code != 0 or outcome.stdout != f"wrote {meta['svg']}\n":
            return f"render exit {outcome.code!r}"
        if not ET.fromstring(outcome.artifact).tag.endswith("svg"):
            return "render output is not an SVG document"
        return None
    doc = _doc(outcome)
    n, colour = meta["n"], meta["colour"]
    rows = doc["components"]
    if (doc["n"], doc["mode"], doc["kind"]) != (n, meta["mode"], "coloring"):
        return "report for another input"
    seen = [tuple(sq) for row in rows for sq in row["squares"]]
    if sum(row["size"] for row in rows) != n * n or len(set(seen)) != n * n:
        return "component sizes do not partition the n^2 squares"
    if any(colour[tuple(sq)] != row["color"] for row in rows for sq in row["squares"]):
        return "component colour differs from the generated square colours"
    if len(rows) != component_count(colour, n, meta["mode"]):
        return "component count differs from networkx"
    return None
