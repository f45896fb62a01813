"""Seeded inputs and job lists for the four benchmark workloads.

Every input is generated here from the seed. tilediff sees only the files
written into the work directory and the argument list of each job. The mix
of sizes in each job list is fixed, and the seed draws the contents, so two
seeds cost about the same.

Jobs of one size form a cluster, and the sizes are chosen so that the
median job and the tail job (the one with 10 slower jobs) fall near the
middle of a cluster. Their latencies then do not jump between sizes when
the seed or the host moves a job by a rank or two. Every timed job runs in
every pass, so that each is timed many times in a run (see run.py). The
costliest inputs, 0.3 to 7 s a call, are traced only: they run in the
traced pass, where the layer metrics come from, and not in the timed ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("search", "check", "discretize", "analyze")

# tilediff's default --budget, which every search job uses.
DEFAULT_BUDGET = 2_000_000

# Timed searches: small pruned rungs, the plain engine on (2,1), pruned
# (3,2) alone and with --symmetry, and --witnesses. All run in one process;
# a --jobs 2 search competes with the host's other tenants for both vCPUs
# and varies most from run to run, so it is traced only. Search
# inputs do not depend on the seed. The rungs up to (2,12) put the median
# and the tail job (10 jobs above it) among (2,7), (3,1) and (2,8), which
# take 5 to 12 ms, not among the 1-ms rungs.
SEARCH_SMALL = tuple((2, b) for b in range(1, 13)) + ((3, 1),)
SEARCH_PLAIN = (2, 1)
SEARCH_TWIN = (3, 2)
SEARCH_WITNESSES = ((2, 1), (2, 2), (3, 1))
# Traced only: plain (2,2) with and without --symmetry, pruned (3,3) alone,
# with --symmetry and with --jobs 2, and the frontier ladder at the default
# budget. frontier_solved counts the
# ladder's cases that finish inside the budget.
SEARCH_TRACED_PLAIN = (2, 2)
SEARCH_TRACED_TWIN = (3, 3)
SEARCH_FRONTIER = ((4, 1), (4, 2), (5, 1))

CHECK_BOUND = 3
# Resolutions of one check pass: many small configurations, few large ones.
# The median job is the middle of the ten n = 8 jobs, and the tail job the
# middle of the eleven n = 10 jobs, below the three largest.
CHECK_SIZES = (
    (4,) * 5 + (5,) * 5 + (6,) * 4 + (7,) * 4 + (8,) * 10 + (9,) * 2 + (10,) * 11 + (13, 16, 19)
)
CHECK_TRACED_SIZES = (22, 24)

# Clusters of box unions in one discretize pass: (jobs, box count, common
# denominator, --reduce). The median job is in the reduce cluster, and the
# tail job in the middle of the six-box cluster, below the seven-box union
# and the two longest wide boxes.
DISCRETIZE_UNIONS = (
    (12, 3, 2, False),
    (12, 3, 3, True),
    (12, 6, 3, False),
    (1, 7, 6, False),
)
DISCRETIZE_TRACED_UNIONS = ((1, 9, 7, False),)
# Lengths of the single wide boxes (height 1).
DISCRETIZE_WIDE = (10, 16, 24)
DISCRETIZE_TRACED_WIDE = (32,)

# Resolutions of the colorings of one analyze pass; each is analyzed in
# corner and in edge mode. The median job falls among the n = 24 ones, and
# the tail job among the n = 32 ones.
ANALYZE_SIZES = (16,) * 4 + (24,) * 10 + (32,) * 8 + (48,) * 2 + (64,)
ANALYZE_TRACED_SIZES = (80, 96)
# Share of red squares, and of blue ones, before the square rules are enforced.
ANALYZE_DENSITIES = (0.3, 0.325, 0.35, 0.375, 0.4)
# Every RENDER_EVERY-th coloring is also rendered, plus a few configurations.
RENDER_EVERY = 3
RENDER_CONFIG_SIZES = (4, 6, 8)


@dataclass
class Job:
    """One call of the command line: its arguments and what the checker needs."""

    name: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, str]  # file name in the work directory -> text
    warmup: Job  # one small job run during set-up
    traced_only: list[Job] = field(default_factory=list)  # run in the traced pass only


def _search_job(name, n, bound, *extra, **meta) -> Job:
    argv = ("search", "--n", str(n), "--bound", str(bound), *extra, "--json")
    return Job(name, argv, dict(meta, n=n, bound=bound))


def _twins(n, bound) -> list[Job]:
    """Pruned (n, bound) alone and with --symmetry."""
    return [
        _search_job(f"pruned-{n}-{bound}", n, bound),
        _search_job(f"symmetry-{n}-{bound}", n, bound, "--symmetry", symmetry=True),
    ]


def search_workload(rng: random.Random) -> Workload:
    jobs = [_search_job(f"pruned-{n}-{b}", n, b) for n, b in SEARCH_SMALL]
    n, b = SEARCH_PLAIN
    jobs.append(_search_job(f"plain-{n}-{b}", n, b, "--engine", "plain", plain=True))
    jobs += _twins(*SEARCH_TWIN)
    for n, b in SEARCH_WITNESSES:
        jobs.append(_search_job(f"witnesses-{n}-{b}", n, b, "--witnesses", witnesses=True))
    n, b = SEARCH_TRACED_PLAIN
    traced = [
        _search_job(f"plain-{n}-{b}", n, b, "--engine", "plain", plain=True),
        _search_job(
            f"plain-symmetry-{n}-{b}", n, b, "--engine", "plain", "--symmetry",
            plain=True, symmetry=True,
        ),
        *_twins(*SEARCH_TRACED_TWIN),
    ]
    n, b = SEARCH_TRACED_TWIN
    traced.append(_search_job(f"jobs2-{n}-{b}", n, b, "--jobs", "2", same_as=f"pruned-{n}-{b}"))
    for n, b in SEARCH_FRONTIER:
        traced.append(_search_job(f"frontier-{n}-{b}", n, b, frontier=True))
    rng.shuffle(jobs)
    return Workload("search", jobs, {}, _search_job("warmup", 2, 1), traced)


def random_config(rng: random.Random, n: int, bound: int) -> dict:
    """Translates for every cell of an n-grid, uniform in [-bound, bound]^2."""
    return {
        (i, j): (rng.randint(-bound, bound), rng.randint(-bound, bound))
        for i in range(n)
        for j in range(n)
    }


def config_text(rng: random.Random, n: int, translates: dict) -> str:
    """The config file format, with the cell lines in random order."""
    lines = [f"u {i} {j} {ux} {uy}" for (i, j), (ux, uy) in translates.items()]
    rng.shuffle(lines)
    return "\n".join([f"n {n}", *lines]) + "\n"


def check_workload(rng: random.Random) -> Workload:
    files = {}

    def job(k: int, n: int) -> Job:
        translates = random_config(rng, n, CHECK_BOUND)
        path = f"check-{k:02d}.txt"
        files[path] = config_text(rng, n, translates)
        return Job(f"check-{k:02d}", ("check", path, "--json"), {"n": n, "translates": translates})

    sizes = CHECK_SIZES + CHECK_TRACED_SIZES
    jobs = [job(k, n) for k, n in enumerate(sizes)]
    files["warmup.txt"] = config_text(rng, 3, random_config(rng, 3, CHECK_BOUND))
    timed, traced = jobs[: len(CHECK_SIZES)], jobs[len(CHECK_SIZES) :]
    rng.shuffle(timed)
    return Workload("check", timed, files, Job("warmup", ("check", "warmup.txt", "--json")), traced)


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def squared_gap(boxes, den: int) -> Fraction:
    """Squared distance from K - K to the nearest integer point outside it.

    All corners are multiples of 1/den, so the search runs on integers
    scaled by den. Candidates span the bounding box of K - K widened by 2
    on each side: an outside integer point within distance 2 always exists.
    """
    scaled = [tuple(int(c * den) for c in box) for box in boxes]
    diff = {
        (a0 - b2, a1 - b3, a2 - b0, a3 - b1)
        for (a0, a1, a2, a3) in scaled
        for (b0, b1, b2, b3) in scaled
    }
    lo_x, lo_y = min(d[0] for d in diff), min(d[1] for d in diff)
    hi_x, hi_y = max(d[2] for d in diff), max(d[3] for d in diff)
    best = None
    for zx in range(-(-lo_x // den) - 2, hi_x // den + 3):
        for zy in range(-(-lo_y // den) - 2, hi_y // den + 3):
            x, y = zx * den, zy * den
            d2 = min(
                max(x0 - x, 0, x - x1) ** 2 + max(y0 - y, 0, y - y1) ** 2
                for (x0, y0, x1, y1) in diff
            )
            if d2 and (best is None or d2 < best):
                best = d2
    return Fraction(best, den * den)


def random_union(rng: random.Random, count: int, den: int, unit_square: bool) -> list[tuple]:
    """count boxes with corners on the 1/den grid, one in each of count unit
    slots of [0, 3]^2; the two corner slots are always used.

    All corners share the denominator den, so every integer point outside
    K - K is at least 1/den away from it. Draws repeat until that distance
    is exactly 1/den, which fixes the threshold resolution n0 for each den.
    With unit_square, the first box is a unit square, whose cover has n + 1
    consecutive cells per axis and so reaches every residue class.
    """
    others = [(x, y) for x in range(3) for y in range(3) if (x, y) not in ((0, 0), (2, 2))]
    while True:
        boxes = []
        for sx, sy in [(0, 0), (2, 2)] + rng.sample(others, count - 2):
            w = rng.randint(max(1, den // 3), max(1, den // 2))
            h = rng.randint(max(1, den // 3), max(1, den // 2))
            x0 = sx * den + rng.randint(0, den - w)
            y0 = sy * den + rng.randint(0, den - h)
            boxes.append(tuple(Fraction(c, den) for c in (x0, y0, x0 + w, y0 + h)))
        if unit_square:
            x0, y0 = boxes[0][:2]
            boxes[0] = (x0, y0, x0 + 1, y0 + 1)
        if squared_gap(boxes, den) == Fraction(1, den * den):
            return boxes


def boxes_text(boxes) -> str:
    return "".join("box " + " ".join(_rational(c) for c in b) + "\n" for b in boxes)


def discretize_workload(rng: random.Random) -> Workload:
    files = {}

    def union_jobs(clusters, first: int) -> list[Job]:
        # --reduce needs a cover of every residue class, so those unions
        # hold a unit square.
        unions = [(c, d, r) for size, c, d, r in clusters for _ in range(size)]
        jobs = []
        for k, (count, den, reduce) in enumerate(unions, first):
            boxes = random_union(rng, count, den, unit_square=reduce)
            path = f"union-{k:02d}.txt"
            files[path] = boxes_text(boxes)
            argv = ("discretize", path, *(("--reduce",) if reduce else ()), "--json")
            meta = {"boxes": boxes, "reduce": reduce, "gap": Fraction(1, den * den)}
            jobs.append(Job(f"union-{k:02d}", argv, meta))
        return jobs

    def wide_jobs(lengths, first: int) -> list[Job]:
        jobs = []
        for k, length in enumerate(lengths, first):
            x0, y0 = Fraction(rng.randint(-20, 20), 2), Fraction(rng.randint(-20, 20), 2)
            boxes = [(x0, y0, x0 + length, y0 + 1)]
            path = f"wide-{k:02d}.txt"
            files[path] = boxes_text(boxes)
            meta = {"boxes": boxes, "reduce": False, "gap": squared_gap(boxes, 2)}
            jobs.append(Job(f"wide-{k:02d}", ("discretize", path, "--json"), meta))
        return jobs

    timed = union_jobs(DISCRETIZE_UNIONS, 0) + wide_jobs(DISCRETIZE_WIDE, 0)
    traced = union_jobs(DISCRETIZE_TRACED_UNIONS, 90) + wide_jobs(DISCRETIZE_TRACED_WIDE, 90)
    files["warmup.txt"] = boxes_text(random_union(rng, 2, 2, unit_square=False))
    rng.shuffle(timed)
    warmup = Job("warmup", ("discretize", "warmup.txt", "--json"))
    return Workload("discretize", timed, files, warmup, traced)


def _same_colour_edge_neighbours(colour: dict, n: int, i: int, j: int) -> int:
    c = colour[(i, j)]
    around = (((i + 1) % n, j), ((i - 1) % n, j), (i, (j + 1) % n), (i, (j - 1) % n))
    return sum(colour[sq] == c for sq in around)


def legal_square_colours(rng: random.Random, n: int, density: float) -> dict:
    """Random red and blue square sets that pass tilediff's square rules.

    A square with exactly one same-coloured edge neighbour would carry
    exactly one coloured edge, which the rules forbid, so such squares turn
    white until none is left. Squares without any same-coloured edge
    neighbour carry only white edges and turn white too.
    """
    colour = {}
    for i in range(n):
        for j in range(n):
            r = rng.random()
            colour[(i, j)] = "red" if r < density else ("blue" if r < 2 * density else "white")
    changed = True
    while changed:
        changed = False
        for sq, c in colour.items():
            if c != "white" and _same_colour_edge_neighbours(colour, n, *sq) < 2:
                colour[sq] = "white"
                changed = True
    return colour


def coloring_text(colour: dict, n: int) -> str:
    """Colour an edge when both of its squares share a colour.

    Horizontal edge (i, j) lies between squares (i, j) and (i, j-1);
    vertical edge (i, j) between squares (i, j) and (i-1, j).
    """
    lines = [f"n {n}"]
    for i in range(n):
        for j in range(n):
            below = colour[(i, (j - 1) % n)]
            lines.append(f"h {i} {j} {below if below == colour[(i, j)] else 'white'}")
    for i in range(n):
        for j in range(n):
            left = colour[((i - 1) % n, j)]
            lines.append(f"v {i} {j} {left if left == colour[(i, j)] else 'white'}")
    return "\n".join(lines) + "\n"


def analyze_workload(rng: random.Random) -> Workload:
    timed, traced, files = [], [], {}
    for k, n in enumerate(ANALYZE_SIZES + ANALYZE_TRACED_SIZES):
        jobs = timed if k < len(ANALYZE_SIZES) else traced
        colour = legal_square_colours(rng, n, ANALYZE_DENSITIES[k % len(ANALYZE_DENSITIES)])
        path = f"coloring-{k:02d}.txt"
        files[path] = coloring_text(colour, n)
        meta = {"n": n, "colour": colour}
        for mode in ("corner", "edge"):
            argv = ("analyze", path, "--mode", mode, "--json")
            jobs.append(Job(f"analyze-{mode}-{k:02d}", argv, dict(meta, mode=mode)))
        if k % RENDER_EVERY == 0:
            argv = ("render", path, "-o", f"coloring-{k:02d}.svg", "--show", "edges,colors,components")
            jobs.append(Job(f"render-coloring-{k:02d}", argv, {"svg": argv[3]}))
    for k, n in enumerate(RENDER_CONFIG_SIZES):
        path = f"config-{k:02d}.txt"
        files[path] = config_text(rng, n, random_config(rng, n, 1))
        argv = ("render", path, "-o", f"config-{k:02d}.svg", "--show", "edges,colors,labels")
        timed.append(Job(f"render-config-{k:02d}", argv, {"svg": argv[3]}))
    files["warmup.txt"] = coloring_text(legal_square_colours(rng, 8, 0.35), 8)
    rng.shuffle(timed)
    warmup = Job("warmup", ("analyze", "warmup.txt", "--json"))
    return Workload("analyze", timed, files, warmup, traced)


BUILDERS = {
    "search": search_workload,
    "check": check_workload,
    "discretize": discretize_workload,
    "analyze": analyze_workload,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs and job list; the same seed gives the same ones."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
