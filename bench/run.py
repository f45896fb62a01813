#!/usr/bin/env python3
"""tilediff benchmark: closed-loop command-line workloads and a traced run.

    python3 bench/run.py --workload search|check|discretize|analyze|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Each job is one call of
`tilediff.cli.main([...])` in this process, with its output captured; one
client runs the jobs in a closed loop, the next starting when the previous
returns. A pass runs every timed job of the workload once; passes repeat
until the next one would end after --seconds. Each job is preceded by a
fixed reference loop that uses no tilediff code, and the end-to-end times
are scaled by it to a fixed host speed (see reference_s). Every output is
checked after the timed passes (see checks.py).

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1 runs
one untraced pass of the workload's timed jobs, for the tracing overhead,
and one traced pass of every workload over its timed and traced-only jobs,
because each per-layer metric is measured on the workload it belongs to
(see README.md). The last line of standard output is one JSON object with
the verdict and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORK = WORK_ROOT / str(os.getpid())  # one directory per process

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples beyond the reported tail latency
# The reference loop's length, and about its time on a host running at
# full speed (a 2-vCPU VM, Python 3.11); scaled times are seconds on a host
# where the loop takes REFERENCE_S.
REFERENCE_LOOP = 16_000
REFERENCE_S = 1e-3


@functools.cache
def units() -> dict:
    """Metric name -> unit, for every metric BENCHMARK.json lists."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in bench[kind]}


@dataclass
class Outcome:
    code: object  # return value of main, or the SystemExit code
    stdout: str
    artifact: Optional[bytes] = None  # written SVG, for render jobs

    def digest(self) -> str:
        h = hashlib.sha256(repr(self.code).encode() + b"\0" + self.stdout.encode())
        h.update(self.artifact or b"")
        return h.hexdigest()


@dataclass
class Record:
    """Every timed run of each job: its latencies, its first outcome, and
    the jobs whose later outcomes differ from their first. Only the first
    outcome is kept, so memory does not grow with the number of passes."""

    latencies: dict = field(default_factory=dict)  # job name -> [seconds]
    references: dict = field(default_factory=dict)  # job name -> [reference_s() before each run]
    first: dict = field(default_factory=dict)  # job name -> Outcome
    digests: dict = field(default_factory=dict)  # job name -> first digest
    differs: set = field(default_factory=set)
    pass_walls: list = field(default_factory=list)

    def add(self, name: str, seconds: float, reference: float, outcome: Outcome):
        self.latencies.setdefault(name, []).append(seconds)
        self.references.setdefault(name, []).append(reference)
        digest = outcome.digest()
        if name not in self.first:
            self.first[name], self.digests[name] = outcome, digest
        elif digest != self.digests[name]:
            self.differs.add(name)


def reference_s() -> float:
    """Time of a fixed pure-Python loop that uses no tilediff code.

    The host's speed changes by up to 1.8x, in episodes from a fraction of
    a second to minutes, as other tenants load the shared cores. The loop
    slows with it, so a latency divided by the loop time measured just
    before it stays put while the host's speed moves.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """A time measured right after a reference loop that took `reference`,
    as seconds on a host where the loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


def import_cli():
    """Import tilediff afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tilediff"]:
        del sys.modules[name]
    import tilediff.cli

    return tilediff.cli


def run_job(cli, job) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a job outcome, checked later
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, Outcome(code, out.getvalue())


def run_pass(cli, jobs, workdir: Path, record: Record, tracer: Optional[Tracer] = None) -> float:
    """Run the jobs once, add them to the record and return the pass time."""
    gc.collect()
    latencies, references, outcomes = {}, {}, {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            references[job.name] = reference_s()
            latencies[job.name], outcomes[job.name] = run_job(cli, job)
        wall = time.perf_counter() - start
        for job in jobs:
            if "svg" in job.meta:
                path = Path(job.meta["svg"])
                outcomes[job.name].artifact = path.read_bytes() if path.exists() else b""
    finally:
        os.chdir(cwd)
    for job in jobs:
        record.add(job.name, latencies[job.name], references[job.name], outcomes[job.name])
    record.pass_walls.append(wall)
    return wall


def set_up(name: str, seed: int):
    """Import tilediff, generate and write the inputs, run one warm-up job."""
    start = time.perf_counter()
    cli = import_cli()
    wl = workloads.build(name, seed)
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for path, text in wl.files.items():
        (workdir / path).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run_job(cli, wl.warmup)
    finally:
        os.chdir(cwd)
    return time.perf_counter() - start, cli, wl, workdir


def verify(wl, record: Record):
    """Check the first outcome of every job that ran; returns (attempted,
    failed, reasons, checker). A job that fails counts once for each time
    it ran.
    """
    checker = {
        "search": checks.SearchChecker(),
        "check": checks.check_check,
        "discretize": checks.check_discretize,
        "analyze": checks.check_analyze,
    }[wl.name]
    reasons = {}
    jobs = [job for job in wl.jobs + wl.traced_only if job.name in record.first]
    for job in jobs:
        try:
            reason = checker(job, record.first[job.name])
        except Exception as exc:  # output of the wrong shape
            reason = f"unverifiable output: {type(exc).__name__}: {exc}"
        if reason is None and job.name in record.differs:
            reason = "output differs between passes"
        if reason:
            reasons[job.name] = reason
    if wl.name == "search":
        for job in jobs:
            if "same_as" in job.meta and job.name not in reasons:
                reason = checker.check_parallel(job)
                if reason:
                    reasons[job.name] = reason
    attempted = sum(len(runs) for runs in record.latencies.values())
    failed = sum(len(record.latencies[name]) for name in reasons)
    return attempted, failed, reasons, checker


def tail(latencies: list[float]) -> float:
    """Latency with TAIL_BEYOND samples above it."""
    return sorted(latencies)[len(latencies) - TAIL_BEYOND - 1]


def end_to_end(name: str, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        reference = reference_s()
        elapsed, cli, wl, workdir = set_up(name, seed)
        setups.append(scaled(elapsed, reference))
    record = Record()
    start = time.perf_counter()
    # Passes go on until the next one would end after `seconds`.
    while True:
        run_pass(cli, wl.jobs, workdir, record)
        pass_s = statistics.median(record.pass_walls)
        if time.perf_counter() - start + pass_s > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons, _ = verify(wl, record)
    # Each job counts with its median scaled latency over the passes.
    typical = [
        statistics.median(map(scaled, record.latencies[job.name], record.references[job.name]))
        for job in wl.jobs
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "job_p50_ms": 1e3 * statistics.median(typical),
        "job_tail_ms": 1e3 * tail(typical),
        "peak_rss_mib": peak_rss_mib,
    }
    references = [r for runs in record.references.values() for r in runs]
    info = {
        "unscaled_wall_s": sum(statistics.median(record.latencies[job.name]) for job in wl.jobs),
        "reference_ms": 1e3 * statistics.median(references),
        "passes": len(record.pass_walls),
        "jobs_per_pass": len(wl.jobs),
        "tail_percentile": round(100 * (len(wl.jobs) - TAIL_BEYOND) / len(wl.jobs), 1),
        "failed_ratio": failed / attempted,
    }
    return attempted, failed, reasons, metrics, info


@dataclass
class Traced:
    wl: object
    overhead_s: Optional[float]  # traced minus untraced time of the timed jobs
    tracer: Tracer
    checker: object
    verdict: tuple  # (attempted, failed, reasons)


def traced_pass(name: str, seed: int, with_plain: bool) -> Traced:
    """One traced pass over the timed and traced-only jobs, after an
    untraced pass of the timed jobs if asked."""
    _, cli, wl, workdir = set_up(name, seed)
    record = Record()
    if with_plain:
        run_pass(cli, wl.jobs, workdir, record)
    tracer = Tracer()
    with tracer.installed():
        run_pass(cli, wl.jobs + wl.traced_only, workdir, record, tracer)
    attempted, failed, reasons, checker = verify(wl, record)
    overhead = None
    if with_plain:
        overhead = sum(record.latencies[j.name][1] - record.latencies[j.name][0] for j in wl.jobs)
    return Traced(wl, overhead, tracer, checker, (attempted, failed, reasons))


def _search_layers(t: Traced) -> dict:
    docs = t.checker.docs
    jobs = t.wl.jobs + t.wl.traced_only
    frontier = [j for j in jobs if j.meta.get("frontier")]
    finished = [j for j in jobs if j.name in docs and not j.meta.get("frontier")]
    pruned = [j for j in finished if not j.meta.get("plain")]
    single = [j for j in pruned if "same_as" not in j.meta] + frontier
    n, b = workloads.SEARCH_TRACED_TWIN
    twin, parallel = f"pruned-{n}-{b}", f"jobs2-{n}-{b}"

    def nodes(job):
        if job.name in docs:
            return docs[job.name]["nodes_visited"]
        return workloads.DEFAULT_BUDGET + 1  # the engine stops on the first node past it

    def search_s(names):
        return t.tracer.buckets(set(names))["search.run_search"].total_s

    buckets = t.tracer.buckets()
    diffset = buckets["diffset.difference_set"]
    return {
        "search.run_search_s": buckets["search.run_search"].self_s,
        "search.nodes": sum(nodes(j) for j in finished),
        "search.nodes_per_s": sum(nodes(j) for j in single) / search_s(j.name for j in single),
        "search.cut_ratio": sum(c for j in pruned for _, c in docs[j.name]["witness_counts"])
        / sum(nodes(j) for j in pruned),
        "search.leaves": sum(docs[j.name]["configs_enumerated"] for j in finished),
        "search.frontier_nodes": sum(nodes(j) for j in frontier),
        "search.frontier_solved": t.checker.frontier_solved,
        "search.parallel_efficiency": search_s([twin]) / (2 * search_s([parallel])),
        "diffset.call_us": 1e6 * diffset.total_s / diffset.calls,
    }


# Per-layer metric -> (workload it is measured on, traced bucket), for the
# plain self-time metrics; the rest are computed below.
SELF_TIMES = {
    "diffset.difference_set_s": ("check", "diffset.difference_set"),
    "diffset.lattice_span_s": ("check", "diffset.lattice_span"),
    "diffset.axes_subset_s": ("check", "diffset.axes_subset"),
    "topology.impossibility_audit_s": ("check", "topology.impossibility_audit"),
    "discretize.epsilon_gap_s": ("discretize", "discretize.epsilon_gap"),
    "discretize.discretization_exact_s": ("discretize", "discretize.discretization_exact"),
    "discretize.cover_cells_s": ("discretize", "discretize.cover_cells"),
    "discretize.reduce_to_transversal_s": ("discretize", "discretize.reduce_to_transversal"),
    "torus.square_colors_s": ("analyze", "torus.square_colors"),
    "torus.labels_s": ("analyze", "torus.labels"),
    "torus.parse_coloring_s": ("analyze", "torus.parse_coloring"),
    "topology.components_s": ("analyze", "topology.components"),
    "topology.boundary_curves_s": ("analyze", "topology.boundary_curves"),
    "topology.interiors_decomposition_s": ("analyze", "topology.interiors_decomposition"),
    "render.render_svg_s": ("analyze", "render.render_svg"),
}


def per_layer(seed: int, overhead_for: set):
    """Trace every workload once and measure each layer on its own workload.

    Returns the verdict, the layer metrics, and the tracing overhead (traced
    minus untraced pass time) of each workload in overhead_for.
    """
    runs = {w: traced_pass(w, seed, w in overhead_for) for w in workloads.WORKLOADS}
    buckets = {w: t.tracer.buckets() for w, t in runs.items()}
    layers = {m: buckets[w][b].self_s for m, (w, b) in SELF_TIMES.items()}
    layers.update(_search_layers(runs["search"]))
    # Total time: pi1_image's only traced child is lattice_span, which runs
    # nowhere else on analyze.
    layers["topology.pi1_image_s"] = buckets["analyze"]["topology.pi1_image"].total_s
    layers["diffset.difference_set_calls"] = buckets["check"]["diffset.difference_set"].calls
    layers["discretize.cells"] = buckets["discretize"]["discretize.cover_cells"].size
    layers["topology.components"] = buckets["analyze"]["topology.components"].size
    layers["topology.curves"] = buckets["analyze"]["topology.boundary_curves"].size
    layers["render.svg_bytes"] = buckets["analyze"]["render.render_svg"].size
    for metric, bucket in (("model.parse_s", "model.parse"), ("cli.self_s", "cli")):
        layers[metric] = sum(buckets[w][bucket].self_s for w in ("check", "analyze"))
    overheads = {w: runs[w].overhead_s for w in overhead_for}
    attempted = sum(t.verdict[0] for t in runs.values())
    failed = sum(t.verdict[1] for t in runs.values())
    reasons = {f"{w}/{job}": why for w, t in runs.items() for job, why in t.verdict[2].items()}
    return attempted, failed, reasons, layers, overheads


def result_doc(attempted, failed, reasons, values: dict, info: dict, label: str, prefix=""):
    """Print the metrics for people and return the result object; prefix
    goes in front of each metric name."""
    for job, why in sorted(reasons.items()):
        print(f"FAILED {label}/{job}: {why}")
    for key, value in info.items():
        print(f"{label} {key} {value}")
    for metric, value in values.items():
        print(f"{label} {prefix}{metric} {value:.6g} {units()[metric]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {prefix + m: {"value": v, "unit": units()[m]} for m, v in values.items()},
    }


def run_end_to_end(name: str, seed: int, seconds: float, prefix="") -> dict:
    attempted, failed, reasons, values, info = end_to_end(name, seed, seconds)
    return result_doc(attempted, failed, reasons, values, info, name, prefix)


def run_per_layer(names: list, seed: int) -> dict:
    """The per-layer metrics, with the tracing overhead of each named workload."""
    attempted, failed, reasons, layers, overheads = per_layer(seed, set(names))
    docs = [result_doc(attempted, failed, reasons, layers, {}, "trace")]
    for w in names:
        overhead = {"trace.overhead_s": overheads[w]}
        docs.append(result_doc(0, 0, {}, overhead, {}, "trace", f"{w}." if len(names) > 1 else ""))
    return merge(docs)


def merge(docs: list[dict]) -> dict:
    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {m: v for d in docs for m, v in d["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tilediff" / "cli.py").is_file():
        print(f"error: no tilediff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            docs = [run_end_to_end(w, args.seed, args.seconds, f"{w}.") for w in workloads.WORKLOADS]
            docs.append(run_per_layer(list(workloads.WORKLOADS), args.seed))
            result = merge(docs)
        elif args.trace:
            result = run_per_layer([args.workload], args.seed)
        else:
            result = run_end_to_end(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
