"""In-memory spans around the public functions of each tilediff layer.

`Tracer.installed()` replaces each traced function, in every loaded tilediff
module that holds it, by a wrapper that records one span: bucket name,
start, end, parent span and an optional result size. Calls between modules
go through those module-level names, so nested calls such as
cli -> difference_set or discretization_exact -> cover_cells are caught.
Spans inside `--jobs` worker processes stay in the workers and are lost.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _count(result) -> int:
    return len(result)


# (module, function, bucket, size of the result or None)
TRACED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli", None),
    ("model", "parse_config", "model.parse", None),
    ("model", "parse_boxes", "model.parse", None),
    ("diffset", "difference_set", "diffset.difference_set", None),
    ("diffset", "lattice_span", "diffset.lattice_span", None),
    ("diffset", "axes_subset", "diffset.axes_subset", None),
    ("discretize", "epsilon_gap", "discretize.epsilon_gap", None),
    ("discretize", "discretization_exact", "discretize.discretization_exact", None),
    ("discretize", "cover_cells", "discretize.cover_cells", lambda cover: len(cover.cells)),
    ("discretize", "reduce_to_transversal", "discretize.reduce_to_transversal", None),
    ("torus", "parse_coloring", "torus.parse_coloring", None),
    ("torus", "square_colors", "torus.square_colors", None),
    ("torus", "vertex_labels", "torus.labels", None),
    ("torus", "edge_labels", "torus.labels", None),
    ("torus", "color_edges", "torus.labels", None),
    ("topology", "impossibility_audit", "topology.impossibility_audit", None),
    ("topology", "components", "topology.components", None),
    ("topology", "components_of_classes", "topology.components", _count),
    ("topology", "boundary_curves", "topology.boundary_curves", _count),
    ("topology", "pi1_image", "topology.pi1_image", None),
    ("topology", "interiors_decomposition", "topology.interiors_decomposition", None),
    ("search", "run_search", "search.run_search", None),
    ("render", "render_svg", "render.render_svg", lambda svg: len(svg.encode())),
)


@dataclass(frozen=True)
class Span:
    bucket: str
    job: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    size: Optional[int]


@dataclass
class BucketStats:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    size: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.job = ""
        self._stack: list[int] = []

    def _wrap(self, bucket: str, fn: Callable, size: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                measured = size(result) if size is not None and result is not None else None
                self.spans[index] = Span(bucket, self.job, start, end, parent, measured)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tilediff"]
        replaced = []
        try:
            for module, name, bucket, size in TRACED:
                original = getattr(importlib.import_module(f"tilediff.{module}"), name)
                wrapper = self._wrap(bucket, original, size)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(replaced):
                setattr(m, attr, original)

    def buckets(self, jobs: Optional[set] = None) -> dict[str, BucketStats]:
        """Self time, total time, calls and summed sizes per bucket.

        Self time is a span's duration minus the durations of its direct
        children. With `jobs`, only spans of those jobs count.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, BucketStats] = {}
        for index, span in enumerate(self.spans):
            if jobs is not None and span.job not in jobs:
                continue
            stats = out.setdefault(span.bucket, BucketStats())
            duration = span.end - span.start
            stats.total_s += duration
            stats.self_s += duration - child[index]
            stats.calls += 1
            stats.size += span.size or 0
        return out
