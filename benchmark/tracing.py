"""Per-layer spans and counts, recorded from outside the program.

The traced run calls ``bter.cli.main`` in-process. For its duration the
layers' public functions are replaced, at the module attributes where the
CLI and the library resolve them, by wrappers that record a span (name,
start, end, parent, run id, side) plus counts derived from the result.
Nothing under ``src/`` is edited and the wrappers return the wrapped
function's result unchanged; the benchmark checks that by hashing the
outputs of traced and untraced passes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

MB = float(1 << 20)


def _trace_counts(result, args, kwargs) -> dict:
    stats = result[1].stats
    return {"raw_edges": stats.raw_edges, "kept": stats.kept}


# (module, attribute path, span name, counts(result, args, kwargs) or None).
# A layer resolved under several modules is patched at each of them.
PATCH_POINTS = [
    ("bter.cli", "cmd_generate", "cli.cmd_generate", None),
    ("bter.cli", "cmd_analyze", "cli.cmd_analyze", None),
    ("bter.cli", "cmd_audit", "cli.cmd_audit", None),
    ("bter.cli", "cmd_compare", "cli.cmd_compare", None),
    ("bter.cli", "synthesize_powerlaw", "degrees.synthesize_powerlaw", None),
    ("bter.cli", "preprocess", "communities.preprocess",
     lambda r, a, k: {"blocks": r.block_count}),
    ("bter.generate", "preprocess", "communities.preprocess",
     lambda r, a, k: {"blocks": r.block_count}),
    ("bter.cli", "write_partition_csv", "communities.write_partition_csv", None),
    ("bter.cli", "read_partition_csv", "communities.read_partition_csv", None),
    ("bter.generate", "substream", "rng.substream", None),
    ("bter.metrics", "substream", "rng.substream", None),
    ("bter.cli", "generate_bter", "generate.generate_bter", _trace_counts),
    ("bter.cli", "generate_cl", "generate.generate_cl", None),
    ("bter.cli", "write_edgelist", "graph.write_edgelist",
     lambda r, a, k: {"bytes": os.path.getsize(a[1])}),
    ("bter.cli", "read_snap_edgelist", "graph.read_snap_edgelist",
     lambda r, a, k: {"bytes": os.path.getsize(a[0])}),
    ("bter.generate", "build_graph", "graph.build_graph", None),
    ("bter.graph", "build_graph", "graph.build_graph", None),
    ("bter.graph", "Graph.adjacency_csr", "graph.Graph.adjacency_csr", None),
    ("bter.cli", "compute_report", "metrics.compute_report", None),
    ("bter.metrics", "count_triangles_wedges", "metrics.count_triangles_wedges", None),
    ("bter.metrics", "clustering_profile", "metrics.clustering_profile", None),
    ("bter.metrics", "top_eigenvalues", "metrics.top_eigenvalues",
     lambda r, a, k: {"iterations": r.iterations, "pairs": r.k}),
    ("bter.cli", "internal_degrees_by_block", "theory.internal_degrees_by_block", None),
    ("bter.cli", "audit_community", "theory.audit_community", None),
]

# Functions whose peak allocation the separate tracemalloc pass records.
PEAK_POINTS = [
    ("bter.cli", "generate_bter", "generate.generate_bter"),
    ("bter.cli", "generate_cl", "generate.generate_cl"),
    ("bter.metrics", "count_triangles_wedges", "metrics.count_triangles_wedges"),
    ("bter.metrics", "top_eigenvalues", "metrics.top_eigenvalues"),
]


@contextmanager
def patched(points, make_wrapper):
    """Replace each (owner, attribute) by make_wrapper(name, fn, extra); restore after."""
    saved = []
    try:
        for module, path, name, *extra in points:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original, *extra))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    side: str | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run = ""
        self.side: str | None = None

    def wrapper(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.run, name, self.side, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result

        return traced

    def installed(self):
        return patched(PATCH_POINTS, self.wrapper)


class PeakRecorder:
    """Peak traced allocation per function, tracemalloc running only inside it."""

    def __init__(self):
        self.peak_mb: dict[str, float] = defaultdict(float)

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb[name], peak)

        return measured

    def installed(self):
        return patched(PEAK_POINTS, self.wrapper)


class SpanStats:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans: list[Span]):
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        self.self_time = {s.id: s.seconds - child_time[s.id] for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.spans = spans

    def _select(self, name, side):
        return [s for s in self.by_name.get(name, ()) if side is None or s.side == side]

    def total(self, name, side=None) -> float:
        return sum(s.seconds for s in self._select(name, side))

    def self_total(self, name, side=None) -> float:
        return sum(self.self_time[s.id] for s in self._select(name, side))

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def count(self, name, key, side=None) -> int:
        return sum(s.counts.get(key, 0) for s in self._select(name, side))

    def tree(self) -> list[tuple[int, str, int, float, float]]:
        """(depth, name, calls, total s, self s) per call path, in first-seen order."""
        path_of: dict[int, tuple[str, ...]] = {}
        agg: dict[tuple[str, ...], list] = {}
        for s in self.spans:  # parents are appended before their children
            path = (path_of[s.parent] if s.parent is not None else ()) + (s.name,)
            path_of[s.id] = path
            row = agg.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += self.self_time[s.id]
        return [(len(p) - 1, p[-1], *row) for p, row in agg.items()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sided(name, unit, fn):
    return [(f"{name}.{side}", unit, functools.partial(fn, side=side)) for side in ("bter", "cl")]


# Span-derived per-layer metrics: (name, unit, fn(SpanStats)).
SPAN_METRICS = [
    ("rng.substream.calls", "count", lambda t: t.calls("rng.substream")),
    ("rng.substream.s", "s", lambda t: t.total("rng.substream")),
    ("communities.preprocess.s", "s", lambda t: t.total("communities.preprocess")),
    ("communities.preprocess.calls", "count", lambda t: t.calls("communities.preprocess")),
    ("communities.blocks", "count",
     lambda t: max((s.counts["blocks"] for s in t.by_name.get("communities.preprocess", ())),
                   default=0)),
    ("communities.write_partition_csv.s", "s",
     lambda t: t.total("communities.write_partition_csv")),
    ("communities.read_partition_csv.s", "s",
     lambda t: t.total("communities.read_partition_csv")),
    ("generate.generate_bter.self_s", "s", lambda t: t.self_total("generate.generate_bter")),
    ("generate.raw_edges", "count", lambda t: t.count("generate.generate_bter", "raw_edges")),
    ("generate.kept_frac", "ratio",
     lambda t: _ratio(t.count("generate.generate_bter", "kept"),
                      t.count("generate.generate_bter", "raw_edges"))),
    ("generate.generate_cl.self_s", "s", lambda t: t.self_total("generate.generate_cl")),
    *_sided("graph.write_edgelist.s", "s",
            lambda t, side: t.total("graph.write_edgelist", side)),
    ("graph.write_edgelist.mb_per_s", "MB/s",
     lambda t: _ratio(t.count("graph.write_edgelist", "bytes") / MB,
                      t.total("graph.write_edgelist"))),
    *_sided("graph.read_snap_edgelist.self_s", "s",
            lambda t, side: t.self_total("graph.read_snap_edgelist", side)),
    ("graph.read_snap_edgelist.mb_per_s", "MB/s",
     lambda t: _ratio(t.count("graph.read_snap_edgelist", "bytes") / MB,
                      t.self_total("graph.read_snap_edgelist"))),
    ("graph.build_graph.s", "s", lambda t: t.total("graph.build_graph")),
    ("graph.build_graph.calls", "count", lambda t: t.calls("graph.build_graph")),
    ("graph.Graph.adjacency_csr.s", "s", lambda t: t.total("graph.Graph.adjacency_csr")),
    *_sided("metrics.count_triangles_wedges.s", "s",
            lambda t, side: t.total("metrics.count_triangles_wedges", side)),
    ("metrics.count_triangles_wedges.calls", "count",
     lambda t: t.calls("metrics.count_triangles_wedges")),
    ("metrics.clustering_profile.s", "s", lambda t: t.total("metrics.clustering_profile")),
    *_sided("metrics.top_eigenvalues.s", "s",
            lambda t, side: t.total("metrics.top_eigenvalues", side)),
    *_sided("metrics.spectrum.iterations", "count",
            lambda t, side: t.count("metrics.top_eigenvalues", "iterations", side)),
    *_sided("metrics.spectrum.pairs_per_iteration", "ratio",
            lambda t, side: _ratio(t.count("metrics.top_eigenvalues", "pairs", side),
                                   t.count("metrics.top_eigenvalues", "iterations", side))),
    ("theory.internal_degrees_by_block.s", "s",
     lambda t: t.total("theory.internal_degrees_by_block")),
    ("theory.audit_community.s", "s", lambda t: t.total("theory.audit_community")),
    ("theory.audit_community.calls", "count", lambda t: t.calls("theory.audit_community")),
    ("degrees.synthesize_powerlaw.s", "s", lambda t: t.total("degrees.synthesize_powerlaw")),
    ("cli.cmd_generate.self_s", "s", lambda t: t.self_total("cli.cmd_generate")),
    ("cli.cmd_analyze.self_s", "s", lambda t: t.self_total("cli.cmd_analyze")),
    ("cli.cmd_audit.self_s", "s", lambda t: t.self_total("cli.cmd_audit")),
]

PEAK_METRICS = [(f"{name}.peak_alloc_mb", "MB", name) for _, _, name in PEAK_POINTS]

# Measured by the runner around the traced pass rather than from spans.
RUN_METRICS = [("cli.import_s", "s"), ("trace.overhead_s", "s")]

LAYER_METRICS = (
    [(name, unit) for name, unit, _ in SPAN_METRICS]
    + [(name, unit) for name, unit, _ in PEAK_METRICS]
    + RUN_METRICS
)


def layer_metrics(spans: list[Span], peak_mb: dict[str, float]) -> dict[str, float]:
    stats = SpanStats(spans)
    values = {name: fn(stats) for name, _, fn in SPAN_METRICS}
    values.update({name: peak_mb.get(src, 0.0) for name, _, src in PEAK_METRICS})
    return values
