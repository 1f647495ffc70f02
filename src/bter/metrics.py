"""Measurement suite: degree histogram, triangles and clustering, spectrum.

Triangle counts are exact, via degree-ordered compact-forward counting in
numpy array passes (each triangle found once, at its lowest corner in
(degree, id) order), with wedges closed by search in the graph's own keys.
Besides the graph, the count holds int32 out-neighbour rows (4 B an edge;
8 B an edge while a transient sorted int64 key per edge becomes them in
its own buffer), int64 row starts and, unless only the totals are asked
for, per-node counts (length n), the out-degree grouping of the nodes that
centre an out-wedge, and one cache-sized pass; per-node counts are int64
sums. The leading adjacency eigenvalues are bter.spectrum's, which only a
report with the spectrum loads.
"""

import sys
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .reports import ALL_METRICS, MetricsReport
from .rng import substream  # noqa: F401  (bter.spectrum draws its starting vector here)

DEFAULT_TOP_K = 25

# bter.spectrum's public names resolve here too, importing it on first use
# (PEP 562), and compute_report calls the solver as this module's
# attribute: so a report without the spectrum never loads it, and a name
# replaced on bter.metrics from outside (say, by a wrapper that times it)
# is the one called.
_SPECTRUM_NAMES = ("SpectrumConvergenceError", "SpectrumReport", "top_eigenvalues")


def __getattr__(name: str):
    if name not in _SPECTRUM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectrum

    value = getattr(spectrum, name)
    globals()[name] = value
    return value


_metrics = sys.modules[__name__]


class TriangleWedgeCounts(NamedTuple):
    """Exact triangle/wedge totals and per-node breakdown.

    per_node_triangles[i] counts triangles containing node i, so its sum is
    3 * triangles; per_node_wedges[i] = C(degree(i), 2). Both are None
    when the count was made for the totals only.
    """

    triangles: int
    wedges: int
    per_node_triangles: np.ndarray | None
    per_node_wedges: np.ndarray | None


class ClusteringProfile(NamedTuple):
    """Global, per-node, and by-degree clustering coefficients.

    global_c is 3*triangles/wedges (0.0 for wedge-free graphs); per_node is
    NaN where a node centers no wedge, and such nodes are excluded from the
    by-degree means.
    """

    global_c: float
    per_node: np.ndarray
    by_degree: dict[int, tuple[float, int]]  # degree -> (mean C_i, node count)


# ---------------------------------------------------------------------------
# Triangles and clustering
# ---------------------------------------------------------------------------


# Wedges closed per array pass (edges are oriented a Graph.edge_chunks chunk
# at a time). Cache-sized, like the block sampler's _CHUNK: a pass holds
# about a dozen arrays of this length.
_WEDGE_CHUNK = 1 << 16

# Node counts below this keep the out-neighbour rows in int32, 4 B an edge;
# from it on, ids may not fit and the rows are int64.
_INT32_NODES = 1 << 31


def count_triangles_wedges(g: Graph, per_node: bool = True) -> TriangleWedgeCounts:
    """Exact triangle and wedge counts by degree-ordered compact-forward passes.

    Every edge is oriented toward its higher-(degree, id) end, so each
    triangle is the closed out-wedge of exactly one node, its lowest corner
    in that order, and out-degrees stay O(sqrt(m)). One transient int64 key
    ``src * n + dst`` per edge is sorted and turned, in its own buffer, into
    out-neighbour rows (int32 ids, sorted by id) with int64 row starts.
    Out-wedges v <- u -> w, v < w by id, are enumerated per out-degree
    class, at most about _WEDGE_CHUNK per pass (or one node's, where it has
    more), and closed by binary search for ``v * n + w`` in the graph's own
    keys. With per_node, each closed wedge adds one to each of its three
    corners in an int64 table, so per-node counts are exact at any size;
    without it a pass only counts its closed wedges, no table is made, and
    the per-node fields are None.
    """
    n, m = g.n, g.edge_count
    width = np.int64(max(n, 1))
    start = np.zeros(n + 1, dtype=np.int64)  # out-degrees, then row starts
    key = _oriented_keys(g, start[1:])
    np.cumsum(start, out=start)  # row u is rows[start[u]:start[u+1]]
    if n < _INT32_NODES:
        # the int32 rows go into the key's own buffer, row i in the bytes of
        # key i // 2, which a chunk has read before any later chunk writes
        # there; the buffer is then shrunk to them in place
        half = key.view(np.int32)[:m]
        for lo in range(0, m, _WEDGE_CHUNK):
            half[lo : lo + _WEDGE_CHUNK] = key[lo : lo + _WEDGE_CHUNK] % width
        del half
        key.resize((m + 1) // 2, refcheck=False)
        rows = key.view(np.int32)[:m]
    else:
        rows = np.remainder(key, width, out=key)
    del key
    out_deg = np.diff(start)
    by_out = np.flatnonzero(out_deg >= 2)  # the nodes that centre an out-wedge
    by_out = by_out[np.argsort(out_deg[by_out], kind="stable")]  # grouped by out-degree
    class_start = np.concatenate([[0], np.cumsum(np.bincount(out_deg[by_out]))])
    del out_deg

    table = np.zeros(n, dtype=np.int64) if per_node else None
    triangles = 0
    for k in range(2, len(class_start) - 1):
        nodes = by_out[class_start[k] : class_start[k + 1]]
        if not len(nodes):
            continue
        ti, tj = np.triu_indices(k, 1)
        step = max(1, _WEDGE_CHUNK // len(ti))
        for c in range(0, len(nodes), step):
            u = nodes[c : c + step]
            triangles += _close_wedges(g.keys, width, rows, start, u, ti, tj, table)
    del rows, start, by_out

    degrees = g.degrees
    wedge_at = degrees - 1
    wedge_at *= degrees
    wedge_at //= 2
    return TriangleWedgeCounts(
        triangles=triangles,
        wedges=int(wedge_at.sum()),
        per_node_triangles=table,
        per_node_wedges=wedge_at if per_node else None,
    )


def _oriented_keys(g: Graph, out_deg: np.ndarray) -> np.ndarray:
    """The sorted int64 keys ``src * n + dst`` of g's edges, each oriented
    toward its higher-(degree, id) end, made a Graph.edge_chunks chunk at a
    time; adds one to out_deg[src] for each."""
    degrees = g.degrees
    width = np.int64(max(g.n, 1))
    key = np.empty(g.edge_count, dtype=np.int64)
    filled = 0
    for u, v in g.edge_chunks():
        turn = degrees[u] > degrees[v]  # u < v, so u -> v unless u has the higher degree
        src = np.where(turn, v, u)
        np.add.at(out_deg, src, 1)
        src *= width
        src += np.where(turn, u, v)  # now the key src*n + dst
        key[filled : filled + len(src)] = src
        filled += len(src)
    key.sort()
    return key


def _close_wedges(keys, width, rows, start, u, ti, tj, table) -> int:
    """One pass of count_triangles_wedges: the out-wedges v <- u -> w that
    take entries ti < tj of each node u's row, closed by binary search for
    ``v * width + w`` in the graph's sorted keys. Returns how many closed
    and, given a per-node table, adds one there at each corner of each
    closed wedge. Its arrays are freed on return, before the next pass
    makes its own."""
    base = start[u, None]
    v, w = rows[base + ti], rows[base + tj]  # v < w: rows are sorted by id
    wedge_keys = v * width  # width is an np.int64, so the product is too
    wedge_keys += w
    pos = np.searchsorted(keys, wedge_keys)
    closed = keys.take(pos, mode="clip") == wedge_keys  # a search past the end: the last key
    if table is None:
        return int(np.count_nonzero(closed))
    table[u] += closed.sum(axis=1)  # u is each one's lowest corner
    hit = np.flatnonzero(closed)
    np.add.at(table, v.ravel()[hit], 1)
    np.add.at(table, w.ravel()[hit], 1)
    return len(hit)


def clustering_profile(
    g: Graph, counts: TriangleWedgeCounts | None = None
) -> ClusteringProfile:
    """Global C, per-node C_i, and mean C_i per degree.

    Nodes centering no wedge (degree < 2) have undefined C_i and are left
    out of the by-degree means.
    """
    if counts is None:
        counts = count_triangles_wedges(g)
    per_node = np.full(g.n, np.nan)
    defined = counts.per_node_wedges > 0
    per_node[defined] = (
        counts.per_node_triangles[defined] / counts.per_node_wedges[defined]
    )
    global_c = 3.0 * counts.triangles / counts.wedges if counts.wedges else 0.0

    by_degree: dict[int, tuple[float, int]] = {}
    # a stable sort keeps each degree's values in node order, so every mean
    # sums the same floats in the same order as a mask per degree would
    degs = g.degrees[defined]
    order = np.argsort(degs, kind="stable")
    degs, vals = degs[order], per_node[defined][order]
    cuts = np.flatnonzero(np.diff(degs)) + 1
    for first, sel in zip([0, *cuts.tolist()], np.split(vals, cuts)):
        if sel.size:
            by_degree[int(degs[first])] = (float(sel.mean()), int(sel.size))
    return ClusteringProfile(global_c=global_c, per_node=per_node, by_degree=by_degree)


def degree_histogram(g: Graph) -> dict[int, int]:
    """Realized degree counts, including a degree-0 entry for isolated nodes."""
    counts = np.bincount(g.degrees)
    values = np.flatnonzero(counts)
    return dict(zip(values.tolist(), counts[values].tolist()))


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def compute_report(
    g: Graph,
    metrics=("degree", "cc", "triangles"),
    top_k: int = DEFAULT_TOP_K,
    tol: float = 1e-8,
    seed: int = 0,
) -> MetricsReport:
    """Compute the requested measurement views for one graph."""
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    degree_hist = degree_histogram(g) if "degree" in metrics else None
    triangles = wedges = None
    global_c = None
    by_degree = None
    if "cc" in metrics or "triangles" in metrics:
        counts = count_triangles_wedges(g, per_node="cc" in metrics)
        triangles, wedges = counts.triangles, counts.wedges
        if "cc" in metrics:
            prof = clustering_profile(g, counts)
            global_c, by_degree = prof.global_c, prof.by_degree
        if "triangles" not in metrics:
            triangles = wedges = None
    eigenvalues = residuals = None
    if "spectrum" in metrics:
        spec = _metrics.top_eigenvalues(g, k=min(top_k, g.n), tol=tol, seed=seed)
        eigenvalues, residuals = spec.eigenvalues, spec.residuals
    return MetricsReport(
        n_nodes=g.n,
        n_edges=g.edge_count,
        degree_hist=degree_hist,
        triangles=triangles,
        wedges=wedges,
        global_c=global_c,
        by_degree_cc=by_degree,
        eigenvalues=eigenvalues,
        spectrum_residuals=residuals,
    )
