"""Measurement suite: degree histogram, triangles and clustering, spectrum.

Triangle counts are exact, via degree-ordered compact-forward counting in
numpy array passes (each triangle found once, at its lowest corner in
(degree, id) order), with wedges closed by search in the graph's own keys.
Besides the graph, the count holds int32 out-neighbour rows (4 B an edge;
8 B an edge while a transient sorted int64 key per edge becomes them in
its own buffer), int64 row starts and, unless only the totals are asked
for, per-node counts (length n), the out-degree grouping of the nodes that
centre an out-wedge, and one cache-sized pass; per-node counts are int64
sums. The leading adjacency eigenvalues are solved on the graph's leaf
quotient (each hub's degree-1 leaves merged into one weighted node), one
connected component at a time: small components by batched dense LAPACK
eigh, larger ones by ARPACK's implicitly restarted Lanczos
(scipy.sparse.linalg.eigsh), using only sparse matrix-vector products, with
every reported pair's residual checked explicitly.
"""

import math
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .reports import ALL_METRICS, MetricsReport
from .rng import substream

_SPECTRUM_STREAM = 9


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


class SpectrumReport(NamedTuple):
    """Leading adjacency eigenvalues, largest first, with residual norms.

    Every reported pair satisfies ||A v - lambda v|| <= tolerance for the
    unit Ritz vector v. iterations counts the sparse matvecs the solver
    applied.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    k: int
    tolerance: float
    iterations: int


class SpectrumConvergenceError(RuntimeError):
    """ARPACK ran out of restarts, or a returned pair missed the tolerance.

    partial holds only the pairs whose residual met the tolerance.
    """

    def __init__(self, message: str, partial: SpectrumReport):
        super().__init__(message)
        self.partial = partial


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
# Spectrum
# ---------------------------------------------------------------------------

DEFAULT_TOP_K = 25

# A connected component of at most this many nodes is solved densely, by
# LAPACK eigh batched over the components of its size; a larger one by
# ARPACK. At k=25 the two cost the same near 180 nodes (eigh with vectors
# against eigsh to machine precision, both with their residuals, on ER
# components of mean degree 3 and 20). top_eigenvalues also solves densely
# every component of at most twice eigsh's default Krylov dimension: where
# that space fills the component, ARPACK's results differ between calls in
# one process.
_DENSE_MAX = 160
# Matrix entries (8 B each) in one batched eigh: components of one size are
# solved this many entries at a time.
_DENSE_BATCH = 1 << 18
# A component on which ARPACK fails outright (not for want of restarts) is
# solved densely if it has at most this many nodes (a 32 MiB matrix).
_DENSE_FALLBACK_MAX = 1 << 11


def top_eigenvalues(
    g: Graph,
    k: int = DEFAULT_TOP_K,
    tol: float = 1e-8,
    seed: int = 0,
    max_dim: int = 300,
) -> SpectrumReport:
    """Top-k adjacency eigenvalues, one connected component at a time.

    The matrix solved is the adjacency matrix's leaf quotient (see
    _merge_leaves): it has every nonzero eigenvalue of the graph, and each
    merged-away leaf stands for one exact eigenvalue 0, of which min(zeros,
    k) join the candidates last, with residual 0. The quotient is block
    diagonal over the components, so its top k are the top k of the union
    of theirs. Sizes count the quotient's nodes: a component of more than
    max(_DENSE_MAX, 2 * ncv) nodes, ncv = max(2k + 1, 20) being eigsh's
    default Krylov dimension, goes to ARPACK's implicitly restarted Lanczos
    (scipy ``eigsh``, which="LA", so largest by value, not by magnitude),
    run to machine precision on the component's own rows and columns, with
    the seeded starting vector restricted to its nodes and at most max_dim
    restarts; ``iterations`` counts its sparse matvecs. The smaller ones
    then go to LAPACK eigh, batched by size (no matvecs). Components are
    solved in order of size, then of lowest node id. Each gives its top
    min(k, size) pairs, each with its residual ||A v - lambda v|| taken on
    that component, so no n-by-k vector matrix is built. The top k of the
    union, by value and then in solve order, are checked against tol.
    Deterministic for a fixed seed.

    Raises SpectrumConvergenceError, carrying the chosen pairs that did
    meet tol, if ARPACK runs out of restarts or fails on a component too
    big for a dense solve, or if a chosen residual exceeds tol.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    if g.edge_count == 0:
        return SpectrumReport(
            eigenvalues=np.zeros(k),
            residuals=np.zeros(k),
            k=k,
            tolerance=tol,
            iterations=0,
        )

    # imported here, not at module top, so commands without a spectrum never load scipy
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    root = _component_roots(g)
    A = g.adjacency_csr()
    kept, zeros = _merge_leaves(A)
    root = root[kept]  # dropping a leaf splits no component
    sizes = np.bincount(root, minlength=n)  # at each component's root
    order = kept[np.lexsort((root, sizes[root]))]  # by size, then root; ids ascending
    sizes = np.sort(sizes[sizes > 0])
    del root, kept
    A = A[order][:, order]  # block diagonal: one component after another
    dense = sizes <= max(_DENSE_MAX, 4 * k + 2, 40)  # and 2 * ncv, ncv = max(2k + 1, 20)
    lo = int(sizes[dense].sum())
    dense_part = A[:lo, :lo]
    sparse = []
    for s in sizes[~dense].tolist():
        sparse.append((order[lo : lo + s], A[lo : lo + s, lo : lo + s]))
        lo += s
    del A, order  # ARPACK's extraction sets the peak: only the components' own rows stay

    vals, residuals = [np.empty(0)], [np.empty(0)]  # each component's pairs, in solve order
    iterations = 0
    short = 0  # components ARPACK returned fewer than k pairs for
    v0 = substream(seed, _SPECTRUM_STREAM).standard_normal(n) if sparse else None
    for nodes, sub in sparse:

        def matvec(x, sub=sub):
            nonlocal iterations
            iterations += 1
            return sub @ x

        s = len(nodes)
        op = LinearOperator((s, s), matvec=matvec, dtype=np.float64)
        try:
            w, V = eigsh(op, k=k, which="LA", v0=v0[nodes], tol=0, maxiter=max_dim)
        except ArpackNoConvergence as exc:
            w, V = exc.eigenvalues, exc.eigenvectors
            short += 1
        except ArpackError:
            if s > _DENSE_FALLBACK_MAX:
                short += 1
                continue
            w, r = _dense_pairs(sub, [s], k)
            vals += w
            residuals += r
            continue
        vals.append(w)
        residuals.append(np.linalg.norm(sub @ V - V * w, axis=0))

    # after ARPACK, so that what LAPACK's dense solve loads is not resident at ARPACK's peak
    w, r = _dense_pairs(dense_part, sizes[dense], k)
    exact = [np.zeros(min(zeros, k))]  # the merged leaves' eigenvalue 0, exactly
    vals, residuals = np.concatenate(vals + w + exact), np.concatenate(residuals + r + exact)
    top = np.argsort(-vals, kind="stable")[:k]
    vals, residuals = vals[top], residuals[top]
    ok = residuals <= tol
    if short or not ok.all():
        partial = SpectrumReport(
            eigenvalues=vals[ok],
            residuals=residuals[ok],
            k=k,
            tolerance=tol,
            iterations=iterations,
        )
        stopped = f", ARPACK stopped early on {short} component(s)" if short else ""
        raise SpectrumConvergenceError(
            f"{int(ok.sum())}/{k} eigenpairs met tol {tol:.3e} "
            f"(restart budget {max_dim}, {iterations} matvecs{stopped})",
            partial,
        )
    return SpectrumReport(
        eigenvalues=vals,
        residuals=residuals,
        k=k,
        tolerance=tol,
        iterations=iterations,
    )


def _merge_leaves(A) -> tuple[np.ndarray, int]:
    """Merge each hub's degree-1 leaves into one weighted leaf, in place.

    Leaves of one hub (a neighbour of degree at least 2; a K2 stays as it
    is) are twins: e_i - e_j of any two is an eigenvector of eigenvalue 0,
    and every other eigenvector is constant on the bundle. So keeping the
    lowest-id leaf of a bundle of L, joined to the hub with weight sqrt(L),
    keeps every nonzero eigenvalue (the equitable-partition quotient,
    Cvetkovic, Rowlinson and Simic, "An Introduction to the Theory of Graph
    Spectra", 2010, ch. 3), and each of the L - 1 other leaves stands for
    one eigenvalue 0. For a unit eigenvector y of the quotient C, the unit
    vector x that spreads each kept leaf's entry evenly over its bundle has
    ||A x - lambda x|| = ||C y - lambda y||. Only the kept leaves' two
    entries of the symmetric CSR A change. Returns the kept node ids,
    ascending, and the number of merged-away leaves."""
    degree = np.diff(A.indptr)
    leaf = np.flatnonzero(degree == 1)
    hub = A.indices[A.indptr[leaf]]
    twin = degree[hub] >= 2
    leaf, hub = leaf[twin], hub[twin]
    hub, first, size = np.unique(hub, return_index=True, return_counts=True)
    kept = np.ones(len(degree), dtype=bool)
    kept[leaf] = False
    leaf = leaf[first]  # the lowest id of each hub's leaves
    kept[leaf] = True
    bundle = size > 1
    leaf, hub, weight = leaf[bundle], hub[bundle], np.sqrt(size[bundle])
    A[leaf, hub] = weight
    A[hub, leaf] = weight
    return np.flatnonzero(kept), int(len(degree) - kept.sum())


def _component_roots(g: Graph) -> np.ndarray:
    """Each node's connected component, named by its lowest node id.

    Min-label hooking with pointer jumping, in numpy passes over the edges:
    each round hooks, for every edge whose ends have different roots, the
    larger root under the smaller (the smallest offer wins), then jumps
    every node's pointer until it names a root, and drops the edges whose
    ends now share one. A pointer never rises, and each round merges at
    least one pair of roots; on the bter and CL graphs at n=1e4 and 1e5 it
    took 3 or 4 rounds."""
    root = np.arange(g.n)
    u, v = np.divmod(g.keys, np.int64(max(g.n, 1)))
    while len(u):
        ru, rv = root[u], root[v]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        del ru, rv
        while not np.array_equal(up := root[root], root):
            root = up
        apart = root[u] != root[v]
        u, v = u[apart], v[apart]
    return root


def _dense_pairs(A, sizes, k: int) -> tuple[list, list]:
    """The top min(k, s) eigenvalues of each diagonal block of the block
    diagonal A, whose block sizes s are ``sizes`` in order (equal sizes
    adjacent), largest first, and each pair's residual norm: lists of
    arrays, block after block. One LAPACK eigh per batch of equal blocks,
    at most _DENSE_BATCH matrix entries a batch."""
    A = A.tocoo()  # entries in row order
    vals, residuals = [], []
    lo = 0
    for s, count in zip(*np.unique(sizes, return_counts=True)):
        s, count = int(s), int(count)
        step = max(1, _DENSE_BATCH // (s * s))
        for first in range(0, count, step):
            blocks = min(step, count - first)
            a, b = np.searchsorted(A.row, [lo, lo + blocks * s])
            row, col = A.row[a:b] - lo, A.col[a:b] - lo
            batch = np.zeros((blocks, s, s))
            batch[row // s, row % s, col % s] = A.data[a:b]
            w, V = np.linalg.eigh(batch)  # ascending
            w, V = w[:, : -k - 1 : -1], V[:, :, : -k - 1 : -1]
            vals.append(w.ravel())
            residuals.append(np.linalg.norm(batch @ V - V * w[:, None, :], axis=1).ravel())
            lo += blocks * s
    return vals, residuals


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
        spec = top_eigenvalues(g, k=min(top_k, g.n), tol=tol, seed=seed)
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
