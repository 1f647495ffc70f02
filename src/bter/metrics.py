"""Measurement suite: degree histogram, triangles and clustering, spectrum.

Triangle counts are exact, via degree-ordered compact-forward counting in
numpy array passes (each triangle found once, at its lowest-ranked
corner). The leading adjacency eigenvalues come from ARPACK's implicitly
restarted Lanczos (scipy.sparse.linalg.eigsh), using only sparse
matrix-vector products, with every reported pair's residual checked
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .reports import ALL_METRICS, MetricsReport
from .rng import substream

_SPECTRUM_STREAM = 9


@dataclass(frozen=True)
class TriangleWedgeCounts:
    """Exact triangle/wedge totals and per-node breakdown.

    per_node_triangles[i] counts triangles containing node i, so its sum is
    3 * triangles; per_node_wedges[i] = C(degree(i), 2).
    """

    triangles: int
    wedges: int
    per_node_triangles: np.ndarray
    per_node_wedges: np.ndarray


@dataclass(frozen=True)
class ClusteringProfile:
    """Global, per-node, and by-degree clustering coefficients.

    global_c is 3*triangles/wedges (0.0 for wedge-free graphs); per_node is
    NaN where a node centers no wedge, and such nodes are excluded from the
    by-degree means.
    """

    global_c: float
    per_node: np.ndarray
    by_degree: dict[int, tuple[float, int]]  # degree -> (mean C_i, node count)


@dataclass(frozen=True)
class SpectrumReport:
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


_WEDGE_CHUNK = 1 << 20  # wedges closed per array pass; bounds the kernel's memory


def count_triangles_wedges(g: Graph) -> TriangleWedgeCounts:
    """Exact triangle and wedge counts by degree-ordered compact-forward passes.

    Nodes are ranked by (degree, id) and every edge is oriented toward the
    higher rank, so each triangle is the closed out-wedge of exactly one
    node, its lowest-ranked corner, and out-degrees stay O(sqrt(m)). Out-wedges
    are enumerated per out-degree class and closed by binary search in the
    sorted oriented edge keys, at most about _WEDGE_CHUNK wedges per pass, so
    memory stays bounded. Counts are exact.
    """
    n = g.n
    degrees = g.degrees.astype(np.int64)
    wedge_at = degrees * (degrees - 1) // 2

    order = np.argsort(degrees, kind="stable")  # rank -> node id
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ru, rv = rank[g.edges[:, 0]], rank[g.edges[:, 1]]
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    src, dst = np.divmod(keys, n)  # oriented CSR in rank space: dst sorted per src
    out_deg = np.bincount(src, minlength=n)
    start = np.cumsum(out_deg) - out_deg

    # slot_tri[e]: triangles whose lowest corner is src[e] and that use edge e
    slot_tri = np.zeros(len(keys), dtype=np.int64)
    by_out = np.argsort(out_deg, kind="stable")  # nodes grouped by out-degree
    classes, firsts = np.unique(out_deg[by_out], return_index=True)
    for k, nodes in zip(classes.tolist(), np.split(by_out, firsts[1:])):
        if k < 2:
            continue
        ti, tj = np.triu_indices(k, 1)
        step = max(1, _WEDGE_CHUNK // len(ti))
        for c in range(0, len(nodes), step):
            base = start[nodes[c : c + step], None]
            wedge_keys = dst[base + ti] * n + dst[base + tj]  # dst[.. ti] < dst[.. tj]
            pos = np.searchsorted(keys, wedge_keys)
            closed = keys[np.minimum(pos, len(keys) - 1)] == wedge_keys
            row, pair = np.nonzero(closed)
            slots = np.concatenate([row * k + ti[pair], row * k + tj[pair]])
            slot_tri[base + np.arange(k)] = np.bincount(
                slots, minlength=len(base) * k
            ).reshape(-1, k)

    # a triangle fills two slots of its lowest corner, and at each other
    # corner one slot that points to it (float64 sums, exact below 2**53)
    tri_rank = np.bincount(src, weights=slot_tri, minlength=n) // 2 + np.bincount(
        dst, weights=slot_tri, minlength=n
    )
    tri_at = np.empty(n, dtype=np.int64)
    tri_at[order] = tri_rank.astype(np.int64)
    return TriangleWedgeCounts(
        triangles=int(slot_tri.sum()) // 2,
        wedges=int(wedge_at.sum()),
        per_node_triangles=tri_at,
        per_node_wedges=wedge_at,
    )


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
    values, counts = np.unique(g.degrees, return_counts=True)
    return {int(d): int(c) for d, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

DEFAULT_TOP_K = 25


def top_eigenvalues(
    g: Graph,
    k: int = DEFAULT_TOP_K,
    tol: float = 1e-8,
    seed: int = 0,
    max_dim: int = 300,
) -> SpectrumReport:
    """Top-k adjacency eigenvalues by ARPACK's implicitly restarted Lanczos.

    One scipy ``eigsh`` call (which="LA", so largest by value, not by
    magnitude) runs to machine precision with a seeded starting vector and
    at most max_dim restarts; the matrix is touched only through counted
    sparse matvecs, reported as ``iterations``. When k >= n - 1, where
    ARPACK's Krylov space (more than k vectors, at most n) would be the
    whole space, the dense eigendecomposition is used instead (0 matvecs).
    Every returned pair is checked explicitly against
    ||A v - lambda v|| <= tol. Deterministic for a fixed seed.

    Raises SpectrumConvergenceError, carrying the pairs that did meet tol,
    if ARPACK runs out of restarts or a residual exceeds tol.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    if g.edge_count == 0:
        return SpectrumReport(
            eigenvalues=np.zeros(k),
            residuals=np.zeros(k),
            k=k,
            tolerance=tol,
            iterations=0,
        )

    # imported here, not at module top, so commands without a spectrum never load scipy
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    A = g.adjacency_csr()
    iterations = 0
    if k >= n - 1:
        vals, vecs = np.linalg.eigh(A.toarray())
        vals, vecs = vals[n - k :], vecs[:, n - k :]
    else:

        def matvec(x):
            nonlocal iterations
            iterations += 1
            return A @ x

        op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        v0 = substream(seed, _SPECTRUM_STREAM).standard_normal(n)
        try:
            vals, vecs = eigsh(op, k=k, which="LA", v0=v0, tol=0, maxiter=max_dim)
        except ArpackNoConvergence as exc:
            vals, vecs = exc.eigenvalues, exc.eigenvectors

    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    ok = residuals <= tol
    if len(vals) < k or not ok.all():
        partial = SpectrumReport(
            eigenvalues=vals[ok],
            residuals=residuals[ok],
            k=k,
            tolerance=tol,
            iterations=iterations,
        )
        raise SpectrumConvergenceError(
            f"{int(ok.sum())}/{k} eigenpairs met tol {tol:.3e} "
            f"(restart budget {max_dim}, {iterations} matvecs)",
            partial,
        )
    return SpectrumReport(
        eigenvalues=vals,
        residuals=residuals,
        k=k,
        tolerance=tol,
        iterations=iterations,
    )


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
        counts = count_triangles_wedges(g)
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
