"""Leading adjacency eigenvalues, solved on the graph's leaf quotient.

Each hub's degree-1 leaves are merged into one weighted node, and the
quotient is solved one connected component at a time: small components by
batched dense LAPACK eigh, larger ones by a thick-restart Lanczos in numpy
(Wu and Simon, "Thick-restart Lanczos method for large symmetric eigenvalue
problems", SIAM J. Matrix Anal. Appl. 22(2), 2000), using only sparse
matrix-vector products, with every reported pair's residual checked
explicitly. The quotient is built from numpy arrays; only a component with
more than _SCIPY_ENTRIES stored entries multiplies through
``scipy.sparse``, and nothing here loads ``scipy.sparse.linalg``.
"""

import math
from typing import NamedTuple

import numpy as np

from . import metrics
from .graph import Graph, adjacency_arrays

_SPECTRUM_STREAM = 9


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
    """Lanczos ran out of restarts, or a returned pair missed the tolerance.

    partial holds only the pairs whose residual met the tolerance.
    """

    def __init__(self, message: str, partial: SpectrumReport):
        super().__init__(message)
        self.partial = partial


# A connected component of at most this many nodes is solved densely, by
# LAPACK eigh batched over the components of its size; a larger one by
# Lanczos. At k=25 the two cost the same near 180 nodes (eigh with vectors
# against an iterative solve to machine precision, both with their
# residuals, on ER components of mean degree 3 and 20). top_eigenvalues
# also solves densely every component of at most twice the Krylov
# dimension, which Lanczos needs to be well below the component's size.
_DENSE_MAX = 160
# Matrix entries (8 B each) in one batched eigh: components of one size are
# solved this many entries at a time.
_DENSE_BATCH = 1 << 18
# A component with more stored entries than this multiplies through
# scipy.sparse's CSR product; a smaller one by np.bincount, which saves
# scipy.sparse's ~140 ms import. A product took 110 against 49 us at 30k
# entries, 2.29 against 0.77 ms at 395k; whole `analyze --metrics spectrum`
# runs on CL graphs whose giant has 64k, 135k and 209k entries took 0.60,
# 1.05 and 1.50 s by bincount against 0.82, 1.11 and 1.33 s by scipy.
_SCIPY_ENTRIES = 1 << 17
# ARPACK's tol=0: LAPACK's dlamch("E"), and the floor eps**(2/3) on the
# scale a Ritz value's error bound is measured against.
_EPS = 2.0**-53
_EPS23 = _EPS ** (2 / 3)
# Basis columns the restart's product rewrites at a time, so that it makes
# no temporary as large as the basis.
_ROTATE_CHUNK = 1 << 12


def top_eigenvalues(
    g: Graph,
    k: int = metrics.DEFAULT_TOP_K,
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
    max(_DENSE_MAX, 2 * ncv) nodes, ncv = max(2k + 1, 20) being the Krylov
    dimension, goes to thick-restart Lanczos (_lanczos, largest by value,
    not by magnitude), run to machine precision on the component's own
    rows and columns, with the seeded starting vector restricted to its
    nodes and at most max_dim restarts; ``iterations`` counts its sparse
    matvecs. The smaller ones then go to LAPACK eigh, batched by size (no
    matvecs). Components are solved in order of size, then of lowest node
    id. Each gives its top min(k, size) pairs, each with its residual
    ||A v - lambda v|| taken on that component, so no n-by-k vector matrix
    is built. The top k of the union, by value and then in solve order, are
    checked against tol. Deterministic for a fixed seed.

    Raises SpectrumConvergenceError, carrying the chosen pairs that did
    meet tol, if Lanczos runs out of restarts or a chosen residual exceeds
    tol.
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

    root = _component_roots(g)
    kept, zeros, weight = _merge_leaves(g)
    root = root[kept]  # dropping a leaf splits no component
    sizes = np.bincount(root, minlength=n)  # at each component's root
    by_component = np.lexsort((root, sizes[root]))  # by size, then root; ids ascending
    order, weight = kept[by_component], weight[by_component]
    sizes = np.sort(sizes[sizes > 0])
    del root, kept, by_component
    # the quotient's pattern in that order: block diagonal, one component
    # after another, each row's columns ascending
    label = np.empty(n, dtype=np.int64)
    label[order] = np.arange(len(order))
    pairs = _kept_pairs(g, order, label)
    indptr, indices = adjacency_arrays(len(order), pairs, g.edge_count - zeros)
    del label
    dense = sizes <= max(_DENSE_MAX, 4 * k + 2, 40)  # and 2 * ncv, ncv = max(2k + 1, 20)
    lo = int(sizes[dense].sum())

    vals, residuals = [np.empty(0)], [np.empty(0)]  # each component's pairs, in solve order
    iterations = 0
    short = 0  # components Lanczos returned fewer than k pairs for
    if not dense.all():
        # through metrics' attribute, where benchmark/tracing.py counts it
        stream = metrics.substream(seed, _SPECTRUM_STREAM)
        v0 = stream.standard_normal(n)
    for s in sizes[~dense].tolist():
        a, b = int(indptr[lo]), int(indptr[lo + s])
        cols = indices[a:b]
        cols -= lo  # in place: the component's own columns
        product = _product(indptr[lo : lo + s + 1] - a, cols, weight[lo : lo + s])
        w, X, done, steps = _lanczos(product, k, v0[order[lo : lo + s]], stream, max_dim)
        iterations += steps
        short += not done
        vals.append(w)
        residuals.append(np.array([np.linalg.norm(product(x) - t * x) for t, x in zip(w, X)]))
        del product, X
        lo += s

    w, r = _dense_pairs(indptr, indices, weight, sizes[dense], k)
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
        stopped = f", Lanczos stopped early on {short} component(s)" if short else ""
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


def _merge_leaves(g: Graph) -> tuple[np.ndarray, int, np.ndarray]:
    """The leaf quotient: each hub's degree-1 leaves merged into one weighted leaf.

    Leaves of one hub (a neighbour of degree at least 2; a K2 stays as it
    is) are twins: e_i - e_j of any two is an eigenvector of eigenvalue 0,
    and every other eigenvector is constant on the bundle. So keeping the
    lowest-id leaf of a bundle of L, joined to the hub with weight sqrt(L),
    keeps every nonzero eigenvalue (the equitable-partition quotient,
    Cvetkovic, Rowlinson and Simic, "An Introduction to the Theory of Graph
    Spectra", 2010, ch. 3), and each of the L - 1 other leaves stands for
    one eigenvalue 0. For a unit eigenvector y of the quotient C, the unit
    vector x that spreads each kept leaf's entry evenly over its bundle has
    ||A x - lambda x|| = ||C y - lambda y||. A kept leaf's one neighbour is
    its hub, so C = W A' W, where A' is the adjacency among the kept nodes
    and W the diagonal of node weights: sqrt(L) at a kept leaf of a bundle
    of L, 1 elsewhere. Returns the kept node ids, ascending, the number of
    merged-away leaves, and the kept nodes' weights."""
    degree = g.degrees
    hub = np.empty(g.n, dtype=np.int64)  # read at the leaves only
    for u, v in g.edge_chunks():
        leaf = degree[u] == 1
        hub[u[leaf]] = v[leaf]
        leaf = degree[v] == 1
        hub[v[leaf]] = u[leaf]
    leaf = np.flatnonzero(degree == 1)
    hub = hub[leaf]
    twin = degree[hub] >= 2
    leaf, hub = leaf[twin], hub[twin]
    hub, first, size = np.unique(hub, return_index=True, return_counts=True)
    kept = np.ones(g.n, dtype=bool)
    kept[leaf] = False
    leaf = leaf[first]  # the lowest id of each hub's leaves
    kept[leaf] = True
    weight = np.ones(g.n)
    weight[leaf] = np.sqrt(size)
    kept = np.flatnonzero(kept)
    return kept, g.n - len(kept), weight[kept]


def _kept_pairs(g: Graph, order: np.ndarray, label: np.ndarray):
    """g's edges between kept nodes, a Graph.edge_chunks chunk at a time, as
    their ends' positions in order (label, read at order only). Within a
    component order is ascending, so each pair stays lower end first."""
    kept = np.zeros(g.n, dtype=bool)
    kept[order] = True
    for u, v in g.edge_chunks():
        both = kept[u] & kept[v]
        yield label[u[both]], label[v[both]]


def _product(indptr, cols, weight):
    """x -> C x for one component of the quotient, C = W A' W (see
    _merge_leaves), given its rows' starts and its columns. The entries
    are weight[row] * weight[col]; above _SCIPY_ENTRIES of them, a
    scipy.sparse CSR product, and below, np.bincount over the entries into
    preallocated buffers."""
    s = len(weight)
    rows = np.repeat(np.arange(s, dtype=cols.dtype), np.diff(indptr))
    data = weight[rows]
    data *= weight[cols]
    if len(cols) > _SCIPY_ENTRIES:
        import scipy.sparse as sp

        del rows
        return sp.csr_matrix((data, cols, indptr), shape=(s, s)).dot
    # take and bincount copy any other index type to intp on every call
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)
    buf = np.empty(len(cols))

    def product(x):
        np.multiply(np.take(x, cols, out=buf), data, out=buf)
        return np.bincount(rows, buf, minlength=s)

    return product


def _lanczos(matvec, k: int, v0: np.ndarray, stream, max_dim: int):
    """The top k eigenpairs of the symmetric operator matvec, by thick-restart Lanczos.

    A Krylov basis of ncv = max(2k + 1, 20) vectors, started at v0, is
    built with full reorthogonalization: classical Gram-Schmidt against the
    whole basis, repeated (DGKS) while the norm drops below 0.717 of its
    value before the pass, at most twice more. If the new vector still
    fails that test it lies in the basis's span (an invariant subspace): a
    fresh vector drawn from stream, orthogonalized against the basis, takes
    its place with coupling 0, as ARPACK's dgetv0 does. The projected
    matrix is solved by LAPACK eigh; a Ritz value theta has converged when
    its error bound |beta s| is at most eps * max(eps**(2/3), |theta|),
    ARPACK's test at tol=0. Until the top k have, a restart keeps the top k
    + (ncv - k) // 2 Ritz vectors, coupled to the residual vector by an
    arrow, and extends the basis from there; at most max_dim bases are
    built. Returns the Ritz values, largest first, their unit Ritz vectors
    as the rows of a view of the basis, whether all k converged (if not,
    only the converged pairs are returned), and the matvecs applied."""
    s = len(v0)
    m = max(2 * k + 1, 20)
    V = np.empty((m + 1, s))
    T = np.zeros((m, m))  # the projected matrix
    V[0] = v0 / np.linalg.norm(v0)
    p = 0  # Ritz vectors kept by the last restart
    steps = 0
    for restart in range(max_dim):
        steps += m - p
        for j in range(p, m):
            basis = V[: j + 1]
            r = matvec(V[j])
            before = np.linalg.norm(r)
            h = basis @ r
            r -= h @ basis
            T[j, j] = h[j]
            beta = np.linalg.norm(r)
            passes = 0
            while beta <= 0.717 * before:
                if passes == 2:  # r is in the basis's span
                    beta = 0.0
                    r = stream.standard_normal(s)
                    for _ in range(2):
                        r -= (basis @ r) @ basis
                    r /= np.linalg.norm(r)
                    break
                h = basis @ r
                r -= h @ basis
                T[j, j] += h[j]
                before, beta = beta, np.linalg.norm(r)
                passes += 1
            V[j + 1] = r / beta if beta else r
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, S = np.linalg.eigh(T)
        theta, S = theta[::-1], S[:, ::-1]  # largest first
        bound = np.abs(beta * S[m - 1])
        converged = bound[:k] <= _EPS * np.maximum(_EPS23, np.abs(theta[:k]))
        if converged.all():
            _rotate(V, S[:, :k])
            return theta[:k], V[:k], True, steps
        if restart + 1 == max_dim:
            keep = np.flatnonzero(converged)
            _rotate(V, S[:, keep])
            return theta[keep], V[: len(keep)], False, steps
        p = k + (m - k) // 2
        _rotate(V, S[:, :p])
        V[p] = V[m]
        T[:] = 0.0
        np.fill_diagonal(T[:p, :p], theta[:p])
        T[:p, p] = T[p, :p] = beta * S[m - 1, :p]
    raise ValueError(f"max_dim must be at least 1, got {max_dim}")


def _rotate(V: np.ndarray, S: np.ndarray) -> None:
    """V[:q] = S.T @ V[:m] in place, for the m-by-q S: the Ritz vectors of
    the basis's first m rows, made _ROTATE_CHUNK columns at a time."""
    m, q = S.shape
    St = np.ascontiguousarray(S.T)
    for lo in range(0, V.shape[1], _ROTATE_CHUNK):
        V[:q, lo : lo + _ROTATE_CHUNK] = St @ V[:m, lo : lo + _ROTATE_CHUNK]


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


def _dense_pairs(indptr, indices, weight, sizes, k: int) -> tuple[list, list]:
    """The top min(k, s) eigenvalues of each of the quotient's first
    components, whose sizes s are ``sizes`` in order (equal sizes
    adjacent), largest first, and each pair's residual norm: lists of
    arrays, component after component. The quotient is given by its rows'
    starts, its columns and its node weights (see _merge_leaves). One
    LAPACK eigh per batch of equal components, at most _DENSE_BATCH matrix
    entries a batch."""
    vals, residuals = [], []
    lo = 0
    for s, count in zip(*np.unique(sizes, return_counts=True)):
        s, count = int(s), int(count)
        step = max(1, _DENSE_BATCH // (s * s))
        for first in range(0, count, step):
            blocks = min(step, count - first)
            hi = lo + blocks * s
            row = np.repeat(np.arange(blocks * s), np.diff(indptr[lo : hi + 1]))
            col = indices[indptr[lo] : indptr[hi]] - lo
            batch = np.zeros((blocks, s, s))
            batch[row // s, row % s, col % s] = weight[lo + row] * weight[lo + col]
            w, V = np.linalg.eigh(batch)  # ascending
            w, V = w[:, : -k - 1 : -1], V[:, :, : -k - 1 : -1]
            vals.append(w.ravel())
            residuals.append(np.linalg.norm(batch @ V - V * w[:, None, :], axis=1).ravel())
            lo = hi
    return vals, residuals
