import itertools
import math
import re

import hypothesis
import numpy as np

from bter.graph import Graph

hypothesis.settings.register_profile(
    "default", deadline=None, derandomize=True, max_examples=100
)
hypothesis.settings.load_profile("default")


# The line ends a reader meets: as the case is written, or every one of its
# line ends made CRLF or a lone CR. The readers see universal newlines.
LINE_ENDS = {"as written": None, "crlf": "\r\n", "cr": "\r"}


def with_line_ends(data, end: str | None):
    """data (str or bytes) with each of its line ends replaced by end; None keeps them."""
    if end is None:
        return data
    if isinstance(data, bytes):
        return re.sub(rb"\r\n|\r|\n", end.encode(), data)
    return re.sub(r"\r\n|\r|\n", end, data)


def dense_adjacency(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    return A


def brute_force_triangles(g: Graph) -> tuple[int, np.ndarray]:
    """Exhaustive triple enumeration; the oracle for the edge-iterator count."""
    per_node = np.zeros(g.n, dtype=np.int64)
    total = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            total += 1
            per_node[[a, b, c]] += 1
    return total, per_node


def sparse_triangles(g: Graph) -> tuple[int, np.ndarray]:
    """Per-node triangles as the diagonal of A^3 / 2 via scipy, for mid-size graphs."""
    A = g.adjacency_csr().astype(np.int64)
    per_node = np.asarray((A @ A).multiply(A).sum(axis=1)).ravel() // 2
    return int(per_node.sum()) // 3, per_node


def per_block_internal_degrees(g: Graph, assignment) -> dict[int, np.ndarray]:
    """Edge-by-edge, block-by-block loop: the oracle for
    theory.internal_degrees_by_block. Each assigned block with a node of
    nonzero internal degree maps to those degrees, sorted, by ascending id."""
    assignment = np.asarray(assignment)
    internal = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges.tolist():
        if assignment[u] == assignment[v] >= 0:
            internal[u] += 1
            internal[v] += 1
    expected = {}
    for k in np.unique(assignment[assignment >= 0]).tolist():
        deg = internal[(assignment == k) & (internal > 0)]
        if deg.size:
            expected[k] = np.sort(deg)
    return expected


def block_degree_dict(blocks) -> dict[int, np.ndarray]:
    """theory.BlockDegrees as {block id: its degrees}, in its own order."""
    ids, offsets, degrees = blocks
    return {
        k: degrees[lo:hi]
        for k, lo, hi in zip(ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
    }


def random_graph(rng: np.random.Generator, n_max: int = 12) -> Graph:
    """Small random graph by thinning the complete pair set."""
    from bter.generate import generate_er

    n = int(rng.integers(1, n_max + 1))
    p = float(rng.uniform(0.0, 1.0))
    return generate_er(n, p, int(rng.integers(1 << 60)))


def sampled_cl_triangle_mean(degrees, runs, rng):
    """Empirical triangle mean over independent-pair CL draws.

    Vectorizes the per-pair CL law (each pair present independently with
    probability min(1, d_i d_j / 2s)) across all runs; the oracle side of
    the expected-triangle check.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    r = len(degrees)
    s = degrees.sum() / 2.0
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    probs = np.array([min(1.0, degrees[i] * degrees[j] / (2 * s)) for i, j in pairs])
    present = rng.random((runs, len(pairs))) < probs
    col = {pair: c for c, pair in enumerate(pairs)}
    totals = np.zeros(runs, dtype=np.int64)
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                totals += (
                    present[:, col[(a, b)]]
                    & present[:, col[(b, c)]]
                    & present[:, col[(a, c)]]
                )
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(runs))
