"""Analytical checks: expected triangles under Chung-Lu, the triangle/edge
extremal bound, community criteria, and the predicted block-size profile.

These back the model's structural claims: a block whose expected internal
triangle count clears a wedge-proportional threshold must hide a dense ER
core, and packing a heavy-tailed degree sequence into such blocks yields a
scale-free block-size profile with largest size about n**(1/(gamma+1)).
"""

import math
from typing import NamedTuple

import numpy as np

from .graph import Graph

EXACT_TRIPLE_THRESHOLD = 1000
DEFAULT_KAPPA = 0.1
DEFAULT_CORE_CONSTANTS = (0.25, 0.5, 1.0)


class ExpectedTriangles(NamedTuple):
    """Expected triangle count, exact or the closed-form upper bound.

    exact=False means the value is (sum d^2)^3 / (8 s^3), an upper bound
    reported when the cubic triple enumeration is infeasible.
    """

    value: float
    exact: bool


def _as_array(values, dtype) -> np.ndarray:
    """values as an array of dtype: an ndarray as it is (cast only where its
    dtype differs), any other iterable through a list of its items."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=dtype)


def cl_expected_triangles(
    internal_degrees, exact_threshold: int = EXACT_TRIPLE_THRESHOLD
) -> ExpectedTriangles:
    """Expected triangles of a Chung-Lu draw on the given degrees.

    For r <= exact_threshold nodes this is the exact sum over unordered
    triples of min(1, d_i d_j / 2s) products, evaluated as tr(P^3)/6 for
    the zero-diagonal pair-probability matrix P; beyond the threshold the
    closed-form upper bound is returned, flagged as such.
    """
    d = _as_array(internal_degrees, np.float64)
    if d.size == 0:
        raise ValueError("internal degree list is empty")
    if (d <= 0).any():
        raise ValueError("internal degrees must be positive")
    s = d.sum() / 2.0
    if s < 1.0:
        raise ValueError("need at least one internal edge (s >= 1)")
    if d.size <= exact_threshold:
        P = np.minimum(1.0, np.outer(d, d) / (2.0 * s))
        np.fill_diagonal(P, 0.0)
        value = float(np.einsum("ij,jk,ki->", P, P, P)) / 6.0
        return ExpectedTriangles(value=value, exact=True)
    bound = float((d**2).sum()) ** 3 / (8.0 * s**3)
    return ExpectedTriangles(value=bound, exact=False)


def kruskal_katona_check(triangles: int, edges: int) -> bool:
    """True iff triangles <= edges**1.5, compared exactly in integers.

    Any realizable graph satisfies this; a False return on a counted graph
    indicates a counting bug, not an unusual graph.
    """
    if triangles < 0 or edges < 0:
        raise ValueError("counts must be non-negative")
    return triangles * triangles <= edges**3


class CommunityAudit(NamedTuple):
    """Result of the triangle-density community criterion on one block.

    wedge_bound is (kappa/3) * sum C(d_i, 2); passes means the expected
    triangle count exceeds it (read with expected_exact: when only the
    upper bound was computable, a pass is necessary but not sufficient).
    er_core maps each constant c to (count, min internal degree) of nodes
    with internal degree >= c*sqrt(s).
    """

    r: int
    s: float
    expected_triangles: float
    expected_exact: bool
    wedge_bound: float
    kappa: float
    passes: bool
    er_core: dict[float, tuple[int, int]]


def audit_community(
    internal_degrees,
    kappa: float = DEFAULT_KAPPA,
    core_constants=DEFAULT_CORE_CONSTANTS,
    exact_threshold: int = EXACT_TRIPLE_THRESHOLD,
) -> CommunityAudit:
    """Evaluate the kappa-criterion and the dense-core census for one block."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must be in (0, 1)")
    d = np.sort(_as_array(internal_degrees, np.int64))
    expected = cl_expected_triangles(d, exact_threshold=exact_threshold)
    s = float(d.sum()) / 2.0
    wedges = (d * (d - 1) // 2).sum()  # C(1, 2) = 0 by construction
    wedge_bound = kappa / 3.0 * float(wedges)

    core: dict[float, tuple[int, int]] = {}
    sqrt_s = math.sqrt(s)
    for c in core_constants:
        members = d[d >= c * sqrt_s]
        core[float(c)] = (int(members.size), int(members[0]) if members.size else 0)

    return CommunityAudit(
        r=int(d.size),
        s=s,
        expected_triangles=expected.value,
        expected_exact=expected.exact,
        wedge_bound=wedge_bound,
        kappa=kappa,
        passes=expected.value > wedge_bound,
        er_core=core,
    )


class BlockDegrees(NamedTuple):
    """Realized within-block degrees of every block that has any, in one
    array sorted by (block, degree): block ids[k] holds the degrees
    degrees[offsets[k] : offsets[k + 1]], ascending. ids ascend, and offsets
    has one entry more than ids."""

    ids: np.ndarray
    offsets: np.ndarray
    degrees: np.ndarray


def internal_degrees_by_block(g: Graph, assignment: np.ndarray) -> BlockDegrees:
    """Realized within-block degrees, per block, from a node-to-block map.

    assignment[i] < 0 means unassigned. Nodes with zero internal degree are
    left out (they carry no wedge or triangle mass), and so is a block with
    none left. In O(m + n), the count holds one node-long int64 table and a
    chunk of edges at a time, then at most four int64 entries for each
    node it keeps: nothing per block.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape[0] != g.n:
        raise ValueError(f"assignment covers {assignment.shape[0]} nodes, graph has {g.n}")
    internal = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edge_chunks():
        block = assignment[u]
        same = (block == assignment[v]) & (block >= 0)
        np.add.at(internal, u[same], 1)
        np.add.at(internal, v[same], 1)
    nodes = np.flatnonzero(internal)  # all assigned, since same excludes -1
    deg = internal[nodes]
    del internal
    block = assignment[nodes]
    del nodes
    order = np.lexsort((deg, block))
    deg = deg[order]
    block = block[order]
    del order
    first = np.flatnonzero(np.diff(block, prepend=-1))  # each block's first entry
    return BlockDegrees(ids=block[first], offsets=np.append(first, block.size), degrees=deg)


class CommunityProfile(NamedTuple):
    """Predicted block-size counts for a heavy-tailed degree sequence."""

    counts: dict[int, float]  # size -> predicted number of blocks
    d_bar: int  # largest size with predicted count >= 1


def predict_community_profile(n: int, gamma: float) -> CommunityProfile:
    """Predicted scale-free block-size profile: count(d) = n / d**(gamma+1).

    d_bar is the largest d whose predicted count is still at least 1,
    i.e. floor(n**(1/(gamma+1))).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not gamma > 0:  # NaN too; inf is the all-size-1 limit
        raise ValueError("gamma must be positive")
    exponent = gamma + 1.0
    d_bar = int(math.floor(n ** (1.0 / exponent)))
    # float pow can land a hair on the wrong side of an exact boundary
    while (d_bar + 1) ** exponent <= n:
        d_bar += 1
    while d_bar > 1 and d_bar**exponent > n:
        d_bar -= 1
    counts = {d: n / d**exponent for d in range(1, d_bar + 1)}
    return CommunityProfile(counts=counts, d_bar=d_bar)


def block_size_histogram(block_size) -> dict[int, int]:
    """Count of blocks per size, in ascending order of size."""
    sizes, counts = np.unique(block_size, return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


def loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log(y) against log(x)."""
    x = np.log(np.asarray(xs, dtype=np.float64))
    y = np.log(np.asarray(ys, dtype=np.float64))
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(x, y, 1)[0])
