"""Graph samplers: Erdos-Renyi, Chung-Lu, and the two-phase block model.

The block model runs ER inside every affinity block (Phase 1) and a
Chung-Lu layer over excess degrees across blocks (Phase 2), with Phase 2
split into three subphases that damp the high variance of degree-1 nodes:

  2a  pair q of the set-aside degree-1 nodes with each other,
  2b  give each remaining set-aside node one edge to an excess-weighted
      endpoint,
  2c  rescale the excess weights and sample nint(sum(e)/2) edges with both
      endpoints drawn independently in proportion to the weights.

All samplers are deterministic functions of their inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .communities import CommunityPartition, ConnectivityFormula, preprocess
from .degrees import DegreeSequence
from .graph import EdgeStreamStats, Graph, build_graph
from .rng import substream

_PHASE1, _PHASE2 = 1, 2
_SUB_A, _SUB_B, _SUB_C = 0, 1, 2

PHASE_NAMES = ("phase1", "phase2a", "phase2b", "phase2c")


def nint(x: float) -> int:
    """Nearest integer, ties to even. Used everywhere a count is rounded."""
    return int(round(x))


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters of one block-model run.

    manual_fraction, d1_weight, and beta default to the empirically fitted
    constants 0.75, 1.10, and 0.10; q_override replaces the default paired
    degree-1 count (must be even, and at most p at generation time).
    """

    seed: int
    connectivity: ConnectivityFormula = field(default_factory=ConnectivityFormula)
    manual_fraction: float = 0.75
    d1_weight: float = 1.10
    q_override: int | None = None
    beta: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.manual_fraction <= 1.0:
            raise ValueError("manual_fraction must be in [0, 1]")
        if self.d1_weight <= 0.0:
            raise ValueError("d1_weight must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.q_override is not None:
            if self.q_override < 0 or self.q_override % 2:
                raise ValueError("q_override must be even and >= 0")


@dataclass(frozen=True)
class PhaseTrace:
    """Per-phase edge accounting for one block-model run.

    raw counts every sampled pair per phase; kept counts the pairs that
    survived into the final graph, crediting each surviving edge to the
    first phase that produced it. sum(raw) == stats.raw_edges and
    sum(kept) == final edge count. partition is the preprocessing result
    the run sampled Phase 1 from; it is left out of equality and repr.

    Phases 1, 2a and 2b never collide, so kept == raw for each of them and
    Phase 2c takes every loss: Phase 1 pairs lie inside blocks, whose nodes
    all have degree >= 2 (ids >= r); Phase 2a pairs distinct set-aside nodes
    (ids < p <= r), each once; Phase 2b joins each other set-aside node once
    to a node of positive excess (id >= p). None of the three draws a loop
    or repeats a pair.
    """

    p: int
    q: int
    eta_scale: float
    raw: dict[str, int]
    kept: dict[str, int]
    stats: EdgeStreamStats
    partition: CommunityPartition = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Pair-index machinery shared by the ER samplers
# ---------------------------------------------------------------------------


def _pair_row_starts(n: int) -> np.ndarray:
    """starts[u] = linear index of pair (u, u+1) in lexicographic order."""
    counts = np.arange(n - 1, -1, -1, dtype=np.int64)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def _linear_to_pairs(idx: np.ndarray, n: int) -> np.ndarray:
    starts = _pair_row_starts(n)
    u = np.searchsorted(starts, idx, side="right") - 1
    v = u + 1 + (idx - starts[u])
    return np.column_stack([u, v])


def _sample_pair_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of the pairs an i.i.d. Bernoulli(p) draw keeps out of a pair
    space of ``total`` pairs, strictly increasing.

    Geometric skipping visits only successful pairs, so cost is O(edges)
    rather than O(total).
    """
    if total == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    out: list[np.ndarray] = []
    pos = np.int64(-1)
    while True:
        # batch near the expected remaining hit count, bounded for memory
        expect = min(max(64, int((total - pos) * p * 1.2)), 4_000_000)
        steps = rng.geometric(p, size=expect).astype(np.int64)
        hits = pos + np.cumsum(steps)
        inside = hits < total
        if inside.all():
            out.append(hits)
            pos = hits[-1]
        else:
            out.append(hits[inside])
            break
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Baseline samplers
# ---------------------------------------------------------------------------


def generate_er(n: int, p: float, seed: int) -> Graph:
    """ER graph: every unordered pair independently present with probability p."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    idx = _sample_pair_indices(n * (n - 1) // 2, p, substream(seed))
    return build_graph(_linear_to_pairs(idx, n), n=n)[0]


def _cl_exact_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-pair Bernoulli CL draw; the O(n^2) oracle form."""
    n = len(w)
    total = float(w.sum())
    rows = []
    for u in range(n - 1):
        probs = np.minimum(1.0, w[u] * w[u + 1 :] / total)
        hit = rng.random(n - 1 - u) < probs
        vs = np.nonzero(hit)[0]
        if vs.size:
            rows.append(np.column_stack([np.full(vs.size, u, dtype=np.int64), u + 1 + vs]))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows)


def _cl_fast_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Edge-skipping CL draw (Miller-Hagberg style).

    Walks pairs in descending-weight order, jumping geometrically under an
    upper-bound probability and thinning to the true one, which reproduces
    the exact per-pair Bernoulli law in O(n + edges) expected time. Relies
    on w being sorted ascending.
    """
    n = len(w)
    total = float(w.sum())
    weights = w.tolist()  # plain floats: the hot loop avoids numpy scalars
    us: list[int] = []
    vs: list[int] = []
    # buffer size is a pure performance knob: draws consume a prefix of the
    # stream in order, so results do not depend on it
    buf_n = min(8192, max(64, 2 * n))
    buf = rng.random(buf_n).tolist()
    buf_i = buf_n
    log = math.log

    for u in range(n - 1, 0, -1):
        wu = weights[u]
        if wu <= 0.0:
            continue
        v = u - 1
        p = wu * weights[v] / total
        if p > 1.0:
            p = 1.0
        while v >= 0 and p > 0.0:
            if p < 1.0:
                if buf_i == buf_n:
                    buf = rng.random(buf_n).tolist()
                    buf_i = 0
                r = buf[buf_i]
                buf_i += 1
                if r <= 0.0:
                    break
                v -= int(log(r) / log(1.0 - p))
            if v >= 0:
                q = wu * weights[v] / total
                if q > 1.0:
                    q = 1.0
                if buf_i == buf_n:
                    buf = rng.random(buf_n).tolist()
                    buf_i = 0
                r = buf[buf_i]
                buf_i += 1
                if r < q / p:
                    us.append(v)
                    vs.append(u)
                p = q
                v -= 1
    if not us:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)])


EXACT_MODE_THRESHOLD = 256


def generate_cl(
    degrees: DegreeSequence, seed: int, mode: str = "auto"
) -> Graph:
    """Chung-Lu graph: pair (i, j) present with probability min(1, d_i d_j / 2m).

    mode "exact" is the per-pair Bernoulli oracle, "fast" the edge-skipping
    sampler; both realize the same pair-inclusion law. "auto" picks exact
    for n <= EXACT_MODE_THRESHOLD. The two modes consume randomness
    differently, so the same seed gives different (equally distributed)
    graphs.
    """
    if degrees.total < 2:
        raise ValueError("degree sequence must sum to at least 2")
    if mode == "auto":
        mode = "exact" if degrees.n <= EXACT_MODE_THRESHOLD else "fast"
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    w = degrees.degrees.astype(np.float64)
    rng = substream(seed)
    pairs = _cl_exact_pairs(w, rng) if mode == "exact" else _cl_fast_pairs(w, rng)
    return build_graph(pairs, n=degrees.n)[0]


# ---------------------------------------------------------------------------
# Two-phase block model
# ---------------------------------------------------------------------------


def _phase1_pairs(part: CommunityPartition, seed: int) -> np.ndarray:
    """ER edges inside every block, one draw per affinity group.

    Blocks of equal (size, rho) form one group: all of their pairs are one
    i.i.d. Bernoulli(rho) population, sampled in a single pass over the
    concatenated pair space of the group's blocks (in block order) on the
    group's own stream. Group g is the g-th distinct (size, rho), ascending.
    """
    live = np.flatnonzero((part.block_size >= 2) & (part.rho > 0.0))
    size, rho = part.block_size[live], part.rho[live]
    order = np.lexsort((rho, size))  # stable: block order within a group
    live, size, rho = live[order], size[order], rho[order]
    new_group = np.ones(len(live), dtype=bool)
    new_group[1:] = (np.diff(size) != 0) | (np.diff(rho) != 0.0)
    firsts = np.flatnonzero(new_group).tolist()
    chunks: list[np.ndarray] = []
    for g, (first, end) in enumerate(zip(firsts, firsts[1:] + [len(live)])):
        s = int(size[first])
        per_block = s * (s - 1) // 2
        idx = _sample_pair_indices(
            (end - first) * per_block, float(rho[first]), substream(seed, _PHASE1, g)
        )
        if idx.size:
            block, local = np.divmod(idx, per_block)
            start = part.block_start[live[first:end]][block]
            chunks.append(start[:, None] + _linear_to_pairs(local, s))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


def degree1_split(degrees: DegreeSequence, cfg: GenerationConfig) -> tuple[int, int, int]:
    """Degree-1 adjustment counts (r, p, q) of a block-model run.

    r is the number of degree-1 nodes; the first p of them are set aside
    for manual wiring, and q of those (even) are paired with each other.
    Raises ValueError when cfg.q_override exceeds p.
    """
    r = int(np.searchsorted(degrees.degrees, 2))
    p = nint(cfg.manual_fraction * r)
    if cfg.q_override is not None:
        q = cfg.q_override
        if q > p:
            raise ValueError(f"q_override={q} exceeds set-aside count p={p}")
    else:
        # Expected degree-1-to-degree-1 edge count under CL; clamped to the
        # largest even number of nodes actually available.
        q = 2 * nint(p * p / (2.0 * degrees.total))
        q = min(q, 2 * (p // 2))
    return r, p, q


def generate_bter(
    degrees: DegreeSequence, cfg: GenerationConfig
) -> tuple[Graph, PhaseTrace]:
    """Sample the two-phase block model for a target degree sequence.

    Runs preprocessing, Phase 1 ER blocks, the degree-1 adjustment, and
    Phase 2a/2b/2c, then merges all pairs into a simple graph (self-loops
    and duplicates discarded). Deterministic for fixed (degrees, cfg).
    """
    r, p, q = degree1_split(degrees, cfg)
    part = preprocess(degrees, cfg.connectivity)
    n = degrees.n

    pairs1 = _phase1_pairs(part, cfg.seed)

    # Degree-1 adjustment: the first p degree-1 nodes are wired manually;
    # the rest get a raised CL weight.
    e = part.excess.copy()
    e[:p] = 0.0
    e[p:r] = cfg.d1_weight

    # Phase 2a: random pairing among q of the set-aside nodes.
    if q > 0:
        chosen = substream(cfg.seed, _PHASE2, _SUB_A).choice(p, size=q, replace=False)
        a = np.minimum(chosen[0::2], chosen[1::2])
        b = np.maximum(chosen[0::2], chosen[1::2])
        pairs2a = np.column_stack([a, b]).astype(np.int64)
        paired = np.zeros(p, dtype=bool)
        paired[chosen] = True
        manual_rest = np.nonzero(~paired)[0].astype(np.int64)
    else:
        pairs2a = np.empty((0, 2), dtype=np.int64)
        manual_rest = np.arange(p, dtype=np.int64)

    # Phase 2b: one edge per remaining set-aside node, far endpoint drawn
    # in proportion to excess. Set-aside nodes have excess 0, so they are
    # never drawn (no self-loops, no manual-manual edges).
    sum_e = float(e.sum())
    if manual_rest.size and sum_e > 0.0:
        ends = substream(cfg.seed, _PHASE2, _SUB_B).choice(
            n, size=manual_rest.size, p=e / sum_e
        )
        pairs2b = np.column_stack(
            [np.minimum(manual_rest, ends), np.maximum(manual_rest, ends)]
        ).astype(np.int64)
    else:
        pairs2b = np.empty((0, 2), dtype=np.int64)

    # Phase 2c: rescale weights for the edges Phase 2b already used and the
    # duplicates the merge will discard, then sample endpoint pairs i.i.d.
    # The formula can go negative when degree-1 nodes dominate the weight
    # pool, so the scale is floored at 0.
    pool = (p - q) + sum_e
    eta_scale = 1.0 - 2.0 * (p - q) / pool + cfg.beta if pool > 0.0 else 0.0
    eta_scale = max(0.0, eta_scale)
    e_scaled = eta_scale * e
    sum_e_scaled = float(e_scaled.sum())
    edges_2c = nint(sum_e_scaled / 2.0) if sum_e_scaled > 0.0 else 0
    if edges_2c > 0:
        pairs2c = substream(cfg.seed, _PHASE2, _SUB_C).choice(
            n, size=(edges_2c, 2), p=e_scaled / sum_e_scaled
        )
    else:
        pairs2c = np.empty((0, 2), dtype=np.int64)

    raw = dict(zip(PHASE_NAMES, map(len, (pairs1, pairs2a, pairs2b, pairs2c))))
    all_pairs = np.concatenate([pairs1, pairs2a, pairs2b, pairs2c])
    del pairs1, pairs2a, pairs2b, pairs2c  # not alive during the merge
    graph, stats = build_graph(all_pairs, n=n)

    kept = dict(raw)  # only Phase 2c can lose pairs (see PhaseTrace)
    kept["phase2c"] = graph.edge_count - raw["phase1"] - raw["phase2a"] - raw["phase2b"]
    trace = PhaseTrace(
        p=p, q=q, eta_scale=eta_scale, raw=raw, kept=kept, stats=stats, partition=part
    )
    return graph, trace
