"""Graph samplers: Erdos-Renyi, Chung-Lu, and the two-phase block model.

The block model runs ER inside every affinity block (Phase 1) and a
Chung-Lu layer over excess degrees across blocks (Phase 2), with Phase 2
split into three subphases that damp the high variance of degree-1 nodes:

  2a  pair q of the set-aside degree-1 nodes with each other,
  2b  give each remaining set-aside node one edge to an excess-weighted
      endpoint,
  2c  rescale the excess weights and sample nint(sum(e)/2) edges with both
      endpoints drawn independently in proportion to the weights.

ER, Phase 1 and CL all draw through one exact sampler of constant-probability
blocks of node pairs. All samplers are deterministic functions of their
inputs and seed.
"""

from __future__ import annotations

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
# The block sampler shared by ER, Phase 1 and CL
# ---------------------------------------------------------------------------

# Most gaps one sampling round draws, over all of its blocks.
_ROUND_DRAWS = 4_000_000


def _triangle_pairs(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, of the t-th pair of range(s) in lexicographic order.

    The row comes from a float square root, nudged down so that it is exact
    or one short (the float error stays below 1e-5 for every s < 3e9, where
    s^2 < 2^63), then one exact integer step up.
    """
    after = (s * (s - 1) >> 1) - 1 - t  # pairs that follow t
    # r = pairs in t's row = the largest r with C(r, 2) <= after
    r = ((np.sqrt(8.0 * after + 1.0) + 1.0) * 0.5 - 1e-5).astype(np.int64)
    r += (r * (r + 1) >> 1) <= after  # C(r + 1, 2) <= after: r was one short
    i = s - 1 - r
    return i, i + (r * (r + 1) >> 1) - after


def _sample_blocks(
    row0: np.ndarray,
    col0: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    p: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The pairs an independent Bernoulli(p[k]) draw keeps in every block k.

    Block k holds the pairs (u, v), u < v, with u in row0[k] + range(rows[k])
    and v in col0[k] + range(cols[k]): a triangle when the two ranges are one
    (row0 == col0), else a rectangle whose rows all lie below its columns.

    Every block is sampled by geometric skipping over its pairs in
    lexicographic order. Each round, all live blocks draw their gaps in one
    call, about as many as they have hits left to find; a block stays live
    until a gap carries it past its last pair. A one-block draw reads the
    same gaps whatever the round sizes, as the stream is read in order.
    """
    tri = row0 == col0
    total = np.where(tri, rows * (rows - 1) // 2, rows * cols)
    live = np.flatnonzero((total > 0) & (p > 0.0))
    last = np.full(live.size, -1, dtype=np.int64)  # each live block's last hit
    hit_block, hit_local = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    while live.size:
        end, q = total[live], p[live]
        lam = (end - 1 - last) * q  # expected hits left
        want = np.minimum(lam + 2.0 * np.sqrt(lam) + 1.0, _ROUND_DRAWS).astype(np.int64)
        cut = np.cumsum(want)
        # the blocks whose draws fit in this round; the first always does
        take = int(np.searchsorted(cut, _ROUND_DRAWS, side="right"))
        end, cut = end[:take], cut[:take] - 1  # cut: each block's last draw
        seg = np.repeat(np.arange(take, dtype=np.int32), want[:take])
        gaps = rng.geometric(q[seg])
        # a gap past its block's end overshoots whatever its length: clipped
        # at the span left, a block's running sum stays below its draws times
        # its span, so within int64 for any block of under 2e12 pairs
        np.minimum(gaps, (end - last[:take])[seg], out=gaps)
        np.cumsum(gaps, out=gaps)
        # to each block's local pair indices; the sums of the blocks before it
        # may wrap around int64, and this subtraction undoes that exactly
        shift = np.concatenate(([0], gaps[cut[:-1]])) - last[:take]
        gaps -= shift[seg]
        inside = gaps < end[seg]
        hit_block.append(live[seg[inside]])
        hit_local.append(gaps[inside])
        reached = gaps[cut]
        del seg, gaps, inside
        more = np.flatnonzero(reached < end)
        live = np.concatenate((live[more], live[take:]))
        last = np.concatenate((reached[more], last[take:]))
    block, local = np.concatenate(hit_block), np.concatenate(hit_local)
    del hit_block, hit_local
    out = np.empty((block.size, 2), dtype=np.int64)
    at = np.flatnonzero(tri[block])
    b = block[at]
    i, j = _triangle_pairs(local[at], rows[b])
    start = row0[b]
    out[at, 0], out[at, 1] = start + i, start + j
    at = np.flatnonzero(~tri[block])
    b, t = block[at], local[at]
    del block, local, i, j, start
    i, j = np.divmod(t, cols[b])
    out[at, 0], out[at, 1] = row0[b] + i, col0[b] + j
    return out


# ---------------------------------------------------------------------------
# Baseline samplers
# ---------------------------------------------------------------------------


def generate_er(n: int, p: float, seed: int) -> Graph:
    """ER graph: every unordered pair independently present with probability p."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    start, size = np.array([0]), np.array([n])
    pairs = _sample_blocks(start, start, size, size, np.array([p]), substream(seed))
    return build_graph(pairs, n=n)[0]


def _degree_class_blocks(degrees: DegreeSequence) -> tuple[np.ndarray, ...]:
    """The CL pair blocks, as _sample_blocks takes them: one per pair of
    degree classes a <= b, a class being the run of nodes of one degree."""
    deg = degrees.degrees
    first = np.flatnonzero(np.concatenate(([True], deg[1:] != deg[:-1])))
    count = np.diff(np.append(first, deg.size))
    weight = deg[first].astype(np.float64)
    a, b = np.triu_indices(len(first))
    p = np.minimum(1.0, weight[a] * weight[b] / degrees.total)
    return first[a], first[b], count[a], count[b], p


def generate_cl(degrees: DegreeSequence, seed: int) -> Graph:
    """Chung-Lu graph: pair (i, j) present with probability min(1, d_i d_j / 2m).

    Nodes of equal degree form a class, a contiguous range of the sorted
    sequence, so the pairs between two classes (or inside one) share one
    probability. Each of these blocks is sampled exactly, by the block
    sampler, on the run's single stream.
    """
    if degrees.total < 2:
        raise ValueError("degree sequence must sum to at least 2")
    pairs = _sample_blocks(*_degree_class_blocks(degrees), substream(seed))
    return build_graph(pairs, n=degrees.n)[0]


# ---------------------------------------------------------------------------
# Two-phase block model
# ---------------------------------------------------------------------------


def _phase1_pairs(part: CommunityPartition, seed: int) -> np.ndarray:
    """ER edges inside every block: one triangle per block, all on one stream."""
    start, size = part.block_start, part.block_size
    return _sample_blocks(start, start, size, size, part.rho, substream(seed, _PHASE1))


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
