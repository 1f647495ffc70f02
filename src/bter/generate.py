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
blocks of node pairs, which works a window of blocks and a chunk of draws at
a time. Every phase emits int64 edge keys u * n + v (u < v), and one merge
turns all of a run's keys into the graph. All samplers are deterministic
functions of their inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .communities import CommunityPartition, ConnectivityFormula, preprocess
from .degrees import DegreeSequence
from .graph import EdgeStreamStats, Graph, loop_free_keys, merge_keys
from .graph import build_graph  # noqa: F401  (re-exported: bter.generate.build_graph)
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
        if not 0.0 < self.d1_weight < math.inf:
            raise ValueError("d1_weight must be positive and finite")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
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
# Gaps the sampler works at once inside a round: enough to spread the
# per-call numpy overhead, few enough that a chunk's temporaries (128 KB
# per int64 array, about a dozen of them) stay in cache and add little to
# the keys.
_CHUNK = 1 << 14
# Blocks a round works at once. A window's state and temporaries are about
# two dozen arrays of 128 KB, so the sampler's memory beside its keys does
# not grow with the number of blocks.
_WINDOW = 1 << 14


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


def _pair_keys(b, t, row0, col0, rows, cols, tri, width) -> np.ndarray:
    """Keys u * width + v of the t-th pair of each block b."""
    square = tri[b]
    if square.all():
        i, j = _triangle_pairs(t, rows[b])
        j += row0[b]
    elif not square.any():
        i, j = np.divmod(t, cols[b])
        j += col0[b]
    else:
        keys = np.empty(t.size, dtype=np.int64)
        for pick in (square, ~square):
            keys[pick] = _pair_keys(b[pick], t[pick], row0, col0, rows, cols, tri, width)
        return keys
    i += row0[b]
    i *= width
    i += j
    return i


def _sample_windows(blocks, count: int, rng: np.random.Generator, width) -> np.ndarray:
    """Keys u * width + v of the pairs an independent Bernoulli(p[k]) draw
    keeps in every block k < count; blocks(lo, hi) returns the arrays row0,
    col0, rows, cols and p of the blocks lo..hi-1.

    Block k holds the pairs (u, v), u < v, with u in row0[k] + range(rows[k])
    and v in col0[k] + range(cols[k]): a triangle when the two ranges are one
    (row0 == col0), else a rectangle whose rows all lie below its columns.

    Every block is sampled by geometric skipping over its pairs in
    lexicographic order. The pending blocks wait in one queue of windows;
    blocks() is asked for the next _WINDOW blocks no round has reached only
    when the queue is empty. Each round takes windows from the front of the
    queue, and from each window the longest run of blocks whose gaps, each
    about as many as the block has hits left to find, fit in the
    _ROUND_DRAWS the round has left; the untaken rest of the window goes
    back on the front, and the round ends. A block stays pending until a
    gap carries it past its last pair: the blocks a round leaves unfinished
    are cut into windows and put ahead of the whole queue. A window's gaps
    are drawn and summed _CHUNK at a time, each block carrying its position
    from chunk to chunk, and a chunk's hits become keys before the next
    chunk is drawn. So besides its keys, one array grown in place, the
    sampler holds one window's and one chunk's temporaries, the blocks a
    round leaves unfinished and at most one partly taken window. The stream
    is read in order, so neither the window nor the chunk size changes a gap
    or a key, and a one-block draw is the same whatever the round size.
    """
    width = np.int64(width)
    # windows of pending blocks, the next one last: the arrays row0, col0,
    # rows, cols, p, pair count and last hit of each; blocks reach.. are
    # pending after them, with no hit yet
    queue, reach = [], 0
    # the keys so far are keys[:size]: the array grows by half when full,
    # in place where realloc can, and is cut to size at the end, so no
    # second copy of the keys is ever made
    keys, size = np.empty(0, dtype=np.int64), 0
    while queue or reach < count:
        room, left = _ROUND_DRAWS, []  # the round's draws to go; its unfinished blocks
        while room:
            if queue:
                window = queue.pop()
            elif reach < count:
                lo, reach = reach, min(reach + _WINDOW, count)
                row0, col0, rows, cols, p = blocks(lo, reach)
                end = np.where(row0 == col0, rows * (rows - 1) // 2, rows * cols)
                live = np.flatnonzero((end > 0) & (p > 0.0))
                if not live.size:
                    continue
                window = [row0, col0, rows, cols, p, end]
                if live.size < end.size:
                    window = [a[live] for a in window]
                window.append(np.full(live.size, -1, dtype=np.int64))
            else:
                break
            row0, col0, rows, cols, q, end, last = window
            lam = (end - 1 - last) * q  # expected hits left
            cut = np.minimum(lam + 2.0 * np.sqrt(lam) + 1.0, _ROUND_DRAWS).astype(np.int64)
            del lam
            np.cumsum(cut, out=cut)  # each block's draws end here
            # the blocks whose draws fit in the round; its first block's do
            take = int(np.searchsorted(cut, room, side="right"))
            if take:
                ends, q, cut = end[:take], q[:take], cut[:take]
                reached = last[:take].copy()  # each block's position so far
                tri = row0 == col0
                # a gap past its block's end overshoots whatever its length:
                # clipped at the span left, a block's position stays below
                # its draws times its span, so within int64 for any block of
                # under 2e12 pairs
                span = ends - reached
                draws = int(cut[-1])
                for lo in range(0, draws, _CHUNK):
                    if draws <= _CHUNK:
                        first, stop, stops = 0, take, cut
                    else:  # the blocks with draws in [lo, hi), and where each stops
                        hi = min(lo + _CHUNK, draws)
                        first = int(np.searchsorted(cut, lo, side="right"))
                        stop = int(np.searchsorted(cut, hi - 1, side="right")) + 1
                        stops = np.minimum(cut[first:stop], hi) - lo
                    at = slice(first, stop)
                    draws_of = stops.copy()  # each block's draws in the chunk
                    draws_of[1:] -= stops[:-1]
                    seg = np.repeat(np.arange(stop - first), draws_of)
                    gaps = rng.geometric(q[at][seg])
                    np.minimum(gaps, span[at][seg], out=gaps)
                    np.cumsum(gaps, out=gaps)
                    # to each block's pair positions; the sums of the blocks
                    # before it may wrap around int64, and this subtraction
                    # undoes that
                    stops = stops - 1  # each block's last draw in the chunk
                    shift = np.concatenate(([0], gaps[stops[:-1]])) - reached[at]
                    gaps -= shift[seg]
                    reached[at] = gaps[stops]
                    inside = gaps < ends[at][seg]
                    hit = seg[inside]
                    hit += first
                    new = _pair_keys(hit, gaps[inside], row0, col0, rows, cols, tri, width)
                    if size + new.size > keys.size:
                        keys.resize(max(size + new.size, keys.size * 3 // 2), refcheck=False)
                    keys[size : size + new.size] = new
                    size += new.size
                    del seg, gaps, inside, hit, new
                more = np.flatnonzero(reached < ends)
                if more.size:
                    left.append([a[more] for a in window[:6]] + [reached[more]])
            if take < end.size:
                queue.append([a[take:] for a in window])
                break
            room -= draws
        if left:
            rest = left[0] if len(left) == 1 else [np.concatenate(c) for c in zip(*left)]
            starts = range(0, rest[0].size, _WINDOW)
            queue += [[a[lo : lo + _WINDOW] for a in rest] for lo in reversed(starts)]
    keys.resize(size, refcheck=False)
    return keys


def _sample_blocks(row0, col0, rows, cols, p, rng, width=None) -> np.ndarray:
    """_sample_windows over the blocks of five arrays, block k being
    (row0[k], col0[k], rows[k], cols[k], p[k]); width defaults to one past
    the largest column. Windows are views of the arrays."""
    if width is None:
        width = (col0 + cols).max(initial=1)
    return _sample_windows(
        lambda lo, hi: (row0[lo:hi], col0[lo:hi], rows[lo:hi], cols[lo:hi], p[lo:hi]),
        len(p), rng, width,
    )


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
    keys = _sample_blocks(start, start, size, size, np.array([p]), substream(seed), n)
    return merge_keys(keys, n)[0]


def _degree_class_blocks(degrees: DegreeSequence):
    """The CL pair blocks, as _sample_windows takes them: a function of
    (lo, hi) and the block count. There is one block per pair of degree
    classes a <= b in row-major order, a class being the run of nodes of
    one degree. Only arrays over the k classes are held; a window's blocks
    are decoded when the sampler asks for them."""
    deg = degrees.degrees
    first = np.flatnonzero(np.concatenate(([True], deg[1:] != deg[:-1])))
    count = np.diff(np.append(first, deg.size))
    weight = deg[first].astype(np.float64)
    k, total = len(first), degrees.total
    row_end = np.cumsum(np.arange(k, 0, -1))  # blocks up to the end of row a

    def window(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        t = np.arange(lo, hi)
        a = np.searchsorted(row_end, t, side="right")
        b = t - row_end[a] + k  # row a ends with b = k - 1
        p = np.minimum(1.0, weight[a] * weight[b] / total)
        return first[a], first[b], count[a], count[b], p

    return window, k * (k + 1) // 2


def generate_cl(degrees: DegreeSequence, seed: int) -> Graph:
    """Chung-Lu graph: pair (i, j) present with probability min(1, d_i d_j / 2m).

    Nodes of equal degree form a class, a contiguous range of the sorted
    sequence, so the pairs between two classes (or inside one) share one
    probability. Each of these blocks is sampled exactly, by the block
    sampler, on the run's single stream. Besides its keys, the run holds
    arrays over the classes, one window of blocks and the blocks a round
    leaves unfinished, never the whole class-pair table (k(k + 1)/2 blocks
    for k classes).
    """
    if degrees.total < 2:
        raise ValueError("degree sequence must sum to at least 2")
    keys = _sample_windows(*_degree_class_blocks(degrees), substream(seed), degrees.n)
    return merge_keys(keys, degrees.n)[0]


# ---------------------------------------------------------------------------
# Two-phase block model
# ---------------------------------------------------------------------------


def _phase1_keys(part: CommunityPartition, seed: int, n: int) -> np.ndarray:
    """Keys of the ER edges inside every block (width n): one triangle per
    block, all on one stream."""
    start, size = part.block_start, part.block_size
    return _sample_blocks(start, start, size, size, part.rho, substream(seed, _PHASE1), n)


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


def _weighted_draws(rng: np.random.Generator, p: np.ndarray, size) -> np.ndarray:
    """The indices ``rng.choice(len(p), size, p=p)`` returns, read from the
    same stream, for probabilities p (non-negative, summing to about 1).

    It repeats the steps of choice's draw with replacement in numpy >= 2.4:
    the cumulative sum of p, divided by its last entry, searched
    (``side="right"``) for ``rng.random(size)`` in C order. It overwrites p
    with that cdf, and draws the uniforms _CHUNK at a time, each chunk
    searched in sorted order and scattered back: a query's index does not
    depend on the order of the search, so the indices and the stream are
    choice's, while the draw holds the cdf and its output, not choice's p,
    cdf, full uniform array and index array. A numpy whose choice takes
    other steps would move the block model's bytes, and its sha256 pins
    would fail.
    """
    cdf = np.cumsum(p, out=p)
    cdf /= cdf[-1]
    out = np.empty(size, dtype=np.int64)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        uniform = rng.random(min(_CHUNK, flat.size - lo))
        order = np.argsort(uniform)
        flat[lo : lo + order.size][order] = cdf.searchsorted(uniform[order], side="right")
    return out


def _phase2_weights(part: CommunityPartition, p: int, r: int, d1_weight: float) -> np.ndarray:
    """The Phase 2 weight of each node, in a new array: its excess, but 0
    for the p set-aside degree-1 nodes and d1_weight for the other r - p."""
    e = part.excess
    e[:p] = 0.0
    e[p:r] = d1_weight
    return e


def _append(keys: np.ndarray, new: np.ndarray) -> None:
    """Grow keys in place (a realloc) by the entries of new. keys is taken
    over as the graph module's docstring on ownership says."""
    size = keys.size
    keys.resize(size + new.size, refcheck=False)
    keys[size:] = new


def generate_bter(
    degrees: DegreeSequence, cfg: GenerationConfig
) -> tuple[Graph, PhaseTrace]:
    """Sample the two-phase block model for a target degree sequence.

    Runs preprocessing, Phase 1 ER blocks, the degree-1 adjustment, and
    Phase 2a/2b/2c, then merges the edge keys of all phases into a simple
    graph (self-loops and duplicates discarded). Deterministic for fixed
    (degrees, cfg).

    Beside the caller's degrees, which the partition references and does
    not copy, a run holds:

    - the partition's per-block arrays;
    - the keys, in one array: Phase 1's (the sampler grows it by half when
      full, and cuts it to size), grown in place as each Phase 2 subphase
      appends its keys, and handed to the merge, which sorts and
      deduplicates them in that buffer: it becomes the graph's keys;
    - one float64 per node, the Phase 2 weights, derived from the
      partition's excess. Phase 2b normalizes them in place and its draw
      overwrites them with its cdf; Phase 2c derives them again if 2b
      drew, then scales and normalizes them in place for its own draw;
    - each subphase's output until it is appended: Phase 2c's endpoint
      pairs (16 B a pair) and their keys;
    - chunk-sized temporaries of the sampler and the weighted draws.
    """
    r, p, q = degree1_split(degrees, cfg)
    part = preprocess(degrees, cfg.connectivity)
    n = degrees.n

    width = np.int64(max(n, 1))
    keys = _phase1_keys(part, cfg.seed, n)
    raw1 = keys.size

    # Each subphase appends its keys and frees its temporaries before the
    # next one, so the merge's buffer can grow into the memory they held.

    # Degree-1 adjustment: the first p degree-1 nodes are wired manually;
    # the rest get a raised CL weight. Phase 2 works in this one array.
    e = _phase2_weights(part, p, r, cfg.d1_weight)

    # Phase 2a: random pairing among q of the set-aside nodes.
    if q > 0:
        chosen = substream(cfg.seed, _PHASE2, _SUB_A).choice(p, size=q, replace=False)
        pairs = chosen.reshape(-1, 2)
        _append(keys, pairs.min(axis=1) * width + pairs.max(axis=1))
        paired = np.zeros(p, dtype=bool)
        paired[chosen] = True
        manual_rest = np.nonzero(~paired)[0].astype(np.int64)
        del chosen, pairs, paired
    else:
        manual_rest = np.arange(p, dtype=np.int64)

    # Phase 2b: one edge per remaining set-aside node, far endpoint drawn
    # in proportion to excess. Set-aside nodes have excess 0, so they are
    # never drawn (no self-loops, no manual-manual edges), and every far
    # endpoint lies above the set-aside ids. The weights are normalized in
    # place, and the draw overwrites them with its cdf.
    sum_e = float(e.sum())
    raw2b = 0
    if manual_rest.size and sum_e > 0.0:
        e /= sum_e
        far = _weighted_draws(substream(cfg.seed, _PHASE2, _SUB_B), e, manual_rest.size)
        del e  # the cdf: Phase 2c builds the weights again
        manual_rest *= width
        far += manual_rest
        _append(keys, far)
        raw2b = far.size
        del far
    del manual_rest

    # Phase 2c: rescale weights for the edges Phase 2b already used and the
    # duplicates the merge will discard, then sample endpoint pairs i.i.d.
    # The formula can go negative when degree-1 nodes dominate the weight
    # pool, so the scale is floored at 0. Self-loops are counted and dropped
    # here; the merge drops the duplicates. The weights, built again where
    # Phase 2b's draw took them, are scaled and normalized in place, and the
    # draw overwrites them with its cdf.
    if raw2b:
        e = _phase2_weights(part, p, r, cfg.d1_weight)
    pool = (p - q) + sum_e
    eta_scale = 1.0 - 2.0 * (p - q) / pool + cfg.beta if pool > 0.0 else 0.0
    eta_scale = max(0.0, eta_scale)
    e *= eta_scale
    sum_e_scaled = float(e.sum())
    edges_2c = nint(sum_e_scaled / 2.0) if sum_e_scaled > 0.0 else 0
    self_loops = 0
    if edges_2c > 0:
        e /= sum_e_scaled
        ends = _weighted_draws(substream(cfg.seed, _PHASE2, _SUB_C), e, (edges_2c, 2))
        del e
        new, self_loops = loop_free_keys(ends[:, 0], ends[:, 1], n)
        del ends
        _append(keys, new)
        del new

    raw = dict(zip(PHASE_NAMES, (raw1, q // 2, raw2b, edges_2c)))
    graph, stats = merge_keys(keys, n, self_loops)

    kept = dict(raw)  # only Phase 2c can lose pairs (see PhaseTrace)
    kept["phase2c"] = graph.edge_count - raw["phase1"] - raw["phase2a"] - raw["phase2b"]
    trace = PhaseTrace(
        p=p, q=q, eta_scale=eta_scale, raw=raw, kept=kept, stats=stats, partition=part
    )
    return graph, trace
