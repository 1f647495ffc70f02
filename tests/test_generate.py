import hashlib
import math
from unittest import mock

import numpy as np
import pytest

import bter.generate
from bter.communities import ConnectivityFormula, preprocess
from bter.degrees import DegreeSequence, synthesize_powerlaw
from bter.generate import (
    PHASE_NAMES,
    GenerationConfig,
    generate_bter,
    generate_cl,
    generate_er,
    nint,
    _phase1_keys,
    _CHUNK,
    _ROUND_DRAWS,
    _WINDOW,
    _degree_class_blocks,
    _sample_blocks,
    _sample_windows,
    _triangle_pairs,
    _weighted_draws,
)
from bter.graph import merge_keys, write_edgelist
from bter.rng import substream


def seq_of(*degrees):
    return DegreeSequence.from_degrees(degrees)


# ---------------------------------------------------------------------------
# rounding and streams
# ---------------------------------------------------------------------------


def test_nint_ties_to_even():
    assert [nint(x) for x in (0.5, 1.5, 2.5, 19.5, 20.25)] == [0, 2, 2, 20, 20]


def test_substream_determinism_and_independence():
    a1 = substream(42, 1, 3).random(8)
    a2 = substream(42, 1, 3).random(8)
    b = substream(42, 1, 4).random(8)
    c = substream(43, 1, 3).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


# ---------------------------------------------------------------------------
# ER
# ---------------------------------------------------------------------------


def test_er_p_one_is_complete():
    g = generate_er(7, 1.0, 0)
    assert g.edge_count == 21
    assert (g.degrees == 6).all()


def test_er_p_zero_is_empty():
    g = generate_er(10, 0.0, 0)
    assert g.n == 10 and g.edge_count == 0


def test_er_validation():
    with pytest.raises(ValueError):
        generate_er(-1, 0.5, 0)
    with pytest.raises(ValueError):
        generate_er(5, 1.5, 0)


def test_er_edge_count_matches_binomial_moments():
    # mean edge count over 1000 seeds vs binomial(4950, 0.3); 3 sigma on
    # the mean of independent draws
    n, p, runs = 100, 0.3, 1000
    pairs = n * (n - 1) // 2
    counts = [generate_er(n, p, seed).edge_count for seed in range(runs)]
    expected = pairs * p
    sigma_mean = math.sqrt(pairs * p * (1 - p) / runs)
    assert abs(np.mean(counts) - expected) <= 3 * sigma_mean


@pytest.mark.parametrize(
    "n, p, seed, digest",
    [
        # write_edgelist output as 0.2.0 wrote it; the pair sampler's
        # generalisation to any pair-space size must not move a byte
        (500, 0.05, 3, "56321fe96ccb80bbdc94fe492ebdc06518d213d1fc82e1696fbd60b659172424"),
        (60, 0.7, 11, "fbd0d4739cf5e218a17cfa5ba6525b0e663ba4dc1baf3184071eee6f7395d4e5"),
        (1, 0.5, 0, "7f3b793163c8aed94619fc640e4172208640cc44ab72c025ca1875bc99ac9651"),
    ],
    ids=["n500", "n60", "n1"],
)
def test_er_bytes_pinned(tmp_path, n, p, seed, digest):
    path = tmp_path / "er.txt"
    write_edgelist(generate_er(n, p, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_er_determinism():
    assert generate_er(50, 0.2, 9) == generate_er(50, 0.2, 9)
    assert generate_er(50, 0.2, 9) != generate_er(50, 0.2, 10)


# ---------------------------------------------------------------------------
# the block sampler
# ---------------------------------------------------------------------------


def test_triangle_decode_exhaustive():
    for s in range(2, 65):
        i, j = _triangle_pairs(np.arange(s * (s - 1) // 2), np.int64(s))
        iu = np.triu_indices(s, 1)
        assert np.array_equal(i, iu[0]) and np.array_equal(j, iu[1]), s


def test_triangle_decode_exact_at_large_size():
    s = 2_000_000
    pairs = s * (s - 1) // 2

    def exact(t):  # row by integer square root, no floats
        after = pairs - 1 - t
        r = (1 + math.isqrt(8 * after + 1)) // 2
        i = s - 1 - r
        return i, t - (pairs - r * (r + 1) // 2) + i + 1

    t = np.array([0, 1, s - 2, s - 1, pairs // 2, pairs // 3 + 7, pairs - 2, pairs - 1])
    i, j = _triangle_pairs(t, np.int64(s))
    assert list(zip(i.tolist(), j.tolist())) == [exact(x) for x in t.tolist()]
    assert (i[0], j[0]) == (0, 1) and (i[-1], j[-1]) == (s - 2, s - 1)
    assert (i[3], j[3]) == (1, 2)


# triangles and rectangles, in no particular node order, with p in
# {1, 0.5, 0.01, 1e-3}; their pair sets are disjoint
_MIXED = [  # row0, col0, rows, cols, p
    (40, 40, 12, 12, 0.5),
    (0, 10, 10, 30, 0.01),
    (100, 100, 60, 60, 1e-3),
    (52, 60, 8, 5, 1.0),
    (65, 65, 6, 6, 1.0),
    (71, 80, 9, 20, 0.5),
    (160, 160, 30, 30, 0.01),
]


def _mixed_blocks():
    return tuple(np.array(col) for col in zip(*_MIXED))


@pytest.mark.parametrize("cap", [_ROUND_DRAWS, 100], ids=["one-round", "many-rounds"])
def test_block_sampler_law_on_mixed_blocks(cap):
    # per block: every pair's inclusion count is Binomial(runs, p) (a
    # chi-square over the block's pairs), the block's edge count has the
    # binomial mean and variance, and no two blocks' counts correlate; a
    # small cap makes blocks wait for later rounds and finish over several
    row0, col0, rows, cols, p = _mixed_blocks()
    n, runs = 190, 4000
    counts = np.zeros((n, n))
    per_block = np.zeros((runs, len(_MIXED)))
    owner = np.full((n, n), -1)
    for k, (a, b, nr, nc, _) in enumerate(_MIXED):
        cell = np.zeros((n, n), dtype=bool)
        cell[a : a + nr, b : b + nc] = True
        owner[np.triu(cell, 1)] = k
    with mock.patch.object(bter.generate, "_ROUND_DRAWS", cap):
        for seed in range(runs):
            keys = _sample_blocks(row0, col0, rows, cols, p, substream(seed, 9), n)
            u, v = np.divmod(keys, n)
            np.add.at(counts, (u, v), 1)
            per_block[seed] = np.bincount(owner[u, v], minlength=len(_MIXED))
    assert not counts[owner < 0].any()
    for k, (_, _, _, _, pk) in enumerate(_MIXED):
        cells = counts[owner == k]
        if pk == 1.0:
            assert (cells == runs).all()
            continue
        var = runs * pk * (1 - pk)
        chi2 = float(((cells - runs * pk) ** 2 / var).sum())
        assert abs(chi2 - cells.size) <= 5 * math.sqrt(2 * cells.size), (k, chi2)
        size = cells.size
        mean, sd = size * pk, math.sqrt(size * pk * (1 - pk))
        block = per_block[:, k]
        assert abs(block.mean() - mean) <= 4 * sd / math.sqrt(runs), k
        kurt = (1 - 6 * pk * (1 - pk)) / (size * pk * (1 - pk))  # excess kurtosis
        se_var = math.sqrt(2 / (runs - 1) + kurt / runs)
        assert abs(block.var(ddof=1) / sd**2 - 1) <= 5 * se_var, k
    drawn = [k for k, row in enumerate(_MIXED) if row[4] < 1.0]
    r = np.corrcoef(per_block[:, drawn].T)
    assert (np.abs(r[np.triu_indices(len(drawn), 1)]) <= 4 / math.sqrt(runs)).all()


def test_er_tiny_p_on_a_huge_pair_space():
    # C(1e6, 2) = 5e11 pairs at p = 1e-12: a handful of draws, each gap
    # clipped at the pair count, not a pass over the pairs
    for seed in range(5):
        g = generate_er(1_000_000, 1e-12, seed)
        assert g.n == 1_000_000 and g.edge_count <= 5


class _CountingRng:
    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def geometric(self, p):
        self.sizes.append(np.size(p))
        return self.rng.geometric(p)


def test_block_sampler_rounds_stay_capped():
    # one block: any cap reads the same gaps, so the same pairs
    one = np.array([0]), np.array([0]), np.array([300]), np.array([300]), np.array([0.4])
    default = _sample_blocks(*one, substream(3))
    with mock.patch.object(bter.generate, "_ROUND_DRAWS", 1000):
        rng = _CountingRng(substream(3))
        capped = _sample_blocks(*one, rng)
        assert max(rng.sizes) <= 1000 and len(rng.sizes) > 15
        assert np.array_equal(capped, default)
    with mock.patch.object(bter.generate, "_ROUND_DRAWS", 100):
        rng = _CountingRng(substream(3))
        mixed = _sample_blocks(*_mixed_blocks(), rng)
        assert max(rng.sizes) <= 100 and len(rng.sizes) > 1
    assert len(np.unique(mixed, axis=0)) == len(mixed)
    assert _ROUND_DRAWS == 4_000_000


def _cl_class_blocks():
    window, count = _degree_class_blocks(synthesize_powerlaw(300, 2.0, 30))
    return window(0, count)


@pytest.mark.parametrize("blocks", [_mixed_blocks, _cl_class_blocks], ids=["mixed", "cl"])
def test_block_sampler_chunks_read_the_same_stream(blocks):
    # chunk boundaries fall inside blocks, between them and on a block's
    # last draw; under either round plan, every chunk size reads the same
    # gaps as the default one, so it returns the same keys
    for cap in (_ROUND_DRAWS, 100):
        with mock.patch.object(bter.generate, "_ROUND_DRAWS", cap):
            default = _sample_blocks(*blocks(), substream(4), 190)
            assert default.size > 100
            for chunk in (1, 7, 100):
                with mock.patch.object(bter.generate, "_CHUNK", chunk):
                    keys = _sample_blocks(*blocks(), substream(4), 190)
                assert np.array_equal(keys, default), (chunk, cap)
    assert _CHUNK == 1 << 14


def _draw_mixed(rng):
    return _sample_blocks(*_mixed_blocks(), rng, 190)


def _draw_cl(rng):
    # 20 degree classes: 210 class-pair blocks, decoded a window at a time
    return _sample_windows(*_degree_class_blocks(synthesize_powerlaw(300, 2.0, 30)), rng, 190)


@pytest.mark.parametrize("draw", [_draw_mixed, _draw_cl], ids=["mixed", "cl"])
def test_block_sampler_windows_read_the_same_stream(draw):
    # window boundaries fall between blocks, inside a round and at its end;
    # under either round plan, every window size reads the same gaps as the
    # default one, so it returns the same keys
    for cap in (_ROUND_DRAWS, 100):
        with mock.patch.object(bter.generate, "_ROUND_DRAWS", cap):
            default = draw(substream(4))
            assert default.size > 100
            for window in (1, 7, 100):
                with mock.patch.object(bter.generate, "_WINDOW", window):
                    keys = draw(substream(4))
                assert np.array_equal(keys, default), (window, cap)
    assert _WINDOW == 1 << 14


def test_block_sampler_memory_is_its_keys_and_a_chunk():
    # Phase 1 of --powerlaw 30000,2,300 draws ~40k gaps in one round: with
    # small chunks the sampler's peak is its keys (the chunks' and their
    # concatenation) plus a bounded number of chunk-sized int64 temporaries
    import tracemalloc

    seq = synthesize_powerlaw(30_000, 2.0, 300)
    part = preprocess(seq, ConnectivityFormula())
    default = _phase1_keys(part, 1, seq.n)
    chunk = 4096
    with mock.patch.object(bter.generate, "_CHUNK", chunk):
        tracemalloc.start()
        try:
            keys = _phase1_keys(part, 1, seq.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(keys, default)
    assert peak <= 2 * keys.nbytes + 16 * 8 * chunk, (peak, keys.nbytes)


def test_bter_memory_is_its_keys_and_one_weight_per_node():
    # at the fit size, --powerlaw 300000,2,2000, a run holds its keys (8 B a
    # pair; the sampler's array grows by half when full), one float64 per
    # node (the Phase 2 weights, which each draw turns into its cdf), the
    # partition's per-block arrays and a few chunk-sized temporaries beyond
    # that slack. The degrees are the caller's, and the graph's are counted
    # only when asked for
    import tracemalloc

    seq = synthesize_powerlaw(300_000, 2.0, 2000)
    cfg = GenerationConfig(seed=3)
    generate_bter(seq_of(1, 1, 2, 2, 2), cfg)  # first-use imports stay out of the peak
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        g, trace = generate_bter(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    part = trace.partition
    blocks = sum(a.nbytes for a in (part.block_start, part.block_size, part.bar_d, part.rho))
    bound = 3 * 8 * trace.stats.raw_edges // 2 + 8 * seq.n + blocks + 4 * 8 * _CHUNK
    assert peak <= bound, (peak, bound)


# ---------------------------------------------------------------------------
# CL
# ---------------------------------------------------------------------------


def test_cl_memory_is_its_graph_and_a_window():
    # --powerlaw 30000,2,300 has 204 degree classes, 20,910 class-pair
    # blocks; generate_cl never holds them all. With small windows and
    # chunks its peak is the graph it returns (its keys; the degrees are
    # counted only when asked for, after the peak is read, and are in the
    # bound all the same), two copies of its keys (the sampler's array,
    # which grows by half when full) and a bounded number of window- and
    # chunk-sized temporaries
    import tracemalloc

    seq = synthesize_powerlaw(30_000, 2.0, 300)
    default = generate_cl(seq, 1)
    window, chunk = 64, 1024
    with mock.patch.object(bter.generate, "_WINDOW", window), \
            mock.patch.object(bter.generate, "_CHUNK", chunk):
        tracemalloc.start()
        try:
            g = generate_cl(seq, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert g == default
    held = 2 * 8 * g.edge_count + g.keys.nbytes + g.degrees.nbytes
    assert peak <= held + 16 * 8 * (window + chunk), (peak, held)


def test_cl_two_nodes_edge_frequency():
    # degrees [1, 1]: the single pair appears with probability 1/2
    seq = seq_of(1, 1)
    hits = sum(
        generate_cl(seq, seed).edge_count for seed in range(10_000)
    )
    freq = hits / 10_000
    sigma = math.sqrt(0.25 / 10_000)
    assert abs(freq - 0.5) <= 3 * sigma


def test_cl_regular_uniform_pair_probability():
    # all degrees k: every pair has probability k^2 / 2m
    k, n, runs = 3, 6, 20_000
    seq = seq_of(*([k] * n))
    p = k * k / seq.total
    freq = np.zeros((n, n))
    for seed in range(runs):
        for u, v in generate_cl(seq, seed).edges:
            freq[u, v] += 1
    freq /= runs
    sigma = math.sqrt(p * (1 - p) / runs)
    # Bonferroni-style familywise bound for 15 simultaneous pair checks
    for u in range(n):
        for v in range(u + 1, n):
            assert abs(freq[u, v] - p) <= 4.5 * sigma


def test_cl_mean_degree_tracks_target():
    # linearity of expectation: per-target-degree bucket means within 5%
    seq = synthesize_powerlaw(1000, 2.0, 31)
    runs = 200
    acc = np.zeros(seq.n)
    for seed in range(runs):
        acc += generate_cl(seq, seed).degrees
    acc /= runs
    for d in np.unique(seq.degrees):
        sel = seq.degrees == d
        assert abs(acc[sel].mean() - d) / d < 0.05


def test_cl_requires_mass():
    with pytest.raises(ValueError):
        generate_cl(seq_of(1), 0)


def _cl_exact_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Oracle: a per-pair Bernoulli CL draw, O(n^2)."""
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


def test_cl_fast_matches_exact_inclusion_law():
    # the block sampler must realize the per-pair Bernoulli law; frequencies
    # over 1e5 runs against the analytic probability, with a Bonferroni
    # familywise bound replacing the naive 3-sigma one (435 simultaneous
    # pair comparisons)
    rng0 = np.random.default_rng(7)
    seq = DegreeSequence(np.sort(rng0.integers(1, 5, size=30)))
    deg = seq.degrees.astype(np.float64)
    total = float(deg.sum())
    runs = 100_000
    blocks = _degree_class_blocks(seq)
    keys = [_sample_windows(*blocks, substream(seed, 77), 30) for seed in range(runs)]
    freq = np.bincount(np.concatenate(keys), minlength=900).reshape(30, 30) / runs
    for u in range(29):
        for v in range(u + 1, 30):
            p = min(1.0, deg[u] * deg[v] / total)
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(freq[u, v] - p) <= 4.6 * sigma, (u, v)
    assert not np.tril(freq).any()


def test_cl_edge_count_moments_match_exact_oracle():
    # edge counts of generate_cl and of the per-pair oracle, each against
    # the analytic sum(p) and sum(p(1-p)), and against each other
    seq = seq_of(1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 5, 6, 8, 9)
    w = seq.degrees.astype(np.float64)
    iu = np.triu_indices(seq.n, 1)
    p = np.minimum(1.0, np.outer(w, w) / w.sum())[iu]
    mean, var = float(p.sum()), float((p * (1 - p)).sum())
    runs = 4000
    fast = np.array([generate_cl(seq, seed).edge_count for seed in range(runs)])
    oracle = np.array(
        [len(_cl_exact_pairs(w, np.random.default_rng(seed))) for seed in range(runs)]
    )
    for counts in (fast, oracle):
        assert abs(counts.mean() - mean) <= 4 * math.sqrt(var / runs)
        assert abs(counts.var(ddof=1) / var - 1) <= 5 * math.sqrt(2 / runs)
    assert abs(fast.mean() - oracle.mean()) <= 4 * math.sqrt(2 * var / runs)


# ---------------------------------------------------------------------------
# BTER
# ---------------------------------------------------------------------------


def _phase2_weights(kind: str) -> np.ndarray:
    rng = np.random.default_rng(8)
    if kind == "spread":
        return rng.random(50) * 4.0
    if kind == "zero prefix":  # Phase 2b: the set-aside nodes weigh 0
        return np.concatenate((np.zeros(20), rng.random(30) + 0.5, [0.0, 3.0]))
    weights = np.zeros(40)  # a single positive weight
    weights[17] = 2.5
    return weights


@pytest.mark.parametrize("kind", ["spread", "zero prefix", "single"])
@pytest.mark.parametrize(
    "chunk, size",
    [(7, 1), (7, 7), (7, 8), (7, (1, 2)), (7, (4, 2)), (None, 1000), (None, (500, 2))],
)
def test_weighted_draws_match_choice(kind, chunk, size):
    # the helper yields choice's indices for p = w / total in C order, a
    # chunk at a time, whatever its chunk size, and leaves the stream where
    # choice leaves it
    weights = _phase2_weights(kind)
    total = float(weights.sum())
    oracle = np.random.default_rng(21)
    expected = oracle.choice(len(weights), size=size, p=weights / total)
    rng = np.random.default_rng(21)
    with mock.patch.object(bter.generate, "_CHUNK", chunk or _CHUNK):
        chunks = list(_weighted_draws(rng, weights / total, expected.size))
    assert [c.size for c in chunks[:-1]] == [chunk or _CHUNK] * (len(chunks) - 1)
    drawn = np.concatenate(chunks).reshape(expected.shape)
    assert drawn.dtype == expected.dtype
    assert np.array_equal(drawn, expected)
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert (weights[drawn] > 0).all()


def test_bter_forced_pairing():
    g, trace = generate_bter(
        seq_of(1, 1), GenerationConfig(seed=5, manual_fraction=1.0, q_override=2)
    )
    assert g.edges.tolist() == [[0, 1]]
    assert (trace.p, trace.q) == (2, 2)
    assert trace.raw == {"phase1": 0, "phase2a": 1, "phase2b": 0, "phase2c": 0}


def test_bter_default_q_formula():
    # 26 degree-1 nodes and 37 degree-2 nodes: p = nint(0.75*26) = 20,
    # sum(d) = 100, so q = 2*nint(400/200) = 4
    seq = seq_of(*([1] * 26 + [2] * 37))
    _, trace = generate_bter(seq, GenerationConfig(seed=1))
    assert trace.p == 20
    assert trace.q == 4


def test_bter_eta_scale_matches_formula():
    seq = synthesize_powerlaw(600, 2.0, 24)
    cfg = GenerationConfig(seed=3)
    _, trace = generate_bter(seq, cfg)
    part = preprocess(seq, cfg.connectivity)
    r = int(np.searchsorted(seq.degrees, 2))
    e = part.excess.copy()
    e[: trace.p] = 0.0
    e[trace.p : r] = cfg.d1_weight
    pool = (trace.p - trace.q) + e.sum()
    expected = max(0.0, 1.0 - 2.0 * (trace.p - trace.q) / pool + cfg.beta)
    assert trace.eta_scale == pytest.approx(expected, rel=1e-12)


def test_bter_trace_carries_the_sampled_partition():
    seq = synthesize_powerlaw(600, 2.0, 24)
    cfg = GenerationConfig(seed=3)
    _, trace = generate_bter(seq, cfg)
    part = preprocess(seq, cfg.connectivity)
    assert trace.partition.block_count == part.block_count
    assert np.array_equal(trace.partition.assignment, part.assignment)
    assert np.array_equal(trace.partition.rho, part.rho)
    assert np.array_equal(trace.partition.excess, part.excess)


def test_bter_eta_scale_direct_arithmetic():
    # the rescale formula at p=20, q=0, sum(e)=90, beta=0.1
    assert 1.0 - 2.0 * 20 / (20 + 90) + 0.1 == pytest.approx(0.73636, abs=5e-6)


def test_bter_phase2_raw_counts():
    seq = synthesize_powerlaw(600, 2.0, 24)
    cfg = GenerationConfig(seed=3)
    _, trace = generate_bter(seq, cfg)
    assert trace.raw["phase2a"] == trace.q // 2
    assert trace.raw["phase2b"] == trace.p - trace.q
    # phase 2c draws nint(sum of rescaled excess / 2) endpoint pairs
    part = preprocess(seq, cfg.connectivity)
    r = int(np.searchsorted(seq.degrees, 2))
    e = part.excess.copy()
    e[: trace.p] = 0.0
    e[trace.p : r] = cfg.d1_weight
    assert trace.raw["phase2c"] == nint(trace.eta_scale * e.sum() / 2.0)
    assert sum(trace.raw.values()) == trace.stats.raw_edges
    assert sum(trace.kept.values()) == trace.stats.kept


def test_bter_phase1_edges_stay_in_block():
    seq = synthesize_powerlaw(500, 2.0, 22)
    cfg = GenerationConfig(seed=11)
    part = preprocess(seq, cfg.connectivity)
    u, v = np.divmod(_phase1_keys(part, cfg.seed, seq.n), seq.n)
    assert len(u) > 0
    a = part.assignment
    assert (a[u] == a[v]).all()
    assert (a[u] >= 0).all()


def test_bter_determinism():
    seq = synthesize_powerlaw(400, 2.0, 20)
    cfg = GenerationConfig(seed=123)
    g1, t1 = generate_bter(seq, cfg)
    g2, t2 = generate_bter(seq, cfg)
    assert g1 == g2
    assert t1 == t2
    g3, _ = generate_bter(seq, GenerationConfig(seed=124))
    assert g1 != g3


def test_bter_degree_one_nodes_never_drawn_as_endpoints():
    # set-aside nodes have weight zero, so phase 2b/2c cannot touch them;
    # with q=0 each ends up with exactly its one manual edge
    seq = seq_of(*([1] * 40 + [3] * 24))
    g, trace = generate_bter(seq, GenerationConfig(seed=2, q_override=0))
    manual = np.arange(trace.p)
    assert (g.degrees[manual] == 1).all()


def test_bter_single_node_sequence():
    # one degree-1 node: it is set aside (p = 1), no partner exists, and
    # every phase is empty
    g, trace = generate_bter(seq_of(1), GenerationConfig(seed=0))
    assert g.n == 1 and g.edge_count == 0
    assert (trace.p, trace.q) == (1, 0)
    assert trace.stats.raw_edges == 0


def test_bter_single_short_block():
    # a lone degree-3 node forms a short (hence rho=0) block and carries
    # its full degree as excess; with no other weight the draws self-loop
    # and are discarded
    g, trace = generate_bter(seq_of(3), GenerationConfig(seed=1))
    assert g.edge_count == 0
    assert trace.raw["phase1"] == 0
    assert trace.stats.self_loops_dropped == trace.raw["phase2c"]


def test_bter_no_manual_handling():
    # manual_fraction 0: every degree-1 node keeps the raised CL weight
    seq = seq_of(*([1] * 30 + [2] * 12))
    _, trace = generate_bter(seq, GenerationConfig(seed=6, manual_fraction=0.0))
    assert trace.p == 0 and trace.q == 0
    assert trace.raw["phase2b"] == 0


def test_phase1_counts_match_binomial_expectation():
    # raw phase-1 totals are sums of Binomial(C(size,2), rho_k) draws; the
    # mean over seeds must sit within 4 sigma of the analytic expectation
    seq = synthesize_powerlaw(500, 2.0, 22)
    cfg_proto = GenerationConfig(seed=0)
    part = preprocess(seq, cfg_proto.connectivity)
    pair_counts = part.block_size * (part.block_size - 1) / 2
    expected = float((part.rho * pair_counts).sum())
    variance = float((part.rho * (1 - part.rho) * pair_counts).sum())
    runs = 100
    totals = [
        generate_bter(seq, GenerationConfig(seed=seed))[1].raw["phase1"]
        for seed in range(runs)
    ]
    sigma_mean = math.sqrt(variance / runs)
    assert abs(np.mean(totals) - expected) <= 4 * sigma_mean


def _affinity_groups(part):
    """Block ids of every Phase 1 affinity group, groups in ascending
    (size, rho) order and blocks ascending within each."""
    groups: dict[tuple[int, float], list[int]] = {}
    for k, (size, rho) in enumerate(zip(part.block_size.tolist(), part.rho.tolist())):
        if size >= 2 and rho > 0.0:
            groups.setdefault((size, rho), []).append(k)
    return [groups[key] for key in sorted(groups)]


# three groups of several blocks each, one of a single block, and a short
# last block (rho 0) that Phase 1 must skip; rho < 1 everywhere
_LAW_SEQ = seq_of(*([1] * 5 + [2] * 30 + [3] * 40 + [5] * 36 + [9] * 10 + [12] * 7))
_LAW_FORMULA = ConnectivityFormula(rho=0.6, eta=0.5)


def test_phase1_and_cl_take_one_substream_each():
    part = preprocess(_LAW_SEQ, _LAW_FORMULA)
    assert [len(g) for g in _affinity_groups(part)] == [10, 10, 6, 1]
    with mock.patch.object(bter.generate, "substream", wraps=substream) as spy:
        _phase1_keys(part, 5, _LAW_SEQ.n)
        generate_cl(_LAW_SEQ, 5)
    assert [c.args for c in spy.call_args_list] == [(5, 1), (5,)]


def test_phase1_pair_law_per_affinity_group():
    # every pair of every block is an independent Bernoulli(rho_k) draw:
    # per group, a chi-square over its pairs' inclusion counts and the
    # group's total against its binomial moments; across groups and inside
    # one (whose blocks share a single draw), no correlation between the
    # edge counts of any two blocks
    part = preprocess(_LAW_SEQ, _LAW_FORMULA)
    n, runs = _LAW_SEQ.n, 2000
    counts = np.zeros((n, n))
    per_block = np.zeros((runs, part.block_count))
    for seed in range(runs):
        u, v = np.divmod(_phase1_keys(part, seed, n), n)
        np.add.at(counts, (u, v), 1)
        per_block[seed] = np.bincount(part.assignment[u], minlength=part.block_count)
    inside = np.zeros((n, n), dtype=bool)
    for groups in _affinity_groups(part):
        rho = float(part.rho[groups[0]])
        cells = []
        for k in groups:
            a, s = int(part.block_start[k]), int(part.block_size[k])
            iu = np.triu_indices(s, 1)
            inside[a + iu[0], a + iu[1]] = True
            cells.append(counts[a + iu[0], a + iu[1]])
        cells = np.concatenate(cells)
        var = runs * rho * (1 - rho)
        chi2 = float(((cells - runs * rho) ** 2 / var).sum())
        dof = cells.size
        assert abs(chi2 - dof) <= 5 * math.sqrt(2 * dof), (groups, chi2, dof)
        assert abs(cells.sum() - runs * rho * dof) <= 4 * math.sqrt(var * dof)
    assert not counts[~inside].any()  # nothing outside a live block
    probes = [k for groups in _affinity_groups(part) for k in groups[:2]]
    r = np.corrcoef(per_block[:, probes].T)
    assert (np.abs(r[np.triu_indices(len(probes), 1)]) <= 4 / math.sqrt(runs)).all()


def test_cl_capped_pair_always_present():
    # degrees [5, 5]: pair probability min(1, 25/10) = 1
    seq = seq_of(5, 5)
    for seed in range(20):
        assert generate_cl(seq, seed).edge_count == 1


def test_bter_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(seed=0, manual_fraction=1.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GenerationConfig(seed=0, d1_weight=bad)
        with pytest.raises(ValueError):
            GenerationConfig(seed=0, beta=bad)
    with pytest.raises(ValueError):
        GenerationConfig(seed=0, d1_weight=0.0)
    with pytest.raises(ValueError):
        GenerationConfig(seed=0, beta=-0.1)
    with pytest.raises(ValueError):
        GenerationConfig(seed=0, q_override=3)  # odd
    with pytest.raises(ValueError, match="exceeds"):
        generate_bter(seq_of(1, 1, 2, 2, 2), GenerationConfig(seed=0, q_override=4))


def test_bter_simple_graph_invariants():
    seq = synthesize_powerlaw(800, 2.0, 28)
    g, trace = generate_bter(seq, GenerationConfig(seed=77))
    assert int(g.degrees.sum()) == 2 * g.edge_count
    assert trace.stats.raw_edges == sum(trace.raw.values())
    assert g.edge_count == sum(trace.kept.values())


from hypothesis import given, settings, strategies as st


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=80),
    st.integers(0, 2**31),
)
@settings(max_examples=80)
def test_bter_well_formed_on_arbitrary_sequences(values, seed):
    seq = DegreeSequence.from_degrees(values)
    g, trace = generate_bter(seq, GenerationConfig(seed=seed))
    assert g.n == seq.n
    assert int(g.degrees.sum()) == 2 * g.edge_count
    assert sum(trace.kept.values()) == g.edge_count
    assert sum(trace.raw.values()) == trace.stats.raw_edges
    assert 0 <= trace.q <= trace.p <= seq.n


def _first_occurrence_kept(phase_pairs: list[np.ndarray], n: int) -> list[int]:
    """Oracle: credit each surviving edge to the first phase that emitted it."""
    labels = np.concatenate(
        [np.full(len(pp), i, dtype=np.int64) for i, pp in enumerate(phase_pairs)]
    )
    pairs = np.concatenate(phase_pairs).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    ok = lo != hi  # drop self-loops
    keys, labels = lo[ok] * np.int64(max(n, 1)) + hi[ok], labels[ok]
    _, first_idx = np.unique(keys, return_index=True)
    return np.bincount(labels[first_idx], minlength=len(phase_pairs)).tolist()


@given(
    st.lists(st.one_of(st.just(1), st.integers(1, 40)), min_size=1, max_size=150),
    st.sampled_from([0.0, 0.75, 1.0]),
    st.sampled_from(["standard", "cubic"]),
    st.integers(0, 2**31),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_bter_kept_matches_first_occurrence(values, manual_fraction, variant, seed, data):
    seq = DegreeSequence.from_degrees(values)
    r = int(np.searchsorted(seq.degrees, 2))
    p = nint(manual_fraction * r)
    q = data.draw(st.none() | st.integers(0, p // 2).map(lambda k: 2 * k), label="q")
    cfg = GenerationConfig(
        seed=seed,
        connectivity=ConnectivityFormula(variant),
        manual_fraction=manual_fraction,
        q_override=q,
    )
    merged = []

    def capture(keys, n, self_loops):
        merged.append((keys.copy(), self_loops))  # before the merge sorts them
        return merge_keys(keys, n, self_loops)

    with mock.patch.object(bter.generate, "merge_keys", side_effect=capture):
        trace = generate_bter(seq, cfg)[1]
    ((keys, self_loops),) = merged
    # Phase 2c's self-loops are dropped before the merge and counted
    assert len(keys) + self_loops == trace.stats.raw_edges == sum(trace.raw.values())
    assert self_loops == trace.stats.self_loops_dropped
    pairs = np.column_stack(np.divmod(keys, max(seq.n, 1)))
    bounds = np.cumsum([trace.raw[name] for name in PHASE_NAMES])[:-1]
    phase_pairs = np.split(pairs, bounds)
    assert list(trace.kept.values()) == _first_occurrence_kept(phase_pairs, seq.n)
    # phases 1, 2a and 2b: no self-loop, no pair twice, within or across them
    first = np.concatenate(phase_pairs[:3])
    lo, hi = first.min(axis=1), first.max(axis=1)
    assert (lo < hi).all()
    assert len(np.unique(lo * seq.n + hi)) == len(first)


def test_bter_degree_fidelity_buckets():
    # per-target-degree bucket means within 10% for buckets of >= 50 nodes,
    # averaged over 50 seeds, for both the block model and the CL baseline
    seq = synthesize_powerlaw(10_000, 2.0, 100)
    runs = 50
    acc_b = np.zeros(seq.n)
    acc_c = np.zeros(seq.n)
    for seed in range(runs):
        gb, _ = generate_bter(seq, GenerationConfig(seed=seed))
        acc_b += gb.degrees
        acc_c += generate_cl(seq, seed + 10_000).degrees
    acc_b /= runs
    acc_c /= runs
    for d in np.unique(seq.degrees):
        sel = seq.degrees == d
        if sel.sum() < 50:
            continue
        assert abs(acc_b[sel].mean() - d) / d < 0.10, f"block model bucket {d}"
        assert abs(acc_c[sel].mean() - d) / d < 0.10, f"CL bucket {d}"
