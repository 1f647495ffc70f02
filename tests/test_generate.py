import hashlib
import math
from unittest import mock

import numpy as np
import pytest

import bter.generate
from bter.communities import ConnectivityFormula, preprocess
from bter.degrees import DegreeSequence, synthesize_powerlaw
from bter.generate import (
    GenerationConfig,
    generate_bter,
    generate_cl,
    generate_er,
    nint,
    _cl_fast_pairs,
    _phase1_pairs,
)
from bter.graph import write_edgelist
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
# CL
# ---------------------------------------------------------------------------


def test_cl_two_nodes_edge_frequency():
    # degrees [1, 1]: the single pair appears with probability 1/2
    seq = seq_of(1, 1)
    hits = sum(
        generate_cl(seq, seed, mode="exact").edge_count for seed in range(10_000)
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
        for u, v in generate_cl(seq, seed, mode="exact").edges:
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
        acc += generate_cl(seq, seed, mode="fast").degrees
    acc /= runs
    for d in np.unique(seq.degrees):
        sel = seq.degrees == d
        assert abs(acc[sel].mean() - d) / d < 0.05


def test_cl_requires_mass():
    with pytest.raises(ValueError):
        generate_cl(seq_of(1), 0)


def test_cl_fast_matches_exact_inclusion_law():
    # fast mode must realize the same per-pair Bernoulli law as exact mode;
    # frequencies over 1e5 runs against the analytic probability, with a
    # Bonferroni familywise bound replacing the naive 3-sigma one (435
    # simultaneous pair comparisons)
    rng0 = np.random.default_rng(7)
    deg = np.sort(rng0.integers(1, 5, size=30)).astype(np.float64)
    total = float(deg.sum())
    runs = 100_000
    freq = np.zeros((30, 30))
    for seed in range(runs):
        for u, v in _cl_fast_pairs(deg, substream(seed, 77)):
            freq[u, v] += 1
    freq /= runs
    for u in range(29):
        for v in range(u + 1, 30):
            p = min(1.0, deg[u] * deg[v] / total)
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(freq[u, v] - p) <= 4.6 * sigma, (u, v)


def test_cl_mode_selection():
    seq = seq_of(2, 2, 2)
    assert generate_cl(seq, 0, mode="auto") == generate_cl(seq, 0, mode="exact")
    with pytest.raises(ValueError):
        generate_cl(seq, 0, mode="turbo")


# ---------------------------------------------------------------------------
# BTER
# ---------------------------------------------------------------------------


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
    pairs = _phase1_pairs(part, cfg.seed)
    assert len(pairs) > 0
    a = part.assignment
    assert (a[pairs[:, 0]] == a[pairs[:, 1]]).all()
    assert (a[pairs[:, 0]] >= 0).all()


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


def test_phase1_one_substream_per_affinity_group():
    part = preprocess(_LAW_SEQ, _LAW_FORMULA)
    groups = _affinity_groups(part)
    assert [len(g) for g in groups] == [10, 10, 6, 1]
    assert part.rho[-1] == 0.0
    with mock.patch.object(bter.generate, "substream", wraps=substream) as spy:
        _phase1_pairs(part, 5)
    assert [c.args for c in spy.call_args_list] == [(5, 1, g) for g in range(len(groups))]


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
        pairs = _phase1_pairs(part, seed)
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        per_block[seed] = np.bincount(part.assignment[pairs[:, 0]], minlength=part.block_count)
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
    # degrees [5, 5]: pair probability min(1, 25/10) = 1 in both modes
    seq = seq_of(5, 5)
    for mode in ("exact", "fast"):
        for seed in range(20):
            assert generate_cl(seq, seed, mode=mode).edge_count == 1


def test_bter_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(seed=0, manual_fraction=1.2)
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
        acc_c += generate_cl(seq, seed + 10_000, mode="fast").degrees
    acc_b /= runs
    acc_c /= runs
    for d in np.unique(seq.degrees):
        sel = seq.degrees == d
        if sel.sum() < 50:
            continue
        assert abs(acc_b[sel].mean() - d) / d < 0.10, f"block model bucket {d}"
        assert abs(acc_c[sel].mean() - d) / d < 0.10, f"CL bucket {d}"
