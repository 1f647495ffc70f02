import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_triangles, dense_adjacency, sparse_triangles
from bter import metrics
from bter.degrees import synthesize_powerlaw
from bter.generate import GenerationConfig, generate_bter, generate_cl, generate_er
from bter.graph import build_graph
from bter.metrics import (
    MetricsReport,
    SpectrumConvergenceError,
    clustering_profile,
    compare_reports,
    compute_report,
    count_triangles_wedges,
    degree_histogram,
    degree_tv_distance,
    top_eigenvalues,
)


def k3():
    return build_graph([(0, 1), (1, 2), (0, 2)])[0]


def k4():
    return build_graph([(u, v) for u in range(4) for v in range(u + 1, 4)])[0]


def path3():
    return build_graph([(0, 1), (1, 2)])[0]


# ---------------------------------------------------------------------------
# triangles and wedges
# ---------------------------------------------------------------------------


def test_triangle_wedge_small_cases():
    c = count_triangles_wedges(k3())
    assert (c.triangles, c.wedges) == (1, 3)
    c = count_triangles_wedges(path3())
    assert (c.triangles, c.wedges) == (0, 1)
    c = count_triangles_wedges(k4())
    assert (c.triangles, c.wedges) == (4, 12)


def test_per_node_identities():
    g = generate_er(15, 0.4, 3)
    c = count_triangles_wedges(g)
    assert c.per_node_triangles.sum() == 3 * c.triangles
    assert c.per_node_wedges.sum() == c.wedges
    assert 3 * c.triangles <= c.wedges


def test_counts_match_brute_force():
    rng = np.random.default_rng(11)
    graphs = [
        build_graph([], n=0)[0],
        build_graph([], n=5)[0],  # edgeless
        build_graph([(0, i) for i in range(1, 9)])[0],  # star: wedges, no triangles
        # every node of degree 4: the (degree, id) rank is decided by id alone
        build_graph([(i, (i + s) % 9) for i in range(9) for s in (1, 2)])[0],
        # K6 plus a disjoint edge
        build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)] + [(6, 7)])[0],
    ]
    for _ in range(40):
        n = int(rng.integers(1, 13))
        graphs.append(generate_er(n, float(rng.uniform(0, 1)), int(rng.integers(1 << 40))))
    for g in graphs:
        total, per_node = brute_force_triangles(g)
        c = count_triangles_wedges(g)
        assert c.triangles == total
        assert np.array_equal(c.per_node_triangles, per_node)
        assert c.per_node_triangles.dtype == c.per_node_wedges.dtype == np.int64
        assert c.wedges == int((g.degrees * (g.degrees - 1) // 2).sum())


@pytest.mark.parametrize("chunk", [None, 7])
def test_counts_match_sparse_oracle_midsize(chunk, monkeypatch):
    if chunk is not None:
        # out-degree classes 2-4 then span several passes, and larger
        # classes get one node per pass
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", chunk)
    # n = 3000 with hubs: many out-degree classes and closing searches
    seq = synthesize_powerlaw(3000, 2.0, 120)
    for g in (generate_bter(seq, GenerationConfig(seed=7))[0], generate_cl(seq, 7)):
        total, per_node = sparse_triangles(g)
        c = count_triangles_wedges(g)
        assert total > 0
        assert c.triangles == total
        assert np.array_equal(c.per_node_triangles, per_node)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=35))
@settings(max_examples=60)
def test_triangle_edge_bound_property(stream):
    g, _ = build_graph(stream, n=10)
    c = count_triangles_wedges(g)
    assert 3 * c.triangles <= c.wedges
    assert c.triangles**2 <= g.edge_count**3


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_clustering_k4_all_ones():
    prof = clustering_profile(k4())
    assert prof.global_c == 1.0
    assert np.allclose(prof.per_node, 1.0)
    assert prof.by_degree == {3: (1.0, 4)}


def test_clustering_path_zero():
    prof = clustering_profile(path3())
    assert prof.global_c == 0.0
    assert prof.by_degree == {2: (0.0, 1)}
    assert np.isnan(prof.per_node[0]) and np.isnan(prof.per_node[2])


def test_clustering_wedge_free_graph():
    g, _ = build_graph([(0, 1)], n=2)
    prof = clustering_profile(g)
    assert prof.global_c == 0.0
    assert prof.by_degree == {}


def by_degree_by_mask(prof, degrees):
    """clustering_profile's by-degree means as they were: one mask per degree."""
    defined = ~np.isnan(prof.per_node)
    degs, vals = degrees[defined], prof.per_node[defined]
    return {
        int(d): (float(vals[degs == d].mean()), int((degs == d).sum()))
        for d in np.unique(degs)
    }


def test_by_degree_means_match_mask_loop():
    graphs = [
        generate_er(300, 0.03, 1),
        generate_cl(synthesize_powerlaw(2000, 2.0, 60), 2),
        generate_bter(synthesize_powerlaw(3000, 2.0, 60), GenerationConfig(seed=3))[0],
    ]
    for g in graphs:
        prof = clustering_profile(g)
        ref = by_degree_by_mask(prof, g.degrees)
        assert list(prof.by_degree) == list(ref)
        # the same floats summed in the same order: equal to the last bit
        assert all(prof.by_degree[d] == ref[d] for d in ref)


def test_by_degree_clustering_decreases_for_block_model():
    # with a strong connectivity decay the mean local coefficient falls
    # across octave degree buckets; statistically over 50 seeds
    seq = synthesize_powerlaw(4000, 2.0, 63)
    formula_sums: dict[int, float] = {}
    formula_counts: dict[int, int] = {}
    from bter.communities import ConnectivityFormula

    for seed in range(50):
        g, _ = generate_bter(
            seq,
            GenerationConfig(
                seed=seed, connectivity=ConnectivityFormula("standard", 0.95, 0.95)
            ),
        )
        prof = clustering_profile(g)
        for d, (mean, cnt) in prof.by_degree.items():
            b = int(math.log2(d))
            formula_sums[b] = formula_sums.get(b, 0.0) + mean * cnt
            formula_counts[b] = formula_counts.get(b, 0) + cnt
    buckets = sorted(b for b in formula_sums if formula_counts[b] >= 250)
    means = [formula_sums[b] / formula_counts[b] for b in buckets]
    assert len(means) >= 4
    assert all(means[i + 1] <= means[i] for i in range(len(means) - 1)), means


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_complete_graph_leading_eigenvalue():
    g = generate_er(12, 1.0, 0)
    spec = top_eigenvalues(g, k=3)
    assert spec.eigenvalues[0] == pytest.approx(11.0, abs=1e-10)
    assert spec.eigenvalues[1] == pytest.approx(-1.0, abs=1e-10)


def test_star_leading_eigenvalue():
    g, _ = build_graph([(0, i) for i in range(1, 26)])
    spec = top_eigenvalues(g, k=1)
    assert spec.eigenvalues[0] == pytest.approx(math.sqrt(25), abs=1e-10)


def test_spectrum_orders_by_value_not_magnitude():
    # the star spectrum is {sqrt(d), 0, ..., -sqrt(d)}: top-3 by value must
    # be [sqrt(d), 0, 0], not the large negative extreme
    g, _ = build_graph([(0, i) for i in range(1, 26)])
    spec = top_eigenvalues(g, k=3, tol=1e-10)
    assert spec.eigenvalues[0] == pytest.approx(5.0, abs=1e-10)
    assert spec.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)
    assert spec.eigenvalues[2] == pytest.approx(0.0, abs=1e-10)


def test_spectrum_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 61))
        g = generate_er(n, float(rng.uniform(0.1, 0.7)), int(rng.integers(1 << 40)))
        k = int(rng.integers(1, min(n, 12)))
        spec = top_eigenvalues(g, k=k, tol=1e-9)
        dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1][:k]
        err = np.abs(spec.eigenvalues - dense) / np.maximum(np.abs(dense), 1.0)
        assert err.max() < 1e-8
        assert (spec.residuals <= 1e-9).all()
        assert (np.diff(spec.eigenvalues) <= 1e-9).all()  # sorted descending


def test_spectrum_full_k_equals_dense():
    g = generate_er(50, 0.25, 8)
    spec = top_eigenvalues(g, k=50, tol=1e-9)
    dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1]
    assert np.abs(spec.eigenvalues - dense).max() < 1e-8
    # adjacency trace identities
    assert spec.eigenvalues.sum() == pytest.approx(0.0, abs=1e-8)
    assert (spec.eigenvalues**2).sum() == pytest.approx(2 * g.edge_count, abs=1e-6)


def test_spectrum_repeated_eigenvalues_recovered():
    # two leaves on the same hub create an exactly repeated eigenvalue
    g, _ = build_graph([(0, 1), (0, 2), (0, 3), (1, 2)])
    spec = top_eigenvalues(g, k=4, tol=1e-10)
    dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1]
    assert np.abs(spec.eigenvalues - dense).max() < 1e-9


def test_spectrum_on_block_model_graph():
    # clustered spectra (many nearby block eigenvalues) are the hard case
    # for the deflated iteration; verify against the dense oracle
    seq = synthesize_powerlaw(500, 2.0, 22)
    g, _ = generate_bter(seq, GenerationConfig(seed=3))
    spec = top_eigenvalues(g, k=15, tol=1e-8)
    dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1][:15]
    err = np.abs(spec.eigenvalues - dense) / np.maximum(np.abs(dense), 1.0)
    assert err.max() < 1e-8


def test_spectrum_edgeless_graph():
    g, _ = build_graph([], n=5)
    spec = top_eigenvalues(g, k=3)
    assert np.array_equal(spec.eigenvalues, np.zeros(3))


def test_spectrum_validation():
    g = k3()
    with pytest.raises(ValueError):
        top_eigenvalues(g, k=0)
    with pytest.raises(ValueError):
        top_eigenvalues(g, k=4)
    with pytest.raises(ValueError):
        top_eigenvalues(g, k=1, tol=0.0)


def test_spectrum_determinism():
    g = generate_er(40, 0.3, 2)
    s1 = top_eigenvalues(g, k=5, seed=3)
    s2 = top_eigenvalues(g, k=5, seed=3)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert s1.iterations == s2.iterations


def test_spectrum_nonconvergence_carries_partials():
    g = generate_er(200, 0.05, 1)
    with pytest.raises(SpectrumConvergenceError) as err:
        top_eigenvalues(g, k=3, tol=1e-30, max_dim=150)
    partial = err.value.partial
    assert partial.k == 3
    assert len(partial.eigenvalues) < 3


def test_spectrum_restart_budget_exhausted_carries_converged_partials():
    # one ARPACK restart cannot converge all three pairs; the ones it did
    # converge come back in the partial report, each within tol
    g = generate_er(200, 0.05, 1)
    with pytest.raises(SpectrumConvergenceError) as err:
        top_eigenvalues(g, k=3, tol=1e-8, max_dim=1)
    partial = err.value.partial
    assert partial.k == 3
    assert len(partial.eigenvalues) < 3
    assert len(partial.residuals) == len(partial.eigenvalues)
    assert (partial.residuals <= 1e-8).all()


def test_spectrum_many_identical_blocks_keeps_multiplicity():
    # 200 disjoint K5 have eigenvalue 4 with multiplicity 200: the top 25
    # must all be copies of it
    edges = [
        (5 * b + i, 5 * b + j) for b in range(200) for i in range(5) for j in range(i + 1, 5)
    ]
    g, _ = build_graph(edges)
    spec = top_eigenvalues(g, k=25)
    assert len(spec.eigenvalues) == 25
    assert np.abs(spec.eigenvalues - 4.0).max() <= 1e-10


# ---------------------------------------------------------------------------
# reports and comparison
# ---------------------------------------------------------------------------


def test_degree_histogram_counts_isolated():
    g, _ = build_graph([(0, 1)], n=4)
    assert degree_histogram(g) == {0: 2, 1: 2}


def test_compare_report_with_itself_is_zero():
    g = generate_er(30, 0.3, 6)
    rep = compute_report(g, metrics=("degree", "cc", "triangles", "spectrum"), top_k=5)
    div = compare_reports(rep, rep)
    assert div.degree_tv == 0.0
    assert div.global_c_gap == 0.0
    assert div.by_degree_cc_gap == 0.0
    assert div.eigen_max_rel_gap == 0.0


def test_compare_k3_vs_single_edge():
    # disjoint degree supports give TV 1; the edge graph has no wedges so
    # its global coefficient is 0 and the gap to the triangle's 1 is 1
    rep_a = compute_report(k3(), metrics=("degree", "cc"))
    edge, _ = build_graph([(0, 1)])
    rep_b = compute_report(edge, metrics=("degree", "cc"))
    div = compare_reports(rep_a, rep_b)
    assert div.degree_tv == 1.0
    assert div.global_c_gap == 1.0
    assert div.by_degree_cc_gap == 0.0  # no shared degree with defined C_i
    assert div.shared_cc_degrees == 0


def test_compare_k3_vs_path3_hand_values():
    # degree histograms {2:3} vs {1:2, 2:1}: TV = (2/3 + |1 - 1/3|)/2 = 2/3
    rep_a = compute_report(k3(), metrics=("degree", "cc"))
    rep_b = compute_report(path3(), metrics=("degree", "cc"))
    div = compare_reports(rep_a, rep_b)
    assert div.degree_tv == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert div.global_c_gap == 1.0
    assert div.by_degree_cc_gap == 1.0  # degree 2 defined on both sides


def test_compare_requires_same_metric_set():
    g = k3()
    with pytest.raises(ValueError, match="different metrics"):
        compare_reports(
            compute_report(g, metrics=("degree",)),
            compute_report(g, metrics=("degree", "cc")),
        )


def test_compare_requires_same_k():
    g = generate_er(20, 0.4, 1)
    a = compute_report(g, metrics=("spectrum",), top_k=4)
    b = compute_report(g, metrics=("spectrum",), top_k=6)
    with pytest.raises(ValueError, match="mismatched"):
        compare_reports(a, b)


def test_block_model_beats_cl_on_clustering_gap():
    seq = synthesize_powerlaw(3000, 2.0, 54)
    gb, _ = generate_bter(seq, GenerationConfig(seed=4))
    gc = generate_cl(seq, 4)
    target_hist = {
        int(d): int(c) for d, c in zip(*np.unique(seq.degrees, return_counts=True))
    }
    rep_b = compute_report(gb)
    rep_c = compute_report(gc)
    div = compare_reports(rep_b, rep_c)
    # both models miss the degree histogram far less than they differ in
    # clustering
    assert div.global_c_gap > div.degree_tv
    tv_b = degree_tv_distance(degree_histogram(gb), target_hist)
    tv_c = degree_tv_distance(degree_histogram(gc), target_hist)
    assert div.global_c_gap > max(tv_b, tv_c)


def test_compute_report_unknown_metric():
    with pytest.raises(ValueError):
        compute_report(k3(), metrics=("degree", "pagerank"))
