import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_triangles, dense_adjacency, sparse_triangles
from bter import metrics, spectrum
from bter.degrees import synthesize_powerlaw
from bter.generate import GenerationConfig, generate_bter, generate_cl, generate_er
from bter.graph import build_graph
from bter.metrics import (
    MetricsReport,
    SpectrumConvergenceError,
    clustering_profile,
    compute_report,
    count_triangles_wedges,
    degree_histogram,
    top_eigenvalues,
)
from bter.reports import compare_reports, degree_tv_distance


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


def _powerlaw_graph(model: str, n: int, d_max: int, seed: int):
    seq = synthesize_powerlaw(n, 2.0, d_max)
    if model == "bter":
        return generate_bter(seq, GenerationConfig(seed=seed))[0]
    return generate_cl(seq, seed)


@pytest.mark.parametrize("chunk", [None, 7, 1])
def test_counts_match_sparse_oracle_midsize(chunk, monkeypatch):
    if chunk is not None:
        # at 7, out-degree classes 2-4 span several passes, and larger
        # classes get one node per pass; at 1, every pass holds one node
        # and every edge is oriented in a pass of its own
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", chunk)
    # n = 3000 with hubs: many out-degree classes and closing searches
    for g in (_powerlaw_graph(model, 3000, 120, 7) for model in ("bter", "cl")):
        total, per_node = sparse_triangles(g)
        c = count_triangles_wedges(g)
        assert total > 0
        assert c.triangles == total
        assert np.array_equal(c.per_node_triangles, per_node)


@pytest.mark.parametrize("chunk", [1, 7, metrics._WEDGE_CHUNK])
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=50))
@settings(max_examples=60)
def test_per_node_counts_match_brute_force_any_chunk(chunk, stream):
    g, _ = build_graph(stream, n=12)
    total, per_node = brute_force_triangles(g)
    with mock.patch.object(metrics, "_WEDGE_CHUNK", chunk):
        c = count_triangles_wedges(g)
    assert c.triangles == total
    assert np.array_equal(c.per_node_triangles, per_node)
    assert c.per_node_triangles.dtype == np.int64


def _small_graph(kind: str):
    seq = synthesize_powerlaw(60, 2.0, 12)
    if kind == "empty":
        return build_graph([], n=6)[0]
    if kind == "triangle-free":  # K_{4,5}: 70 wedges, no triangle
        return build_graph([(u, v) for u in range(4) for v in range(4, 9)])[0]
    if kind == "er":
        return generate_er(40, 0.2, 5)
    if kind == "cl":
        return generate_cl(seq, 5)
    return generate_bter(seq, GenerationConfig(seed=5))[0]


@pytest.mark.parametrize("chunk", [1, 7, metrics._WEDGE_CHUNK])
@pytest.mark.parametrize("kind", ["empty", "triangle-free", "er", "cl", "bter"])
def test_totals_only_count_matches_full_count_and_brute_force(kind, chunk, monkeypatch):
    g = _small_graph(kind)
    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", chunk)
    full = count_triangles_wedges(g)
    totals = count_triangles_wedges(g, per_node=False)
    assert totals.per_node_triangles is None and totals.per_node_wedges is None
    assert (totals.triangles, totals.wedges) == (full.triangles, full.wedges)
    assert totals.triangles == brute_force_triangles(g)[0]
    assert totals.wedges == int((g.degrees * (g.degrees - 1) // 2).sum())
    assert type(totals.triangles) is int and type(totals.wedges) is int
    if kind in ("er", "bter"):
        assert totals.triangles > 0
    if kind == "triangle-free":
        assert (totals.triangles, totals.wedges) == (0, 70)


def test_compute_report_counts_per_node_only_for_clustering(monkeypatch):
    calls = []
    count = metrics.count_triangles_wedges

    def spy(g, per_node=True):
        calls.append(per_node)
        return count(g, per_node=per_node)

    monkeypatch.setattr(metrics, "count_triangles_wedges", spy)
    g = generate_er(30, 0.3, 2)
    totals = compute_report(g, metrics=("triangles",))
    both = compute_report(g, metrics=("cc", "triangles"))
    assert calls == [False, True]
    assert (totals.triangles, totals.wedges) == (both.triangles, both.wedges)


@pytest.mark.parametrize("model", ["bter", "cl", "er"])
def test_kernel_memory_bounded(model, monkeypatch):
    # besides the graph: 8 B an edge (the sorted int64 oriented keys, whose
    # buffer then holds the int32 rows made from them), at most four
    # node-length int64 arrays (the graph's degrees, counted on first use,
    # the row starts, the per-node counts, and the out-degree grouping of
    # the nodes that centre an out-wedge), and one pass of at most sixteen
    # chunk-length ones (a wedge pass, or a chunk of edges). The dense ER
    # graph (m/n = 100) is where the edge term sets the peak: rows kept
    # apart from the keys, 12 B an edge, exceed this bound there
    import tracemalloc

    import bter.graph

    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 4096)
    monkeypatch.setattr(bter.graph, "_WRITE_CHUNK", 4096)
    g = generate_er(2000, 0.1, 1) if model == "er" else _powerlaw_graph(model, 30000, 300, 1)
    bound = 8 * g.edge_count + 4 * 8 * g.n + 16 * 8 * metrics._WEDGE_CHUNK
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        c = count_triangles_wedges(g)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert c.triangles > 0
    assert peak <= bound


@pytest.mark.parametrize("model", ["bter", "cl"])
def test_counts_follow_a_relabelling(model):
    # the orientation breaks (degree, id) ties by id, and the counts are
    # kept by id: under a random permutation of the ids, node u's counts
    # move to node perm[u], whatever ties the new ids break otherwise
    g = _powerlaw_graph(model, 3000, 120, 7)
    perm = np.random.default_rng(3).permutation(g.n)
    relabelled, _ = build_graph(perm[g.edges], n=g.n)
    c, r = count_triangles_wedges(g), count_triangles_wedges(relabelled)
    assert c.triangles == r.triangles > 0 and c.wedges == r.wedges
    assert np.array_equal(r.per_node_triangles[perm], c.per_node_triangles)
    assert np.array_equal(r.per_node_wedges[perm], c.per_node_wedges)


@pytest.mark.parametrize("int32_nodes, row_dtype", [(0, np.int64), (3000, np.int64),
                                                    (3001, np.int32)])
def test_int64_rows_count_the_same(int32_nodes, row_dtype, monkeypatch):
    # rows fall back to int64 from _INT32_NODES nodes on; with the threshold
    # at or below n the rows are int64, and every count is the same
    passes = metrics._close_wedges
    row_dtypes = set()

    def spy(keys, width, rows, *args):
        row_dtypes.add(rows.dtype)
        return passes(keys, width, rows, *args)

    monkeypatch.setattr(metrics, "_INT32_NODES", int32_nodes)
    monkeypatch.setattr(metrics, "_close_wedges", spy)
    for model in ("bter", "cl"):
        g = _powerlaw_graph(model, 3000, 120, 7)
        total, per_node = sparse_triangles(g)
        c = count_triangles_wedges(g)
        assert c.triangles == total
        assert np.array_equal(c.per_node_triangles, per_node)
    assert row_dtypes == {np.dtype(row_dtype)}


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
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            top_eigenvalues(g, k=1, tol=tol)


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
    # one Lanczos basis cannot converge all three pairs; the ones it did
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


def _union(parts, rng):
    """The disjoint union of the (n, edges) parts, its node ids shuffled so
    that the components interleave."""
    ids = rng.permutation(sum(n for n, _ in parts))
    edges, at = [], 0
    for n, part in parts:
        edges += [(ids[at + u], ids[at + v]) for u, v in part]
        at += n
    return build_graph(edges, n=at)[0]


def _clique(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def _connected(n, extra, rng):
    """A connected graph on n nodes: a path, plus up to `extra` random chords."""
    extra = min(extra, (n - 1) * (n - 2) // 2)
    edges = {(u, u + 1) for u in range(n - 1)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    return n, sorted(edges)


def _assert_matches_dense(g, spec, k, tol):
    dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1][:k]
    assert len(spec.eigenvalues) == k
    assert (np.abs(spec.eigenvalues - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense))).all()
    assert (spec.residuals <= tol).all()
    assert (np.diff(spec.eigenvalues) <= 0).all()


def test_component_roots_name_each_component_by_its_lowest_node():
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(3)
    star = (40, [(0, v) for v in range(1, 40)])
    for parts in (
        [(5, [])],
        [_connected(300, 0, rng)],  # a path, ids shuffled
        [star, _clique(2), (1, []), _connected(200, 150, rng), _clique(7)],
        [_connected(int(rng.integers(2, 60)), int(rng.integers(0, 30)), rng) for _ in range(30)],
    ):
        g = _union(parts, rng)
        root = spectrum._component_roots(g)
        _, label = connected_components(g.adjacency_csr(), directed=False)
        lowest = {}
        for node, lab in enumerate(label.tolist()):
            lowest.setdefault(lab, node)
        assert root.tolist() == [lowest[lab] for lab in label.tolist()]


def test_spectrum_of_component_unions_matches_dense():
    # isolated nodes, K2s, small dense blocks, components just below, at
    # and just above the dense bound, and two Lanczos-sized components, in
    # random unions; each solve path must agree with the whole dense matrix
    rng = np.random.default_rng(17)
    edge = spectrum._DENSE_MAX
    for trial in range(4):
        parts = [(1, []) for _ in range(int(rng.integers(0, 30)))]
        parts += [_clique(2) for _ in range(int(rng.integers(0, 20)))]
        parts += [_clique(int(rng.integers(3, 12))) for _ in range(int(rng.integers(1, 8)))]
        parts += [_connected(s, int(rng.integers(0, 3 * s)), rng) for s in (edge - 1, edge, edge + 1)]
        if trial % 2:
            parts += [_connected(s, int(rng.integers(s // 2, 4 * s)), rng) for s in (260, 340)]
        g = _union(parts, rng)
        for k in (1, 6, 25):
            spec = top_eigenvalues(g, k=k, tol=1e-9)
            _assert_matches_dense(g, spec, k, 1e-9)
            assert spec.iterations > 0  # the component just above the bound


def test_spectrum_takes_a_small_dense_block_ahead_of_the_giant():
    # a disjoint K40's eigenvalue 39 tops a sparse giant's (about 5)
    rng = np.random.default_rng(2)
    g = _union([_connected(600, 900, rng), _clique(40), _clique(2)], rng)
    spec = top_eigenvalues(g, k=10, tol=1e-9)
    assert spec.eigenvalues[0] == pytest.approx(39.0, abs=1e-9)
    assert spec.iterations > 0
    _assert_matches_dense(g, spec, 10, 1e-9)


def test_spectrum_of_dense_components_only_needs_no_matvecs():
    g = _union([_clique(5) for _ in range(200)], np.random.default_rng(0))
    spec = top_eigenvalues(g, k=25)
    assert spec.iterations == 0
    assert np.abs(spec.eigenvalues - 4.0).max() <= 1e-10


@pytest.mark.parametrize("model", ["bter", "cl"])
@pytest.mark.parametrize("n", [2000, 10_000])
def test_spectrum_agrees_with_a_whole_graph_eigsh(model, n):
    # the benchmark's oracle: one eigsh over all n nodes, 1e-9 relative
    from scipy.sparse.linalg import eigsh

    seq = synthesize_powerlaw(n, 2.0, int(n**0.5))
    if model == "bter":
        g, _ = generate_bter(seq, GenerationConfig(seed=5))
    else:
        g = generate_cl(seq, 5)
    spec = top_eigenvalues(g, k=25, tol=1e-8)
    v0 = np.random.default_rng(1).standard_normal(n)
    whole = np.sort(eigsh(g.adjacency_csr(), k=25, which="LA", v0=v0, tol=0)[0])[::-1]
    assert (np.abs(spec.eigenvalues - whole) <= 1e-9 * np.maximum(1.0, np.abs(whole))).all()
    assert (spec.residuals <= 1e-8).all()


def test_spectrum_repeats_within_one_process_on_a_small_component(tmp_path):
    # ARPACK on a component no bigger than its Krylov space (ncv = n = 18
    # at k=10) gave different bits from call to call in one process; such
    # a component is solved densely
    from scipy.sparse.csgraph import connected_components

    from bter.cli import main
    from bter.graph import read_snap_edgelist

    path = tmp_path / "g.txt"
    assert main(["generate", "--model", "bter", "--powerlaw", "2000,2,45", "--seed", "17",
                 "--out", str(path)]) == 0
    g = read_snap_edgelist(path)
    _, label = connected_components(g.adjacency_csr(), directed=False)
    nodes = np.flatnonzero(label == np.flatnonzero(np.bincount(label) == 18)[0])
    edges = g.edges[np.isin(g.edges[:, 0], nodes) & np.isin(g.edges[:, 1], nodes)]
    sub, _ = build_graph(np.searchsorted(nodes, edges), n=18)
    runs = [top_eigenvalues(sub, k=10) for _ in range(4)]
    for spec in runs[1:]:
        assert spec.eigenvalues.tobytes() == runs[0].eigenvalues.tobytes()
        assert spec.residuals.tobytes() == runs[0].residuals.tobytes()
    _assert_matches_dense(sub, runs[0], 10, 1e-8)


def _hypercube(d):
    n = 1 << d
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]


def _bipartite(a, b):
    return a + b, [(u, v) for u in range(a) for v in range(a, a + b)]


@pytest.mark.parametrize("name, part", [
    ("K200", _clique(200)),
    ("K100,100", _bipartite(100, 100)),
    ("Q8", _hypercube(8)),
    ("Q9", _hypercube(9)),
])
def test_lanczos_finds_repeated_eigenvalues_of_one_component(name, part):
    # each is one component solved by Lanczos, with eigenvalues of high
    # multiplicity in its top 25: the Krylov space from one start vector
    # holds one vector of each eigenspace, so the basis breaks down (K200
    # at its second vector) and must go on from fresh vectors
    n, edges = part
    g = build_graph(edges, n=n)[0]
    spec = top_eigenvalues(g, k=25, tol=1e-9)
    assert spec.iterations > 0
    _assert_matches_dense(g, spec, 25, 1e-9)


def test_lanczos_repeats_its_iterations_and_bytes_for_a_seed():
    seq = synthesize_powerlaw(2000, 2.0, 45)
    g = generate_cl(seq, 3)
    runs = [top_eigenvalues(g, k=25, seed=7) for _ in range(3)]
    assert runs[0].iterations > 0
    for spec in runs[1:]:
        assert spec.iterations == runs[0].iterations
        assert spec.eigenvalues.tobytes() == runs[0].eigenvalues.tobytes()
        assert spec.residuals.tobytes() == runs[0].residuals.tobytes()


def test_spectrum_products_agree_above_and_below_the_scipy_crossover(monkeypatch):
    # the bincount product and scipy's CSR product sum each row's entries
    # in the same order, so the solves agree
    seq = synthesize_powerlaw(3000, 2.0, 55)
    g = generate_cl(seq, 2)
    below = top_eigenvalues(g, k=25, tol=1e-9)
    monkeypatch.setattr(spectrum, "_SCIPY_ENTRIES", 0)
    above = top_eigenvalues(g, k=25, tol=1e-9)
    assert above.iterations == below.iterations > 0
    np.testing.assert_allclose(above.eigenvalues, below.eigenvalues, rtol=1e-12, atol=0)
    _assert_matches_dense(g, above, 25, 1e-9)


def _bundled(core, extra, bundles, rng):
    """A connected core on `core` nodes, with bundles[i] leaves hung on core node i."""
    n, edges = _connected(core, extra, rng)
    for hub, leaves in enumerate(bundles):
        edges += [(hub, v) for v in range(n, n + leaves)]
        n += leaves
    return n, edges


@pytest.mark.parametrize("leaves", [50, 300, 1000])
def test_spectrum_of_a_star_is_its_hub_then_exact_zeros(leaves):
    # the leaves are one bundle: the quotient is a K2 of weight sqrt(L), and
    # the L - 1 merged-away leaves give exact zeros with residual 0
    g, _ = build_graph([(0, v) for v in range(1, leaves + 1)])
    spec = top_eigenvalues(g, k=25, tol=1e-10)
    _assert_matches_dense(g, spec, 25, 1e-10)
    assert spec.eigenvalues[0] == pytest.approx(math.sqrt(leaves), rel=1e-12)
    assert spec.eigenvalues[1:].tolist() == [0.0] * 24
    assert spec.residuals[1:].tolist() == [0.0] * 24
    assert spec.iterations == 0


def test_spectrum_of_leaf_bundles_on_an_arpack_sized_core():
    rng = np.random.default_rng(8)
    bundles = rng.integers(2, 20, size=300) * (rng.random(300) < 0.15)
    g = _union([_bundled(300, 450, bundles.tolist(), rng), _clique(2), (5, [])], rng)
    assert spectrum._merge_leaves(g)[1] > 0
    for k in (1, 6, 25):
        spec = top_eigenvalues(g, k=k, tol=1e-9)
        _assert_matches_dense(g, spec, k, 1e-9)
        assert spec.iterations > 0


def test_spectrum_keeps_k2_components_and_single_leaves():
    # a K2's ends are leaves of a leaf, and a hub with one leaf has no twin:
    # neither is merged, and the matrix solved is the adjacency matrix
    rng = np.random.default_rng(9)
    parts = [_clique(2) for _ in range(30)]
    parts += [_bundled(c, c * c, [1] * c, rng) for c in (3, 5, 8)]
    parts.append(_bundled(250, 300, [1] * 250, rng))  # Lanczos-sized
    g = _union(parts, rng)
    kept, zeros, weight = spectrum._merge_leaves(g)
    assert zeros == 0 and kept.tolist() == list(range(g.n))
    assert (weight == 1).all()
    for k in (1, 5, 25):
        _assert_matches_dense(g, top_eigenvalues(g, k=k, tol=1e-9), k, 1e-9)


_PIECES = st.one_of(
    st.tuples(st.just("star"), st.integers(1, 60)),
    st.tuples(st.just("k2"), st.just(2)),
    st.tuples(st.just("isolated"), st.integers(1, 10)),
    st.tuples(st.just("single leaves"), st.integers(2, 8)),
    st.tuples(st.just("bundles"), st.integers(3, 260)),
)


@given(st.lists(_PIECES, min_size=1, max_size=5), st.sampled_from([1, 5, 25]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_spectrum_of_unions_with_leaves_matches_dense(pieces, k, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for kind, size in pieces:
        if kind == "star":
            parts.append(_bundled(1, 0, [size], rng))
        elif kind == "k2":
            parts.append(_clique(2))
        elif kind == "isolated":
            parts += [(1, [])] * size
        elif kind == "single leaves":
            parts.append(_bundled(size, size * size, [1] * size, rng))
        else:
            bundles = rng.integers(2, 8, size=size) * (rng.random(size) < 0.3)
            parts.append(_bundled(size, int(rng.integers(0, 2 * size)), bundles.tolist(), rng))
    g = _union(parts, rng)
    k = min(k, g.n)
    _assert_matches_dense(g, top_eigenvalues(g, k=k, tol=1e-9), k, 1e-9)


def test_spectrum_repeats_within_one_process_when_the_quotient_goes_dense():
    # 240 nodes, above max(_DENSE_MAX, 2 * ncv), of which the quotient keeps
    # 126: the component is solved densely, with the same bits on each call
    rng = np.random.default_rng(11)
    g = _union([_bundled(120, 200, [20] * 6, rng)], rng)
    assert g.n > max(spectrum._DENSE_MAX, 4 * 25 + 2)
    runs = [top_eigenvalues(g, k=25) for _ in range(4)]
    for spec in runs[1:]:
        assert spec.eigenvalues.tobytes() == runs[0].eigenvalues.tobytes()
        assert spec.residuals.tobytes() == runs[0].residuals.tobytes()
    assert runs[0].iterations == 0
    _assert_matches_dense(g, runs[0], 25, 1e-8)


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
