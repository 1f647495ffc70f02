import math

import numpy as np
import pytest
from conftest import block_degree_dict, per_block_internal_degrees
from hypothesis import given, settings, strategies as st

from bter.communities import ConnectivityFormula, preprocess
from bter.degrees import synthesize_powerlaw
from bter.generate import GenerationConfig, generate_bter
from bter.graph import build_graph
from bter.metrics import count_triangles_wedges
from bter.theory import (
    audit_community,
    block_size_histogram,
    cl_expected_triangles,
    internal_degrees_by_block,
    kruskal_katona_check,
    loglog_slope,
    predict_community_profile,
)


# ---------------------------------------------------------------------------
# expected triangles
# ---------------------------------------------------------------------------


def test_expected_triangles_single_triple():
    # degrees [2,2,2]: every pair probability 2/3, one triple
    et = cl_expected_triangles([2, 2, 2])
    assert et.exact
    assert et.value == pytest.approx((2 / 3) ** 3, rel=1e-12)


def test_expected_triangles_no_triple():
    assert cl_expected_triangles([1, 1]).value == 0.0


def test_expected_triangles_cap_forces_certainty():
    et = cl_expected_triangles([10, 10, 10])
    assert et.value == pytest.approx(1.0, rel=1e-12)


def test_expected_triangles_star_positive_but_small():
    # hub 10, ten leaves: 45 hub-leaf-leaf triples at 0.5*0.5*0.05 plus 120
    # leaf triples at 0.05^3
    et = cl_expected_triangles([10] + [1] * 10)
    expected = 45 * 0.5 * 0.5 * 0.05 + 120 * 0.05**3
    assert et.value == pytest.approx(expected, rel=1e-12)


def test_expected_triangles_threshold_switches_to_bound():
    d = [3, 3, 3, 3]
    exact = cl_expected_triangles(d)
    bounded = cl_expected_triangles(d, exact_threshold=3)
    assert exact.exact and not bounded.exact
    s = sum(d) / 2
    assert bounded.value == pytest.approx(sum(x * x for x in d) ** 3 / (8 * s**3))
    assert exact.value <= bounded.value


def test_expected_triangles_validation():
    with pytest.raises(ValueError):
        cl_expected_triangles([])
    with pytest.raises(ValueError):
        cl_expected_triangles([0, 2])
    with pytest.raises(ValueError):
        cl_expected_triangles([1])  # s = 1/2 < 1


@given(st.lists(st.integers(1, 9), min_size=2, max_size=25))
@settings(max_examples=60)
def test_exact_never_exceeds_closed_form_bound(degrees):
    if sum(degrees) < 2:
        return
    exact = cl_expected_triangles(degrees)
    bound = cl_expected_triangles(degrees, exact_threshold=1)
    assert exact.value <= bound.value + 1e-9


def test_expected_triangles_monte_carlo_agreement():
    # r <= 10: mean triangle count of 1e5 independent-pair draws within
    # 3 sigma of the computed expectation
    from conftest import sampled_cl_triangle_mean

    rng = np.random.default_rng(21)
    for _ in range(5):
        r = int(rng.integers(3, 11))
        degrees = np.sort(rng.integers(1, 6, size=r))
        if degrees.sum() < 2:
            continue
        expected = cl_expected_triangles(degrees).value
        mean, sigma = sampled_cl_triangle_mean(degrees, 100_000, rng)
        if sigma == 0.0:
            assert mean == pytest.approx(expected, abs=1e-12)
        else:
            assert abs(mean - expected) <= 3 * sigma


# ---------------------------------------------------------------------------
# extremal bound
# ---------------------------------------------------------------------------


def test_kruskal_katona_examples():
    assert kruskal_katona_check(1, 3)  # triangle: 1 <= 3^1.5
    assert kruskal_katona_check(27, 9)  # boundary: 27 = 9^1.5 exactly
    assert not kruskal_katona_check(28, 9)
    assert kruskal_katona_check(0, 0)
    with pytest.raises(ValueError):
        kruskal_katona_check(-1, 2)


@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=60))
@settings(max_examples=150)
def test_kruskal_katona_on_arbitrary_graphs(stream):
    g, _ = build_graph(stream, n=15)
    c = count_triangles_wedges(g)
    assert kruskal_katona_check(c.triangles, g.edge_count)


# ---------------------------------------------------------------------------
# community audit
# ---------------------------------------------------------------------------


def test_audit_dense_block_passes():
    audit = audit_community([2, 2, 2], kappa=0.1)
    assert audit.wedge_bound == pytest.approx(0.1)
    assert audit.expected_triangles == pytest.approx((2 / 3) ** 3, rel=1e-12)
    assert audit.passes


def test_audit_star_fails():
    audit = audit_community([10] + [1] * 10, kappa=0.1)
    assert audit.wedge_bound == pytest.approx(0.1 / 3 * 45)
    assert not audit.passes


def test_audit_clique_core_census():
    # ten nodes of degree 10: s = 50, sqrt(s) ~ 7.07, so every node clears
    # every core constant
    audit = audit_community([10] * 10, kappa=0.1)
    assert audit.er_core[1.0] == (10, 10)
    assert audit.er_core[0.25] == (10, 10)
    assert audit.passes


def test_audit_core_census_partial():
    audit = audit_community([9, 9, 1, 1, 1, 1], kappa=0.1)
    sqrt_s = math.sqrt(audit.s)
    expected = int((np.array([9, 9, 1, 1, 1, 1]) >= sqrt_s).sum())
    assert audit.er_core[1.0][0] == expected


def test_audit_kappa_validation():
    with pytest.raises(ValueError):
        audit_community([2, 2, 2], kappa=0.0)
    with pytest.raises(ValueError):
        audit_community([2, 2, 2], kappa=1.0)


def test_audit_verdict_scale_invariance_on_clear_margins():
    # doubling cap-free degrees multiplies the two sides differently but
    # does not flip clear verdicts
    for degrees, kappa in (([2] * 6, 0.1), ([4, 1, 1, 1, 1, 1, 1, 1, 1], 0.9)):
        base = audit_community(degrees, kappa=kappa)
        scaled = audit_community([2 * d for d in degrees], kappa=kappa)
        assert base.passes == scaled.passes


# ---------------------------------------------------------------------------
# block-size profile
# ---------------------------------------------------------------------------


def test_predicted_profile_values():
    prof = predict_community_profile(10**6, 2.0)
    assert prof.d_bar == 100
    assert prof.counts[1] == 10**6
    assert prof.counts[100] == pytest.approx(1.0)
    assert predict_community_profile(1, 2.0).d_bar == 1


def test_predicted_profile_boundary_exactness():
    # 8**3 = 512 exactly: d_bar must include the boundary size
    assert predict_community_profile(512, 2.0).d_bar == 8
    assert predict_community_profile(511, 2.0).d_bar == 7


def test_predicted_profile_refuses_a_gamma_that_is_not_positive():
    for gamma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gamma must be positive"):
            predict_community_profile(10, gamma)
    # gamma = inf is the limit in which every community has size 1
    prof = predict_community_profile(10, float("inf"))
    assert prof.d_bar == 1 and prof.counts == {1: 10.0}


def test_loglog_slope_recovers_exponent():
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    ys = 5.0 * xs**-3.0
    assert loglog_slope(xs, ys) == pytest.approx(-3.0, rel=1e-12)


def test_realized_block_sizes_track_prediction():
    # counts at size d within a factor of 2 of n / d**(gamma+1) over the
    # mid-range sizes
    n, gamma = 10_000, 2.0
    seq = synthesize_powerlaw(n, gamma, 100)
    part = preprocess(seq, ConnectivityFormula())
    hist = block_size_histogram(part.block_size)
    prof = predict_community_profile(n, gamma)
    checked = 0
    for size in range(3, 13):
        if size in hist and size in prof.counts:
            ratio = hist[size] / prof.counts[size]
            assert 0.5 <= ratio <= 2.0, (size, ratio)
            checked += 1
    assert checked >= 8


def _check_block_degrees(g, assignment):
    """internal_degrees_by_block's array form against the per-block loop."""
    blocks = internal_degrees_by_block(g, assignment)
    ids, offsets, degrees = blocks
    assert ids.dtype == offsets.dtype == degrees.dtype == np.int64
    assert offsets.size == ids.size + 1 and offsets[0] == 0 and offsets[-1] == degrees.size
    assert (np.diff(ids) > 0).all() and (np.diff(offsets) > 0).all()
    got = block_degree_dict(blocks)
    expected = per_block_internal_degrees(g, assignment)
    assert list(got) == list(expected)
    for k, deg in expected.items():
        assert np.array_equal(got[k], deg)
    return got


def test_internal_degrees_by_block():
    g, _ = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    internal = _check_block_degrees(g, np.array([0, 0, 0, 1, 1]))
    assert {k: d.tolist() for k, d in internal.items()} == {0: [2, 2, 2], 1: [1, 1]}


def test_internal_degrees_by_block_matches_per_block_loop():
    seq = synthesize_powerlaw(3000, 2.0, 50)
    g, trace = generate_bter(seq, GenerationConfig(seed=4))
    assert len(_check_block_degrees(g, trace.partition.assignment)) > 100


@pytest.mark.parametrize(
    "assignment",
    [
        [-1, -1, -1, -1, -1, -1],  # no block: an empty result
        [7, 7, 7, -1, 3, 3],  # ids out of node order, and unassigned nodes
        [10**12, 10**12, 5, 5, 5, 0],  # large ids, and a block of no internal edge
        [2, 1, 2, 1, 2, 1],  # interleaved blocks
    ],
)
def test_internal_degrees_by_block_on_any_assignment(assignment):
    g, _ = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (0, 5), (2, 4)])
    _check_block_degrees(g, np.array(assignment))


def test_internal_degrees_by_block_memory_grows_with_n_and_m(monkeypatch):
    # besides the graph and the assignment: the node-long int64 table and a
    # pass of at most twelve chunk-length arrays, then four int64 entries for
    # each of the k <= n nodes of nonzero internal degree; nothing per block.
    # A dict of per-block arrays, made while the table is still held, peaks
    # at about 1.6 times this bound
    import tracemalloc

    import bter.graph

    monkeypatch.setattr(bter.graph, "_WRITE_CHUNK", 4096)
    seq = synthesize_powerlaw(100_000, 2.0, 1000)
    g, trace = generate_bter(seq, GenerationConfig(seed=2))
    assignment = trace.partition.assignment
    k = sum(map(len, per_block_internal_degrees(g, assignment).values()))
    bound = 8 * g.n + 4 * 8 * k + 12 * 8 * bter.graph._WRITE_CHUNK
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        blocks = internal_degrees_by_block(g, assignment)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert len(blocks.ids) > 5000 and blocks.degrees.size == k
    assert peak <= bound


def test_internal_degrees_requires_cover():
    g, _ = build_graph([(0, 1)])
    with pytest.raises(ValueError):
        internal_degrees_by_block(g, np.array([0]))


def test_audit_reads_an_array_as_it_is():
    # a block's int64 degree array is read in place, never item by item
    # through Python ints; any other iterable is still taken, with equal
    # results
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("iterated item by item")

    degrees = [9, 9, 4, 3, 1, 1, 1, 2]
    block = np.array(degrees, dtype=np.int64).view(NoIteration)
    assert audit_community(block) == audit_community(degrees) == audit_community(iter(degrees))
    assert cl_expected_triangles(block) == cl_expected_triangles(d for d in degrees)


def test_audit_pipeline_on_generated_blocks():
    # dense small blocks from an actual run pass the criterion
    seq = synthesize_powerlaw(2000, 2.0, 45)
    cfg = GenerationConfig(seed=9)
    g, _ = generate_bter(seq, cfg)
    part = preprocess(seq, cfg.connectivity)
    _, offsets, degrees = internal_degrees_by_block(g, part.assignment)
    audits = [audit_community(d, kappa=0.1) for d in np.split(degrees, offsets[1:-1])]
    pass_fraction = sum(a.passes for a in audits) / len(audits)
    assert pass_fraction > 0.9
