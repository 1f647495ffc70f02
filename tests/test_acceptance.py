"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 (and the eigenvalue-ordering addendum) need the four SNAP
datasets on disk; run scripts/fetch_snap.py first or point BTER_DATA_DIR at
them. Everything else is self-contained and deterministic.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_triangles, dense_adjacency, sampled_cl_triangle_mean
from bter import block_size_histogram, loglog_slope
from bter.cli import EXIT_OK, main as cli_main
from bter.communities import DATASET_FITS, ConnectivityFormula, preprocess
from bter.degrees import DegreeSequence, extract_degrees, synthesize_powerlaw
from bter.generate import GenerationConfig, generate_bter, generate_cl, generate_er
from bter.graph import build_graph, read_snap_edgelist
from bter.metrics import (
    clustering_profile,
    count_triangles_wedges,
    degree_histogram,
    top_eigenvalues,
)
from bter.reports import degree_tv_distance
from bter.theory import cl_expected_triangles, kruskal_katona_check, predict_community_profile

DATA_DIR = Path(os.environ.get("BTER_DATA_DIR", Path(__file__).parent.parent / "data"))

TABLE_COUNTS = {
    "ca-AstroPh": (18_772, 396_100, 0.32),
    "soc-Epinions1": (75_879, 811_480, 0.07),
    "cit-HepPh": (34_546, 841_754, 0.15),
    "ca-CondMat": (23_133, 186_878, 0.26),
}

SYNTH_N, SYNTH_GAMMA, SYNTH_DMAX = 10_000, 2.0, 100
SYNTH_SEEDS = 20


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dataset_path(name: str) -> Path:
    return DATA_DIR / f"{name}.txt"


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if not path.is_file():
        pytest.skip(
            f"dataset {name} not present at {path}; run scripts/fetch_snap.py "
            "(criteria 2-8 stand alone)"
        )
    return path


@pytest.fixture(scope="module")
def synth_runs():
    """Shared 20-seed generation and measurement on the synthetic sequence."""
    seq = synthesize_powerlaw(SYNTH_N, SYNTH_GAMMA, SYNTH_DMAX)
    target = {int(d): int(c) for d, c in zip(*np.unique(seq.degrees, return_counts=True))}
    out = {"seq": seq, "tv_bter": [], "tv_cl": [], "c_bter": [], "c_cl": []}
    for seed in range(SYNTH_SEEDS):
        gb, _ = generate_bter(seq, GenerationConfig(seed=seed))
        gc = generate_cl(seq, seed + 50_000)
        out["tv_bter"].append(degree_tv_distance(degree_histogram(gb), target))
        out["tv_cl"].append(degree_tv_distance(degree_histogram(gc), target))
        out["c_bter"].append(clustering_profile(gb).global_c)
        out["c_cl"].append(clustering_profile(gc).global_c)
    return out


def test_criterion_1_table_counts_and_clustering():
    lines = []
    for name, (nodes, edges, c_ref) in TABLE_COUNTS.items():
        path = require_dataset(name)
        start = time.monotonic()
        g = read_snap_edgelist(path)
        counts = count_triangles_wedges(g)
        global_c = 3.0 * counts.triangles / counts.wedges
        elapsed = time.monotonic() - start
        ok = (
            g.n == nodes
            and g.edge_count == edges
            and abs(global_c - c_ref) <= 0.01
            and elapsed < 60.0
        )
        lines.append(f"{name}: n={g.n} m={g.edge_count} C={global_c:.4f} ({elapsed:.1f}s)")
        assert ok, lines[-1]
    report("1 (table reproduction)", True, "; ".join(lines))


def test_criterion_2_degree_fidelity(synth_runs):
    tv_b = float(np.mean(synth_runs["tv_bter"]))
    tv_c = float(np.mean(synth_runs["tv_cl"]))
    report(
        "2 (degree fidelity)",
        tv_b < 0.05 and tv_c < 0.05,
        f"mean TV over {SYNTH_SEEDS} seeds: block model {tv_b:.4f}, CL {tv_c:.4f} "
        "(threshold 0.05)",
    )


def test_criterion_3_clustering_separation(synth_runs):
    c_b = float(np.mean(synth_runs["c_bter"]))
    c_c = float(np.mean(synth_runs["c_cl"]))
    ratio = c_b / c_c
    report(
        "3 (clustering separation)",
        ratio >= 5.0,
        f"mean C: block model {c_b:.4f}, CL {c_c:.5f}, ratio {ratio:.1f} (>= 5 required)",
    )


def test_criterion_4_triangle_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = generate_er(n, float(rng.uniform(0.0, 1.0)), int(rng.integers(1 << 60)))
        total, per_node = brute_force_triangles(g)
        counted = count_triangles_wedges(g)
        if counted.triangles != total or not np.array_equal(
            counted.per_node_triangles, per_node
        ):
            mismatches += 1
    report(
        "4 (triangle oracle)",
        mismatches == 0,
        f"200 graphs <= 12 nodes vs exhaustive enumeration, {mismatches} mismatches",
    )


def test_criterion_5_cl_expectation_oracle():
    rng = np.random.default_rng(31337)
    worst_z = 0.0
    for _ in range(20):
        r = int(rng.integers(3, 9))
        degrees = np.sort(rng.integers(1, 7, size=r))
        expected = cl_expected_triangles(degrees).value
        mean, sigma = sampled_cl_triangle_mean(degrees, 100_000, rng)
        if sigma == 0.0:
            assert mean == pytest.approx(expected, abs=1e-12)
            continue
        worst_z = max(worst_z, abs(mean - expected) / sigma)
    report(
        "5 (CL expectation oracle)",
        worst_z <= 3.0,
        f"20 sequences, 1e5 exact-law samples each, worst |z| = {worst_z:.2f} (<= 3)",
    )


def test_criterion_6_extremal_bound_everywhere():
    rng = np.random.default_rng(99)
    checked = 0
    failures = 0

    def check(graph):
        nonlocal checked, failures
        counts = count_triangles_wedges(graph)
        checked += 1
        if not kruskal_katona_check(counts.triangles, graph.edge_count):
            failures += 1

    for _ in range(500):  # ER sweep
        n = int(rng.integers(1, 41))
        check(generate_er(n, float(rng.uniform(0, 1)), int(rng.integers(1 << 60))))
    for _ in range(200):  # CL
        r = int(rng.integers(2, 40))
        seq = DegreeSequence.from_degrees(rng.integers(1, 8, size=r))
        check(generate_cl(seq, int(rng.integers(1 << 60))))
    for _ in range(150):  # block model, both connectivity variants
        seq = synthesize_powerlaw(int(rng.integers(20, 300)), 2.0, 12)
        variant = "cubic" if checked % 3 == 0 else "standard"
        cfg = GenerationConfig(
            seed=int(rng.integers(1 << 60)),
            connectivity=ConnectivityFormula(variant=variant),
        )
        check(generate_bter(seq, cfg)[0])
    for _ in range(150):  # arbitrary cleaned streams
        m = int(rng.integers(0, 60))
        stream = rng.integers(0, 15, size=(m, 2))
        check(build_graph(stream, n=15)[0])
    report(
        "6 (triangle/edge extremal bound)",
        checked >= 1000 and failures == 0,
        f"{checked} generated graphs, {failures} violations",
    )


def test_criterion_7_spectrum_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 61))
        style = rng.integers(3)
        if style == 0:
            g = generate_er(n, float(rng.uniform(0.05, 0.7)), int(rng.integers(1 << 60)))
        elif style == 1:
            seq = DegreeSequence.from_degrees(rng.integers(1, 6, size=n))
            g = generate_cl(seq, int(rng.integers(1 << 60)))
        else:
            seq = synthesize_powerlaw(n, 2.0, max(2, int(math.sqrt(n))))
            g = generate_bter(seq, GenerationConfig(seed=int(rng.integers(1 << 60))))[0]
        k = int(rng.integers(1, min(n, 13)))
        spec = top_eigenvalues(g, k=k, tol=1e-9)
        dense = np.sort(np.linalg.eigvalsh(dense_adjacency(g)))[::-1][:k]
        err = np.abs(spec.eigenvalues - dense) / np.maximum(np.abs(dense), 1.0)
        worst = max(worst, float(err.max()))
    assert worst <= 1e-8

    complete = generate_er(37, 1.0, 1)
    lam1 = top_eigenvalues(complete, k=1).eigenvalues[0]
    star, _ = build_graph([(0, i) for i in range(1, 30)])
    lam_star = top_eigenvalues(star, k=1).eigenvalues[0]
    closed_ok = abs(lam1 - 36.0) <= 1e-10 and abs(lam_star - math.sqrt(29)) <= 1e-10
    report(
        "7 (spectrum oracle)",
        worst <= 1e-8 and closed_ok,
        f"50 graphs <= 60 nodes, worst relative error {worst:.2e}; "
        f"complete graph lambda1 err {abs(lam1 - 36.0):.2e}, "
        f"star lambda1 err {abs(lam_star - math.sqrt(29)):.2e}",
    )


def test_criterion_8_scale_free_blocks(synth_runs):
    part = preprocess(synth_runs["seq"], ConnectivityFormula())
    hist = block_size_histogram(part.block_size)
    sizes = np.array(sorted(hist))
    counts = np.array([hist[s] for s in sizes], dtype=np.float64)
    mid = (math.log10(sizes.min()) + math.log10(sizes.max())) / 2.0
    window = (sizes >= 10 ** (mid - 0.5)) & (sizes <= 10 ** (mid + 0.5))
    slope = loglog_slope(sizes[window], counts[window])
    target = -(SYNTH_GAMMA + 1.0)
    d_bar = predict_community_profile(10**6, 2.0).d_bar
    report(
        "8 (scale-free blocks)",
        abs(slope - target) <= 0.5 and d_bar == 100,
        f"middle-decade log-log slope {slope:.2f} (target {target} +- 0.5); "
        f"predicted largest size for n=1e6, gamma=2: {d_bar} (= 100)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == EXIT_OK

    def snapshot(base: Path):
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    gen_dir = tmp_path / "gen"
    gen_args = ("generate", "--model", "bter", "--powerlaw", "2000,2,45",
                "--seed", 17, "--out", gen_dir / "g.txt")
    run(*gen_args)
    first = snapshot(gen_dir)
    run(*gen_args)
    gen_ok = snapshot(gen_dir) == first

    rep_dir = tmp_path / "rep"
    an_args = ("analyze", "--graph", gen_dir / "g.txt", "--metrics",
               "degree,cc,triangles,spectrum", "--top-k", 10, "--out-dir", rep_dir)
    run(*an_args)
    first_rep = snapshot(rep_dir)
    run(*an_args)
    an_ok = snapshot(rep_dir) == first_rep

    report(
        "9 (determinism)",
        gen_ok and an_ok,
        "generate and analyze outputs byte-identical across two runs each",
    )


def test_addendum_eigenvalue_ordering_on_astro():
    path = require_dataset("ca-AstroPh")
    real = read_snap_edgelist(path)
    degrees = extract_degrees(real)
    variant, rho, eta = DATASET_FITS["ca-AstroPh"]
    cfg = GenerationConfig(
        seed=1, connectivity=ConnectivityFormula(variant, rho, eta)
    )
    model_graph, _ = generate_bter(degrees, cfg)
    cl_graph = generate_cl(degrees, 1)

    # fitted generation lands within 10% of the table-scale edge count
    assert abs(model_graph.edge_count - real.edge_count) <= 0.1 * real.edge_count

    k = 10
    real_spec = top_eigenvalues(real, k=k, tol=1e-6).eigenvalues
    model_spec = top_eigenvalues(model_graph, k=k, tol=1e-6).eigenvalues
    cl_spec = top_eigenvalues(cl_graph, k=k, tol=1e-6).eigenvalues

    def gap(spec):
        return float(np.mean(np.abs(spec - real_spec) / np.abs(real_spec)))

    model_gap, cl_gap = gap(model_spec), gap(cl_spec)

    # the CL clustering profile collapses toward zero, so its by-degree gap
    # to the real profile dwarfs the fitted model's
    real_cc = clustering_profile(real).by_degree
    model_cc = clustering_profile(model_graph).by_degree
    cl_cc = clustering_profile(cl_graph).by_degree

    def cc_gap(other, floor=50):
        common = [
            d for d in set(real_cc) & set(other)
            if real_cc[d][1] >= floor and other[d][1] >= floor
        ]
        return max(abs(real_cc[d][0] - other[d][0]) for d in common)

    model_cc_gap, cl_cc_gap = cc_gap(model_cc), cc_gap(cl_cc)
    report(
        "addendum (eigenvalue ordering)",
        model_gap < cl_gap and model_cc_gap < cl_cc_gap,
        f"mean top-{k} relative gap to the real spectrum: block model "
        f"{model_gap:.4f} < CL {cl_gap:.4f}; by-degree clustering gap: "
        f"block model {model_cc_gap:.3f} < CL {cl_cc_gap:.3f}",
    )
