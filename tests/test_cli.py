import hashlib
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import block_degree_dict, per_block_internal_degrees

import bter
from bter.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, main


def run(*args) -> int:
    return main([str(a) for a in args])


def all_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(
        "# nodes 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8"
    )
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_er_empty_graph(tmp_path, capsys):
    out = tmp_path / "er.txt"
    assert run("generate", "--model", "er", "--n", 10, "--p", 0, "--seed", 7,
               "--out", out) == EXIT_OK
    assert out.read_text() == "# nodes 10\n"
    assert json.loads((tmp_path / "er.txt.manifest.json").read_text())["command"] == "generate"


def test_generate_requires_seed(tmp_path):
    code = run("generate", "--model", "er", "--n", 5, "--p", 0.5,
               "--out", tmp_path / "x.txt")
    assert code == EXIT_USAGE


def test_generate_er_requires_n_and_p(tmp_path):
    assert run("generate", "--model", "er", "--seed", 1,
               "--out", tmp_path / "x.txt") == EXIT_USAGE


def test_generate_needs_exactly_one_degree_source(tmp_path):
    assert run("generate", "--model", "cl", "--seed", 1,
               "--out", tmp_path / "x.txt") == EXIT_USAGE
    assert run("generate", "--model", "cl", "--seed", 1, "--powerlaw", "50,2,7",
               "--degrees", "nope.txt", "--out", tmp_path / "x.txt") == EXIT_USAGE


def test_generate_missing_degree_file_is_input_error(tmp_path):
    assert run("generate", "--model", "cl", "--seed", 1,
               "--degrees", tmp_path / "missing.txt",
               "--out", tmp_path / "out" / "x.txt") == EXIT_INPUT
    assert not (tmp_path / "out").exists()  # no output directory either


def test_generate_from_degree_files(tmp_path):
    # both accepted degree-file forms drive the same generator
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("".join(f"{d}\n" for d in [1, 1, 2, 2, 2, 3, 3]))
    dist_file = tmp_path / "dist.csv"
    dist_file.write_text("degree,count\n1,2\n2,3\n3,2\n")
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("generate", "--model", "cl", "--seed", 4, "--degrees", seq_file,
               "--out", out_a) == EXIT_OK
    assert run("generate", "--model", "cl", "--seed", 4, "--degrees", dist_file,
               "--out", out_b) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_analyze_er_leading_eigenvalue_concentrates(tmp_path):
    # ER(100, 0.5): the top eigenvalue sits within 3 sigma of n*p, with the
    # asymptotic fluctuation scale sqrt(2 p (1-p)); cross-checked against a
    # dense eigensolver
    import numpy as np

    out = tmp_path / "er.txt"
    assert run("generate", "--model", "er", "--n", 100, "--p", 0.5, "--seed", 12,
               "--out", out) == EXIT_OK
    rep = tmp_path / "rep"
    assert run("analyze", "--graph", out, "--metrics", "spectrum", "--top-k", 1,
               "--out-dir", rep) == EXIT_OK
    row = (rep / "spectrum.csv").read_text().splitlines()[1].split(",")
    lam1 = float(row[1])
    assert abs(lam1 - 50.0) <= 3 * (2 * 0.5 * 0.5) ** 0.5

    from bter.graph import read_snap_edgelist

    g = read_snap_edgelist(out)
    A = np.zeros((g.n, g.n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    assert abs(lam1 - np.linalg.eigvalsh(A)[-1]) < 1e-8


def test_generate_from_graph_with_isolated_nodes(tmp_path, capsys):
    # regenerating from a graph that contains isolated nodes drops them
    # from the target sequence with a notice
    src = tmp_path / "src.txt"
    src.write_text("# nodes 6\n0 1\n1 2\n")
    out = tmp_path / "g.txt"
    assert run("generate", "--model", "cl", "--from-graph", src, "--seed", 2,
               "--out", out) == EXIT_OK
    assert "dropping 3 isolated nodes" in capsys.readouterr().err
    assert out.read_text().startswith("# nodes 3\n")


def test_generate_bter_outputs(tmp_path):
    out = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,17",
               "--seed", 3, "--out", out) == EXIT_OK
    assert out.is_file()
    assert (tmp_path / "g.txt.trace.csv").is_file()
    assert (tmp_path / "g.txt.partition.csv").is_file()
    manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"g.txt", "g.txt.trace.csv", "g.txt.partition.csv"}


# sha256 of each output of `generate --powerlaw 300,2,17 --seed 1` as 0.5.0
# writes it; a change to a sampler or to its streams must not move a byte
# unnoticed
_GENERATE_SHA256 = {
    "bter": {
        "g.txt": "22788e8e1dce1c2ce90cc612fcb746ce4f21bf83984e42e76a64a3d6ceb9fda3",
        "g.txt.trace.csv": "eb71f27b71680b5ba6b074c97513eae623fd6775ccb5028c35ace786eab87dcd",
        "g.txt.partition.csv": "4a257f10bee9b5ea1eb6b35e3f3cf6cab8932bfa76ff79a924e18ad31144916d",
    },
    "cl": {"g.txt": "60dc0d1eb3a7945429b24bdeee283f237a987611f09249683bd6b176a06d4aad"},
}


@pytest.mark.parametrize("model", sorted(_GENERATE_SHA256))
def test_generate_bytes_pinned(tmp_path, model):
    assert run("generate", "--model", model, "--powerlaw", "300,2,17", "--seed", 1,
               "--out", tmp_path / "g.txt") == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _GENERATE_SHA256[model]
    }
    assert digests == _GENERATE_SHA256[model]


def test_generate_cl_bytes_pinned_over_many_windows(tmp_path):
    # 714 degree classes, 255,255 class-pair blocks: the sampler works them
    # over many windows, and must write what 0.6.0 wrote from the full table
    from bter.degrees import synthesize_powerlaw
    from bter.generate import _WINDOW, _degree_class_blocks

    assert _degree_class_blocks(synthesize_powerlaw(300_000, 2.0, 2000))[1] > 8 * _WINDOW
    assert run("generate", "--model", "cl", "--powerlaw", "300000,2,2000", "--seed", 1,
               "--out", tmp_path / "g.txt") == EXIT_OK
    digest = hashlib.sha256((tmp_path / "g.txt").read_bytes()).hexdigest()
    assert digest == "8c70677b1b41bb8a00b1f5a6db7ce908710530de863c6419323663645b47da79"


def test_generate_bter_bytes_pinned_over_many_chunks(tmp_path):
    # Phase 2b draws 123,296 endpoints and Phase 2c 84,033 pairs, and the
    # merge takes 682,699 keys: every chunked path of the block model works
    # several chunks, and must write what 0.6.0 wrote
    assert run("generate", "--model", "bter", "--powerlaw", "300000,2,2000", "--seed", 1,
               "--out", tmp_path / "g.txt") == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("g.txt", "g.txt.trace.csv", "g.txt.partition.csv")
    }
    assert digests == {
        "g.txt": "27f4f550195019c04eb522081086795b4646a4ff67b50bb5a9ae33e45920f7d0",
        "g.txt.trace.csv": "c1b60ae9078f41669971a2fe6e17999419af6f199e3731ae10a7f59c173515e7",
        "g.txt.partition.csv": "432d25be51e050cba48c38d1fcde59ae9d717312bc63909b383b6e67ffbd4b2f",
    }


def test_generate_trace_counts_phase2c_self_loops(tmp_path):
    # a hub-heavy sequence whose Phase 2c draws self-loops: they are
    # dropped before the merge and still counted, as 0.5.0 counted them
    assert run("generate", "--model", "bter", "--powerlaw", "2000,1.5,1500", "--seed", 1,
               "--out", tmp_path / "g.txt") == EXIT_OK
    rows = (tmp_path / "g.txt.trace.csv").read_text().splitlines()[1:]
    counts = {k: int(v) for k, v in (row.split(",") for row in rows)
              if k.startswith(("raw_", "kept_", "self_loops", "duplicates"))}
    assert counts == {
        "raw_phase1": 6664, "raw_phase2a": 6, "raw_phase2b": 574, "raw_phase2c": 8310,
        "kept_phase1": 6664, "kept_phase2a": 6, "kept_phase2b": 574, "kept_phase2c": 5216,
        "raw_edges": 15554, "self_loops_dropped": 84, "duplicates_dropped": 3010,
    }


def test_generate_determinism_across_runs(tmp_path):
    args = ("generate", "--model", "bter", "--powerlaw", "400,2,20",
            "--seed", 11, "--out", tmp_path / "g.txt")
    assert run(*args) == EXIT_OK
    first = all_bytes(tmp_path)
    assert run(*args) == EXIT_OK
    assert all_bytes(tmp_path) == first


def test_generate_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nrho = 0.8\neta = 0.3  # decay\n")
    out1 = tmp_path / "c1" / "g.txt"
    out2 = tmp_path / "c2" / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "200,2,14",
               "--config", cfg, "--out", out1) == EXIT_OK
    m1 = json.loads((tmp_path / "c1" / "g.txt.manifest.json").read_text())
    assert m1["config"]["seed"] == 5 and m1["config"]["rho"] == 0.8
    # an explicit flag overrides the file value
    assert run("generate", "--model", "bter", "--powerlaw", "200,2,14",
               "--config", cfg, "--rho", 0.9, "--out", out2) == EXIT_OK
    m2 = json.loads((tmp_path / "c2" / "g.txt.manifest.json").read_text())
    assert m2["config"]["rho"] == 0.9


def test_generate_bad_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume = 11\n")
    assert run("generate", "--model", "er", "--n", 4, "--p", 0.5, "--seed", 1,
               "--config", cfg, "--out", tmp_path / "x.txt") == EXIT_INPUT


def test_cubic_manifest_records_the_fixed_rho_and_eta(tmp_path):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "200,2,14", "--seed", 5,
               "--variant", "cubic", "--out", g) == EXIT_OK
    config = json.loads((tmp_path / "g.txt.manifest.json").read_text())["config"]
    assert (config["variant"], config["rho"], config["eta"]) == ("cubic", 0.7, 0.6)
    # the fixed values may be stated, as the dataset fits state them
    h = tmp_path / "h.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "200,2,14", "--seed", 5,
               "--variant", "cubic", "--rho", 0.7, "--eta", 0.6, "--out", h) == EXIT_OK
    assert h.read_bytes() == g.read_bytes()


def test_cubic_refuses_another_rho_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = cubic\nrho = 0.9\n")
    assert run("generate", "--model", "bter", "--powerlaw", "200,2,14", "--seed", 5,
               "--config", cfg, "--out", tmp_path / "g.txt") == EXIT_USAGE
    assert "cubic fixes rho" in capsys.readouterr().err


def test_cli_defaults_equal_library_defaults():
    # the parser states its defaults literally, so that building it loads no
    # module of the library; they must stay the library's own
    import argparse
    import inspect

    from bter import metrics, theory
    from bter.cli import _resolve_generate_params, build_parser
    from bter.communities import ConnectivityFormula
    from bter.generate import GenerationConfig

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def default(command, dest):
        (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
        return action.default

    tol = inspect.signature(metrics.top_eigenvalues).parameters["tol"].default
    for command in ("analyze", "compare"):
        assert default(command, "top_k") == metrics.DEFAULT_TOP_K
        assert default(command, "tol") == tol
    assert default("audit", "kappa") == theory.DEFAULT_KAPPA
    core = tuple(float(c) for c in default("audit", "core_constants").split(","))
    assert core == theory.DEFAULT_CORE_CONSTANTS
    assert default("audit", "exact_threshold") == theory.EXACT_TRIPLE_THRESHOLD

    params = _resolve_generate_params(
        parser.parse_args(["generate", "--model", "bter", "--seed", "1", "--out", "x"])
    )
    formula, cfg = ConnectivityFormula(), GenerationConfig(seed=1)
    assert (params["variant"], params["rho"], params["eta"]) == (
        formula.variant, formula.rho, formula.eta)
    assert (params["manual_fraction"], params["d1_weight"], params["q"], params["beta"]) == (
        cfg.manual_fraction, cfg.d1_weight, cfg.q_override, cfg.beta)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_k4_global_c(k4_file, tmp_path):
    out = tmp_path / "rep"
    assert run("analyze", "--graph", k4_file, "--metrics", "cc",
               "--out-dir", out) == EXIT_OK
    assert (out / "cc_summary.csv").read_text() == "global_c\n1\n"
    assert (out / "cc.csv").read_text() == "degree,mean_cc,node_count\n3,1,4\n"


def test_analyze_unknown_metric(k4_file, tmp_path):
    assert run("analyze", "--graph", k4_file, "--metrics", "degree,entropy",
               "--out-dir", tmp_path / "rep") == EXIT_USAGE


def test_analyze_missing_graph(tmp_path):
    assert run("analyze", "--graph", tmp_path / "none.txt",
               "--out-dir", tmp_path / "rep") == EXIT_INPUT
    assert not (tmp_path / "rep").exists()


def test_analyze_malformed_graph(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nx y\n")
    assert run("analyze", "--graph", bad, "--out-dir", tmp_path / "rep") == EXIT_INPUT
    assert not (tmp_path / "rep").exists()


def test_analyze_spectrum_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "g.txt"
    assert run("generate", "--model", "er", "--n", 400, "--p", 0.02, "--seed", 2,
               "--out", out) == EXIT_OK
    assert run("analyze", "--graph", out, "--metrics", "spectrum",
               "--top-k", 2, "--tol", "1e-300",
               "--out-dir", tmp_path / "rep") == EXIT_NO_CONVERGENCE
    assert not (tmp_path / "rep").exists()  # nothing to write, so no directory


def test_analyze_spectrum_of_a_complete_graph_has_no_traceback(tmp_path):
    # ARPACK on K60 at k=25 (ncv 51 of 60 nodes) stopped with "error 3: No
    # shifts could be applied", which ended in a traceback; K60 is now
    # solved densely
    out, rep = tmp_path / "k60.txt", tmp_path / "rep"
    assert run("generate", "--model", "er", "--n", 60, "--p", 1, "--seed", 1,
               "--out", out) == EXIT_OK
    assert run("analyze", "--graph", out, "--metrics", "spectrum", "--top-k", 25,
               "--out-dir", rep) == EXIT_OK
    rows = [r.split(",") for r in (rep / "spectrum.csv").read_text().splitlines()[1:]]
    assert [float(v) for _, v, _ in rows] == pytest.approx([59.0] + [-1.0] * 24, abs=1e-9)


def test_analyze_determinism_across_runs(k4_file, tmp_path):
    seq_out = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,17",
               "--seed", 5, "--out", seq_out) == EXIT_OK
    rep = tmp_path / "rep"
    args = ("analyze", "--graph", seq_out, "--metrics",
            "degree,cc,triangles,spectrum", "--top-k", 6, "--out-dir", rep)
    assert run(*args) == EXIT_OK
    first = all_bytes(rep)
    assert run(*args) == EXIT_OK
    assert all_bytes(rep) == first


def test_analyze_reports_raw_and_nonisolated_counts(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("# nodes 6\n0 1\n")
    out = tmp_path / "rep"
    assert run("analyze", "--graph", g, "--metrics", "degree",
               "--out-dir", out) == EXIT_OK
    summary = dict(
        line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]
    )
    assert summary["nodes"] == "6"
    assert summary["nodes_nonisolated"] == "2"
    assert summary["edges"] == "1"


# sha256 of each output of `analyze --metrics degree,cc,triangles,spectrum
# --top-k 10` on the `generate --powerlaw 2000,2,40 --seed 1` graphs as 0.9.0
# writes it; the spectrum's last digits move if the adjacency's entry order
# does, so how the matrix is built must not move a byte
_ANALYZE_SHA256 = {
    "bter": {
        "degree.csv": "a7847713f607986343719a41c36f26e7b49daa1de40adefbd4d26f23b9b06d30",
        "summary.csv": "8227be610d5aed26cd7fd2673ee6b93984b4cba96923402dbfab7d6911464285",
        "cc.csv": "b8eede48249591cb41cc4cbc81e19a6f399a10fc489cc92913e1719fc86a8ace",
        "cc_summary.csv": "836fad4b3f402157594dd4f681d51f1b5a70d104f421a6cf14bd1f33f3cde6cd",
        "triangles.csv": "9682bbb474d8421a5c7deca0dd4a234e1cc279fe4a86916eb4e99635b3f162e8",
        "spectrum.csv": "d4d25fd41abe208668d6554440d5057b591e8de1351a0f5447c10161a7842381",
    },
    "cl": {
        "degree.csv": "a58c48821bf3a9349308f080b4edf7a46c2bcbd4f637c91459e618d369df6b86",
        "summary.csv": "919e6b4323e44d0346e13f0d9c9cb73bbb7d1d4054b239c5ce17eb5ad0b33195",
        "cc.csv": "ec0dc49f0b97e2462387f2cd7803e9d55872b817f8d728398b700d97e2984a31",
        "cc_summary.csv": "e4a548fb346b85f5dfba41b9e33bdf59c1f96d5247ae95db7f925a3eba0ce98c",
        "triangles.csv": "a255fb834edc5b60b68ceccb897a45f65e2d9a3984d5943c34b5fab412c8ef7f",
        "spectrum.csv": "612a6121b3e7cccfc181c819cffe6dc0f16493dccc03691e6e3503758972f136",
    },
}


# sha256 of the rank and eigenvalue columns of those spectrum.csv files
# ("rank,eigenvalue" lines) as 0.6.0 wrote them, with one ARPACK solve over
# the whole graph: solving each connected component on its own (0.7.0), and
# then each component's leaf quotient (0.8.0), moved only the residual column
_EIGENVALUE_COLUMN_SHA256 = {
    "bter": "7625af61e292f388fb1ca3e9afe9915ba7cb37d717d02027a4048f02bba9292e",
    "cl": "4a30b6d713a55a6805e6feac9bfa8e5d1f7f1d2fe24a1f7f38e9f8f1ba0707a6",
}


@pytest.mark.parametrize("model", sorted(_ANALYZE_SHA256))
def test_analyze_bytes_pinned(tmp_path, model):
    g, out = tmp_path / "g.txt", tmp_path / "rep"
    assert run("generate", "--model", model, "--powerlaw", "2000,2,40", "--seed", 1,
               "--out", g) == EXIT_OK
    assert run("analyze", "--graph", g, "--metrics", "degree,cc,triangles,spectrum",
               "--top-k", 10, "--out-dir", out) == EXIT_OK
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in _ANALYZE_SHA256[model]
    }
    assert digests == _ANALYZE_SHA256[model]
    columns = "".join(
        ",".join(line.split(",")[:2]) + "\n"
        for line in (out / "spectrum.csv").read_text().splitlines()
    )
    assert hashlib.sha256(columns.encode()).hexdigest() == _EIGENVALUE_COLUMN_SHA256[model]


def test_spectrum_agrees_across_blas_thread_counts(tmp_path):
    # the residual norms sum over threads in an order the BLAS thread count
    # sets, so their last digits move with it, and a spectrum run replays
    # byte for byte only on the same BLAS build and thread count; the
    # eigenvalues agree, and every residual stays within the tolerance
    import subprocess
    import sys

    import numpy as np

    graph = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "10000,2,100", "--seed", 1,
               "--out", graph) == EXIT_OK
    spectra = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "bter.cli", "analyze", "--graph", str(graph),
             "--metrics", "spectrum", "--top-k", "25", "--tol", "1e-8", "--out-dir", str(out)],
            env=_cli_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, timeout=300, check=True,
        )
        spectra.append(np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2))
    one, two = spectra
    assert one.shape == two.shape == (25, 3)
    np.testing.assert_allclose(two[:, 1], one[:, 1], rtol=1e-9, atol=0)
    assert (one[:, 2] <= 1e-8).all() and (two[:, 2] <= 1e-8).all()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_graph_with_itself(k4_file, tmp_path):
    out = tmp_path / "cmp.csv"
    assert run("compare", "--graph-a", k4_file, "--graph-b", k4_file,
               "--out", out) == EXIT_OK
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["degree_tv"] == "0"
    assert rows["global_c_gap"] == "0"


def test_compare_from_report_dirs(k4_file, tmp_path):
    rep = tmp_path / "rep"
    assert run("analyze", "--graph", k4_file, "--metrics", "degree,cc,triangles",
               "--out-dir", rep) == EXIT_OK
    out = tmp_path / "cmp.csv"
    assert run("compare", "--report-a", rep, "--report-b", rep,
               "--out", out) == EXIT_OK
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["degree_tv"] == "0"


@pytest.mark.parametrize("metrics", ["degree,cc,triangles", "degree,cc,triangles,spectrum"])
def test_compare_paths_agree_on_a_wedge_free_graph(tmp_path, metrics):
    # a wedge-free graph writes a header-only cc.csv: an empty view, not
    # an absent one
    graph, rep = tmp_path / "er.txt", tmp_path / "rep"
    assert run("generate", "--model", "er", "--n", 10, "--p", 0, "--seed", 1,
               "--out", graph) == EXIT_OK
    assert run("analyze", "--graph", graph, "--metrics", metrics,
               "--out-dir", rep) == EXIT_OK
    assert (rep / "cc.csv").read_text().splitlines() == ["degree,mean_cc,node_count"]
    by_graph, by_report = tmp_path / "g.csv", tmp_path / "r.csv"
    assert run("compare", "--graph-a", graph, "--graph-b", graph, "--metrics", metrics,
               "--out", by_graph) == EXIT_OK
    assert run("compare", "--report-a", rep, "--report-b", rep,
               "--out", by_report) == EXIT_OK
    assert by_report.read_bytes() == by_graph.read_bytes()


def test_compare_paths_agree_on_an_empty_graph(tmp_path, capsys):
    # n = 0: a header-only degree.csv is an empty histogram on both paths
    graph, rep = tmp_path / "er.txt", tmp_path / "rep"
    metrics = "degree,cc,triangles"
    assert run("generate", "--model", "er", "--n", 0, "--p", 0, "--seed", 1,
               "--out", graph) == EXIT_OK
    assert run("analyze", "--graph", graph, "--metrics", metrics,
               "--out-dir", rep) == EXIT_OK
    capsys.readouterr()
    assert run("compare", "--graph-a", graph, "--graph-b", graph, "--metrics", metrics,
               "--out", tmp_path / "g.csv") == EXIT_INPUT
    by_graph = capsys.readouterr().err
    assert run("compare", "--report-a", rep, "--report-b", rep,
               "--out", tmp_path / "r.csv") == EXIT_INPUT
    assert capsys.readouterr().err == by_graph != ""


def test_compare_bter_vs_cl_clustering_dominates(tmp_path):
    deg_args = ("--powerlaw", "1500,2,38")
    gb, gc = tmp_path / "b.txt", tmp_path / "c.txt"
    assert run("generate", "--model", "bter", *deg_args, "--seed", 1, "--out", gb) == EXIT_OK
    assert run("generate", "--model", "cl", *deg_args, "--seed", 1, "--out", gc) == EXIT_OK
    out = tmp_path / "cmp.csv"
    assert run("compare", "--graph-a", gb, "--graph-b", gc, "--out", out) == EXIT_OK
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["global_c_gap"]) > float(rows["degree_tv"])


def test_compare_usage_errors(k4_file, tmp_path):
    assert run("compare", "--graph-a", k4_file,
               "--out", tmp_path / "c.csv") == EXIT_USAGE
    assert run("compare", "--graph-a", k4_file, "--graph-b", k4_file,
               "--report-b", tmp_path, "--out", tmp_path / "c.csv") == EXIT_USAGE


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_pipeline(tmp_path):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "500,2,22",
               "--seed", 1, "--out", g) == EXIT_OK
    out = tmp_path / "audit"
    assert run("audit", "--graph", g, "--partition", f"{g}.partition.csv",
               "--predict", "1e6,2", "--out-dir", out) == EXIT_OK
    kk = (out / "kk.csv").read_text().splitlines()
    assert kk[0] == "triangles,edges,ok"
    assert kk[1].endswith(",true")
    blocks = (out / "blocks.csv").read_text().splitlines()
    assert blocks[0] == "block,s,expected_triangles,wedge_threshold,passes,core_c025,core_c05,core_c10"
    assert len(blocks) > 10
    profile = (out / "predicted_profile.csv").read_text().splitlines()
    assert profile[-1].startswith("100,")  # largest predicted size = d_bar
    realized = (out / "realized_sizes.csv").read_text().splitlines()
    assert realized[0] == "size,count"
    total_blocks = sum(int(line.split(",")[1]) for line in realized[1:])
    assert total_blocks == len(blocks) - 1


def test_audit_blocks_match_direct_per_block_audits(tmp_path):
    from bter.cli import _core_label, _fmt
    from bter.communities import read_partition_csv
    from bter.graph import read_snap_edgelist
    from bter.theory import audit_community, internal_degrees_by_block

    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "2000,2,40",
               "--seed", 3, "--out", g) == EXIT_OK
    out = tmp_path / "audit"
    assert run("audit", "--graph", g, "--partition", f"{g}.partition.csv",
               "--kappa", 0.2, "--out-dir", out) == EXIT_OK
    lines = (out / "blocks.csv").read_text().splitlines()
    constants = (0.25, 0.5, 1.0)
    assert lines[0].endswith(",".join(_core_label(c) for c in constants))

    graph, assignment = read_snap_edgelist(g), read_partition_csv(f"{g}.partition.csv")
    per_block = per_block_internal_degrees(graph, assignment)
    got = block_degree_dict(internal_degrees_by_block(graph, assignment))
    assert list(got) == list(per_block)
    assert all(np.array_equal(got[k], d) for k, d in per_block.items())
    # repeated multisets are what the audit reuses
    assert len({d.tobytes() for d in per_block.values()}) < len(per_block)
    assert len(lines) - 1 == len(per_block)
    for line, k in zip(lines[1:], sorted(per_block)):
        a = audit_community(per_block[k], kappa=0.2, core_constants=constants)
        assert line == ",".join([
            str(k), _fmt(a.s), _fmt(a.expected_triangles), _fmt(a.wedge_bound),
            str(a.passes).lower(), *(str(a.er_core[c][0]) for c in constants),
        ])


# sha256 of each output of `audit --partition --predict 1e6,2` on the
# `generate --model bter --powerlaw 50000,2,300 --seed 1` graph (4,417
# blocks) as 0.6.0 writes it; how the audit is computed and written must not
# move a byte
_AUDIT_SHA256 = {
    "kk.csv": "8bb9ef62fa119b68cd115ab531c0237f4aaa9515d1e9e170d81cd787be95cb9d",
    "blocks.csv": "0a62622aaee7918e59d947b294c6d51e5bfbaeaa30479ab82e35581c843b1a98",
    "realized_sizes.csv": "147c0ab1e1250ae8e5742a9b62fb4ce84a473afaa7ac35f851edd24eec86c425",
    "predicted_profile.csv": "45def1b6fa8c9e73c96a51e289427612171a35d05a3da2d8270b7bcff1064f80",
}


def test_audit_bytes_pinned(tmp_path):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "50000,2,300",
               "--seed", 1, "--out", g) == EXIT_OK
    out = tmp_path / "audit"
    assert run("audit", "--graph", g, "--partition", f"{g}.partition.csv",
               "--predict", "1e6,2", "--out-dir", out) == EXIT_OK
    assert len((out / "blocks.csv").read_text().splitlines()) - 1 == 4417
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in _AUDIT_SHA256
    }
    assert digests == _AUDIT_SHA256


def test_audit_counts_blocks_with_large_ids(tmp_path):
    # block sizes are counted per distinct id, not in a table as long as the
    # largest id (here 8 TB)
    g = tmp_path / "path.txt"
    g.write_text("0 1\n1 2\n", encoding="utf-8")
    part = tmp_path / "part.csv"
    part.write_text("node,block,bar_d,rho,excess\n0,1000000000000,1,0.9,0\n"
                    "1,1000000000000,1,0.9,0\n2,-1,0,0,1\n", encoding="utf-8")
    out = tmp_path / "audit"
    assert run("audit", "--graph", g, "--partition", part, "--out-dir", out) == EXIT_OK
    assert (out / "realized_sizes.csv").read_text() == "size,count\n2,1\n"
    assert (out / "manifest.json").is_file()


def test_audit_partition_node_mismatch(tmp_path, k4_file):
    part = tmp_path / "part.csv"
    part.write_text("node,block,bar_d,rho,excess\n0,0,2,0.9,0\n1,0,2,0.9,0\n")
    assert run("audit", "--graph", k4_file, "--partition", part,
               "--out-dir", tmp_path / "a") == EXIT_INPUT


def test_audit_input_errors_come_before_any_output(small_bter, k4_file, tmp_path):
    # the partition is read first, then the graph, and the output directory
    # is made only once both are read and agree
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("node,block,bar_d,rho,excess\n0,0,2,0.9\n", encoding="utf-8")
    partition = f"{small_bter}.partition.csv"
    for graph, part in (
        (small_bter, tmp_path / "missing.csv"),
        (small_bter, bad_row),
        (k4_file, partition),  # 4 nodes against a partition of 300
        (tmp_path / "missing.txt", partition),
    ):
        out = tmp_path / "out"
        assert run("audit", "--graph", graph, "--partition", part,
                   "--out-dir", out) == EXIT_INPUT
        assert not out.exists()


def test_audit_community_value_error_is_a_usage_error(small_bter, tmp_path, monkeypatch):
    import bter.cli

    def refuses(*args, **kwargs):
        raise ValueError("refused block")

    monkeypatch.setattr(bter.cli, "audit_community", refuses, raising=False)
    assert run("audit", "--graph", small_bter, "--partition", f"{small_bter}.partition.csv",
               "--out-dir", tmp_path / "a") == EXIT_USAGE


def test_audit_without_partition_still_checks_bound(k4_file, tmp_path):
    out = tmp_path / "audit"
    assert run("audit", "--graph", k4_file, "--out-dir", out) == EXIT_OK
    assert (out / "kk.csv").is_file()
    assert not (out / "blocks.csv").exists()


@pytest.mark.parametrize("kappa", ["2", "0", "1", "-0.5", "nan"])
def test_audit_rejects_kappa_before_reading(k4_file, tmp_path, kappa):
    out = tmp_path / "audit"
    missing = tmp_path / "missing.txt"
    for graph in (k4_file, missing):  # a usage error, even before the input error
        assert run("audit", "--graph", graph, "--kappa", kappa,
                   "--out-dir", out) == EXIT_USAGE
    assert not (out / "manifest.json").exists()


def test_commands_never_build_the_edge_rows(tmp_path, monkeypatch):
    # a graph is its keys: every command reads them a chunk at a time, and
    # the (m, 2) rows of Graph.edges are for library callers only
    from bter.graph import Graph

    def no_rows(graph):
        raise AssertionError("Graph.edges built on a command's path")

    monkeypatch.setattr(Graph, "edges", property(no_rows))
    gb, gc, ge = tmp_path / "b.txt", tmp_path / "c.txt", tmp_path / "e.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "600,2,24",
               "--seed", 3, "--out", gb) == EXIT_OK
    assert run("generate", "--model", "cl", "--from-graph", gb,
               "--seed", 3, "--out", gc) == EXIT_OK
    assert run("generate", "--model", "er", "--n", 200, "--p", 0.05,
               "--seed", 3, "--out", ge) == EXIT_OK
    assert run("analyze", "--graph", gb, "--metrics", "degree,cc,triangles,spectrum",
               "--top-k", 5, "--out-dir", tmp_path / "report") == EXIT_OK
    assert run("audit", "--graph", gb, "--partition", f"{gb}.partition.csv",
               "--predict", "1e6,2", "--out-dir", tmp_path / "audit") == EXIT_OK
    assert run("compare", "--graph-a", gb, "--graph-b", gc,
               "--out", tmp_path / "compare.csv") == EXIT_OK
    for graph in (gb, gc, ge):
        assert run("replay", "--manifest", f"{graph}.manifest.json") == EXIT_OK


def test_generate_never_builds_the_node_block_array(tmp_path, monkeypatch):
    # a partition is its block ranges: preprocessing and the partition dump
    # work per block, and the n-long assignment is for library callers only
    from bter.communities import CommunityPartition

    def no_assignment(part):
        raise AssertionError("CommunityPartition.assignment built on a command's path")

    monkeypatch.setattr(CommunityPartition, "assignment", property(no_assignment))
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "2000,2,40",
               "--seed", 3, "--out", g) == EXIT_OK
    assert run("replay", "--manifest", f"{g}.manifest.json") == EXIT_OK


def test_generated_files_are_read_without_the_line_parsers(tmp_path, monkeypatch):
    # the fast readers take every file generate writes; the line parsers,
    # many times slower, are for files they decline
    import bter.communities
    import bter.graph

    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "2000,2,40",
               "--seed", 3, "--out", g) == EXIT_OK
    spies = {}
    for module, name in ((bter.graph, "_parse_lines"),
                         (bter.communities, "_partition_rows_by_line")):
        spies[name] = mock.Mock(wraps=getattr(module, name))
        monkeypatch.setattr(module, name, spies[name])
    assert run("audit", "--graph", g, "--partition", f"{g}.partition.csv",
               "--out-dir", tmp_path / "audit") == EXIT_OK
    assert {name: spy.call_count for name, spy in spies.items()} == {
        "_parse_lines": 0, "_partition_rows_by_line": 0}
    # the spies see a call: a file the fast readers decline
    with open(g, "a", encoding="ascii") as fh:
        fh.write("# a comment after the data\n")
    assert run("audit", "--graph", g, "--out-dir", tmp_path / "audit2") == EXIT_OK
    assert spies["_parse_lines"].call_count == 1


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [0, 1, (1 << 18) - 1, 1 << 18, 3 * (1 << 18) + 5])
def test_sha256_matches_hashlib_across_buffer_refills(tmp_path, size):
    import random

    from bter.cli import _sha256

    data = random.Random(size).randbytes(size)
    path = tmp_path / "f.bin"
    path.write_bytes(data)
    assert _sha256(path) == hashlib.sha256(data).hexdigest()


def test_replay_reproduces_generate(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,17",
               "--seed", 9, "--out", g) == EXIT_OK
    assert run("replay", "--manifest", f"{g}.manifest.json") == EXIT_OK
    assert "byte-identical" in capsys.readouterr().out


def test_replay_of_cl_and_of_the_removed_cl_mode(tmp_path):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "cl", "--powerlaw", "300,2,17",
               "--seed", 9, "--out", g) == EXIT_OK
    manifest = tmp_path / "g.txt.manifest.json"
    assert run("replay", "--manifest", manifest) == EXIT_OK
    # a manifest of a run that passed --cl-mode (removed in 0.5.0) exits 2
    data = json.loads(manifest.read_text())
    data["argv"][data["argv"].index("--out"):0] = ["--cl-mode", "fast"]
    manifest.write_text(json.dumps(data))
    assert run("replay", "--manifest", manifest) == EXIT_USAGE


def test_replay_detects_tampering(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "er", "--n", 30, "--p", 0.2, "--seed", 4,
               "--out", g) == EXIT_OK
    manifest_path = tmp_path / "g.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["g.txt"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    assert run("replay", "--manifest", manifest_path) == 1


@pytest.mark.parametrize(
    "command, spelling",
    [
        ("generate", ("--out", "{out}")),
        ("generate", ("--out={out}",)),
        ("generate", ("--ou", "{out}")),
        ("analyze", ("--out-dir={out}",)),
    ],
    ids=["generate --out X", "generate --out=X", "generate --ou X", "analyze --out-dir=D"],
)
def test_replay_finds_the_output_in_any_spelling(k4_file, tmp_path, command, spelling):
    out = tmp_path / "out"
    if command == "generate":
        head = ("generate", "--model", "er", "--n", 50, "--p", 0.1, "--seed", 1)
        manifest = tmp_path / "out.manifest.json"
    else:
        head = ("analyze", "--graph", k4_file)
        manifest = out / "manifest.json"
    assert run(*head, *(s.replace("{out}", str(out)) for s in spelling)) == EXIT_OK
    assert run("replay", "--manifest", manifest) == EXIT_OK


_ER_RUN = {
    "command": "generate",
    "argv": ["generate", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1",
             "--out", "g.txt"],
}


@pytest.mark.parametrize(
    "manifest",
    [
        ["generate"],
        {"command": "generate", "argv": ["generate", "--seed", 1]},
        {"command": "generate", "argv": "generate --model er"},
        _ER_RUN,
        {**_ER_RUN, "outputs": []},
        {**_ER_RUN, "outputs": "g.txt"},
        {**_ER_RUN, "outputs": {}},
        {**_ER_RUN, "outputs": {"../../../etc/hostname": "0" * 64}},
        {**_ER_RUN, "outputs": {"/etc/hostname": "0" * 64}},
        {**_ER_RUN, "outputs": {"": "0" * 64}},
        {**_ER_RUN, "outputs": {"g.txt": 1}},
    ],
    ids=["array", "int in argv", "string argv", "no outputs", "outputs array",
         "outputs string", "empty outputs", "parent output", "absolute output",
         "empty output path", "int hash"],
)
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert run("replay", "--manifest", path) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # refused before anything was re-run


def test_threads_flag_is_gone(tmp_path):
    g = tmp_path / "g.txt"
    args = ("generate", "--model", "er", "--n", 30, "--p", 0.2, "--seed", 4, "--out", g)
    assert run(*args, "--threads", 2) == EXIT_USAGE
    assert run(*args) == EXIT_OK
    # a manifest whose argv holds --threads (no release recorded one) exits 2
    manifest = tmp_path / "g.txt.manifest.json"
    data = json.loads(manifest.read_text())
    data["argv"][data["argv"].index("--out"):0] = ["--threads", "1"]
    manifest.write_text(json.dumps(data))
    assert run("replay", "--manifest", manifest) == EXIT_USAGE


def test_version_flag(capsys):
    assert run("--version") == EXIT_OK
    assert capsys.readouterr().out.startswith("bter ")


def test_metrics_help_lists_every_metric():
    # the help text spells the list out, so building the parser loads no
    # module of the library
    import argparse

    from bter.cli import build_parser
    from bter.reports import ALL_METRICS

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    (metrics,) = [a for a in sub.choices["analyze"]._actions if a.dest == "metrics"]
    listed = re.fullmatch(r"comma list from \{(.*)\}", metrics.help).group(1)
    assert tuple(listed.split(",")) == ALL_METRICS


def test_package_and_project_versions_agree():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match is not None
    assert match.group(1) == bter.__version__


# ---------------------------------------------------------------------------
# exit codes of bad values
# ---------------------------------------------------------------------------

_BTER_GEN = ("generate", "--model", "bter", "--powerlaw", "300,2,17", "--seed", 1,
             "--out", "{out}")
_ANALYZE_SPECTRUM = ("analyze", "--graph", "{graph}", "--metrics", "spectrum",
                     "--out-dir", "{out}")
_AUDIT = ("audit", "--graph", "{graph}", "--partition", "{graph}.partition.csv",
          "--out-dir", "{out}")


@pytest.fixture(scope="module")
def small_bter(tmp_path_factory):
    g = tmp_path_factory.mktemp("small") / "g.txt"
    assert run(*(str(g) if a == "{out}" else a for a in _BTER_GEN)) == EXIT_OK
    return g


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--model", "er", "--n", 10, "--p", 2, "--seed", 1, "--out", "{out}"),
        ("generate", "--model", "er", "--n", -1, "--p", 0.5, "--seed", 1, "--out", "{out}"),
        (*_BTER_GEN, "--manual-fraction", 2),
        (*_BTER_GEN, "--d1-weight", 0),
        (*_BTER_GEN, "--beta", -1),
        (*_BTER_GEN, "--q", 3),
        (*_BTER_GEN, "--q", 10000),
        (*_BTER_GEN, "--rho", 0),
        (*_BTER_GEN, "--eta", -1),
        (*_BTER_GEN, "--variant", "cubic", "--rho", 0.9),
        (*_BTER_GEN, "--variant", "cubic", "--eta", 0.1),
        # NaN and inf fail every range check: none may switch a phase off
        (*_BTER_GEN, "--eta", "nan"),
        (*_BTER_GEN, "--eta", "inf"),
        (*_BTER_GEN, "--beta", "nan"),
        (*_BTER_GEN, "--beta", "inf"),
        (*_BTER_GEN, "--d1-weight", "nan"),
        (*_BTER_GEN, "--d1-weight", "inf"),
        (*_BTER_GEN, "--seed", -1),
        ("generate", "--model", "er", "--n", 10, "--p", 0.5, "--seed", -1, "--out", "{out}"),
        (*_ANALYZE_SPECTRUM, "--top-k", 0),
        (*_ANALYZE_SPECTRUM, "--tol", 0),
        (*_ANALYZE_SPECTRUM, "--tol", "nan"),
        (*_ANALYZE_SPECTRUM, "--tol", "inf"),
        (*_ANALYZE_SPECTRUM, "--seed", -1),
        ("compare", "--graph-a", "{graph}", "--graph-b", "{graph}", "--seed", -1,
         "--out", "{out}"),
        (*_AUDIT, "--kappa", 2),
        (*_AUDIT, "--exact-threshold", -1),
        (*_AUDIT, "--core-constants", "a"),
        # non-finite or non-positive constants, and constants whose column
        # labels collide (core_c105 twice, core_c10 twice)
        (*_AUDIT, "--core-constants", "nan,inf"),
        (*_AUDIT, "--core-constants", "0.5,nan"),
        (*_AUDIT, "--core-constants", "inf"),
        (*_AUDIT, "--core-constants", "-1"),
        (*_AUDIT, "--core-constants", "0"),
        (*_AUDIT, "--core-constants", "1.05,10.5"),
        (*_AUDIT, "--core-constants", "1,1.0"),
        (*_AUDIT, "--predict", "0,2"),
        (*_AUDIT, "--predict", "abc"),
        (*_AUDIT, "--predict", "inf,2"),
        (*_AUDIT, "--predict", "10,nan"),
    ],
    ids=lambda argv: " ".join(str(a) for a in argv if "{" not in str(a)),
)
def test_bad_values_are_usage_errors(argv, small_bter, tmp_path, capsys):
    out = tmp_path / "out" / "x"
    args = [str(a).replace("{out}", str(out)).replace("{graph}", str(small_bter))
            for a in argv]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    # a bad value is refused before any output, file or directory, is made
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_from_the_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -2\n", encoding="utf-8")
    out = tmp_path / "out" / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,17",
               "--config", cfg, "--out", out) == EXIT_USAGE
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.parent.exists()  # refused before any output is made


def test_internal_value_error_is_not_a_usage_error(small_bter, tmp_path, monkeypatch):
    import bter.metrics

    def broken(*args, **kwargs):
        raise ValueError("broken triangle kernel")

    monkeypatch.setattr(bter.metrics, "count_triangles_wedges", broken)
    for argv in (
        ("analyze", "--graph", small_bter, "--out-dir", tmp_path / "a"),
        ("audit", "--graph", small_bter, "--out-dir", tmp_path / "b"),
    ):
        with pytest.raises(ValueError, match="broken triangle kernel"):
            run(*argv)


def test_audit_counts_only_the_triangle_total(small_bter, tmp_path, monkeypatch):
    # kk.csv needs the total alone: the audit asks for no per-node table,
    # still through bter.metrics, and writes the full count's total
    import bter.metrics

    calls = []
    count = bter.metrics.count_triangles_wedges

    def spy(g, per_node=True):
        calls.append(per_node)
        return count(g, per_node=per_node)

    monkeypatch.setattr(bter.metrics, "count_triangles_wedges", spy)
    assert run("audit", "--graph", small_bter, "--out-dir", tmp_path / "d") == EXIT_OK
    assert calls == [False]
    graph = bter.read_snap_edgelist(small_bter)
    triangles = count(graph).triangles
    kk = (tmp_path / "d" / "kk.csv").read_text(encoding="utf-8")
    assert kk == f"triangles,edges,ok\n{triangles},{graph.edge_count},true\n"


def test_malformed_inputs_are_input_errors(k4_file, tmp_path, capsys):
    negative = tmp_path / "neg.txt"
    negative.write_text("# nodes 5\n-1 2\n", encoding="utf-8")
    assert run("analyze", "--graph", negative, "--out-dir", tmp_path / "a") == EXIT_INPUT

    # integers beyond int64 and node counts whose edge keys would overflow
    # int64 are refused by the reader, with its message
    wide = tmp_path / "wide.txt"
    wide.write_text("0 1\n1 9223372036854775808\n", encoding="utf-8")
    part = tmp_path / "wide.csv"
    part.write_text("node,block,bar_d,rho,excess\n1,99999999999999999999,1,0.5,1\n",
                    encoding="utf-8")
    degrees = tmp_path / "wide_degrees.txt"
    degrees.write_text("99999999999999999999\n", encoding="utf-8")
    # each count fits in int64, but their total does not; nor does a degree total
    counts = tmp_path / "wide_counts.csv"
    counts.write_text("degree,count\n1,9223372036854775807\n1,1\n", encoding="utf-8")
    total = tmp_path / "wide_total.csv"
    total.write_text("degree,count\n4611686018427387904,2\n", encoding="utf-8")
    cases = [
        (("analyze", "--graph", wide), f"{wide}:2: expected two integer node ids"),
        (("audit", "--graph", k4_file, "--partition", part), f"{part}: bad partition row"),
        (("generate", "--model", "cl", "--seed", 1, "--degrees", degrees),
         "integer '99999999999999999999' is outside int64"),
        (("generate", "--model", "cl", "--seed", 1, "--degrees", counts),
         "n=9223372036854775808 nodes: edge keys u * n + v would overflow int64"),
        (("generate", "--model", "cl", "--seed", 1, "--degrees", total),
         "degree total is outside int64"),
    ]
    for n in (4000000000, 99999999999999999999):
        huge = tmp_path / f"nodes_{n}.txt"
        huge.write_text(f"# nodes {n}\n0 1\n", encoding="utf-8")
        cases.append((("analyze", "--graph", huge), f"n={n} nodes"))
    capsys.readouterr()
    for argv, message in cases:
        out = tmp_path / "out"
        dest = "--out" if argv[0] == "generate" else "--out-dir"
        assert run(*argv, dest, out / "x") == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    manifest = tmp_path / "m.json"
    manifest.write_text("{not json", encoding="utf-8")
    assert run("replay", "--manifest", manifest) == EXIT_INPUT

    report = tmp_path / "rep"
    report.mkdir()
    (report / "summary.csv").write_text("field,value\nnodes,x\nedges,1\n", encoding="utf-8")
    assert run("compare", "--graph-a", k4_file, "--report-b", report,
               "--out", tmp_path / "c.csv") == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        "generate --model cl --seed 1 --powerlaw 100,2,10 --config {bad} --out {out}/g.txt",
        "generate --model cl --seed 1 --degrees {bad} --out {out}/g.txt",
        "generate --model cl --seed 1 --from-graph {bad} --out {out}/g.txt",
        "analyze --graph {bad} --out-dir {out}",
        "audit --graph {bad} --out-dir {out}",
        "audit --graph {k4} --partition {bad} --out-dir {out}",
        "compare --graph-a {bad} --graph-b {k4} --out {out}/c.csv",
        "compare --report-a {rep} --graph-b {k4} --out {out}/c.csv",
        "replay --manifest {bad}",
    ],
    ids=["config", "degrees", "from-graph", "analyze graph", "audit graph", "partition",
         "compare graph", "report", "manifest"],
)
def test_input_that_is_not_utf8_is_an_input_error(k4_file, tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / "summary.csv").write_bytes(b"field,value\nnodes,4\n\xff\n")
    out = tmp_path / "out"
    paths = {"bad": bad, "k4": k4_file, "rep": rep, "out": out}
    assert run(*(word.format(**paths) for word in argv.split())) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unusable_output_path_is_an_input_error(k4_file, tmp_path, capsys):
    blocker = tmp_path / "file"  # a file where a directory must be made
    blocker.write_text("", encoding="utf-8")
    assert run("analyze", "--graph", k4_file, "--out-dir", blocker) == EXIT_INPUT
    assert run("generate", "--model", "er", "--n", 10, "--p", 0.5, "--seed", 1,
               "--out", blocker / "g.txt") == EXIT_INPUT
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize(
    "name, text",
    [
        ("summary.csv", "field,value\nedges,6\n"),  # no nodes row
        ("triangles.csv", "triangles,wedges,global_c\n4\n"),  # a one-field row
        ("triangles.csv", "triangles,wedges,global_c\n"),  # no data row
        ("cc_summary.csv", "global_c\n"),  # no data row
        ("cc.csv", None),  # half a cc view: cc_summary.csv alone
        ("cc_summary.csv", None),  # half a cc view: cc.csv alone
    ],
)
def test_malformed_report_is_an_input_error(k4_file, tmp_path, capsys, name, text):
    rep = tmp_path / "rep"
    assert run("analyze", "--graph", k4_file, "--out-dir", rep) == EXIT_OK
    if text is None:
        (rep / name).unlink()
    else:
        (rep / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run("compare", "--report-a", rep, "--report-b", rep,
               "--out", tmp_path / "c.csv") == EXIT_INPUT
    assert re.match(rf"error: .*{name}", capsys.readouterr().err)


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------


def test_compare_models_script_writes_the_divergence(tmp_path):
    import csv
    import subprocess
    import sys

    script = Path(bter.__file__).parents[2] / "scripts" / "compare_models.py"
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, str(script), "--powerlaw", "600,2,20", "--seed", "1",
         "--top-k", "5", "--out-dir", str(out)],
        env=_cli_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "divergence_bter_vs_cl.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "value"]
    values = dict(rows[1:])
    assert list(values) == [
        "degree_tv", "global_c_gap", "by_degree_cc_gap", "shared_cc_degrees",
        *(f"eigen_rel_gap_rank{r}" for r in range(1, 6)),
        "eigen_max_rel_gap", "eigen_mean_rel_gap",
    ]
    assert all(math.isfinite(float(v)) for v in values.values())


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

# Runs the CLI as `python -m bter.cli ARGS` would, then prints the exit code
# and every module the process loaded.
_MODULE_PROBE = """
import runpy, sys
try:
    runpy.run_module("bter.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def _cli_env(**settings) -> dict[str, str]:
    """This environment, with settings, for a subprocess that imports this bter."""
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(bter.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def _modules_after(*argv) -> tuple[int, set[str]]:
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *map(str, argv)],
        env=_cli_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()  # after what the command prints
    return int(code), set(modules)


def _scipy_after(*argv) -> tuple[int, bool]:
    code, modules = _modules_after(*argv)
    return code, any(m == "scipy" or m.startswith("scipy.") for m in modules)


def _bter_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("bter.") for m in modules if m.startswith("bter.")}


def test_scipy_is_loaded_only_for_the_spectrum(tmp_path):
    # the spectrum multiplies through scipy.sparse only on a component of
    # more than spectrum._SCIPY_ENTRIES stored entries, and no command loads
    # scipy.sparse.linalg
    graph, dense = tmp_path / "g.txt", tmp_path / "er.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "10000,2,100", "--seed", 1,
               "--out", graph) == EXIT_OK
    assert run("generate", "--model", "er", "--n", 3000, "--p", 0.02, "--seed", 1,
               "--out", dense) == EXIT_OK  # one component of ~180k entries
    for argv, code in [
        (("--version",), EXIT_OK),
        (("analyze", "--graph", graph, "--metrics", "degree,cc,triangles",
          "--out-dir", tmp_path / "a"), EXIT_OK),
        (("analyze", "--graph", graph, "--metrics", "spectrum", "--top-k", 25,
          "--out-dir", tmp_path / "s"), EXIT_OK),
        (("analyze", "--graph", graph, "--metrics", "spectrum", "--top-k", 2,
          "--tol", "1e-300", "--out-dir", tmp_path / "f"), EXIT_NO_CONVERGENCE),
    ]:
        assert _scipy_after(*argv) == (code, False)
    code, modules = _modules_after("analyze", "--graph", dense, "--metrics", "spectrum",
                                   "--out-dir", tmp_path / "d")
    assert code == EXIT_OK
    assert "scipy.sparse" in modules and "scipy.sparse.linalg" not in modules


def test_the_spectrum_module_is_loaded_only_for_the_spectrum(tmp_path):
    graph = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,20", "--seed", 1,
               "--out", graph) == EXIT_OK
    for argv in (
        ("analyze", "--graph", graph, "--metrics", "degree,cc,triangles",
         "--out-dir", tmp_path / "a"),
        ("audit", "--graph", graph, "--partition", f"{graph}.partition.csv",
         "--predict", "1e4,2", "--out-dir", tmp_path / "d"),
    ):
        code, modules = _modules_after(*argv)
        assert code == EXIT_OK and "bter.spectrum" not in modules
    code, modules = _modules_after("analyze", "--graph", graph, "--metrics", "spectrum",
                                   "--out-dir", tmp_path / "s")
    assert code == EXIT_OK and "bter.spectrum" in modules


def test_version_and_compare_over_reports_run_without_numpy(k4_file, tmp_path):
    code, modules = _modules_after("--version")
    assert code == EXIT_OK and "numpy" not in modules
    assert "_hashlib" not in modules  # OpenSSL's libcrypto is mapped at the first hash
    assert _bter_modules(modules) == set()  # no library module, bter.reports included
    assert not {"dataclasses", "inspect"} & modules
    for metrics in ("degree,cc,triangles", "degree,spectrum"):
        rep = tmp_path / metrics
        assert run("analyze", "--graph", k4_file, "--metrics", metrics, "--top-k", 2,
                   "--out-dir", rep) == EXIT_OK
        code, modules = _modules_after("compare", "--report-a", rep, "--report-b", rep,
                                       "--metrics", metrics, "--out", rep / "cmp.csv")
        assert code == EXIT_OK
        # only a report with a spectrum rehydrates arrays
        assert ("numpy" in modules) == ("spectrum" in metrics)
        # the records are NamedTuples: no generated dataclass code, and
        # without numpy (which imports inspect) no inspect either
        assert "dataclasses" not in modules
        if "spectrum" not in metrics:
            assert "inspect" not in modules


def test_each_command_loads_only_its_own_modules(tmp_path):
    graph = tmp_path / "g.txt"
    code, modules = _modules_after("generate", "--model", "bter", "--powerlaw", "300,2,20",
                                   "--seed", 1, "--out", graph)
    assert code == EXIT_OK
    assert _bter_modules(modules) == {"communities", "degrees", "generate", "graph", "rng"}
    assert "dataclasses" not in modules  # the records are NamedTuples
    code, modules = _modules_after("analyze", "--graph", graph, "--out-dir", tmp_path / "a")
    assert code == EXIT_OK
    assert _bter_modules(modules) == {"graph", "metrics", "reports", "rng"}
    assert "dataclasses" not in modules
    code, modules = _modules_after("audit", "--graph", graph, "--partition",
                                   f"{graph}.partition.csv", "--predict", "1e4,2",
                                   "--out-dir", tmp_path / "d")
    assert code == EXIT_OK
    assert _bter_modules(modules) == {"communities", "degrees", "graph", "metrics",
                                      "reports", "rng", "theory"}
    assert "dataclasses" not in modules


def test_package_names_resolve_on_first_access():
    assert set(bter.__all__) <= set(dir(bter))
    namespace = {}
    exec("from bter import *", namespace)
    for name in bter.__all__:
        assert namespace[name] is getattr(bter, name)
    with pytest.raises(AttributeError):
        bter.no_such_name


# ---------------------------------------------------------------------------
# the process path: python -m bter.cli and the bter script
# ---------------------------------------------------------------------------

# Each handled exit code, and each command that writes files. The paths are
# relative, so runs from two directories write the same bytes.
_PROCESS_RUNS = [
    (("generate", "--model", "bter", "--powerlaw", "300,2,20", "--seed", "1",
      "--out", "g.txt"), EXIT_OK),
    (("generate", "--model", "bter", "--powerlaw", "300,nan,20", "--seed", "1",
      "--out", "h.txt"), EXIT_USAGE),
    (("analyze", "--graph", "missing.txt", "--out-dir", "m"), EXIT_INPUT),
    (("analyze", "--graph", "g.txt", "--metrics", "spectrum", "--top-k", "2",
      "--tol", "1e-300", "--out-dir", "s"), EXIT_NO_CONVERGENCE),
    (("analyze", "--graph", "g.txt", "--metrics", "degree,cc,triangles,spectrum",
      "--top-k", "5", "--out-dir", "a"), EXIT_OK),
    (("audit", "--graph", "g.txt", "--partition", "g.txt.partition.csv",
      "--predict", "1e4,2", "--out-dir", "d"), EXIT_OK),
]

# Runs the CLI as `python -m bter.cli ARGS` would, with an atexit handler
# registered first that reports whether the heap was frozen at exit.
_EXIT_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
runpy.run_module("bter.cli", run_name="__main__", alter_sys=True)
"""


def _process(*argv, cwd, probe: str | None = None):
    """One fresh `python -m bter.cli ARGV` process (or probe), run from cwd."""
    import subprocess
    import sys

    head = ["-c", probe] if probe else ["-m", "bter.cli"]
    return subprocess.run(
        [sys.executable, *head, *map(str, argv)],
        cwd=cwd, env=_cli_env(), capture_output=True, text=True, timeout=300,
    )


def test_a_process_exits_prints_and_writes_as_main_does(tmp_path, monkeypatch, capsys):
    fresh, in_process = tmp_path / "process", tmp_path / "main"
    fresh.mkdir()
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    for argv, code in _PROCESS_RUNS:
        proc = _process(*argv, cwd=fresh)
        assert main(list(argv)) == proc.returncode == code, proc.stderr
        out, err = capsys.readouterr()
        # both streams arrive through their pipes whole, line by line
        assert (proc.stdout, proc.stderr) == (out, err)
        assert all(text == "" or text.endswith("\n") for text in (out, err))
        assert err.startswith("error: ") == (code != EXIT_OK)
    written = all_bytes(fresh)
    assert {"g.txt", "a/spectrum.csv", "d/kk.csv"} <= set(written)
    assert written == all_bytes(in_process)


def test_replay_passes_on_manifests_a_process_wrote(tmp_path, monkeypatch, capsys):
    for argv, code in _PROCESS_RUNS:
        if code == EXIT_OK:
            assert _process(*argv, cwd=tmp_path).returncode == EXIT_OK
    monkeypatch.chdir(tmp_path)  # the recorded argv names its inputs relatively
    for manifest in ("g.txt.manifest.json", "a/manifest.json", "d/manifest.json"):
        assert run("replay", "--manifest", manifest) == EXIT_OK
        assert capsys.readouterr().out.endswith(" outputs byte-identical\n")
    proc = _process("replay", "--manifest", "g.txt.manifest.json", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.endswith("\nreplay: 3 outputs byte-identical\n")


def test_a_process_freezes_its_heap_and_still_runs_atexit(tmp_path):
    proc = _process("--version", cwd=tmp_path, probe=_EXIT_PROBE)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == f"bter {bter.__version__}\nfrozen at exit: True\n"
    proc = _process("analyze", "--graph", "missing.txt", "--out-dir", "m",
                    cwd=tmp_path, probe=_EXIT_PROBE)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == "frozen at exit: True\n"
    assert proc.stderr == "error: no such graph file: missing.txt\n"


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    import gc

    frozen = gc.get_freeze_count()
    g = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,20", "--seed", 1,
               "--out", g) == EXIT_OK
    assert run("analyze", "--graph", g, "--out-dir", tmp_path / "a") == EXIT_OK
    assert run("replay", "--manifest", f"{g}.manifest.json") == EXIT_OK
    assert run("analyze", "--graph", tmp_path / "missing.txt",
               "--out-dir", tmp_path / "m") == EXIT_INPUT
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_the_bter_script_runs_process_main():
    import bter.cli

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(bter.__file__).parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bter"]
    module, _, name = target.partition(":")
    assert module == "bter.cli"
    assert getattr(bter.cli, name) is bter.cli.process_main
