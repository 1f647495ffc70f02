import hashlib
import json
import os
import re
from pathlib import Path

import pytest

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
               "--out", tmp_path / "x.txt") == EXIT_INPUT


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

    g = read_snap_edgelist(out).graph
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


def test_generate_determinism_across_runs_and_threads(tmp_path):
    args = ("generate", "--model", "bter", "--powerlaw", "400,2,20",
            "--seed", 11, "--out", tmp_path / "g.txt")
    assert run(*args, "--threads", 1) == EXIT_OK
    first = all_bytes(tmp_path)
    assert run(*args, "--threads", 4) == EXIT_OK
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


def test_analyze_malformed_graph(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nx y\n")
    assert run("analyze", "--graph", bad, "--out-dir", tmp_path / "rep") == EXIT_INPUT


def test_analyze_spectrum_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "g.txt"
    assert run("generate", "--model", "er", "--n", 400, "--p", 0.02, "--seed", 2,
               "--out", out) == EXIT_OK
    assert run("analyze", "--graph", out, "--metrics", "spectrum",
               "--top-k", 2, "--tol", "1e-300",
               "--out-dir", tmp_path / "rep") == EXIT_NO_CONVERGENCE


def test_analyze_determinism_across_threads(k4_file, tmp_path):
    seq_out = tmp_path / "g.txt"
    assert run("generate", "--model", "bter", "--powerlaw", "300,2,17",
               "--seed", 5, "--out", seq_out) == EXIT_OK
    rep = tmp_path / "rep"
    args = ("analyze", "--graph", seq_out, "--metrics",
            "degree,cc,triangles,spectrum", "--top-k", 6, "--out-dir", rep)
    assert run(*args, "--threads", 1) == EXIT_OK
    first = all_bytes(rep)
    assert run(*args, "--threads", 3) == EXIT_OK
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

    per_block = internal_degrees_by_block(
        read_snap_edgelist(g).graph, read_partition_csv(f"{g}.partition.csv")[0]
    )
    # repeated multisets are what the audit reuses
    assert len({d.tobytes() for d in per_block.values()}) < len(per_block)
    assert len(lines) - 1 == len(per_block)
    for line, k in zip(lines[1:], sorted(per_block)):
        a = audit_community(per_block[k], kappa=0.2, core_constants=constants)
        assert line == ",".join([
            str(k), _fmt(a.s), _fmt(a.expected_triangles), _fmt(a.wedge_bound),
            str(a.passes).lower(), *(str(a.er_core[c][0]) for c in constants),
        ])


def test_audit_partition_node_mismatch(tmp_path, k4_file):
    part = tmp_path / "part.csv"
    part.write_text("node,block,bar_d,rho,excess\n0,0,2,0.9,0\n1,0,2,0.9,0\n")
    assert run("audit", "--graph", k4_file, "--partition", part,
               "--out-dir", tmp_path / "a") == EXIT_INPUT


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


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


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


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("BTER_THREADS", "3")
    from bter.cli import build_parser

    args = build_parser().parse_args(
        ["analyze", "--graph", "x", "--out-dir", "y"]
    )
    assert args.threads == 3


def test_version_flag(capsys):
    assert run("--version") == EXIT_OK
    assert capsys.readouterr().out.startswith("bter ")


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
        (*_ANALYZE_SPECTRUM, "--top-k", 0),
        (*_ANALYZE_SPECTRUM, "--tol", 0),
        (*_AUDIT, "--kappa", 2),
        (*_AUDIT, "--core-constants", "a"),
        (*_AUDIT, "--predict", "0,2"),
    ],
    ids=lambda argv: " ".join(str(a) for a in argv if "{" not in str(a)),
)
def test_bad_values_are_usage_errors(argv, small_bter, tmp_path, capsys):
    out = tmp_path / "out"
    args = [str(a).replace("{out}", str(out)).replace("{graph}", str(small_bter))
            for a in argv]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


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


def test_malformed_inputs_are_input_errors(k4_file, tmp_path):
    negative = tmp_path / "neg.txt"
    negative.write_text("# nodes 5\n-1 2\n", encoding="utf-8")
    assert run("analyze", "--graph", negative, "--out-dir", tmp_path / "a") == EXIT_INPUT

    manifest = tmp_path / "m.json"
    manifest.write_text("{not json", encoding="utf-8")
    assert run("replay", "--manifest", manifest) == EXIT_INPUT

    report = tmp_path / "rep"
    report.mkdir()
    (report / "summary.csv").write_text("field,value\nnodes,x\nedges,1\n", encoding="utf-8")
    assert run("compare", "--graph-a", k4_file, "--report-b", report,
               "--out", tmp_path / "c.csv") == EXIT_INPUT


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

_SCIPY_PROBE = """
import sys
from bter.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def _scipy_after(*argv) -> tuple[int, bool]:
    import subprocess
    import sys

    import bter

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(bter.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded = proc.stdout.split()[-2:]  # after what the command prints
    return int(code), loaded == "True"


def test_scipy_is_loaded_only_for_the_spectrum(tmp_path):
    graph = tmp_path / "g.txt"
    assert run("generate", "--model", "er", "--n", 400, "--p", 0.02, "--seed", 2,
               "--out", graph) == EXIT_OK
    assert _scipy_after() == (EXIT_OK, False)
    assert _scipy_after("analyze", "--graph", graph, "--metrics", "degree,cc,triangles",
                        "--out-dir", tmp_path / "a") == (EXIT_OK, False)
    assert _scipy_after("analyze", "--graph", graph, "--metrics", "spectrum",
                        "--top-k", 2, "--tol", "1e-300",
                        "--out-dir", tmp_path / "s") == (EXIT_NO_CONVERGENCE, True)
