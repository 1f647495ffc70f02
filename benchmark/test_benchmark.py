"""The benchmark's own tests: smoke runs at a tiny size, and proof that the checks bite.

    python -m pytest benchmark/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-command metrics the human-readable report prints for each workload.
REPORT_METRICS = {
    "fit": ["generate_bter_s", "generate_cl_s"],
    "measure": ["analyze_cc_bter_s", "analyze_cc_cl_s", "audit_s"],
    "spectrum": ["analyze_spectrum_bter_s", "analyze_spectrum_cl_s"],
}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    line = run.run(workload, seed=3, seconds=0, trace=trace, scale="smoke")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    report = capsys.readouterr().out
    assert "# FAILED" not in report
    names = ["failed_frac"] + ([] if trace else REPORT_METRICS[workload] + ["wall_s"])
    for name in names:
        assert f"# {name} " in report
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def _flip_first_edge(pass_dir: Path) -> None:
    path = pass_dir / "bter.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    u, v = lines[1].split()
    lines[1] = f"{v} {u}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _perturb_top_eigenvalue(pass_dir: Path) -> None:
    path = pass_dir / "spectrum_bter" / "spectrum.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rank, value, residual = lines[1].strip().split(",")
    lines[1] = f"{rank},{float(value) * (1 + 1e-6):.12g},{residual}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _add_a_triangle(pass_dir: Path) -> None:
    path = pass_dir / "analyze_cl" / "triangles.csv"
    header, row = path.read_text(encoding="utf-8").splitlines()
    tri, rest = row.split(",", 1)
    path.write_text(f"{header}\n{int(tri) + 1},{rest}\n", encoding="utf-8")


@pytest.mark.parametrize(
    "workload, tamper, label, reason",
    [
        ("fit", _flip_first_edge, "generate_bter", "not 0 <= u < v < n"),
        ("spectrum", _perturb_top_eigenvalue, "analyze_spectrum_bter", "!= oracle"),
        ("measure", _add_a_triangle, "analyze_cc_cl", "!= oracle"),
    ],
)
def test_corrupted_output_counts_in_failed_frac(workload, tamper, label, reason, capsys):
    line = run.run(workload, seed=3, seconds=0, trace=0, scale="smoke", tamper=tamper)
    assert not line["correct"] and line["failed"] == 1
    report = capsys.readouterr().out
    failed_frac = next(ln for ln in report.splitlines() if ln.startswith("# failed_frac "))
    assert float(failed_frac.split()[2]) == 1 / line["attempted"]
    assert any(ln.startswith(f"# FAILED pass 0 {label}: ") and reason in ln
               for ln in report.splitlines())


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span(0, None, "r", "outer", None, 0.0, 10.0),
        tracing.Span(1, 0, "r", "inner", "bter", 1.0, 4.0),
        tracing.Span(2, 1, "r", "leaf", "bter", 2.0, 3.0),
        tracing.Span(3, 0, "r", "inner", "cl", 5.0, 7.0),
    ]
    stats = tracing.SpanStats(spans)
    assert stats.self_total("outer") == 5.0
    assert stats.self_total("inner") == 4.0
    assert stats.total("inner", "cl") == 2.0
    assert stats.tree()[0] == (0, "outer", 1, 10.0, 5.0)


def test_scaling_divides_by_the_mean_reference_time():
    # a machine twice as slow doubles both the times and the references
    assert run.scale_to_reference([4.0, 8.0], [2 * run.REF_S, 2 * run.REF_S]) == [2.0, 4.0]
    assert run.scale_to_reference([3.0], [run.REF_S, 2 * run.REF_S]) == [2.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
