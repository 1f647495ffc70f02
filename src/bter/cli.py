"""Command-line interface: generate / analyze / compare / audit / replay.

Every command is a pure function of (arguments, input files, seed):
identical invocations produce byte-identical outputs, including the JSON
run manifest, which therefore carries no timestamps. Exit codes: 0 success,
2 usage error, 3 input error (a file or directory that cannot be read or
made), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import _EXPORTS, __version__

if TYPE_CHECKING:
    from .degrees import DegreeSequence
    from .reports import MetricsReport

# A command calls each library name as an attribute of this module
# (``_cli.generate_bter(...)``), which ``__getattr__`` imports on first use.
# So a command loads only the modules it runs, and a name replaced on
# ``bter.cli`` from outside (say, by a wrapper that times it) is the one
# called. The package's public names resolve here, and these as well:
_INTERNAL = {
    "read_partition_csv": "communities",
    "write_partition_csv": "communities",
    "read_degree_file": "degrees",
    "degree1_split": "generate",
    "ALL_METRICS": "reports",
    "internal_degrees_by_block": "theory",
}


def __getattr__(name: str):
    module = _INTERNAL.get(name) or _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]  # this module, also when run as __main__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NO_CONVERGENCE = 4

CONFIG_KEYS = (
    "seed",
    "rho",
    "eta",
    "variant",
    "manual_fraction",
    "d1_weight",
    "q",
    "beta",
)


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class NoConvergenceError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sha256(path: Path) -> str:
    # imported here, not at the top: hashlib maps OpenSSL's libcrypto
    # (~3.5 MB of RSS), so analyze, audit and compare map it only at their
    # first hash, after their arrays have gone back to the OS. One buffer,
    # refilled: a new bytes object per read lands on whatever heap the
    # command has fragmented, and can set its peak RSS (audit)
    import hashlib

    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            h.update(memoryview(buf)[:size])
    return h.hexdigest()


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")


def _read_config_file(path: Path) -> dict[str, str]:
    """Flat KEY=VALUE text; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{i}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{i}: unknown config key {key!r}")
        values[key] = value
    return values


def _load_graph_file(path_str: str):
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"no such graph file: {path}")
    try:
        return _cli.read_snap_edgelist(path)
    except ValueError as exc:  # EdgeListFormatError, or ids or n the graph cannot key
        raise InputError(str(exc)) from exc


def _manifest(command: str, argv: list[str], config: dict, inputs: dict[str, Path]):
    return {
        "tool": "bter",
        "version": __version__,
        "command": command,
        "argv": argv,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs.values()},
        "outputs": {},
    }


def _finalize_manifest(manifest: dict, out_base: Path, outputs: list[Path], path: Path):
    manifest["outputs"] = {
        str(p.relative_to(out_base)): _sha256(p) for p in sorted(outputs)
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _resolve_generate_params(args) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    file_vals = _read_config_file(Path(args.config)) if args.config else {}

    def pick(flag_value, key: str, parse, default):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            try:
                return parse(file_vals[key])
            except ValueError as exc:
                raise InputError(f"config key {key}: {exc}") from exc
        return default

    params = {
        "seed": pick(args.seed, "seed", int, None),
        "rho": pick(args.rho, "rho", float, None),
        "eta": pick(args.eta, "eta", float, None),
        "variant": pick(args.variant, "variant", str, "standard"),
        "manual_fraction": pick(args.manual_fraction, "manual_fraction", float, 0.75),
        "d1_weight": pick(args.d1_weight, "d1_weight", float, 1.10),
        "q": pick(args.q, "q", int, None),
        "beta": pick(args.beta, "beta", float, 0.10),
    }
    if params["seed"] is None:
        raise UsageError("--seed is required (flag or config file); no silent entropy")
    _check_seed(params["seed"])
    defaults = {"rho": 0.95, "eta": 0.05}
    cubic = params["variant"] == "cubic"
    if cubic:  # the cubic formula fixes rho and eta: record its values, refuse others
        fixed = _cli.ConnectivityFormula(variant="cubic")
        defaults = {"rho": fixed.rho, "eta": fixed.eta}
    for key, value in defaults.items():
        if params[key] is None:
            params[key] = value
        elif cubic and params[key] != value:
            raise UsageError(f"--variant cubic fixes {key}={value}, got {params[key]}")
    return params


def _degree_input(args, inputs: dict[str, Path]) -> DegreeSequence:
    chosen = [
        opt
        for opt, val in (
            ("--degrees", args.degrees),
            ("--from-graph", args.from_graph),
            ("--powerlaw", args.powerlaw),
        )
        if val
    ]
    if len(chosen) != 1:
        raise UsageError("exactly one of --degrees/--from-graph/--powerlaw is required")
    if args.degrees:
        path = Path(args.degrees)
        if not path.is_file():
            raise InputError(f"no such degree file: {path}")
        inputs["degrees"] = path
        try:
            return _cli.read_degree_file(path)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.from_graph:
        inputs["graph"] = Path(args.from_graph)
        graph = _load_graph_file(args.from_graph)
        isolated = int((graph.degrees == 0).sum())
        if isolated:
            print(
                f"note: dropping {isolated} isolated nodes from the target degrees",
                file=sys.stderr,
            )
        try:
            return _cli.extract_degrees(graph, drop_isolated=True)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    try:
        n_str, gamma_str, dmax_str = args.powerlaw.split(",")
        return _cli.synthesize_powerlaw(int(n_str), float(gamma_str), int(dmax_str))
    except ValueError as exc:
        raise UsageError(f"bad --powerlaw value {args.powerlaw!r}: {exc}") from exc


def cmd_generate(args, argv: list[str]) -> int:
    params = _resolve_generate_params(args)
    out = Path(args.out)
    inputs: dict[str, Path] = {}
    if args.config:
        inputs["config"] = Path(args.config)

    outputs: list[Path] = [out]
    config_echo = {"model": args.model, **params}

    if args.model == "er":
        if args.n is None or args.p is None:
            raise UsageError("--model er requires --n and --p")
        if args.degrees or args.from_graph or args.powerlaw:
            raise UsageError("--model er takes no degree input")
        config_echo.update(n=args.n, p=args.p)
        try:
            graph = _cli.generate_er(args.n, args.p, params["seed"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        degrees = _degree_input(args, inputs)
        if args.model == "cl":
            try:
                graph = _cli.generate_cl(degrees, params["seed"])
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        else:
            try:
                formula = _cli.ConnectivityFormula(
                    variant=params["variant"], rho=params["rho"], eta=params["eta"]
                )
                cfg = _cli.GenerationConfig(
                    seed=params["seed"],
                    connectivity=formula,
                    manual_fraction=params["manual_fraction"],
                    d1_weight=params["d1_weight"],
                    q_override=params["q"],
                    beta=params["beta"],
                )
                _cli.degree1_split(degrees, cfg)  # checks --q against the set-aside count
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            graph, trace = _cli.generate_bter(degrees, cfg)
    # the output directory is made once every check has passed and there
    # is a graph to write
    out.parent.mkdir(parents=True, exist_ok=True)
    _cli.write_edgelist(graph, out)
    if args.model == "bter":
        trace_path = out.with_name(out.name + ".trace.csv")
        rows = [
            ("p", str(trace.p)),
            ("q", str(trace.q)),
            ("eta_scale", _fmt(trace.eta_scale)),
        ]
        rows += [(f"raw_{k}", str(v)) for k, v in trace.raw.items()]
        rows += [(f"kept_{k}", str(v)) for k, v in trace.kept.items()]
        rows += [
            ("raw_edges", str(trace.stats.raw_edges)),
            ("self_loops_dropped", str(trace.stats.self_loops_dropped)),
            ("duplicates_dropped", str(trace.stats.duplicates_dropped)),
        ]
        _write_rows(trace_path, "field,value", rows)
        outputs.append(trace_path)

        part_path = out.with_name(out.name + ".partition.csv")
        _cli.write_partition_csv(trace.partition, part_path)
        outputs.append(part_path)

    manifest = _manifest("generate", argv, config_echo, inputs)
    manifest_path = out.with_name(out.name + ".manifest.json")
    _finalize_manifest(manifest, out.parent, outputs, manifest_path)
    print(f"wrote {out} ({graph.n} nodes, {graph.edge_count} edges)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _parse_metrics(value: str) -> tuple[str, ...]:
    metrics = tuple(m.strip() for m in value.split(",") if m.strip())
    unknown = set(metrics) - set(_cli.ALL_METRICS)
    if unknown or not metrics:
        raise UsageError(
            f"unknown metrics {sorted(unknown)}; choose from {','.join(_cli.ALL_METRICS)}"
        )
    return metrics


def _write_report_csvs(report: MetricsReport, out_dir: Path) -> list[Path]:
    written: list[Path] = []

    def emit(name: str, header: str, rows):
        path = out_dir / name
        _write_rows(path, header, rows)
        written.append(path)

    nonisolated = report.n_nodes
    if report.degree_hist is not None:
        nonisolated = report.n_nodes - report.degree_hist.get(0, 0)
        emit(
            "degree.csv",
            "degree,count",
            (
                (str(d), str(report.degree_hist[d]))
                for d in sorted(report.degree_hist)
            ),
        )
    emit(
        "summary.csv",
        "field,value",
        [
            ("nodes", str(report.n_nodes)),
            ("nodes_nonisolated", str(nonisolated)),
            ("edges", str(report.n_edges)),
        ],
    )
    if report.global_c is not None:
        emit(
            "cc.csv",
            "degree,mean_cc,node_count",
            (
                (str(d), _fmt(report.by_degree_cc[d][0]), str(report.by_degree_cc[d][1]))
                for d in sorted(report.by_degree_cc)
            ),
        )
        emit("cc_summary.csv", "global_c", [(_fmt(report.global_c),)])
    if report.triangles is not None:
        global_c = 3.0 * report.triangles / report.wedges if report.wedges else 0.0
        emit(
            "triangles.csv",
            "triangles,wedges,global_c",
            [(str(report.triangles), str(report.wedges), _fmt(global_c))],
        )
    if report.eigenvalues is not None:
        emit(
            "spectrum.csv",
            "rank,eigenvalue,residual",
            (
                (str(i + 1), _fmt(v), _fmt(r))
                for i, (v, r) in enumerate(
                    zip(report.eigenvalues, report.spectrum_residuals)
                )
            ),
        )
    return written


def _compute_report(graph, metrics: tuple[str, ...], args) -> MetricsReport:
    """compute_report with the user's --top-k and --tol checked first."""
    if "spectrum" not in metrics:
        return _cli.compute_report(graph, metrics=metrics)
    if min(args.top_k, graph.n) < 1:
        raise UsageError(
            f"need 1 <= --top-k and a graph with nodes, got --top-k "
            f"{args.top_k} on {graph.n} nodes"
        )
    if not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    from .spectrum import SpectrumConvergenceError

    try:
        return _cli.compute_report(
            graph,
            metrics=metrics,
            top_k=args.top_k,
            tol=args.tol,
            seed=args.seed,
        )
    except SpectrumConvergenceError as exc:
        raise NoConvergenceError(str(exc)) from exc


def cmd_analyze(args, argv: list[str]) -> int:
    metrics = _parse_metrics(args.metrics)
    _check_seed(args.seed)
    graph = _load_graph_file(args.graph)
    report = _compute_report(graph, metrics, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _write_report_csvs(report, out_dir)

    config = {
        "metrics": ",".join(metrics),
        "top_k": args.top_k,
        "tol": args.tol,
        "seed": args.seed,
    }
    manifest = _manifest("analyze", argv, config, {"graph": Path(args.graph)})
    _finalize_manifest(manifest, out_dir, outputs, out_dir / "manifest.json")
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _report_from_dir(path: Path) -> MetricsReport:
    """Rehydrate a MetricsReport from an analyze output directory."""

    def rows(name: str, width: int):
        fp = path / name
        if not fp.is_file():
            return None
        lines = fp.read_text(encoding="utf-8").splitlines()
        found = []
        for number, line in enumerate(lines[1:], start=2):
            if line:
                row = line.split(",")
                if len(row) != width:
                    raise InputError(f"{fp}:{number}: expected {width} fields, got {line!r}")
                found.append(row)
        return found

    summary = rows("summary.csv", 2)
    if summary is None:
        raise InputError(f"{path}: not an analyze output directory (no summary.csv)")
    fields = dict(summary)
    for key in ("nodes", "edges"):
        if key not in fields:
            raise InputError(f"{path / 'summary.csv'}: no {key!r} row")
    degree = rows("degree.csv", 2)
    cc = rows("cc.csv", 3)
    cc_summary = rows("cc_summary.csv", 1)
    if (cc is None) != (cc_summary is None):  # a cc view is both files
        raise InputError(f"{path / ('cc.csv' if cc is None else 'cc_summary.csv')}: missing")
    triangles = rows("triangles.csv", 3)
    for name, found in (("cc_summary.csv", cc_summary), ("triangles.csv", triangles)):
        if found == []:
            raise InputError(f"{path / name}: no data row")
    spectrum = rows("spectrum.csv", 3)
    eigenvalues = residuals = None
    if spectrum:
        import numpy as np

        eigenvalues = np.array([float(v) for _, v, _ in spectrum])
        residuals = np.array([float(r) for _, _, r in spectrum])
    return _cli.MetricsReport(
        n_nodes=int(fields["nodes"]),
        n_edges=int(fields["edges"]),
        degree_hist={int(d): int(c) for d, c in degree} if degree is not None else None,
        triangles=int(triangles[0][0]) if triangles is not None else None,
        wedges=int(triangles[0][1]) if triangles is not None else None,
        global_c=float(cc_summary[0][0]) if cc_summary is not None else None,
        by_degree_cc=(
            {int(d): (float(mean), int(cnt)) for d, mean, cnt in cc}
            if cc is not None
            else None
        ),
        eigenvalues=eigenvalues,
        spectrum_residuals=residuals,
    )


def _comparison_side(graph_path, report_path, metrics, args):
    if (graph_path is None) == (report_path is None):
        raise UsageError("give exactly one of --graph-a/--report-a (same for b)")
    if graph_path is not None:
        graph = _load_graph_file(graph_path)
        return _compute_report(graph, metrics, args), Path(graph_path)
    p = Path(report_path)
    if not p.is_dir():
        raise InputError(f"no such report directory: {p}")
    try:
        return _report_from_dir(p), p
    except ValueError as exc:
        raise InputError(f"{p}: {exc}") from exc


def cmd_compare(args, argv: list[str]) -> int:
    metrics = _parse_metrics(args.metrics)
    _check_seed(args.seed)
    report_a, input_a = _comparison_side(args.graph_a, args.report_a, metrics, args)
    report_b, input_b = _comparison_side(args.graph_b, args.report_b, metrics, args)

    try:
        summary = _cli.compare_reports(report_a, report_b, cc_count_floor=args.cc_floor)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    rows: list[tuple[str, str]] = []
    if summary.degree_tv is not None:
        rows.append(("degree_tv", _fmt(summary.degree_tv)))
    if summary.global_c_gap is not None:
        rows.append(("global_c_gap", _fmt(summary.global_c_gap)))
        rows.append(("by_degree_cc_gap", _fmt(summary.by_degree_cc_gap)))
        rows.append(("shared_cc_degrees", str(summary.shared_cc_degrees)))
    if summary.eigen_rel_gaps is not None:
        for i, gap in enumerate(summary.eigen_rel_gaps):
            rows.append((f"eigen_rel_gap_rank{i + 1}", _fmt(gap)))
        rows.append(("eigen_max_rel_gap", _fmt(summary.eigen_max_rel_gap)))
        rows.append(("eigen_mean_rel_gap", _fmt(summary.eigen_mean_rel_gap)))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, "metric,value", rows)

    config = {
        "metrics": ",".join(metrics),
        "top_k": args.top_k,
        "tol": args.tol,
        "seed": args.seed,
        "cc_floor": args.cc_floor,
    }
    inputs = {}
    if input_a.is_file():
        inputs["a"] = input_a
    if input_b.is_file():
        inputs["b"] = input_b
    manifest = _manifest("compare", argv, config, inputs)
    _finalize_manifest(manifest, out.parent, [out], out.with_name(out.name + ".manifest.json"))
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _core_label(c: float) -> str:
    return "core_c" + str(c).replace(".", "")


def cmd_audit(args, argv: list[str]) -> int:
    # the values are checked before any file is read: without a partition
    # kappa, the exact threshold and the core constants are never used
    if not 0.0 < args.kappa < 1.0:
        raise UsageError(f"--kappa must be in (0, 1), got {args.kappa}")
    if args.exact_threshold < 0:
        raise UsageError(f"--exact-threshold must be >= 0, got {args.exact_threshold}")
    try:
        core_constants = tuple(float(c) for c in args.core_constants.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --core-constants: {exc}") from exc
    if not all(0.0 < c < math.inf for c in core_constants):  # NaN fails too
        raise UsageError(
            f"--core-constants must be positive and finite, got {args.core_constants!r}"
        )
    labels = [_core_label(c) for c in core_constants]
    if len(set(labels)) < len(labels):
        raise UsageError(
            f"--core-constants {args.core_constants!r} give colliding columns {labels}"
        )
    profile = None
    if args.predict:
        try:
            n_str, gamma_str = args.predict.split(",")
            profile = _cli.predict_community_profile(int(float(n_str)), float(gamma_str))
        except (ValueError, OverflowError) as exc:  # int(float("inf")) overflows
            raise UsageError(f"bad --predict value {args.predict!r}: {exc}") from exc

    # Each step holds only what it needs, in the order that keeps the least
    # alive at once: the partition's block column first (the reader's rows
    # are freed before the graph is read), then the graph; the per-block
    # degrees, audited and freed; the block sizes, after which the block
    # column goes; and the triangle count last, when only the graph is
    # left. The graph goes before the manifest hashes its inputs.
    inputs: dict[str, Path] = {"graph": Path(args.graph)}
    assignment = None
    if args.partition:
        part_path = Path(args.partition)
        if not part_path.is_file():
            raise InputError(f"no such partition file: {part_path}")
        inputs["partition"] = part_path
        try:
            assignment = _cli.read_partition_csv(part_path)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    graph = _load_graph_file(args.graph)
    if assignment is not None and assignment.shape[0] != graph.n:
        raise InputError(f"partition covers {assignment.shape[0]} nodes, graph has {graph.n}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []

    import numpy as np

    # looked up in bter.metrics on each call, as compute_report does, so one
    # replacement there reaches both analyze and audit
    from .metrics import count_triangles_wedges

    if assignment is not None:
        ids, offsets, degrees = _cli.internal_degrees_by_block(graph, assignment)
        header = "block,s,expected_triangles,wedge_threshold,passes," + ",".join(labels)
        # blocks with equal internal-degree multisets (each block's degrees
        # are sorted) have equal audits, so each distinct one is audited and
        # its row text formatted once
        rows: dict[bytes, tuple[bool, str]] = {}
        passed = 0
        blocks_path = out_dir / "blocks.csv"
        with open(blocks_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for k, lo, hi in zip(ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
                d = degrees[lo:hi]
                key = d.tobytes()
                if key not in rows:
                    try:
                        audit = _cli.audit_community(
                            d,
                            kappa=args.kappa,
                            core_constants=core_constants,
                            exact_threshold=args.exact_threshold,
                        )
                    except ValueError as exc:
                        raise UsageError(str(exc)) from exc
                    rows[key] = audit.passes, ",".join((
                        _fmt(audit.s),
                        _fmt(audit.expected_triangles),
                        _fmt(audit.wedge_bound),
                        str(audit.passes).lower(),
                        *(str(audit.er_core[c][0]) for c in core_constants),
                    ))
                passes, text = rows[key]
                passed += passes
                fh.write(f"{k},{text}\n")
        outputs.append(blocks_path)
        total = len(ids)
        del ids, offsets, degrees, rows
        frac = passed / total if total else 0.0
        print(f"blocks passing kappa={args.kappa}: {passed}/{total} ({frac:.3f})")

        # realized block-size histogram, the counterpart of --predict
        # counted per distinct id: block ids need not be small or dense
        block_ids, block_sizes = np.unique(assignment, return_counts=True)
        del assignment
        realized = _cli.block_size_histogram(block_sizes[block_ids >= 0])
        realized_path = out_dir / "realized_sizes.csv"
        _write_rows(
            realized_path, "size,count", ((str(s), str(c)) for s, c in realized.items())
        )
        outputs.append(realized_path)

    triangles = count_triangles_wedges(graph, per_node=False).triangles
    edges = graph.edge_count
    del graph
    ok = _cli.kruskal_katona_check(triangles, edges)
    kk_path = out_dir / "kk.csv"
    _write_rows(kk_path, "triangles,edges,ok", [(str(triangles), str(edges), str(ok).lower())])
    outputs.append(kk_path)
    print(f"triangle/edge extremal bound holds: {ok}")

    if profile is not None:
        pred_path = out_dir / "predicted_profile.csv"
        _write_rows(
            pred_path,
            "size,predicted_count",
            ((str(d), _fmt(profile.counts[d])) for d in sorted(profile.counts)),
        )
        outputs.append(pred_path)
        print(f"largest predicted community size: {profile.d_bar}")

    config = {
        "kappa": args.kappa,
        "core_constants": args.core_constants,
        "exact_threshold": args.exact_threshold,
        "predict": args.predict,
    }
    manifest = _manifest("audit", argv, config, inputs)
    _finalize_manifest(manifest, out_dir, outputs, out_dir / "manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

_OUT_DESTS = {"generate": "out", "analyze": "out_dir", "compare": "out", "audit": "out_dir"}


def cmd_replay(args, argv: list[str]) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise InputError(f"no such manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise InputError(f"{manifest_path}: not a JSON manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: a manifest is a JSON object")
    recorded_argv = manifest.get("argv")
    if not isinstance(recorded_argv, list) or not all(
        isinstance(a, str) for a in recorded_argv
    ):
        raise InputError(f"{manifest_path}: manifest argv is not a list of strings")
    command = manifest.get("command")
    if command not in _OUT_DESTS:
        raise InputError(f"manifest command {command!r} cannot be replayed")
    # checked before the re-run: each output is a file under the replay
    # directory, mapped to its hash
    outputs = manifest.get("outputs")
    paths = [Path(rel) for rel in outputs] if isinstance(outputs, dict) else []
    if not paths or any(p.is_absolute() or ".." in p.parts or not p.parts for p in paths) or any(
        not isinstance(digest, str) for digest in outputs.values()
    ):
        raise InputError(f"{manifest_path}: manifest outputs must map relative paths to hashes")
    # the parser finds the output in any spelling it accepts (--out=X, --ou X)
    try:
        recorded = build_parser().parse_args(recorded_argv)
    except SystemExit as exc:
        print(f"replay: re-execution failed with exit code {exc.code}")
        return int(exc.code or EXIT_USAGE)
    if recorded.command != command:
        raise InputError(f"manifest argv is not a {command} run")
    dest = _OUT_DESTS[command]
    original_out = Path(getattr(recorded, dest))

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bter-replay-") as tmp:
        tmp_dir = Path(tmp)
        new_out = tmp_dir / original_out.name if dest == "out" else tmp_dir
        # argparse keeps the last value of a repeated option
        code = main([*recorded_argv, "--" + dest.replace("_", "-"), str(new_out)])
        if code != EXIT_OK:
            print(f"replay: re-execution failed with exit code {code}")
            return code

        base = new_out.parent if dest == "out" else new_out
        mismatches = []
        for rel, expected in sorted(outputs.items()):
            produced = base / rel
            if not produced.is_file():
                mismatches.append((rel, "missing"))
            elif _sha256(produced) != expected:
                mismatches.append((rel, "differs"))
        if mismatches:
            for rel, why in mismatches:
                print(f"replay: {rel}: {why}")
            return 1
    print(f"replay: {len(outputs)} outputs byte-identical")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bter",
        description="Generate and analyze block-model / Chung-Lu / ER graphs.",
    )
    parser.add_argument("--version", action="version", version=f"bter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a graph and write its edge list")
    g.add_argument("--model", choices=("bter", "cl", "er"), required=True)
    g.add_argument("--seed", type=int, help="RNG seed (required; may come from --config)")
    g.add_argument("--degrees", help="degree file: 'degree,count' CSV or one degree per line")
    g.add_argument("--from-graph", help="edge-list file whose degrees become the target")
    g.add_argument("--powerlaw", metavar="N,GAMMA,DMAX", help="synthesize a power-law sequence")
    g.add_argument("--n", type=int, help="node count (er model)")
    g.add_argument("--p", type=float, help="edge probability (er model)")
    g.add_argument("--rho", type=float, help="block connectivity base (default 0.95)")
    g.add_argument("--eta", type=float, help="block connectivity decay (default 0.05)")
    g.add_argument("--variant", choices=("standard", "cubic"), help="connectivity formula")
    g.add_argument("--manual-fraction", type=float, dest="manual_fraction",
                   help="fraction of degree-1 nodes wired manually (default 0.75)")
    g.add_argument("--d1-weight", type=float, dest="d1_weight",
                   help="CL weight of remaining degree-1 nodes (default 1.10)")
    g.add_argument("--q", type=int, help="paired degree-1 node count (even; default formula)")
    g.add_argument("--beta", type=float, help="duplicate-compensation proportion (default 0.10)")
    g.add_argument("--config", help="flat KEY=VALUE config file; flags win over file values")
    g.add_argument("--out", required=True, help="output edge-list path")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="compute metric CSVs for a graph")
    a.add_argument("--graph", required=True)
    a.add_argument("--metrics", default="degree,cc,triangles",
                   help="comma list from {degree,cc,triangles,spectrum}")
    a.add_argument("--top-k", type=int, default=25, dest="top_k")
    a.add_argument("--tol", type=float, default=1e-8)
    a.add_argument("--seed", type=int, default=0, help="spectrum starting-vector seed")
    a.add_argument("--out-dir", required=True, dest="out_dir")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("compare", help="divergence summary between two graphs/reports")
    c.add_argument("--graph-a", dest="graph_a")
    c.add_argument("--graph-b", dest="graph_b")
    c.add_argument("--report-a", dest="report_a", help="analyze output directory")
    c.add_argument("--report-b", dest="report_b", help="analyze output directory")
    c.add_argument("--metrics", default="degree,cc,triangles")
    c.add_argument("--top-k", type=int, default=25, dest="top_k")
    c.add_argument("--tol", type=float, default=1e-8)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--cc-floor", type=int, default=1, dest="cc_floor",
                   help="minimum node count per degree for the cc gap")
    c.add_argument("--out", required=True, help="output CSV path")
    c.set_defaults(func=cmd_compare)

    d = sub.add_parser("audit", help="theory checks: extremal bound, block audits, profile")
    d.add_argument("--graph", required=True)
    d.add_argument("--partition", help="partition CSV from a bter generate run")
    d.add_argument("--kappa", type=float, default=0.1)
    d.add_argument("--core-constants", default="0.25,0.5,1.0", dest="core_constants")
    d.add_argument("--exact-threshold", type=int, default=1000, dest="exact_threshold")
    d.add_argument("--predict", metavar="N,GAMMA", help="predicted block-size profile")
    d.add_argument("--out-dir", required=True, dest="out_dir")
    d.set_defaults(func=cmd_audit)

    r = sub.add_parser("replay", help="re-execute a manifest and diff the outputs")
    r.add_argument("--manifest", required=True)
    r.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args, list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:  # OSError: a path that cannot be read or made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def process_main() -> int:
    """``main`` for a process of its own: ``python -m bter.cli`` and ``bter``."""
    code = main()
    # Freezing the heap moves every live object to the collector's permanent
    # generation, so shutdown neither collects nor frees the object graphs
    # the imports built; the OS reclaims them. Atexit handlers, the flushing
    # of stdout and stderr and the exit code are as before, and ``main``
    # leaves the collector alone for callers whose process goes on. gc is
    # imported only here: imported with this module, it lifted the peak RSS
    # of a command without numpy (compare over reports) by ~0.13 MB.
    import gc

    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
