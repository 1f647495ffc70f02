"""Benchmark of the bter CLI: one closed-loop client running a workload's commands.

    python3 benchmark/run.py --workload fit|measure|spectrum --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
with no install step. ``--trace 0`` runs every command as a fresh
``python -m bter.cli`` process and reports the end-to-end metrics.
``--trace 1`` repeats the commands in-process through ``bter.cli.main`` with
per-layer spans recorded from outside the program (see tracing.py) and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, Command, hash_tree

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference.py")
# Gated times read as they would on a machine where reference.py, start-up
# included, takes REF_S seconds (0.5-1.2 s on the 2-core machine the bounds
# were set on, depending on the kinds of work and the machine's phase).
REF_S = 1.0
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3  # bare `bter --version` starts per traced run; cli.import_s is their median
TIME_LIMIT_S = 170.0  # a command still running this long after the start is killed

# Printed in the last line with --trace 0, in this order; BENCHMARK.json lists
# the same names. setup_s and edges_per_s are scaled by the reference job run
# beside them (see scale_to_reference); the raw times, the pass and the
# command times go to the report table only, as they follow the machine's
# speed as much as the program's.
END_TO_END = [
    ("setup_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MB"),
]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | str:
    """Threads of the OpenBLAS bundled with numpy's wheel; "unknown" for other builds."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    import numpy as np
    import scipy

    import bter

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "bter": bter.__version__,
        "commit": _git_commit(),
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BTER_THREADS", None)  # default --threads means the built-in default
    return env


def run_process(cmdline, cwd: Path, deadline: float) -> dict:
    """One child process: wall and CPU time, its own peak RSS, exit code."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmdline, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()[-500:]
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": code, "stderr": message}


def run_child(argv, cwd: Path, deadline: float) -> dict:
    """One `python -m bter.cli` process."""
    return run_process([sys.executable, "-m", "bter.cli", *argv], cwd, deadline)


def reference(kinds: str, cwd: Path, deadline: float) -> float:
    """Wall time of one reference.py process doing ``kinds`` of work."""
    res = run_process([sys.executable, str(REFERENCE), kinds], cwd, deadline)
    if res["code"] != 0:
        raise SystemExit(f"reference job exited {res['code']}: {res['stderr']}")
    return res["wall_s"]


def scale_to_reference(times, refs) -> list[float]:
    """Each time as it would read on a machine where the reference takes REF_S.

    ``refs`` were measured around and between ``times``. The host this was
    built on alternates between phases up to a third slower that last about
    a minute; the reference slows with the workload, so the ratio keeps what
    the program changed and drops most of what the machine did. A single
    reference job wavers by ±10%, so the scale is their mean over the run's
    set-ups or passes, not the pair around each time.
    """
    factor = REF_S / statistics.fmean(refs)
    return [t * factor for t in times]


def run_inprocess(cmd: Command, pass_dir: Path, tracer=None) -> dict:
    """One command through bter.cli.main in this process, cwd set to pass_dir."""
    from bter import cli

    pass_dir.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.run, tracer.side = f"{pass_dir.name}/{cmd.label}", cmd.side
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        with open("../inprocess.log", "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code, message = cli.main(list(cmd.argv)), ""
            except Exception:  # a crash is a failed command, not a failed benchmark
                code, message = -1, traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return {"wall_s": wall, "code": code, "stderr": message}


def set_up(workload, seed: int, work: Path, repeats: int, deadline: float, refs=None):
    """Build the inputs ``repeats`` times; returns the set-up times.

    The first copy, in work/setup, is the one the passes read. Every copy
    must hash the same, since the program is deterministic for a fixed seed.
    If ``refs`` is a list, a reference time is appended before the first
    build and after the last.
    """
    times, trees = [], []
    if refs is not None:
        refs.append(reference(workload.setup_reference, work, deadline))
    for i in range(repeats):
        d = work / ("setup" if i == 0 else f"setup-{i}")
        d.mkdir()
        start = time.perf_counter()
        for argv in workload.setup_argvs(seed):
            res = run_child(argv, d, deadline)
            if res["code"] != 0:
                raise SystemExit(f"set-up command {' '.join(argv)} exited {res['code']}: "
                                 f"{res['stderr']}")
        times.append(time.perf_counter() - start)
        trees.append(hash_tree(d))
        if i:
            shutil.rmtree(d)
    if refs is not None:
        refs.append(reference(workload.setup_reference, work, deadline))
    if any(t != trees[0] for t in trees):
        raise SystemExit("set-up outputs differ between repetitions with one seed")
    return times


# ---------------------------------------------------------------------------
# checks across passes
# ---------------------------------------------------------------------------


def _owner(commands: list[Command], rel: str) -> str:
    for cmd in commands:
        if rel.startswith(cmd.outputs):
            return cmd.label
    return commands[-1].label


def check_passes(workload, commands, pass_dirs, results, oracle):
    """Problems per (pass, command label), and the pass's edge count.

    The first pass is checked in full. A later pass must hash the same as
    the first, file by file; only a pass that does not is checked again.
    """
    problems, edges = [], 0
    first_tree = None
    first_problems: dict[str, list[str]] = {}
    for i, (d, res) in enumerate(zip(pass_dirs, results)):
        tree = hash_tree(d)
        if i == 0:
            first_problems, edges = workload.check(d, oracle)
            first_tree, found = tree, {k: list(v) for k, v in first_problems.items()}
        elif tree == first_tree:
            found = {k: list(v) for k, v in first_problems.items()}
        else:
            found, _ = workload.check(d, oracle)
            for rel in sorted(set(tree) | set(first_tree)):
                if tree.get(rel) != first_tree.get(rel):
                    found[_owner(commands, rel)].append(f"{rel} differs from pass 0")
        for cmd, r in zip(commands, res):
            if r["code"] != 0:
                found[cmd.label].append(f"exit code {r['code']}: {r['stderr']}")
        problems.append(found)
    return problems, edges


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, seed, seconds, work, deadline, tamper=None) -> dict:
    setup_refs, refs = [], []
    setup_times = set_up(workload, seed, work, SETUP_REPEATS, deadline, setup_refs)
    # Children start as copies of this process, so its own peak RSS is a floor
    # under theirs; the oracle therefore runs after the passes.
    runner_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    commands = workload.commands(seed)
    passes, pass_dirs = [], []
    start = time.perf_counter()
    refs.append(reference(workload.reference, work, deadline))
    while not passes or (time.perf_counter() - start
                         + _median([p["wall_s"] for p in passes]) / 2 < seconds):
        d = work / f"pass-{len(passes)}"
        d.mkdir()
        load_before = os.getloadavg()[0]
        t = time.perf_counter()
        cmds = [run_child(c.argv, d, deadline) for c in commands]
        passes.append({"wall_s": time.perf_counter() - t, "commands": cmds,
                       "load_before": load_before, "load_after": os.getloadavg()[0]})
        pass_dirs.append(d)
        refs.append(reference(workload.reference, work, deadline))
        if tamper is not None:
            tamper(d)
        if any(c["code"] != 0 for c in cmds):
            break  # a failing program is reported, not re-measured

    start = time.perf_counter()
    oracle = workload.oracle(work / "setup", seed)
    oracle_s = time.perf_counter() - start
    problems, edges = check_passes(workload, commands, pass_dirs,
                                   [p["commands"] for p in passes], oracle)
    walls = [p["wall_s"] for p in passes]
    scaled_walls = scale_to_reference(walls, refs)
    samples = {
        "setup_s": scale_to_reference(setup_times, setup_refs),
        "raw_setup_s": setup_times,
        "setup_ref_s": setup_refs,
        "ref_s": refs,
        "oracle_s": [oracle_s],
        "runner_rss_mb": [runner_rss_mb],
        "wall_s": walls,
        "edges_per_s": [edges / w for w in scaled_walls],
        "raw_edges_per_s": [edges / w for w in walls],
        "peak_rss_mb": [max(c["rss_mb"] for c in p["commands"]) for p in passes],
        "cpu_s": [sum(c["cpu_s"] for c in p["commands"]) for p in passes],
    }
    for i, cmd in enumerate(commands):
        samples[f"{cmd.label}_s"] = [p["commands"][i]["wall_s"] for p in passes]
    units = dict(END_TO_END, raw_setup_s="s", setup_ref_s="s", ref_s="s", oracle_s="s",
                 runner_rss_mb="MB", wall_s="s", raw_edges_per_s="edges/s", cpu_s="s",
                 **{f"{c.label}_s": "s" for c in commands})
    values = {name: _median(v) for name, v in samples.items()}
    # the closed loop's throughput: all edges over all measured time
    values["edges_per_s"] = edges * len(passes) / sum(scaled_walls)
    values["raw_edges_per_s"] = edges * len(passes) / sum(walls)
    return {"passes": passes, "problems": problems, "samples": samples, "units": units,
            "values": values, "metrics": {n: values[n] for n, _ in END_TO_END}}


def traced(workload, seed, seconds, work, deadline) -> dict:
    """In-process passes: untraced/traced pairs within ``seconds``, then one tracemalloc pass.

    Within a pair each command runs untraced and traced back to back, so
    drift in machine speed hits both alike; which side goes first alternates
    from command to command and pair to pair, so the warm caches the first
    side leaves favour neither. trace.overhead_s is the median over pairs of
    the traced minus the untraced pass time.
    """
    set_up(workload, seed, work, 1, deadline)
    probes = [run_child(("--version",), work, deadline)["wall_s"] for _ in range(IMPORT_PROBES)]
    os.environ.pop("BTER_THREADS", None)
    commands = workload.commands(seed)

    passes, pass_dirs, tracers = [], [], []
    start = time.perf_counter()
    # Another pair starts only if it should end within ``seconds``: the
    # tracemalloc pass after them is the longest part of the run.
    while not tracers or (time.perf_counter() - start + 2 * _median(
            [p["wall_s"] for p in passes]) <= seconds):
        i, tracer = len(tracers), tracing.Tracer()
        pair = [work / f"pass-untraced-{i}", work / f"pass-traced-{i}"]
        results = [[], []]
        load_before = os.getloadavg()[0]
        for j, cmd in enumerate(commands):
            for side in (0, 1) if (i + j) % 2 == 0 else (1, 0):
                if side:
                    with tracer.installed():
                        results[1].append(run_inprocess(cmd, pair[1], tracer))
                else:
                    results[0].append(run_inprocess(cmd, pair[0]))
        for name, d, cmds in zip(("untraced", "traced"), pair, results):
            passes.append({"mode": f"{name}-{i}", "wall_s": sum(c["wall_s"] for c in cmds),
                           "commands": cmds, "load_before": load_before,
                           "load_after": os.getloadavg()[0]})
            pass_dirs.append(d)
        tracers.append(tracer)
    peaks, d = tracing.PeakRecorder(), work / "pass-tracemalloc"
    load_before = os.getloadavg()[0]
    with peaks.installed():
        cmds = [run_inprocess(c, d) for c in commands]
    passes.append({"mode": "tracemalloc", "wall_s": sum(c["wall_s"] for c in cmds),
                   "commands": cmds, "load_before": load_before,
                   "load_after": os.getloadavg()[0]})
    pass_dirs.append(d)

    oracle = workload.oracle(work / "setup", seed)
    problems, _ = check_passes(workload, commands, pass_dirs,
                               [p["commands"] for p in passes], oracle)
    per_pair = [tracing.layer_metrics(t.spans, peaks.peak_mb) for t in tracers]
    samples = {name: [m[name] for m in per_pair] for name in per_pair[0]}
    samples["cli.import_s"] = probes
    samples["trace.overhead_s"] = [passes[2 * i + 1]["wall_s"] - passes[2 * i]["wall_s"]
                                   for i in range(len(tracers))]
    return {"passes": passes, "problems": problems, "units": dict(tracing.LAYER_METRICS),
            "spans": {f"traced-{i}": t.spans for i, t in enumerate(tracers)},
            "tree": tracing.SpanStats(tracers[0].spans).tree(), "samples": samples,
            "values": {name: _median(v) for name, v in samples.items()},
            "metrics": {name: _median(samples[name]) for name, _ in tracing.LAYER_METRICS}}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def summarize(result: dict) -> tuple[int, int]:
    attempted = sum(len(p["commands"]) for p in result["passes"])
    failed = sum(1 for found in result["problems"] for msgs in found.values() if msgs)
    return attempted, failed


def print_report(name, seed, trace, env, result, attempted, failed) -> None:
    print(f"# bter benchmark: workload={name} seed={seed} trace={trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "loadavg"))
    for i, p in enumerate(result["passes"]):
        walls = " ".join(f"{c['wall_s']:.3f}" for c in p["commands"])
        print(f"# pass {p.get('mode', i)}: wall {p['wall_s']:.3f} s, commands [{walls}] s, "
              f"loadavg {p['load_before']:.2f} -> {p['load_after']:.2f}")
    for i, found in enumerate(result["problems"]):
        for label, msgs in found.items():
            for msg in msgs:
                print(f"# FAILED pass {i} {label}: {msg}")
    if "tree" in result:
        print("# span tree: calls, total s, self s")
        for depth, span, calls, total, self_s in result["tree"]:
            print(f"#   {'  ' * depth}{span}: {calls}, {total:.4f}, {self_s:.4f}")
    samples = dict(result["samples"], failed_frac=[failed / attempted])
    values = dict(result["values"], failed_frac=failed / attempted)
    units = dict(result["units"], failed_frac="ratio")
    print("# value: the median of the samples, except *edges_per_s (all edges over all time);"
          f" setup_s and edges_per_s are scaled to a reference job of {REF_S} s")
    print(f"# {'metric':<44}{'value':>14}{'min':>14}{'max':>14}  {'unit':<8}n")
    for metric, vals in samples.items():
        print(f"# {metric:<44}{values[metric]:>14.6g}{min(vals):>14.6g}"
              f"{max(vals):>14.6g}  {units[metric]:<8}{len(vals)}")


def write_record(name, seed, trace, env, result) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {k: result[k] for k in ("samples", "values", "units", "problems")}
    record["env"] = env
    record["passes"] = result["passes"]
    if "spans" in result:
        record["spans_fields"] = ["id", "parent", "run", "name", "side", "start", "end"]
        record["spans"] = {
            key: [[s.id, s.parent, s.run, s.name, s.side, s.start - spans[0].start,
                   s.end - spans[0].start] for s in spans]
            for key, spans in result["spans"].items() if spans
        }
    path = out / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")


def run(name: str, seed: int, seconds: float, trace: int, scale: str = "full",
        tamper=None) -> dict:
    """Run one workload and return the result line as a dict.

    ``scale`` and ``tamper`` (called on each pass directory before the
    checks) exist for the benchmark's own tests.
    """
    if not (SRC / "bter" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'bter'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name](scale)
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base))
    try:
        if trace:
            result = traced(workload, seed, seconds, work, deadline)
        else:
            result = end_to_end(workload, seed, seconds, work, deadline, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    attempted, failed = summarize(result)
    print_report(name, seed, trace, env, result, attempted, failed)
    write_record(name, seed, trace, env, result)
    units = result["units"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    line = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
