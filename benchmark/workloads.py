"""The benchmark's workloads: set-up, command sequence, oracle and output checks.

Every workload drives the ``bter`` CLI. A pass is one run of the workload's
command sequence inside its own directory, with the set-up inputs one level
up, so every pass (and every traced pass) sees byte-identical argv and
writes byte-identical manifests. Checks never import ``bter``: they parse the
files the program wrote and compare them with oracles built here from numpy
and scipy alone. numpy and scipy are imported only where the checks and
oracles need them, after the timed passes: a child process starts with the
runner's peak RSS as its ru_maxrss, so the runner stays near a bare
interpreter to keep peak_rss_mb the program's own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GAMMA = 2
SPECTRUM_TOL = 1e-8  # the --tol every spectrum command is given
EIGEN_RTOL = 1e-9  # oracle agreement; spectrum.csv carries 12 significant digits

# "full" is what the benchmark measures; "smoke" is the tiny size the
# benchmark's own tests run.
SCALES = {
    "fit": {"full": {"n": 300_000, "d_max": 2000}, "smoke": {"n": 3000, "d_max": 60}},
    "measure": {"full": {"n": 100_000, "d_max": 1000}, "smoke": {"n": 3000, "d_max": 60}},
    "spectrum": {
        "full": {"n": 10_000, "d_max": 100, "k": 25},
        "smoke": {"n": 600, "d_max": 30, "k": 10},
    },
}


@dataclass(frozen=True)
class Command:
    """One ``bter`` invocation of a pass.

    ``label`` names its per-command metric (``<label>_s``); ``side`` says
    which graph it works on ("bter", "cl", or None for both/neither), and
    becomes the ``.bter``/``.cl`` suffix of per-layer metrics. Every file
    the command writes starts with ``outputs``.
    """

    label: str
    side: str | None
    argv: tuple[str, ...]
    outputs: str


# ---------------------------------------------------------------------------
# helpers shared by the checks
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_tree(base: Path) -> dict[str, str]:
    """sha256 of every file under ``base``, keyed by relative path."""
    return {
        str(p.relative_to(base)): sha256(p) for p in sorted(base.rglob("*")) if p.is_file()
    }


def read_edgelist(path: Path):
    """``(n, edges)`` of a ``# nodes N`` edge list, parsed without the program's reader."""
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    if header[:2] != ["#", "nodes"] or len(header) != 3:
        raise ValueError(f"{path.name}: missing '# nodes N' header")
    edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return int(header[2]), edges.reshape(-1, 2)


def edgelist_problems(path: Path, n_expected: int) -> tuple[list[str], int]:
    """Canonical-form problems of a written edge list, and its edge count.

    write_edgelist promises u < v on every line and lines sorted with no
    repeats, so one flipped or altered line breaks the key order.
    """
    import numpy as np

    try:
        n, edges = read_edgelist(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"], 0
    problems = []
    if n != n_expected:
        problems.append(f"{path.name}: header says {n} nodes, expected {n_expected}")
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        if (u < 0).any() or (v >= n).any() or (u >= v).any():
            problems.append(f"{path.name}: an edge line is not 0 <= u < v < n")
        keys = u * np.int64(n) + v
        if (np.diff(keys) <= 0).any():
            problems.append(f"{path.name}: edge lines not strictly sorted")
    return problems, len(edges)


def manifest_problems(manifest: Path, base: Path) -> list[str]:
    """Files whose bytes no longer hash to what the command's manifest recorded."""
    try:
        recorded = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{manifest.name}: unreadable manifest ({exc})"]
    return [
        f"{rel}: hash differs from {manifest.name}"
        for rel, digest in recorded.items()
        if not (base / rel).is_file() or sha256(base / rel) != digest
    ]


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.split(",") for ln in lines[1:] if ln]


def csv_fields(path: Path) -> dict[str, str]:
    return {row[0]: row[1] for row in read_csv(path)}


def adjacency(path: Path):
    """Symmetric scipy CSR adjacency of an edge list."""
    import numpy as np
    import scipy.sparse as sp

    n, edges = read_edgelist(path)
    a = sp.coo_matrix(
        (np.ones(len(edges), dtype=np.int64), (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    return (a + a.T).tocsr()


def _guard(problems: dict[str, list[str]], label: str, check) -> None:
    """Run one command's check; a missing or malformed file is a failure."""
    try:
        problems[label] += check()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems[label].append(f"unreadable output: {exc!r}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name: str
    why: str
    reference: str  # the kinds of work reference.py does beside the passes
    setup_reference = "interpreted,arrays"  # ... beside the set-up, which generates
    setup_shrink = 1  # the set-up graphs have n and d_max divided by this

    def __init__(self, scale: str = "full"):
        self.p = SCALES[self.name][scale]

    def powerlaw(self, shrink: int = 1) -> str:
        return f"{self.p['n'] // shrink},{GAMMA},{self.p['d_max'] // shrink}"

    def setup_argvs(self, seed: int) -> list[tuple[str, ...]]:
        """bter commands that build the inputs, run inside a set-up directory."""
        return [
            ("generate", "--model", model, "--powerlaw", self.powerlaw(self.setup_shrink),
             "--seed", str(seed), "--out", f"{model}.txt")
            for model in ("bter", "cl")
        ]

    def oracle(self, setup_dir: Path, seed: int) -> dict:
        return {}

    def commands(self, seed: int) -> list[Command]:
        raise NotImplementedError

    def check(self, pass_dir: Path, oracle: dict) -> tuple[dict[str, list[str]], int]:
        """Problems per command label, and the edges the pass generated or analysed."""
        raise NotImplementedError


class Fit(Workload):
    name = "fit"
    why = ("generation only: preprocessing, per-block Phase 1 substreams, Phase 2, "
           "the CL skip loop and edge-list/partition writing do all the work")

    # fit reads no input. Its set-up is a warm-up: both generate commands at
    # a thirtieth of the size, which loads every module and runs every code
    # path the passes use, so work moved to import or first use shows in
    # setup_s.
    setup_shrink = 30
    reference = "interpreted,arrays,sets"

    def commands(self, seed):
        return [
            Command(f"generate_{model}", model,
                    ("generate", "--model", model, "--powerlaw", self.powerlaw(),
                     "--seed", str(seed), "--out", f"{model}.txt"), f"{model}.txt")
            for model in ("bter", "cl")
        ]

    def check(self, pass_dir, oracle):
        problems = {"generate_bter": [], "generate_cl": []}
        edges = {}

        def check_bter():
            out, edges["bter"] = edgelist_problems(pass_dir / "bter.txt", self.p["n"])
            trace = {k: int(v) for k, v in csv_fields(pass_dir / "bter.txt.trace.csv").items()
                     if k.startswith(("raw_", "kept_", "self_loops", "duplicates"))}
            raw = sum(v for k, v in trace.items() if k.startswith("raw_phase"))
            kept = sum(v for k, v in trace.items() if k.startswith("kept_phase"))
            if raw != trace["raw_edges"]:
                out.append(f"trace: sum(raw) {raw} != raw_edges {trace['raw_edges']}")
            if kept != edges["bter"]:
                out.append(f"trace: sum(kept) {kept} != {edges['bter']} edges in file")
            dropped = trace["self_loops_dropped"] + trace["duplicates_dropped"]
            if trace["raw_edges"] != kept + dropped:
                out.append("trace: raw_edges != kept + self_loops + duplicates")
            part = read_csv(pass_dir / "bter.txt.partition.csv")
            if sorted(int(row[0]) for row in part) != list(range(self.p["n"])):
                out.append("partition: node column does not cover 0..n-1 once")
            return out + manifest_problems(pass_dir / "bter.txt.manifest.json", pass_dir)

        def check_cl():
            out, edges["cl"] = edgelist_problems(pass_dir / "cl.txt", self.p["n"])
            return out + manifest_problems(pass_dir / "cl.txt.manifest.json", pass_dir)

        _guard(problems, "generate_bter", check_bter)
        _guard(problems, "generate_cl", check_cl)
        return problems, sum(edges.values())


def _degree_tv(a: dict[int, int], b: dict[int, int]) -> float:
    na, nb = sum(a.values()), sum(b.values())
    return 0.5 * sum(abs(a.get(d, 0) / na - b.get(d, 0) / nb) for d in set(a) | set(b))


class Measure(Workload):
    name = "measure"
    why = ("graph reading, triangles on a clustered and a hub-dominated graph, and "
           "the O(n*blocks) community audit")
    reference = "sets,stream"

    def oracle(self, setup_dir, seed):
        import numpy as np

        out = {}
        for model in ("bter", "cl"):
            a = adjacency(setup_dir / f"{model}.txt")
            deg = np.asarray(a.sum(axis=1)).ravel()
            values, counts = np.unique(deg, return_counts=True)
            out[model] = {
                "nodes": a.shape[0],
                "edges": a.nnz // 2,
                "triangles": int((a @ a).multiply(a).sum()) // 6,
                "wedges": int((deg * (deg - 1) // 2).sum()),
                "hist": {int(d): int(c) for d, c in zip(values, counts)},
            }
        return out

    def commands(self, seed):
        analyze = [
            Command(f"analyze_cc_{model}", model,
                    ("analyze", "--graph", f"../setup/{model}.txt",
                     "--metrics", "degree,cc,triangles", "--out-dir", f"analyze_{model}"),
                    f"analyze_{model}")
            for model in ("bter", "cl")
        ]
        return analyze + [
            Command("audit", "bter",
                    ("audit", "--graph", "../setup/bter.txt",
                     "--partition", "../setup/bter.txt.partition.csv",
                     "--predict", "1e6,2", "--out-dir", "audit"), "audit"),
            Command("compare", None,
                    ("compare", "--report-a", "analyze_bter", "--report-b", "analyze_cl",
                     "--out", "compare.csv"), "compare.csv"),
        ]

    def check(self, pass_dir, oracle):
        problems = {c.label: [] for c in self.commands(0)}

        def check_analyze(model):
            want, d = oracle[model], pass_dir / f"analyze_{model}"
            out = []
            tri = read_csv(d / "triangles.csv")[0]
            if (int(tri[0]), int(tri[1])) != (want["triangles"], want["wedges"]):
                out.append(f"triangles/wedges {tri[0]}/{tri[1]} != oracle "
                           f"{want['triangles']}/{want['wedges']}")
            summary = csv_fields(d / "summary.csv")
            if (int(summary["nodes"]), int(summary["edges"])) != (want["nodes"], want["edges"]):
                out.append("summary.csv node/edge counts differ from the oracle")
            if {int(a): int(b) for a, b in read_csv(d / "degree.csv")} != want["hist"]:
                out.append("degree.csv differs from the oracle histogram")
            return out + manifest_problems(d / "manifest.json", d)

        def check_audit():
            want, d = oracle["bter"], pass_dir / "audit"
            tri, edges, ok = read_csv(d / "kk.csv")[0]
            out = [] if ok == "true" else ["kk.csv reports ok=false"]
            if (int(tri), int(edges)) != (want["triangles"], want["edges"]):
                out.append(f"kk.csv triangles/edges {tri}/{edges} != oracle")
            return out + manifest_problems(d / "manifest.json", d)

        def check_compare():
            got = {k: float(v) for k, v in csv_fields(pass_dir / "compare.csv").items()}
            b, c = oracle["bter"], oracle["cl"]
            want = {
                "degree_tv": _degree_tv(b["hist"], c["hist"]),
                "global_c_gap": abs(3 * b["triangles"] / b["wedges"]
                                    - 3 * c["triangles"] / c["wedges"]),
            }
            return [f"compare.csv {k} {got.get(k)} != oracle {v:.12g}"
                    for k, v in want.items() if k not in got or abs(got[k] - v) > 1e-9]

        for model in ("bter", "cl"):
            _guard(problems, f"analyze_cc_{model}", lambda m=model: check_analyze(m))
        _guard(problems, "audit", check_audit)
        _guard(problems, "compare", check_compare)
        # analyze reads both graphs and audit reads the block-model one again
        return problems, 2 * oracle["bter"]["edges"] + oracle["cl"]["edges"]


class Spectrum(Workload):
    name = "spectrum"
    why = ("eigensolver only: repeated eigenvalues of disjoint dense blocks versus "
           "the near-degenerate top of a CL graph")
    reference = "blas"

    def oracle(self, setup_dir, seed):
        import numpy as np
        from scipy.sparse.linalg import eigsh

        out = {}
        for model in ("bter", "cl"):
            a = adjacency(setup_dir / f"{model}.txt").astype(np.float64)
            v0 = np.random.default_rng(seed).standard_normal(a.shape[0])
            vals = eigsh(a, k=self.p["k"], which="LA", v0=v0, tol=0)[0]
            out[model] = {"eigenvalues": np.sort(vals)[::-1], "edges": a.nnz // 2}
        return out

    def commands(self, seed):
        return [
            Command(f"analyze_spectrum_{model}", model,
                    ("analyze", "--graph", f"../setup/{model}.txt", "--metrics", "spectrum",
                     "--top-k", str(self.p["k"]), "--tol", repr(SPECTRUM_TOL),
                     "--out-dir", f"spectrum_{model}"), f"spectrum_{model}")
            for model in ("bter", "cl")
        ]

    def check(self, pass_dir, oracle):
        import numpy as np

        problems = {f"analyze_spectrum_{m}": [] for m in ("bter", "cl")}

        def check_side(model):
            d = pass_dir / f"spectrum_{model}"
            rows = read_csv(d / "spectrum.csv")
            vals = np.array([float(r[1]) for r in rows])
            res = np.array([float(r[2]) for r in rows])
            want = oracle[model]["eigenvalues"]
            out = []
            if (res > SPECTRUM_TOL).any():
                out.append(f"residual {res.max():.3e} > tol {SPECTRUM_TOL}")
            if vals.shape != want.shape:
                out.append(f"{len(vals)} eigenvalues, oracle has {len(want)}")
            elif (np.abs(vals - want) > EIGEN_RTOL * np.maximum(1.0, np.abs(want))).any():
                worst = int(np.argmax(np.abs(vals - want)))
                out.append(f"eigenvalue {worst + 1}: {vals[worst]!r} != oracle {want[worst]!r}")
            return out + manifest_problems(d / "manifest.json", d)

        for model in ("bter", "cl"):
            _guard(problems, f"analyze_spectrum_{model}", lambda m=model: check_side(m))
        return problems, oracle["bter"]["edges"] + oracle["cl"]["edges"]


WORKLOADS = {w.name: w for w in (Fit, Measure, Spectrum)}
