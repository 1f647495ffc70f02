"""A fixed reference job, timed beside the workload to track the machine's speed.

    python3 benchmark/reference.py KIND[,KIND...]

The runner starts it as its own process before and after every pass and
set-up, and scales the times it reports by how long this job took (see
run.py). It does no bter work, so no change to the program moves its time,
while a machine that runs slower for a minute slows both alike. The machine's
slow phases do not slow every kind of code alike, so each workload names the
kinds of work its passes do: interpreted loops (generation, writing), numpy
sorts (reading), set intersections over a large working set (triangles),
scans of arrays larger than the caches (per-block masks) or multithreaded
BLAS and sparse products (the eigensolver). The
job exits non-zero if a result is wrong, so a broken reference cannot pass
for a fast one.
"""

from __future__ import annotations

import sys

import numpy as np


def interpreted() -> bool:
    total, seen = 0, {}
    for i in range(500_000):
        key = (i * 2654435761) % 65_521
        seen[key] = seen.get(key, 0) + 1
        total += key & 7
    return total + len(seen) == 1_815_510


def arrays() -> bool:
    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 1 << 40, size=250_000)
    keys.sort()
    return int(np.unique(keys >> 20).size) == 222_353


def sets() -> bool:
    # triangle-like: neighbour sets of a random graph, intersected per edge
    rng = np.random.default_rng(777)
    n = 30_000
    edges = rng.integers(0, n, size=(120_000, 2)).tolist()
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return sum(len(nbrs[u] & nbrs[v]) for u, v in edges) == 335


def stream() -> bool:
    # memory-bound: whole-array scans of 64 MB, as per-block masks over all nodes
    a = np.arange(8_000_000, dtype=np.int64) % 1000
    return sum(int(np.count_nonzero(a == k)) for k in range(32)) == 32 * 8000


def blas() -> bool:
    import scipy.sparse as sp

    # Lanczos-like: a sparse product, then a projection against a tall basis
    rng = np.random.default_rng(54321)
    n, m = 10_000, 120
    rows, cols = rng.integers(0, n, size=(2, 100_000))
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    a = a + a.T
    basis = rng.standard_normal((n, m)) / np.sqrt(n)
    v = rng.standard_normal(n)
    for _ in range(200):
        w = a @ v
        w -= basis @ (basis.T @ w)
        v = w / np.linalg.norm(w)
    return bool(np.isfinite(v).all())


KINDS = {
    "interpreted": interpreted, "arrays": arrays, "sets": sets, "stream": stream, "blas": blas,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not set(argv[0].split(",")) <= set(KINDS):
        print(f"usage: reference.py KIND[,KIND...] with KIND in {sorted(KINDS)}",
              file=sys.stderr)
        return 2
    return 0 if all(KINDS[kind]() for kind in argv[0].split(",")) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
