"""BTER preprocessing: affinity blocks, per-block connectivity, excess degrees.

Nodes of degree 2+ are packed greedily (ascending degree) into blocks of
size bar_d + 1, where bar_d is the degree of the block's first node; each
block is later wired internally as an ER graph with probability rho_k, and
whatever degree the block cannot supply is carried into the Chung-Lu
interconnect phase as per-node excess.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .degrees import DegreeSequence
from .graph import read_ascii, write_rows

VARIANTS = ("standard", "cubic")

# Connectivity parameters fitted by hand in prior experiments, per dataset.
DATASET_FITS = {
    "ca-AstroPh": ("standard", 0.95, 0.05),
    "soc-Epinions1": ("standard", 0.70, 1.25),
    "ca-CondMat": ("standard", 0.95, 0.95),
    "cit-HepPh": ("cubic", 0.70, 0.60),
}


@dataclass(frozen=True)
class ConnectivityFormula:
    """Block edge probability as a function of the block's minimum degree.

    The standard variant evaluates rho * (1 - eta * x**2) and the cubic
    variant fixes rho=0.7, eta=0.6 with exponent 3, where
    x = log(bar_d + 1) / log(d_max + 1). Values are clamped to [0, 1].
    """

    variant: str = "standard"
    rho: float = 0.95
    eta: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "cubic":
            object.__setattr__(self, "rho", 0.7)
            object.__setattr__(self, "eta", 0.6)
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")

    @property
    def exponent(self) -> int:
        return 3 if self.variant == "cubic" else 2


def community_rho(bar_d: int, d_max: int, f: ConnectivityFormula) -> float:
    """Edge probability for a block with minimum degree bar_d."""
    if not 1 <= bar_d <= d_max:
        raise ValueError(f"need 1 <= bar_d <= d_max, got bar_d={bar_d} d_max={d_max}")
    ratio = math.log(bar_d + 1) / math.log(d_max + 1)
    value = f.rho * (1.0 - f.eta * ratio**f.exponent)
    return min(1.0, max(0.0, value))


def partition_communities(seq: DegreeSequence) -> tuple[np.ndarray, np.ndarray]:
    """Greedy block formation over the sorted degree sequence.

    Scanning nodes with degree >= 2 in ascending order, each block takes
    bar_d + 1 consecutive nodes where bar_d is its first node's degree; the
    final block takes whatever nodes remain. Degree-1 nodes are unassigned.
    Blocks are contiguous node ranges, returned as (block_start, block_size).
    """
    degrees = seq.degrees
    n = seq.n
    i = int(np.searchsorted(degrees, 2))
    # one pass per run of equal degree d: the blocks that start inside the run
    # are d + 1 apart, and the last of them may reach past the run's end
    run_ends = np.append(np.flatnonzero(np.diff(degrees[i:])) + i + 1, n)
    starts: list[np.ndarray] = []
    for end in run_ends.tolist():
        if i >= end:
            continue
        step = int(degrees[i]) + 1
        run = np.arange(i, end, step, dtype=np.int64)
        starts.append(run)
        i = int(run[-1]) + step
    block_start = np.concatenate(starts) if starts else np.empty(0, dtype=np.int64)
    block_size = np.diff(np.append(block_start, n))
    return block_start, block_size


def _members(
    block_start: np.ndarray, block_size: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(node, block) of every member of every block, block by block."""
    block = np.repeat(np.arange(len(block_size), dtype=np.int64), block_size)
    first = np.cumsum(block_size) - block_size  # each block's offset in the member list
    node = np.arange(block.size, dtype=np.int64) + (block_start - first)[block]
    return node, block


def excess_degrees(
    seq: DegreeSequence,
    block_start: np.ndarray,
    block_size: np.ndarray,
    rho_values: np.ndarray,
) -> np.ndarray:
    """Per-node excess degree: the Chung-Lu weight left after block wiring.

    Degree-1 nodes get excess 1; block members get d_i - rho_k*(size-1),
    clamped at 0 (the clamp cannot trigger under the size = bar_d + 1 rule
    but guards any partition fed in externally).
    """
    block_start = np.asarray(block_start, dtype=np.int64)
    block_size = np.asarray(block_size, dtype=np.int64)
    e = np.zeros(seq.n, dtype=np.float64)
    e[seq.degrees == 1] = 1.0
    node, block = _members(block_start, block_size)
    expected_internal = np.asarray(rho_values, dtype=np.float64) * (block_size - 1)
    e[node] = np.maximum(0.0, seq.degrees[node] - expected_internal[block])
    return e


@dataclass(frozen=True)
class CommunityPartition:
    """Full preprocessing result for one degree sequence.

    Block k is the contiguous node range
    block_start[k] .. block_start[k] + block_size[k] - 1.
    """

    block_start: np.ndarray  # per-block first node
    block_size: np.ndarray  # per-block node count
    assignment: np.ndarray  # node -> block id, -1 for unassigned degree-1 nodes
    bar_d: np.ndarray  # per-block minimum target degree
    rho: np.ndarray  # per-block ER probability
    excess: np.ndarray  # per-node excess degree

    @property
    def block_count(self) -> int:
        return len(self.block_size)

    def block_sizes(self) -> np.ndarray:
        return self.block_size.copy()


def preprocess(seq: DegreeSequence, f: ConnectivityFormula) -> CommunityPartition:
    """Partition, assign rho_k per block, and compute excess degrees.

    A short final block (fewer than bar_d + 1 nodes, because the sequence
    ran out) gets rho = 0, so its members carry their full degree as excess.
    """
    block_start, block_size = partition_communities(seq)
    bar_d = seq.degrees[block_start]
    # rho depends on bar_d alone: evaluate the scalar formula once per value
    values, which = np.unique(bar_d, return_inverse=True)
    rho = np.array([community_rho(b, seq.d_max, f) for b in values.tolist()])[which]
    if len(bar_d) and block_size[-1] < bar_d[-1] + 1:
        rho[-1] = 0.0
    assignment = np.full(seq.n, -1, dtype=np.int64)
    node, block = _members(block_start, block_size)
    assignment[node] = block
    excess = excess_degrees(seq, block_start, block_size, rho)
    return CommunityPartition(block_start, block_size, assignment, bar_d, rho, excess)


_PARTITION_HEADER = "node,block,bar_d,rho,excess"


def write_partition_csv(part: CommunityPartition, seq: DegreeSequence, path) -> None:
    """Dump "node,block,bar_d,rho,excess" rows (block -1 for unassigned)."""
    k = part.assignment
    assigned = k >= 0
    bar = np.zeros(seq.n, dtype=np.int64)
    bar[assigned] = part.bar_d[k[assigned]]
    rho = np.zeros(seq.n, dtype=np.float64)
    rho[assigned] = part.rho[k[assigned]]
    with open(path, "wb") as fh:
        fh.write(_PARTITION_HEADER.encode() + b"\n")
        write_rows(
            fh,
            "%d,%d,%d,%.12g,%.12g\n",
            (np.arange(seq.n), k, bar, rho, part.excess),
        )


def _partition_rows_by_line(path) -> tuple[list[int], list[int], list[float]]:
    """Line-by-line parser: the reference for what read_partition_csv accepts.

    Returns the node, block and excess columns in file order.
    """
    nodes: list[int] = []
    blocks: list[int] = []
    excess: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _PARTITION_HEADER:
            raise ValueError(f"{path}: unexpected partition header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}: bad partition row {line!r}")
            nodes.append(int(parts[0]))
            blocks.append(int(parts[1]))
            excess.append(float(parts[4]))
    return nodes, blocks, excess


def _partition_rows_fast(path) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One np.loadtxt pass over an ASCII partition dump; None where the line
    parser must decide (non-ASCII text, whitespace-only lines, a row that is
    not five fields with integer node and block and a float excess).
    """
    data = read_ascii(path)
    if data is None:
        return None
    header, _, body = data.partition(b"\n")
    if header.decode().strip() != _PARTITION_HEADER or not body or body.isspace():
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(body),
            dtype=[("node", np.int64), ("block", np.int64), ("excess", np.float64)],
            delimiter=",",
            usecols=(0, 1, 4),
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    # every row has at least five fields, so this many commas means exactly five
    if body.count(b",") != 4 * len(rows):
        return None
    return rows["node"], rows["block"], rows["excess"]


def read_partition_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a partition dump; returns (assignment, excess) arrays.

    Rows may appear in any node order but must cover 0..n-1 exactly once.
    Raises ValueError on a bad header, a row that is not five fields, a
    non-integer node or block id, or a node column with gaps or repeats.
    """
    parsed = _partition_rows_fast(path)
    nodes, blocks, excess = (
        parsed if parsed is not None else _partition_rows_by_line(path)
    )
    n = len(nodes)
    # np.sort of a list holding ids beyond int64 sorts Python ints (object dtype)
    if not np.array_equal(np.sort(nodes), np.arange(n)):
        raise ValueError(f"{path}: node column must cover 0..{n - 1} exactly once")
    nodes = np.asarray(nodes, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    exc = np.empty(n, dtype=np.float64)
    assignment[nodes] = blocks
    exc[nodes] = excess
    return assignment, exc
