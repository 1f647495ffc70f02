"""BTER preprocessing: affinity blocks, per-block connectivity, excess degrees.

Nodes of degree 2+ are packed greedily (ascending degree) into blocks of
size bar_d + 1, where bar_d is the degree of the block's first node; each
block is later wired internally as an ER graph with probability rho_k, and
whatever degree the block cannot supply is carried into the Chung-Lu
interconnect phase as per-node excess. The blocks tile the nodes from the
first of degree 2 to n, so a partition is held per block, beside a
reference to the sequence's degrees: a node's block id is a binary search
of block_start, and its excess a repeat of its block's supply, each made
where needed.
"""

import math
from typing import NamedTuple

import numpy as np

from .degrees import DegreeSequence
from .graph import ascii_lines, loadtxt_by_name, parse_int64, write_rows

VARIANTS = ("standard", "cubic")

# Connectivity parameters fitted by hand in prior experiments, per dataset.
DATASET_FITS = {
    "ca-AstroPh": ("standard", 0.95, 0.05),
    "soc-Epinions1": ("standard", 0.70, 1.25),
    "ca-CondMat": ("standard", 0.95, 0.95),
    "cit-HepPh": ("cubic", 0.70, 0.60),
}


class _ConnectivityFormulaFields(NamedTuple):
    variant: str = "standard"
    rho: float = 0.95
    eta: float = 0.05


class ConnectivityFormula(_ConnectivityFormulaFields):
    """Block edge probability as a function of the block's minimum degree.

    The standard variant evaluates rho * (1 - eta * x**2) and the cubic
    variant fixes rho=0.7, eta=0.6 with exponent 3, where
    x = log(bar_d + 1) / log(d_max + 1). Values are clamped to [0, 1].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "cubic":
            self = super().__new__(cls, "cubic", 0.7, 0.6)
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and >= 0")
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace checks its values too
        return cls(*iterable)

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
    run_ends = np.append(np.flatnonzero(degrees[i + 1 :] != degrees[i:-1]) + i + 1, n)
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


class CommunityPartition(NamedTuple):
    """Full preprocessing result for one degree sequence: per-block arrays
    and the sequence's own degree array. Block k is the contiguous node
    range block_start[k] .. block_start[k] + block_size[k] - 1; the blocks
    tile the nodes from block_start[0] to n. The partition holds no
    node-long array of its own: the excess and the assignment are derived
    from the block arrays and the degrees on each access."""

    block_start: np.ndarray  # per-block first node
    block_size: np.ndarray  # per-block node count
    bar_d: np.ndarray  # per-block minimum target degree
    rho: np.ndarray  # per-block ER probability
    degrees: np.ndarray  # the sequence's degrees, not a copy

    @property
    def block_count(self) -> int:
        return len(self.block_size)

    @property
    def assignment(self) -> np.ndarray:
        """node -> block id, -1 for the unassigned nodes before the first
        block; an n-long array built on each access."""
        return np.searchsorted(self.block_start, np.arange(self.degrees.size), side="right") - 1

    @property
    def excess(self) -> np.ndarray:
        """node -> excess degree: d_i less its block's supply rho_k * (size_k - 1),
        clamped at 0 (the degree-1 nodes before the first block keep their 1);
        an n-long array built on each access, which the caller owns."""
        first = int(self.block_start[0]) if self.block_count else self.degrees.size
        e = np.repeat(np.append(0.0, self.rho * (self.block_size - 1)),
                      np.append(first, self.block_size))
        np.subtract(self.degrees, e, out=e)
        return np.maximum(0.0, e, out=e)


def preprocess(seq: DegreeSequence, f: ConnectivityFormula) -> CommunityPartition:
    """Partition, and assign rho_k per block.

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
    return CommunityPartition(block_start, block_size, bar_d, rho, seq.degrees)


_PARTITION_HEADER = "node,block,bar_d,rho,excess"
# Rows of the partition dump formatted at once. Its two %.12g columns cost a
# Python bytes object per distinct value, so a chunk of 2^14 rows (at most
# ~1.6 MB of text) keeps the writer's temporaries to a few MB.
_PARTITION_CHUNK = 1 << 14


def write_partition_csv(part: CommunityPartition, path) -> None:
    """Dump "node,block,bar_d,rho,excess" rows (block -1 for unassigned).

    The rows go out _PARTITION_CHUNK at a time, each chunk's columns built
    for it alone, so the writer holds no full-length column. A chunk's block
    ids are a running sum over the block starts inside it; they index the
    per-block values, whose last entry, 0, is block -1's.
    """
    n = part.degrees.size
    bar_d = np.append(part.bar_d, 0)
    rho = np.append(part.rho, 0.0)
    supply = np.append(part.rho * (part.block_size - 1), 0.0)
    with open(path, "wb") as fh:
        fh.write(_PARTITION_HEADER.encode() + b"\n")
        for lo in range(0, n, _PARTITION_CHUNK):
            hi = min(lo + _PARTITION_CHUNK, n)
            # block a holds node lo and block b node hi - 1 (-1: no block yet)
            a, b = np.searchsorted(part.block_start, (lo, hi - 1), side="right") - 1
            block = np.zeros(hi - lo, dtype=np.int64)
            block[0] = a
            block[part.block_start[a + 1 : b + 1] - lo] = 1
            np.cumsum(block, out=block)
            excess = np.maximum(0.0, part.degrees[lo:hi] - supply[block])
            columns = (np.arange(lo, hi), block, bar_d[block], rho[block], excess)
            write_rows(fh, "%d,%d,%d,%.12g,%.12g\n", columns)


def _partition_rows_by_line(path) -> tuple[list[int], list[int]]:
    """Line-by-line parser: the reference for what read_partition_csv accepts.

    Returns the node and block columns in file order. A row must be five
    fields: integer node and block ids that fit in int64, and an excess
    that ``float`` reads, which is checked and not kept.
    """
    nodes: list[int] = []
    blocks: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _PARTITION_HEADER:
            raise ValueError(f"{path}: unexpected partition header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:  # a row of other than five fields fails to unpack
                node, block, _, _, excess = line.split(",")
                float(excess)
                nodes.append(parse_int64(node))
                blocks.append(parse_int64(block))
            except ValueError:
                raise ValueError(f"{path}: bad partition row {line!r}") from None
    return nodes, blocks


def _partition_rows_fast(path) -> tuple[np.ndarray, np.ndarray] | None:
    """One np.loadtxt pass over an ASCII partition dump, by file name; None
    where the line parser must decide (non-ASCII text, no rows, a line of
    only whitespace, a row that is not five fields with integer node and
    block and a float excess).

    Only the header line is read in Python. np.loadtxt skips it and parses
    all five fields of each row, so a row of any other width raises; the
    bar_d and rho fields, which the line parser ignores, go to one-byte
    placeholders that take any text.
    """
    if next(ascii_lines(path), "").strip() != _PARTITION_HEADER:
        return None
    rows = loadtxt_by_name(
        path,
        dtype=[
            ("node", np.int64),
            ("block", np.int64),
            ("bar_d", "S1"),
            ("rho", "S1"),
            ("excess", np.float64),
        ],
        delimiter=",",
        comments=None,
        skiprows=1,
        ndmin=1,
    )
    if rows is None or not len(rows):
        return None
    return rows["node"], rows["block"]


def read_partition_csv(path) -> np.ndarray:
    """Read a partition dump; returns the node -> block array.

    Rows may appear in any node order but must cover 0..n-1 exactly once.
    Raises ValueError on a bad header, a row that is not five fields, a
    node or block id that is not an integer in int64, an excess that is not
    a number, or a node column with gaps or repeats.
    """
    parsed = _partition_rows_fast(path)
    nodes, blocks = parsed if parsed is not None else _partition_rows_by_line(path)
    n = len(nodes)
    # n ids, each in 0..n-1, that mark every node once: a permutation
    nodes = np.asarray(nodes, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    if n and nodes.min() >= 0 and nodes.max() < n:
        seen[nodes] = True
    if not seen.all():
        raise ValueError(f"{path}: node column must cover 0..{n - 1} exactly once")
    assignment = np.empty(n, dtype=np.int64)
    assignment[nodes] = blocks
    return assignment
