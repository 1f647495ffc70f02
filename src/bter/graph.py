"""Core graph container, edge-stream cleaning, and edge-list file I/O.

Graphs are simple and undirected: no self-loops, no duplicate edges.
Edges are stored canonically as an (m, 2) int64 array with u < v per row,
sorted lexicographically, which makes edge-list output byte-stable.
A graph is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # scipy is imported where it is used: only the spectrum needs it
    import scipy.sparse as sp

# Rows formatted per string operation by the file writers.
_WRITE_CHUNK = 1 << 16


class EdgeListFormatError(ValueError):
    """A data line of an edge-list file could not be parsed."""

    def __init__(self, path, line_number: int, line: str):
        self.path = str(path)
        self.line_number = line_number
        self.line = line
        super().__init__(
            f"{path}:{line_number}: expected two integer node ids, got {line!r}"
        )


@dataclass(frozen=True)
class EdgeStreamStats:
    """Accounting of what edge-stream cleaning removed.

    Every sampled pair is accounted for:
    raw_edges == kept + self_loops_dropped + duplicates_dropped.
    """

    raw_edges: int
    self_loops_dropped: int
    duplicates_dropped: int

    @property
    def kept(self) -> int:
        return self.raw_edges - self.self_loops_dropped - self.duplicates_dropped


class Graph:
    """Simple undirected graph with dense node ids 0..n-1.

    Parameters
    ----------
    n : int
        Node count. May exceed the largest endpoint (isolated nodes allowed).
    edges : ndarray, shape (m, 2)
        Canonical edge array: u < v in every row, rows unique and sorted
        lexicographically. Use :func:`build_graph` to clean arbitrary input.
    """

    __slots__ = ("n", "edges", "_indptr", "_indices", "_degrees")

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n < 0:
            raise ValueError("node count must be non-negative")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint outside 0..n-1")
            if not (edges[:, 0] < edges[:, 1]).all():
                raise ValueError("edges must satisfy u < v")
            keys = edges[:, 0] * np.int64(n) + edges[:, 1]
            if not (np.diff(keys) > 0).all():
                raise ValueError("edges must be unique and lexicographically sorted")
        self.n = int(n)
        self.edges = edges
        self.edges.setflags(write=False)
        self._build_adjacency()

    def _build_adjacency(self) -> None:
        # edge j as (v_j, u_j) then (u_j, v_j), so its columns are the edge
        # array itself (no copy). Edges are sorted by (u, v), so a stable sort
        # by row alone lists row x's neighbours u < x ascending, then its
        # neighbours v > x ascending.
        rows = self.edges[:, ::-1].ravel()
        counts = np.bincount(rows, minlength=self.n)
        order = np.argsort(rows, kind="stable")
        del rows  # free before the gather
        self._indices = self.edges.ravel()[order]
        self._indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._degrees = np.diff(self._indptr)
        self._indices.setflags(write=False)
        self._degrees.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def degree(self, u: int) -> int:
        return int(self._degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (read-only view)."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def adjacency_csr(self) -> sp.csr_matrix:
        """Adjacency matrix as a scipy CSR matrix (0/1, float64)."""
        import scipy.sparse as sp

        data = np.ones(len(self._indices), dtype=np.float64)
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(self.n, self.n)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _as_pair_array(edge_stream) -> np.ndarray:
    if isinstance(edge_stream, np.ndarray):
        arr = edge_stream.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(edge_stream), dtype=np.int64)
    return arr.reshape(-1, 2)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def build_graph(
    edge_stream: Iterable[tuple[int, int]] | np.ndarray, n: int | None = None
) -> tuple[Graph, EdgeStreamStats]:
    """Build a simple undirected graph from a raw stream of node-id pairs.

    Self-loops and duplicate pairs (in either orientation) are discarded;
    the returned stats account for every input pair. Node ids must be
    non-negative. When ``n`` is not given it is inferred as max id + 1 over
    every id referenced in the stream, including endpoints of dropped
    self-loops. A stream that is already canonical (u < v, rows unique and
    sorted) becomes the graph's edge array without a copy, when it is an
    int64 array: the graph then shares it and marks it read-only.
    """
    arr = _as_pair_array(edge_stream)
    raw = arr.shape[0]
    if raw and arr.min() < 0:
        raise ValueError("node ids must be non-negative")
    inferred = int(arr.max()) + 1 if raw else 0
    if n is None:
        n = inferred
    elif n < inferred:
        raise ValueError(f"n={n} too small for max node id {inferred - 1}")

    width = np.int64(max(n, 1))
    u, v = arr[:, 0], arr[:, 1]
    if (u < v).all():
        keys = u * width + v
        if (keys[1:] > keys[:-1]).all():
            # already canonical, as every file write_edgelist writes is
            return Graph(n, arr), EdgeStreamStats(raw, 0, 0)
    loops = u == v
    self_loops = int(loops.sum())
    kept = arr[~loops] if self_loops else arr
    keys = np.minimum(kept[:, 0], kept[:, 1]) * width
    keys += np.maximum(kept[:, 0], kept[:, 1])
    # sort plus a neighbour mask: np.unique may take a slower hash path
    keys.sort()
    unique = keys[_run_starts(keys)]
    edges = np.column_stack(np.divmod(unique, width))
    stats = EdgeStreamStats(raw, self_loops, len(keys) - len(unique))
    return Graph(n, edges), stats


@dataclass(frozen=True)
class LoadedEdgeList:
    """A graph read from disk, with the id compaction map and cleaning stats.

    ``original_ids[i]`` is the id in the source file of compacted node i.
    """

    graph: Graph
    original_ids: np.ndarray
    stats: EdgeStreamStats


def _declared_nodes(comment: str) -> int | None:
    """N if a stripped comment line is exactly a "# nodes N" header, else None."""
    tokens = comment[1:].split()
    if len(tokens) == 2 and tokens[0] == "nodes" and tokens[1].isdigit():
        return int(tokens[1])
    return None


def _parse_lines(path) -> tuple[np.ndarray, int | None]:
    """Line-by-line parser: the reference for what read_snap_edgelist accepts.

    Returns the (m, 2) pair array and the last "# nodes N" value. Raises
    EdgeListFormatError naming the first data line that is not exactly two
    integers (as ``int`` reads them).
    """
    pairs: list[tuple[int, int]] = []
    declared_n: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                declared = _declared_nodes(stripped)
                if declared is not None:
                    declared_n = declared
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise EdgeListFormatError(path, line_number, stripped)
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListFormatError(path, line_number, stripped) from None
            pairs.append((u, v))
    arr = (
        np.asarray(pairs, dtype=np.int64)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    return arr, declared_n


def read_ascii(path) -> bytes | None:
    """A file's bytes with text-mode (universal) newlines, or None if it is
    not all ASCII, in which case only a text-mode line parser may read it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _parse_fast(path) -> tuple[np.ndarray, int | None] | None:
    """One-pass parser for ASCII files; None where _parse_lines must decide.

    Full-line comments are found by scanning for '#' and cut out, and the
    remaining text is parsed by np.loadtxt, whose int64 fields accept
    exactly the ASCII integers ``int`` does that fit in int64. Anything else
    (non-ASCII text, '#' after data on a line, a line that is not two such
    integers) returns None.
    """
    data = read_ascii(path)
    if data is None:
        return None
    declared_n: int | None = None
    view = memoryview(data)
    pieces = []
    kept_from = 0
    pos = data.find(b"#")
    while pos >= 0:
        line_start = data.rfind(b"\n", 0, pos) + 1
        line_end = data.find(b"\n", pos)
        if line_end < 0:
            line_end = len(data)
        if not data[line_start:pos].strip():  # a comment line: cut it out
            declared = _declared_nodes(data[line_start:line_end].decode().strip())
            if declared is not None:
                declared_n = declared
            pieces.append(view[kept_from:line_start])
            kept_from = line_end
        pos = data.find(b"#", line_end)
    pieces.append(view[kept_from:])
    body = b"".join(pieces)
    if not body or body.isspace():
        return np.empty((0, 2), dtype=np.int64), declared_n
    try:
        arr = np.loadtxt(io.BytesIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if arr.shape[1] != 2:
        return None
    return arr, declared_n


def _compact_ids(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct ids, arr with each id replaced by its rank among them),
    from one argsort.
    """
    flat = arr.ravel()
    order = np.argsort(flat)
    ranked = flat[order]
    first = _run_starts(ranked)
    original_ids = ranked[first]
    compact = np.empty_like(flat)
    compact[order] = np.cumsum(first) - 1
    return original_ids, compact.reshape(arr.shape)


def read_snap_edgelist(path) -> LoadedEdgeList:
    """Read a SNAP-style edge list: '#' comment lines, two ids per data line.

    Directed inputs are symmetrized (every line is treated as an undirected
    pair) and self-loops and duplicates are dropped. A strict "# nodes N"
    comment (as written by :func:`write_edgelist`) declares the node count,
    preserving isolated nodes with an identity id map; otherwise node ids
    are compacted to 0..n-1 in ascending order of original id.

    Files are parsed in one pass; a file that pass declines is parsed line by
    line, which gives the same result or raises EdgeListFormatError naming
    the first bad line.
    """
    parsed = _parse_fast(path)
    arr, declared_n = parsed if parsed is not None else _parse_lines(path)
    if declared_n is not None and (arr.size == 0 or int(arr.max()) < declared_n):
        original_ids = np.arange(declared_n, dtype=np.int64)
        compact = arr
        n = declared_n
    else:
        original_ids, compact = _compact_ids(arr)
        n = len(original_ids)
    graph, stats = build_graph(compact, n=n)
    return LoadedEdgeList(graph, original_ids, stats)


def write_rows(fh, row_format: str, columns) -> None:
    """Write ``row_format % row`` for each row of equal-length 1-d columns.

    Rows are formatted _WRITE_CHUNK at a time, one string operation each, so
    no Python object is held per row of the whole table.
    """
    for start in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [c[start : start + _WRITE_CHUNK].tolist() for c in columns]
        fh.write(row_format * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def write_edgelist(g: Graph, path) -> None:
    """Write a "# nodes N" header, then one "u v" line per edge, u < v,
    sorted lexicographically.

    Output is byte-exact for a fixed graph, and reading it back reproduces
    the graph exactly (the header carries nodes that appear on no edge
    line). The genuinely empty graph produces an empty file.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if g.n:
            fh.write(f"# nodes {g.n}\n")
        write_rows(fh, "%d %d\n", (g.edges[:, 0], g.edges[:, 1]))
