"""Core graph container, edge-stream cleaning, and edge-list file I/O.

Graphs are simple and undirected: no self-loops, no duplicate edges.
Edges are stored canonically as an (m, 2) int64 array with u < v per row,
sorted lexicographically, which makes edge-list output byte-stable.
A graph is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # scipy is imported where it is used: only the spectrum needs it
    import scipy.sparse as sp

# Rows the file writers build as one byte matrix: enough to spread the
# per-chunk numpy calls, few enough to keep the matrix and its digit
# temporaries to a few MB.
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
        self._adopt(n, edges)

    @classmethod
    def _canonical(cls, n: int, edges: np.ndarray) -> Graph:
        """A graph on an (m, 2) int64 array build_graph has made or checked
        canonical, taken without a second check."""
        graph = cls.__new__(cls)
        graph._adopt(n, edges)
        return graph

    def _adopt(self, n: int, edges: np.ndarray) -> None:
        self.n = int(n)
        self.edges = edges
        self.edges.setflags(write=False)
        # Row x lists its neighbours u < x ascending, then its neighbours
        # v > x ascending. Concatenated over rows, the upper runs are the v
        # column as it stands (edges are sorted by (u, v)) and the lower runs
        # are the u column sorted by (v, u), so each fills its own slots in
        # order: no argsort, no m-long position array.
        u, v = edges[:, 0], edges[:, 1]
        below = np.bincount(v, minlength=self.n)
        above = np.bincount(u, minlength=self.n)
        self._indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(below + above, out=self._indptr[1:])
        upper = np.repeat(
            np.tile([False, True], self.n), np.column_stack((below, above)).ravel()
        )
        del below, above
        self._indices = np.empty(2 * len(edges), dtype=np.int64)
        self._indices[upper] = v
        lower = v * np.int64(self.n)
        lower += u
        lower.sort()
        np.remainder(lower, self.n, out=lower)
        self._indices[~upper] = lower
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
            return Graph._canonical(n, arr), EdgeStreamStats(raw, 0, 0)
        del keys
    loops = u == v
    self_loops = int(loops.sum())
    kept = arr[~loops] if self_loops else arr
    keys = np.minimum(kept[:, 0], kept[:, 1]) * width
    keys += np.maximum(kept[:, 0], kept[:, 1])
    del kept
    # sort plus a neighbour mask: np.unique may take a slower hash path
    keys.sort()
    unique = keys[_run_starts(keys)]
    stats = EdgeStreamStats(raw, self_loops, len(keys) - len(unique))
    del keys
    edges = np.empty((len(unique), 2), dtype=np.int64)
    np.divmod(unique, width, out=(edges[:, 0], edges[:, 1]))
    del unique
    return Graph._canonical(n, edges), stats


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


_SPECIFIER = re.compile(r"%(d|\.12g)")


def _int_field(values: np.ndarray):
    """The width of the "%d" text of integer ``values``, and a function that
    writes that text into a (len, width) uint8 view, right-aligned: 0 in the
    unused leading slots, '-' in the first slot of a negative value's field
    (the zeros between it and the first digit drop out with the padding).
    """
    if values.dtype.kind not in "iu":
        raise TypeError(f'"%d" column must be integer, got {values.dtype}')
    # magnitudes as uint64 are exact for every int64, -2**63 included
    magnitude = values.astype(np.uint64)
    negative = values < 0
    signed = bool(negative.any())
    if signed:
        np.negative(magnitude, out=magnitude, where=negative)
    largest = int(magnitude.max())
    if largest < 1 << 32:  # digits from uint32 passes are cheaper
        magnitude = magnitude.astype(np.uint32)
    width = signed + len(str(largest))

    def fill(out: np.ndarray) -> None:
        if signed:
            out[:, 0] = np.where(negative, ord("-"), 0)
        rest = magnitude
        for slot in range(width - 1, signed - 1, -1):
            quotient = rest // 10
            digit = (rest - quotient * 10).astype(np.uint8)
            digit += ord("0")
            if slot < width - 1:  # a leading slot: blank once the value ran out
                digit[rest == 0] = 0
            out[:, slot] = digit
            rest = quotient

    return width, fill


def _float_field(values: np.ndarray):
    """The width of the "%.12g" text of float ``values``, and a function that
    writes that text into a (len, width) uint8 view, left-aligned. Each
    distinct float64 bit pattern (so -0.0 apart from 0.0) is formatted once
    by ``%``, and rows gather from that table.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, which = np.unique(bits, return_inverse=True)
    texts = [b"%.12g" % x for x in distinct.view(np.float64).tolist()]
    width = max(map(len, texts))
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    table = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
    return width, lambda out: np.take(table, which, axis=0, out=out)


def write_rows(fh, row_format: str, columns) -> None:
    """Write ``row_format % row`` for each row of equal-length 1-d columns
    to a file opened in binary mode, byte for byte as ``%`` writes it.

    ``row_format`` may hold only "%d" (integer columns) and "%.12g" (float
    columns) specifiers. Each chunk of _WRITE_CHUNK rows becomes one uint8
    matrix: a field per column, zero-padded to the widest value in the
    chunk, with the literal text between them as constant columns. The
    chunk's bytes are that matrix's nonzero entries in row-major order.
    """
    pieces = _SPECIFIER.split(row_format)
    if any("%" in text for text in pieces[::2]):
        raise ValueError(f"unsupported row format {row_format!r}: only %d and %.12g")
    if len(pieces) // 2 != len(columns):
        raise ValueError(f"row format {row_format!r} does not fit {len(columns)} columns")
    # the text around the specifiers: fields of constant columns
    literals = [
        (len(text), partial(np.copyto, src=np.frombuffer(text.encode("ascii"), np.uint8)))
        for text in pieces[::2]
    ]
    formatters = [_int_field if spec == "d" else _float_field for spec in pieces[1::2]]
    columns = [np.asarray(c) for c in columns]
    for start in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [c[start : start + _WRITE_CHUNK] for c in columns]
        fields = literals[:1]
        for format_, values, literal in zip(formatters, chunk, literals[1:]):
            fields += [format_(values), literal]
        matrix = np.empty((len(chunk[0]), sum(w for w, _ in fields)), dtype=np.uint8)
        at = 0
        for width, fill in fields:
            fill(matrix[:, at : at + width])
            at += width
        fh.write(matrix[matrix != 0])


def write_edgelist(g: Graph, path) -> None:
    """Write a "# nodes N" header, then one "u v" line per edge, u < v,
    sorted lexicographically.

    Output is byte-exact for a fixed graph, and reading it back reproduces
    the graph exactly (the header carries nodes that appear on no edge
    line). The genuinely empty graph produces an empty file.
    """
    with open(path, "wb") as fh:
        if g.n:
            fh.write(b"# nodes %d\n" % g.n)
        write_rows(fh, "%d %d\n", (g.edges[:, 0], g.edges[:, 1]))
