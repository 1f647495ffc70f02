"""Core graph container, edge-stream cleaning, and edge-list file I/O.

Graphs are simple and undirected: no self-loops, no duplicate edges.
A graph holds its edges as sorted int64 keys ``u * max(n, 1) + v`` with
u < v, 8 B an edge, in lexicographic (u, v) order, which makes edge-list
output byte-stable. The samplers emit such keys, the merge sorts and
deduplicates them in place, and the reader turns its parsed rows into them
in their own buffer and returns the graph alone; the (m, 2) rows exist
only when ``Graph.edges`` is read. :class:`Graph`, :func:`build_graph`
and the reader refuse (ValueError) an n whose keys would not fit in
int64, that is n * (n - 1) > 2**63. A graph is immutable after
construction and safe for concurrent reads. Its degrees are counted on
first use and kept; its adjacency matrix is built from the keys by scipy
on each call to ``Graph.adjacency_csr`` and never kept, so a graph that
is only written counts nothing.

Ownership: a function said to take an array over (:func:`merge_keys`,
``_graph_of_pairs`` and ``generate._append``) works in that array's own
buffer. It may sort, overwrite and resize it in place
(``ndarray.resize(refcheck=False)``), and the graph it returns may hold
that very buffer. So the array must own its data (:func:`merge_keys`
raises ValueError on a view), the caller holds no view of it, and what it
held before the call is not kept. Functions that take a caller's pairs
(:class:`Graph`, :func:`build_graph`) never write to them.
"""

import os
import re
import warnings
from functools import partial
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:  # scipy is imported where it is used, by Graph.adjacency_csr alone
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


class EdgeStreamStats(NamedTuple):
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

    The graph holds its edges as ``keys``: the int64 ``u * max(n, 1) + v``
    of each edge, strictly increasing, 8 B an edge. :attr:`edges` builds
    the (m, 2) rows from them on each access; the package's own passes read
    the keys :meth:`edge_chunks` at a time instead. Degrees are counted on
    first use and kept. :meth:`adjacency_csr` builds a new scipy matrix from
    the keys on each call, and :meth:`has_edge` searches them.
    """

    __slots__ = ("n", "keys", "_degrees")

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n < 0:
            raise ValueError("node count must be non-negative")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint outside 0..n-1")
        keys = np.empty(len(edges), dtype=np.int64)
        if not _write_pair_keys(edges, keys, n)[2]:
            raise ValueError("edges must satisfy u < v, and be unique and sorted")
        self._adopt(n, keys)

    @classmethod
    def _canonical(cls, n: int, keys: np.ndarray) -> "Graph":
        """A graph on strictly increasing int64 keys that build_graph or
        merge_keys has made or checked, taken without a second check."""
        graph = cls.__new__(cls)
        graph._adopt(n, keys)
        return graph

    def _adopt(self, n: int, keys: np.ndarray) -> None:
        self.n = int(n)
        self.keys = keys
        self.keys.setflags(write=False)
        self._degrees = None

    def edge_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The (u, v) columns of the edges in key order, _WRITE_CHUNK edges
        at a time: each chunk divmods its slice of the keys, so a pass over
        them holds no m-long array of its own."""
        width = np.int64(max(self.n, 1))
        for lo in range(0, len(self.keys), _WRITE_CHUNK):
            yield np.divmod(self.keys[lo : lo + _WRITE_CHUNK], width)

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) canonical edge array, built from the keys on each
        access (16 B an edge, read-only)."""
        rows = np.empty((len(self.keys), 2), dtype=np.int64)
        np.divmod(self.keys, np.int64(max(self.n, 1)), out=(rows[:, 0], rows[:, 1]))
        rows.setflags(write=False)
        return rows

    @property
    def edge_count(self) -> int:
        return len(self.keys)

    @property
    def degrees(self) -> np.ndarray:
        """Each node's degree (read-only), counted on first use a chunk of
        edges at a time: no m-long or per-chunk n-long temporary."""
        if self._degrees is None:
            degrees = np.zeros(self.n, dtype=np.int64)
            for u, v in self.edge_chunks():
                np.add.at(degrees, u, 1)
                np.add.at(degrees, v, 1)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are joined: a search of the keys, which builds nothing."""
        u, v = min(u, v), max(u, v)
        # a pair out of range may share an edge's key: (-1, 8) on 7 nodes keys as (0, 1)
        if not 0 <= u < v < self.n:
            return False
        key = u * self.n + v
        i = np.searchsorted(self.keys, key)
        return bool(i < len(self.keys) and self.keys[i] == key)

    def adjacency_csr(self) -> "sp.csr_matrix":
        """Adjacency matrix as a scipy CSR matrix (0/1, float64, sorted
        indices), new on each call: adjacency_arrays of the edges, with
        float64 data made once the build's keys are freed."""
        import scipy.sparse as sp

        indptr, indices = adjacency_arrays(self.n, self.edge_chunks(), len(self.keys))
        return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(self.n, self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # equal n means equal key widths, so equal keys mean equal edges
        return self.n == other.n and np.array_equal(self.keys, other.keys)

    def __hash__(self):
        return hash((self.n, self.keys.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


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
    self-loops.

    The pairs become keys ``min * max(n, 1) + max``, _WRITE_CHUNK rows at
    a time, in a new buffer of 8 B a pair: the caller's pairs are never
    written (see the module docstring on ownership). A stream already
    canonical (u < v, rows unique and sorted), as every file write_edgelist
    writes is, is then the graph's keys; any other goes through merge_keys.
    """
    if not isinstance(edge_stream, np.ndarray):
        edge_stream = list(edge_stream)
    rows = np.asarray(edge_stream, dtype=np.int64).reshape(-1, 2)
    return _graph_of_pairs(rows, np.empty(len(rows), dtype=np.int64), n)


def _graph_of_pairs(
    rows: np.ndarray, buf: np.ndarray, n: int | None
) -> tuple[Graph, EdgeStreamStats]:
    """build_graph on the int64 (m, 2) rows, keyed into buf, which it takes
    over (see the module docstring on ownership).

    buf is a C-contiguous array of at least m int64 entries that owns its
    data, and may be the rows themselves: the reader passes its parsed
    array so, and the keys then land in the rows' own buffer, so the read
    peaks at their 16 B a pair. buf is shrunk to the keys and becomes the
    graph's keys, directly or through merge_keys.
    """
    raw = len(rows)
    if raw and rows.min() < 0:
        raise ValueError("node ids must be non-negative")
    inferred = int(rows.max()) + 1 if raw else 0
    if n is None:
        n = inferred
    elif n < inferred:
        raise ValueError(f"n={n} too small for max node id {inferred - 1}")
    size, self_loops, canonical = _write_pair_keys(rows, buf.reshape(-1), n)
    buf.resize(size, refcheck=False)
    if canonical:
        return Graph._canonical(n, buf), EdgeStreamStats(raw, 0, 0)
    return merge_keys(buf, n, self_loops)


def _write_pair_keys(rows: np.ndarray, out: np.ndarray, n: int) -> tuple[int, int, bool]:
    """Write the keys of the (m, 2) rows that are not self-loops to the
    front of out, in stream order, _WRITE_CHUNK rows at a time. Returns how
    many there are, the self-loops left out, and whether the rows were
    canonical. out may be the rows' own buffer: a chunk's keys land in
    slots no later than its rows', and only after those rows are read.
    Raises ValueError where n is too large for its keys to fit in int64.
    """
    check_keyable(n)
    size, self_loops, canonical = 0, 0, True
    for lo in range(0, len(rows), _WRITE_CHUNK):
        u, v = rows[lo : lo + _WRITE_CHUNK, 0], rows[lo : lo + _WRITE_CHUNK, 1]
        keys, loops = loop_free_keys(u, v, n)
        canonical = canonical and not loops and bool(
            (u < v).all()
            and (keys[1:] > keys[:-1]).all()
            and (size == 0 or keys[0] > out[size - 1])
        )
        out[size : size + len(keys)] = keys
        size += len(keys)
        self_loops += loops
    return size, self_loops, canonical


def check_keyable(n: int) -> None:
    """Raise ValueError where n nodes are too many for their edge keys
    ``u * n + v`` to fit in int64, that is n * (n - 1) > 2**63."""
    # the largest key, (n - 2) * n + n - 1, fits in int64 while n * (n - 1) <= 2**63
    if int(n) * (int(n) - 1) > 1 << 63:
        raise ValueError(f"n={n} nodes: edge keys u * n + v would overflow int64")


def adjacency_arrays(
    n: int, pairs: Iterable[tuple[np.ndarray, np.ndarray]], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row starts and column indices of the symmetric 0/1 adjacency matrix
    on nodes 0..n-1 of the m edges that pairs yields, as int64 (u, v)
    columns with u < v, chunk by chunk. The entries are the keys
    ``u * n + v`` and their turned copies ``v * n + u``, sorted together:
    row u's are u's neighbours in id order, the indices those keys mod n
    (int32 where ids and entries fit), and the row starts the running sum
    of the degrees, counted in the pass that makes the keys. The build
    peaks at about 24 B an edge: the 2m directed keys (16 B an edge) beside
    the int32 indices (8 B an edge)."""
    width = np.int64(max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)  # scipy narrows it to int32 where that fits
    directed = np.empty(2 * m, dtype=np.int64)
    at = 0
    for u, v in pairs:
        np.add.at(indptr[1:], u, 1)
        np.add.at(indptr[1:], v, 1)
        for a, b in ((u, v), (v, u)):
            key = directed[at : at + len(a)]
            np.multiply(a, width, out=key)
            key += b
            at += len(a)
    np.cumsum(indptr, out=indptr)
    directed.sort()
    indices = np.empty(2 * m, dtype=np.int32 if max(n, 2 * m) < 1 << 31 else np.int64)
    np.remainder(directed, width, out=indices, casting="unsafe")  # cast in the ufunc's buffers
    return indptr, indices


def loop_free_keys(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Keys ``min * max(n, 1) + max`` of the pairs (u[i], v[i]) that are not
    self-loops, in stream order, and the number of self-loops left out."""
    width = np.int64(max(n, 1))
    keys = np.minimum(u, v) * width
    keys += np.maximum(u, v)
    loops = u == v
    self_loops = int(loops.sum())
    return (keys[~loops] if self_loops else keys), self_loops


def merge_keys(
    keys: np.ndarray, n: int, self_loops: int = 0
) -> tuple[Graph, EdgeStreamStats]:
    """The simple graph on n nodes whose edges are the distinct keys.

    ``keys`` is a 1-d array of int64 keys ``u * max(n, 1) + v``, each of a
    pair u < v < n. ``self_loops`` counts the loop pairs the caller dropped
    before keying, so the stats account for the whole stream.

    The merge takes the array over (see the module docstring on ownership)
    and works in that one buffer: it sorts the keys in place, moves the
    distinct ones to the front _WRITE_CHUNK at a time and shrinks the array
    to them (``ndarray.resize``, a realloc). That array is the graph's
    keys, so the merge holds 8 B a key. An array that does not own its data
    (a view) raises ValueError before it is touched.
    """
    if not keys.flags.owndata:
        raise ValueError("merge_keys takes over an array that owns its data, not a view")
    # sort plus a neighbour mask: np.unique may take a slower hash path
    keys.sort()
    raw, size = len(keys), 0
    for lo in range(0, raw, _WRITE_CHUNK):
        chunk = keys[lo : lo + _WRITE_CHUNK]
        first = _run_starts(chunk)
        if lo:  # the chunk's first key against the one before it
            first[0] = chunk[0] != keys[size - 1]
        distinct = chunk[first]  # a copy: its slots may be written below
        keys[size : size + len(distinct)] = distinct
        size += len(distinct)
    keys.resize(size, refcheck=False)
    return Graph._canonical(n, keys), EdgeStreamStats(raw + self_loops, self_loops, raw - size)


def _declared_nodes(comment: str) -> int | None:
    """N if a stripped comment line is exactly a "# nodes N" header, else None."""
    tokens = comment[1:].split()
    if len(tokens) == 2 and tokens[0] == "nodes" and tokens[1].isdecimal():
        return int(tokens[1])
    return None


def parse_int64(token: str) -> int:
    """``int(token)``, or ValueError where that is outside int64."""
    value = int(token)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"integer {token!r} is outside int64")
    return value


def _parse_lines(path) -> tuple[np.ndarray, int | None]:
    """Line-by-line parser: the reference for what read_snap_edgelist accepts.

    Returns the (m, 2) pair array and the last "# nodes N" value. Raises
    EdgeListFormatError naming the first data line that is not exactly two
    integers (as ``int`` reads them) that fit in int64.
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
                u, v = parse_int64(tokens[0]), parse_int64(tokens[1])
            except ValueError:
                raise EdgeListFormatError(path, line_number, stripped) from None
            pairs.append((u, v))
    arr = (
        np.asarray(pairs, dtype=np.int64)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    return arr, declared_n


# File name endings numpy's loadtxt decompresses by itself.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def ascii_lines(path) -> Iterator[str]:
    """The lines of the file at path as :func:`loadtxt_by_name` reads it:
    ASCII text with universal newlines. Nothing for a name numpy would
    decompress; the lines stop where a byte is not ASCII, and
    loadtxt_by_name returns None for such a file. Read lazily, so a caller
    that stops early reads only the start of the file.
    """
    if str(path).endswith(_COMPRESSED):
        return
    with open(path, encoding="ascii") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            return


def loadtxt_by_name(path, **kwargs) -> np.ndarray | None:
    """np.loadtxt of the file at path, or None where it raises (a line it
    cannot parse, a byte that is not ASCII) or the file's name would have
    numpy decompress it.

    Given a name, np.loadtxt parses the file in blocks in C; given an open
    file, it reads it line by line in Python. The name is made absolute so
    that numpy never takes it for a URL, and the file is read as ASCII
    text with universal newlines, as :func:`ascii_lines` yields it.
    """
    name = os.path.abspath(path)
    if name.endswith(_COMPRESSED):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(name, encoding="ascii", **kwargs)
        except (ValueError, OSError, EOFError):
            return None


def _parse_fast(path) -> tuple[np.ndarray, int | None] | None:
    """np.loadtxt parser for ASCII files whose comments all come before the
    first data line; None where _parse_lines must decide.

    The leading blank and comment lines are read as _parse_lines reads
    them, for their "# nodes N" headers; np.loadtxt then skips them and
    parses the rest of the file by name with no comment character, its
    int64 fields accepting exactly the ASCII integers ``int`` does that fit
    in int64. Anything else (non-ASCII text, a '#' after the first data
    line, a line that is not two such integers) returns None.
    """
    declared_n: int | None = None
    skip = 0
    for line in ascii_lines(path):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            break
        declared = _declared_nodes(stripped)  # None for a blank line
        if declared is not None:
            declared_n = declared
        skip += 1
    arr = loadtxt_by_name(path, dtype=np.int64, comments=None, skiprows=skip, ndmin=2)
    if arr is None:
        return None
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), declared_n
    if arr.shape[1] != 2:
        return None
    return arr, declared_n


def _compact_ids(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr with each id replaced by its rank among the distinct ids, the
    number of distinct ids), from one argsort.
    """
    flat = arr.ravel()
    order = np.argsort(flat)
    first = _run_starts(flat[order])
    compact = np.empty_like(arr)  # its own buffer, which the reader's keys take over
    compact.reshape(-1)[order] = np.cumsum(first) - 1
    return compact, int(np.count_nonzero(first))


def read_snap_edgelist(path) -> Graph:
    """Read a SNAP-style edge list: '#' comment lines, two ids per data line.

    Directed inputs are symmetrized (every line is treated as an undirected
    pair) and self-loops and duplicates are dropped. A strict "# nodes N"
    comment (as written by :func:`write_edgelist`) declares the node count,
    and the ids are kept, so isolated nodes survive; otherwise node ids are
    compacted to 0..n-1 in ascending order of original id. Raises
    ValueError where n is too large for the graph's int64 keys.

    A file whose comments all come before its first data line is parsed by
    np.loadtxt (:func:`_parse_fast`); any other, or one that parse declines,
    is parsed line by line, which gives the same result or raises
    EdgeListFormatError naming the first bad line.
    """
    parsed = _parse_fast(path)
    arr, n = parsed if parsed is not None else _parse_lines(path)
    del parsed
    if n is None or (arr.size and int(arr.max()) >= n):
        arr, n = _compact_ids(arr)
    return _graph_of_pairs(arr, arr, n)[0]  # the keys take the rows' buffer


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
        for u, v in g.edge_chunks():
            write_rows(fh, "%d %d\n", (u, v))
