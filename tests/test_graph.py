import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bter.graph
from bter.graph import (
    EdgeListFormatError,
    EdgeStreamStats,
    Graph,
    build_graph,
    merge_keys,
    read_snap_edgelist,
    write_edgelist,
    write_rows,
)
from conftest import LINE_ENDS, with_line_ends

edge_streams = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60
)


def test_build_graph_drops_loops_and_duplicates():
    g, stats = build_graph([(0, 1), (1, 0), (2, 2)])
    assert g.edges.tolist() == [[0, 1]]
    assert g.n == 3  # node 2 was referenced, stays as an isolated node
    assert (stats.raw_edges, stats.self_loops_dropped, stats.duplicates_dropped) == (3, 1, 1)
    assert stats.kept == 1


def test_build_graph_empty():
    g, stats = build_graph([])
    assert g.n == 0 and g.edge_count == 0
    assert stats == type(stats)(0, 0, 0)


def test_build_graph_triangle_already_clean():
    g, stats = build_graph([(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert stats.duplicates_dropped == stats.self_loops_dropped == 0


def test_build_graph_rejects_negative_ids():
    with pytest.raises(ValueError):
        build_graph([(0, -1)])


def test_build_graph_rejects_small_n():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], n=3)


@given(
    st.integers(0, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))))
        .map(lambda s: sorted((u, v) for u, v in s if u < v)),
    )),
)
def test_graph_keys_are_canonical_and_edges_round_trip(case):
    n, rows = case
    arr = np.array(rows, dtype=np.int64).reshape(-1, 2)
    g = Graph(n, arr)
    width = max(n, 1)
    assert g.keys.dtype == np.int64 and g.keys.ndim == 1 and not g.keys.flags.writeable
    assert g.keys.tolist() == [u * width + v for u, v in rows]
    assert (np.diff(g.keys) > 0).all()
    assert g.edges.shape == (len(rows), 2) and not g.edges.flags.writeable
    assert g.edges.tolist() == arr.tolist()
    assert Graph(n, g.edges) == g
    assert g.degrees.tolist() == np.bincount(arr.ravel(), minlength=n).tolist()


def test_graph_constructor_validates_canonical_form():
    with pytest.raises(ValueError):
        Graph(3, np.array([[1, 0]]))  # u >= v
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1], [0, 1]]))  # duplicate


def test_build_graph_checks_once():
    # build_graph hands the array it checked or built to Graph without
    # Graph's own checks, on the canonical path and on the dedupe path
    with mock.patch.object(Graph, "__init__", side_effect=AssertionError("checked twice")):
        for stream in ([(0, 1), (1, 2)], [(2, 1), (0, 1), (1, 2), (3, 3)]):
            g, _ = build_graph(stream, n=4)
            assert g.edges.tolist() == [[0, 1], [1, 2]]
            assert g.degrees.tolist() == [1, 2, 1, 0]


@given(edge_streams)
def test_build_graph_order_insensitive(stream):
    g1, _ = build_graph(stream, n=12)
    g2, _ = build_graph(list(reversed(stream)), n=12)
    assert g1 == g2


@given(edge_streams)
def test_stats_account_for_every_pair(stream):
    g, stats = build_graph(stream, n=12)
    assert stats.raw_edges == len(stream)
    assert stats.kept == g.edge_count
    assert stats.raw_edges == g.edge_count + stats.self_loops_dropped + stats.duplicates_dropped


@given(edge_streams)
def test_degree_sum_handshake(stream):
    g, _ = build_graph(stream, n=12)
    assert int(g.degrees.sum()) == 2 * g.edge_count


@given(edge_streams)
def test_adjacency_symmetry(stream):
    g, _ = build_graph(stream, n=12)
    for u, v in g.edges:
        assert g.has_edge(u, v) and g.has_edge(v, u)
    adjacency = g.adjacency_csr()
    for u in range(g.n):
        nbrs = adjacency[u].indices
        assert (np.diff(nbrs) > 0).all()  # sorted, no duplicates
        assert g.degree(u) == len(nbrs)


@given(edge_streams, st.integers(0, 3))
def test_has_edge_matches_a_set_on_every_pair(stream, isolated):
    # pairs out of range, in either order, are not edges, even where their
    # key u * n + v is an edge's key
    inferred = max((max(pair) for pair in stream), default=-1) + 1
    n = inferred + isolated
    g, _ = build_graph(stream, n=n)
    edges = {(u, v) for u, v in stream if u != v} | {(v, u) for u, v in stream if u != v}
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert g.has_edge(u, v) == ((u, v) in edges), (u, v)


def test_read_snap_symmetrizes(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# c\n1 2\n2 1\n")
    g = read_snap_edgelist(path)
    assert g.n == 2
    assert g.edges.tolist() == [[0, 1]]  # ids 1 and 2 become 0 and 1


def test_read_snap_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\na b\n")
    with pytest.raises(EdgeListFormatError) as err:
        read_snap_edgelist(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("line", ["1 9223372036854775808", "-9223372036854775809 0"])
def test_read_snap_names_an_id_beyond_int64(tmp_path, line):
    path = tmp_path / "wide.txt"
    path.write_text(f"0 1\n{line}\n")
    with pytest.raises(EdgeListFormatError) as err:
        read_snap_edgelist(path)
    assert err.value.line_number == 2


def test_read_snap_wrong_token_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(EdgeListFormatError):
        read_snap_edgelist(path)


def test_read_snap_compacts_sparse_ids(tmp_path):
    path = tmp_path / "sparse.txt"
    path.write_text("100 7\n7 9000\n")
    g = read_snap_edgelist(path)
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [0, 2]]  # 7, 100 and 9000 become 0, 1 and 2


def test_read_snap_honors_node_count_header(tmp_path):
    path = tmp_path / "declared.txt"
    path.write_text("# nodes 5\n0 1\n")
    g = read_snap_edgelist(path)
    assert g.n == 5
    assert g.edges.tolist() == [[0, 1]]


def test_read_snap_ignores_inconsistent_header(tmp_path):
    path = tmp_path / "stale.txt"
    path.write_text("# nodes 2\n10 20\n")  # ids exceed the declared count
    g = read_snap_edgelist(path)
    assert g.n == 2
    assert g.edges.tolist() == [[0, 1]]  # compacted: 10 and 20 become 0 and 1


def test_read_snap_ignores_snap_style_headers(tmp_path):
    path = tmp_path / "snapstyle.txt"
    path.write_text("# Nodes: 23133 Edges: 186878\n5 6\n")
    g = read_snap_edgelist(path)
    assert g.n == 2 and g.edges.tolist() == [[0, 1]]  # compaction path, header not ours


def test_node_count_header_needs_digits_int_reads(tmp_path):
    # '\u00b2'.isdigit() holds but int() rejects it: the line is a plain comment
    path = tmp_path / "super.txt"
    path.write_text("# nodes \u00b2\n5 6\n", encoding="utf-8")
    assert bter.graph._parse_fast(path) is None  # non-ASCII: the line parser decides
    arr, declared_n = bter.graph._parse_lines(path)
    assert arr.tolist() == [[5, 6]] and declared_n is None
    g = read_snap_edgelist(path)
    assert g.n == 2 and g.edges.tolist() == [[0, 1]]  # 5 and 6 compacted
    path.write_text("# nodes 4\n1 2\n", encoding="utf-8")
    for parse in (bter.graph._parse_fast, bter.graph._parse_lines):
        arr, declared_n = parse(path)
        assert arr.tolist() == [[1, 2]] and declared_n == 4


def test_read_snap_holds_no_node_long_array(tmp_path):
    # a "# nodes N" header keeps the file's ids: the read builds no id map,
    # and the graph counts no degrees until they are asked for
    import tracemalloc

    path = tmp_path / "sparse.txt"
    path.write_text("# nodes 2000000\n0 1\n")
    tracemalloc.start()
    try:
        g = read_snap_edgelist(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # an identity id map took 16 MB
    assert g.n == 2_000_000 and g.edges.tolist() == [[0, 1]]


@pytest.mark.parametrize("n", [4_000_000_000, 99999999999999999999])
@pytest.mark.parametrize("edges", ["0 1\n", ""])
def test_read_snap_refuses_n_whose_keys_overflow(tmp_path, n, edges):
    path = tmp_path / "huge.txt"
    path.write_text(f"# nodes {n}\n{edges}")
    with pytest.raises(ValueError, match=f"n={n} "):
        read_snap_edgelist(path)


def test_build_graph_refuses_n_whose_keys_overflow():
    # the key u * n + v of the last pair wrapped: this returned the edge
    # [-611686020, 2290448383]
    pair = np.array([[3999999998, 3999999999]])
    for n in (4_000_000_000, None):
        with pytest.raises(ValueError, match="n=4000000000 "):
            build_graph(pair, n=n)
    with pytest.raises(ValueError, match="n=4000000000 "):
        Graph(4_000_000_000, pair)
    # the largest n whose keys fit: n * (n - 1) <= 2**63
    n = 3_037_000_500
    assert n * (n - 1) <= 2**63 < (n + 1) * n
    g, _ = build_graph(np.array([[n - 2, n - 1]]), n=n)
    assert g.keys.tolist() == [(n - 2) * n + n - 1] and g.edges.tolist() == [[n - 2, n - 1]]
    with pytest.raises(ValueError, match=f"n={n + 1} "):
        build_graph(np.array([[n - 1, n]]))


def test_write_triangle(tmp_path):
    g, _ = build_graph([(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "k3.txt"
    write_edgelist(g, path)
    assert path.read_text() == "# nodes 3\n0 1\n0 2\n1 2\n"


def test_write_empty_graph_is_empty_file(tmp_path):
    g, _ = build_graph([])
    path = tmp_path / "empty.txt"
    write_edgelist(g, path)
    assert path.read_text() == ""


def test_write_preserves_isolated_nodes(tmp_path):
    g, _ = build_graph([(0, 1)], n=4)
    path = tmp_path / "iso.txt"
    write_edgelist(g, path)
    assert read_snap_edgelist(path) == g


@given(edge_streams)
def test_write_read_round_trip(tmp_path_factory, stream):
    g, _ = build_graph(stream, n=12)
    path = tmp_path_factory.mktemp("rt") / "g.txt"
    write_edgelist(g, path)
    assert read_snap_edgelist(path) == g


def test_generated_graph_round_trips(tmp_path):
    # generated graphs routinely contain isolated nodes; the round trip
    # must still be the identity
    from bter.degrees import synthesize_powerlaw
    from bter.generate import GenerationConfig, generate_bter

    seq = synthesize_powerlaw(800, 2.0, 28)
    g, _ = generate_bter(seq, GenerationConfig(seed=21))
    assert (g.degrees == 0).any()
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    assert read_snap_edgelist(path) == g


# ---------------------------------------------------------------------------
# fast paths against the code they replace
# ---------------------------------------------------------------------------


def build_graph_by_unique(arr: np.ndarray, n: int):
    """build_graph as it was before canonical streams skipped np.unique."""
    loops = arr[:, 0] == arr[:, 1]
    kept = arr[~loops]
    lo = np.minimum(kept[:, 0], kept[:, 1])
    hi = np.maximum(kept[:, 0], kept[:, 1])
    keys = np.unique(lo * np.int64(max(n, 1)) + hi)
    edges = np.column_stack(np.divmod(keys, np.int64(max(n, 1))))
    stats = EdgeStreamStats(len(arr), int(loops.sum()), len(kept) - len(keys))
    return Graph(n, edges), stats


@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=80),
    st.sampled_from(["canonical", "shuffled", "flipped", "duplicated", "looped"]),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 2, 7, None]),
)
def test_build_graph_matches_unique_path(pairs, shape, rnd, chunk):
    canonical = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    stream = list(canonical)
    if shape == "shuffled":
        rnd.shuffle(stream)
    elif shape == "flipped":
        stream = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in stream]
    elif shape == "duplicated":
        stream = sorted(stream + rnd.sample(stream, len(stream) // 2))
    elif shape == "looped":
        stream = list(pairs)  # raw: loops, duplicates, any order
    arr = np.array(stream, dtype=np.int64).reshape(-1, 2)
    ref_g, ref_stats = build_graph_by_unique(arr, 16)
    with mock.patch.object(bter.graph, "_WRITE_CHUNK", chunk or bter.graph._WRITE_CHUNK):
        assert build_graph(arr, n=16) == (ref_g, ref_stats)


def test_build_graph_holds_only_keys_and_leaves_the_callers_array():
    arr = np.array([[0, 1], [0, 3], [2, 3]], dtype=np.int64)
    before = arr.copy()
    g, stats = build_graph(arr, n=5)
    assert stats == EdgeStreamStats(3, 0, 0)
    assert Graph.__slots__ == ("n", "keys", "_degrees")
    assert g.keys.tolist() == [1, 3, 13] and g.keys.dtype == np.int64
    assert g._degrees is None  # not counted yet
    assert not np.shares_memory(g.keys, arr)
    assert np.array_equal(arr, before) and arr.flags.writeable
    assert g.edges.tolist() == before.tolist()


def test_build_graph_keys_a_handed_over_array_in_its_own_buffer(tmp_path, monkeypatch):
    # build_graph always keys into a new buffer; the reader hands its
    # parsed rows over, and they take their keys in place
    write_pair_keys = bter.graph._write_pair_keys
    in_place = []

    def spy(rows, out, n):
        in_place.append(np.shares_memory(rows, out))
        return write_pair_keys(rows, out, n)

    monkeypatch.setattr(bter.graph, "_write_pair_keys", spy)
    rows = np.array([[0, 1], [0, 3], [2, 3]], dtype=np.int64)
    held = build_graph(rows, n=5)
    path = tmp_path / "g.txt"
    path.write_text("# nodes 5\n0 1\n0 3\n2 3\n")
    assert read_snap_edgelist(path) == held[0]
    assert in_place == [False, True]


@pytest.mark.parametrize("kind", ["list", "int64", "int32"])
@pytest.mark.parametrize("shape", ["canonical", "shuffled", "looped"])
def test_build_graph_never_writes_or_shares_its_input(kind, shape):
    pairs = {
        "canonical": [(0, 1), (0, 3), (2, 3), (3, 4)],
        "shuffled": [(3, 4), (1, 0), (2, 3), (0, 1), (3, 0)],
        "looped": [(2, 2), (3, 4), (4, 3), (0, 1), (1, 1)],
    }[shape]
    expected = build_graph_by_unique(np.array(pairs, dtype=np.int64), 6)
    if kind == "list":
        stream = list(pairs)
        assert build_graph(stream, n=6) == expected
        assert stream == pairs
        return
    stream = np.array(pairs, dtype=np.int64 if kind == "int64" else np.int32)
    before = stream.copy()
    g, stats = build_graph(stream, n=6)
    assert (g, stats) == expected
    assert not np.shares_memory(g.keys, stream)
    assert np.array_equal(stream, before) and stream.dtype == before.dtype
    assert stream.flags.writeable


def merge_by_unique(keys: np.ndarray, n: int, self_loops: int):
    """merge_keys by np.unique: the graph and stats it must return."""
    distinct = np.unique(keys)
    edges = np.column_stack(np.divmod(distinct, np.int64(max(n, 1)))).reshape(-1, 2)
    stats = EdgeStreamStats(len(keys) + self_loops, self_loops, len(keys) - len(distinct))
    return Graph(n, edges), stats


@given(
    st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda p: p[0] != p[1]), max_size=120),
    )),
    st.integers(0, 5),
    st.sampled_from([1, 2, 7, None]),
)
def test_merge_keys_matches_unique(stream, self_loops, chunk):
    n, pairs = stream
    keys = np.array([min(p) * n + max(p) for p in pairs], dtype=np.int64)
    expected = merge_by_unique(keys, n, self_loops)
    with mock.patch.object(bter.graph, "_WRITE_CHUNK", chunk or bter.graph._WRITE_CHUNK):
        assert merge_keys(keys, n, self_loops) == expected


@pytest.mark.parametrize(
    "n, keys, self_loops",
    [
        (0, [], 0),  # empty
        (5, [], 3),  # only loops
        (1, [], 2),  # one node: every pair is a loop
        (6, [8] * 9, 0),  # all duplicates
        (6, [1, 1, 8, 8, 8, 29, 2, 2], 1),
    ],
)
@pytest.mark.parametrize("chunk", [1, 2, None])
def test_merge_keys_cases(n, keys, self_loops, chunk):
    keys = np.array(keys, dtype=np.int64)
    expected = merge_by_unique(keys, n, self_loops)
    with mock.patch.object(bter.graph, "_WRITE_CHUNK", chunk or bter.graph._WRITE_CHUNK):
        assert merge_keys(keys, n, self_loops) == expected


def test_merge_keys_rejects_a_view():
    # the merge sorts and shrinks the array it takes over in place, so a
    # view, whose buffer belongs to another array, is refused untouched
    rng = np.random.default_rng(5)
    base = rng.integers(0, 30, size=(2, 200)).sum(axis=0).astype(np.int64) + 1
    before = base.copy()
    for keys in (base[:], base[::1], base[::2], base.reshape(20, 10).ravel()):
        with pytest.raises(ValueError, match="view"):
            merge_keys(keys, 64)
        assert np.array_equal(base, before) and base.shape == (200,)
        assert base.flags.writeable


def test_merge_keys_memory_is_eight_bytes_a_key():
    # the merge sorts the keys it owns in place, compacts the distinct ones
    # to the front and shrinks the same buffer to them, the graph's keys:
    # its own peak is that buffer at 8 B a key and a few _WRITE_CHUNK-sized
    # temporaries (the graph counts no degrees until they are asked for)
    import tracemalloc

    n, count = 300_000, 700_000
    rng = np.random.default_rng(11)
    u = rng.integers(0, n - 1, size=count)
    v = u + rng.integers(1, n - u)
    keys = u * np.int64(n) + v
    keys = np.concatenate([keys, keys[: count // 10]])  # some duplicates
    rng.shuffle(keys)
    del u, v
    expected = merge_by_unique(keys, n, 0)
    chunk = 4096
    with mock.patch.object(bter.graph, "_WRITE_CHUNK", chunk):
        tracemalloc.start()
        try:
            graph, stats = merge_keys(keys, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (graph, stats) == expected
    raw = stats.raw_edges
    assert peak <= 8 * raw + 16 * 8 * chunk, (peak / raw, peak)


@given(
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=60),
    st.sampled_from(["shuffled", "duplicated", "looped"]),
    st.randoms(use_true_random=False),
)
def test_compact_ids_match_unique_and_searchsorted(pairs, shape, rnd):
    stream = list(pairs)
    if shape == "duplicated":
        stream += rnd.sample(stream, len(stream) // 2)
    elif shape == "looped":
        stream += [(u, u) for u, _ in rnd.sample(stream, len(stream) // 3)]
    rnd.shuffle(stream)
    arr = np.array(stream, dtype=np.int64).reshape(-1, 2)
    compact, n = bter.graph._compact_ids(arr)
    ref_ids = np.unique(arr)
    assert n == len(ref_ids)
    assert np.array_equal(compact, np.searchsorted(ref_ids, arr))
    assert compact.shape == arr.shape and compact.dtype == np.int64


# Line fragments for the reader oracle: every kind of line the line parser
# accepts, skips or rejects.
_LINES = st.one_of(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(lambda p: f"{p[0]} {p[1]}"),
    st.tuples(st.integers(-3, 30), st.integers(0, 30), st.sampled_from(
        [" ", "  ", "\t", " \t ", "\x0b", "\x0c"])).map(
        lambda p: f"{p[0]}{p[2]}{p[1]}"),
    st.sampled_from([
        "", "   ", "\t", "# a comment", "  # indented comment", "#",
        "# Nodes: 23133 Edges: 186878", "# FromNodeId\tToNodeId",
        "1 2 # inline", "1", "1 2 3", "a b", "1.0 2", "1_0 2", "+3 4", "007 8",
        "9223372036854775807 1", "9223372036854775808 1", "99999999999999999999 3",
        "\u0661 2", "1\u00a02", "1 2\u2028", "\x1c# nodes 40", "1\x1c2",
        "1 -", "--1 2", "# nodes \u00b2",
    ]),
    st.integers(0, 40).map(lambda k: f"# nodes {k}"),
    st.integers(0, 40).map(lambda k: f"  #  nodes\t{k}  "),
)


def _read_outcome(path):
    try:
        return read_snap_edgelist(path)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), getattr(exc, "line_number", None)


@given(
    st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.booleans(),
)
def test_reader_matches_line_parser(tmp_path_factory, lines, final_newline):
    text = "".join(line + end for line, end in lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("oracle") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    fast = _read_outcome(path)
    with mock.patch.object(bter.graph, "_parse_fast", return_value=None):
        slow = _read_outcome(path)
    assert fast == slow


def _read_outcome_by_lines(path):
    with mock.patch.object(bter.graph, "_parse_fast", return_value=None):
        return _read_outcome(path)


# Files for the fast reader, each with its kind of line end, comment or
# non-ASCII byte.
_FAST_CASES = {
    "comment and crlf": b"# nodes 6\r\n0 1\r\n# note\r\n2 5\r\n",
    "lone cr": b"# nodes 6\r0 1\r2 5\r",
    "cr then lf line": b"0 1\r\n\r\n\r3 4\n",
    "hash after data": b"# nodes 6\n0 1 # inline\n",
    "non-ascii comment": "# n\u00f6des 6\n0 1\n".encode("utf-8"),
    "whitespace lines": b"# nodes 6\n   \n\t\n0 1\n \n2 5\n",
    "no final newline": b"# nodes 6\n0 1\n2 5",
    "empty": b"",
    "header only": b"# nodes 6\n",
    "header without newline": b"# nodes 6",
}


# a '#' after the first data line, or a byte that is not ASCII, makes
# np.loadtxt raise: the line parser decides
_LINE_PARSER_CASES = ("comment and crlf", "hash after data", "non-ascii comment")


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS)
@pytest.mark.parametrize("name", sorted(_FAST_CASES))
def test_fast_reader_cases(tmp_path, name, end):
    for file_name in ("g.txt", "x.gz"):
        path = tmp_path / file_name
        path.write_bytes(with_line_ends(_FAST_CASES[name], end))
        fast = bter.graph._parse_fast(path)
        if file_name == "x.gz" or name in _LINE_PARSER_CASES:
            assert fast is None  # the line parser decides
        else:
            arr, declared_n = fast
            ref_arr, ref_declared = bter.graph._parse_lines(path)
            assert arr.tolist() == ref_arr.tolist() and declared_n == ref_declared
        assert _read_outcome(path) == _read_outcome_by_lines(path)


def test_fast_reader_takes_clean_files(tmp_path):
    # the oracle above would pass vacuously if the fast parser declined everything
    path = tmp_path / "g.txt"
    path.write_bytes(b"# FromNodeId ToNodeId\r\n# nodes 9\r\n\r\n 5\t7 \r\n+1 3\r\n")
    arr, declared_n = bter.graph._parse_fast(path)
    assert arr.tolist() == [[5, 7], [1, 3]] and declared_n == 9
    path.write_bytes(b"1 2\n1 2 # inline\n")
    assert bter.graph._parse_fast(path) is None


def write_edgelist_by_row(g: Graph, path) -> None:
    """write_edgelist as it was: one f-string per edge."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if g.n:
            fh.write(f"# nodes {g.n}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


@pytest.mark.parametrize("chunk", [None, 7])
def test_write_edgelist_matches_row_writer(tmp_path, monkeypatch, chunk):
    from bter.degrees import synthesize_powerlaw
    from bter.generate import GenerationConfig, generate_bter

    if chunk is not None:
        monkeypatch.setattr(bter.graph, "_WRITE_CHUNK", chunk)
    g, _ = generate_bter(synthesize_powerlaw(3000, 2.0, 60), GenerationConfig(seed=5))
    for graph in (g, Graph(5, np.empty((0, 2))), Graph(0, np.empty((0, 2)))):
        write_edgelist(graph, tmp_path / "new.txt")
        write_edgelist_by_row(graph, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def argsort_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The CSR as Graph built it before: a stable argsort of the row ids."""
    rows = g.edges[:, ::-1].ravel()
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return indptr, g.edges.ravel()[np.argsort(rows, kind="stable")]


def _assert_csr_matches_argsort(g: Graph) -> None:
    indptr, indices = argsort_csr(g)
    adjacency = g.adjacency_csr()
    assert adjacency.shape == (g.n, g.n)
    assert np.array_equal(adjacency.indptr, indptr)
    assert np.array_equal(adjacency.indices, indices)
    assert adjacency.data.dtype == np.float64 and (adjacency.data == 1).all()
    assert adjacency.has_sorted_indices
    assert np.array_equal(g.degrees, np.diff(indptr))


@given(edge_streams, st.integers(0, 3))
def test_csr_matches_argsort_build(stream, isolated):
    inferred = max((max(pair) for pair in stream), default=-1) + 1
    g, _ = build_graph(stream, n=inferred + isolated)
    assert np.array_equal(g.degrees, np.bincount(g.edges.ravel(), minlength=g.n))
    _assert_csr_matches_argsort(g)


def _graph_from(source: str, stream, n: int, tmp_path) -> Graph:
    g, _ = build_graph(stream, n=n)
    if source == "read_snap_edgelist":
        write_edgelist(g, tmp_path / "g.txt")
        g = read_snap_edgelist(tmp_path / "g.txt")
    return g


def _slots(g: Graph) -> list:
    return [getattr(g, name) for name in Graph.__slots__]


def _same(a: list, b: list) -> bool:
    return all(x is y for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("source", ["build_graph", "read_snap_edgelist"])
def test_neighbour_access_keeps_nothing_on_the_graph(tmp_path, source):
    # has_edge searches the keys and adjacency_csr builds a new matrix on
    # each call, so neither sets a slot; degree counts the degrees once and
    # keeps them, and sets no other slot
    stream = [(0, 3), (3, 1), (2, 0), (4, 3), (1, 2), (0, 1), (3, 0)]
    g = _graph_from(source, stream, 7, tmp_path)
    before = _slots(g)
    assert g._degrees is None
    assert g.has_edge(0, 1) and not g.has_edge(4, 5)
    first = g.adjacency_csr()
    assert g.adjacency_csr() is not first
    assert _same(_slots(g), before)
    assert g.degree(3) == 3
    counted = _slots(g)
    assert _same(counted[:2], before[:2]) and counted[2] is not None
    assert np.array_equal(g.degrees, np.bincount(g.edges.ravel(), minlength=g.n))
    assert g.has_edge(3, 4) and g.adjacency_csr().nnz == 2 * g.edge_count
    assert _same(_slots(g), counted)
    _assert_csr_matches_argsort(g)


_CSR_SHAPES = [
    (0, []),
    (4, []),
    (7, [(0, j) for j in range(1, 7)]),  # star on the first node
    (7, [(j, 6) for j in range(6)]),  # star on the last node
    (9, [(2, 5), (5, 8)]),  # isolated nodes before, between and after
    (8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),  # K8
]


@pytest.mark.parametrize("n, edges", _CSR_SHAPES)
def test_csr_matches_argsort_build_on_shapes(n, edges):
    _assert_csr_matches_argsort(Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)))


def scipy_sum_csr(g: Graph):
    """The CSR as Graph built it before: scipy's sum of the upper triangle
    (the keys, in CSR order) and its transpose."""
    import scipy.sparse as sp

    width = max(g.n, 1)
    indptr = np.searchsorted(g.keys, np.arange(g.n + 1) * width)
    upper = sp.csr_matrix((np.ones(len(g.keys)), g.keys % width, indptr), shape=(g.n, g.n))
    return (upper + upper.T).tocsr()


def _assert_csr_matches_scipy_sum(g: Graph) -> None:
    old, new = scipy_sum_csr(g), g.adjacency_csr()
    assert new.shape == old.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(new, name).dtype == getattr(old, name).dtype
        assert np.array_equal(getattr(new, name), getattr(old, name))


@given(edge_streams, st.integers(0, 3))
def test_csr_matches_scipy_sum_build(stream, isolated):
    inferred = max((max(pair) for pair in stream), default=-1) + 1
    _assert_csr_matches_scipy_sum(build_graph(stream, n=inferred + isolated)[0])


@pytest.mark.parametrize("n, edges", _CSR_SHAPES)
def test_csr_matches_scipy_sum_build_on_shapes(n, edges):
    _assert_csr_matches_scipy_sum(Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)))


_INT64_BOUNDARIES = sorted(
    {0, -1, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, -(2**63 - 1), -(2**63)}
    | {sign * 10**k + d for k in range(1, 19) for d in (-1, 0, 1) for sign in (1, -1)}
    | {-(2**32) - 1, -(2**32), -(2**32) + 1}
)
int64s = st.one_of(st.sampled_from(_INT64_BOUNDARIES), st.integers(-(2**63), 2**63 - 1))
floats = st.one_of(
    st.sampled_from(
        [
            0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e-4,
            999999999999.5, 99999999999.95, 0.1234567890125, 1.0000000000005,
            9.9999999999995, 0.30000000000000004, 123456789012.0, 1e300,
        ]
    ),
    st.floats(width=64),
)


def _written(row_format, columns, chunk):
    patch = mock.patch.object(bter.graph, "_WRITE_CHUNK", chunk or bter.graph._WRITE_CHUNK)
    sink = io.BytesIO()
    with patch:
        write_rows(sink, row_format, columns)
    return sink.getvalue()


@pytest.mark.parametrize("chunk", [None, 7])
@given(st.lists(st.tuples(int64s, int64s), max_size=30))
def test_write_rows_integers_match_percent(chunk, rows):
    columns = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [np.empty(0, np.int64)] * 2
    expected = "".join("%d %d\n" % row for row in rows).encode()
    assert _written("%d %d\n", columns, chunk) == expected


@pytest.mark.parametrize("chunk", [None, 7])
@given(st.lists(st.tuples(int64s, floats, floats), max_size=30))
def test_write_rows_floats_match_percent(chunk, rows):
    dtypes = (np.int64, np.float64, np.float64)
    columns = [np.array([row[i] for row in rows], dtype=t) for i, t in enumerate(dtypes)]
    row_format = "%d,%.12g,%.12g\n"
    expected = "".join(row_format % row for row in rows).encode()
    assert _written(row_format, columns, chunk) == expected


@pytest.mark.parametrize("row_format", ["%s\n", "%5d\n", "%.6g\n", "%d%%\n", "%d %d\n"])
def test_write_rows_rejects_other_formats(row_format):
    with pytest.raises(ValueError):
        write_rows(io.BytesIO(), row_format, (np.arange(3),))


def test_write_edgelist_matches_row_writer_at_scale(tmp_path):
    # n=3000 ids have 1-4 digits; these run from 1 to 6 within one file
    from bter.degrees import synthesize_powerlaw
    from bter.generate import GenerationConfig, generate_bter

    g, _ = generate_bter(synthesize_powerlaw(150_000, 2.0, 1000), GenerationConfig(seed=3))
    write_edgelist(g, tmp_path / "new.txt")
    write_edgelist_by_row(g, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
