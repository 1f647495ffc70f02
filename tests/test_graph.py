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
    read_snap_edgelist,
    write_edgelist,
    write_rows,
)

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
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert (np.diff(nbrs) > 0).all()  # sorted, no duplicates
        assert g.degree(u) == len(nbrs)


def test_read_snap_symmetrizes(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# c\n1 2\n2 1\n")
    loaded = read_snap_edgelist(path)
    assert loaded.graph.n == 2
    assert loaded.graph.edge_count == 1
    assert loaded.original_ids.tolist() == [1, 2]


def test_read_snap_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\na b\n")
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
    loaded = read_snap_edgelist(path)
    assert loaded.graph.n == 3
    assert loaded.original_ids.tolist() == [7, 100, 9000]
    assert loaded.graph.edges.tolist() == [[0, 1], [0, 2]]


def test_read_snap_honors_node_count_header(tmp_path):
    path = tmp_path / "declared.txt"
    path.write_text("# nodes 5\n0 1\n")
    loaded = read_snap_edgelist(path)
    assert loaded.graph.n == 5
    assert loaded.graph.edge_count == 1


def test_read_snap_ignores_inconsistent_header(tmp_path):
    path = tmp_path / "stale.txt"
    path.write_text("# nodes 2\n10 20\n")  # ids exceed the declared count
    loaded = read_snap_edgelist(path)
    assert loaded.graph.n == 2
    assert loaded.original_ids.tolist() == [10, 20]


def test_read_snap_ignores_snap_style_headers(tmp_path):
    path = tmp_path / "snapstyle.txt"
    path.write_text("# Nodes: 23133 Edges: 186878\n5 6\n")
    loaded = read_snap_edgelist(path)
    assert loaded.graph.n == 2  # compaction path, header not ours


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
    loaded = read_snap_edgelist(path)
    assert loaded.graph == g


@given(edge_streams)
def test_write_read_round_trip(tmp_path_factory, stream):
    g, _ = build_graph(stream, n=12)
    path = tmp_path_factory.mktemp("rt") / "g.txt"
    write_edgelist(g, path)
    assert read_snap_edgelist(path).graph == g


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
    assert read_snap_edgelist(path).graph == g


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
)
def test_build_graph_matches_unique_path(pairs, shape, rnd):
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
    g, stats = build_graph(arr, n=16)
    ref_g, ref_stats = build_graph_by_unique(arr, 16)
    assert g == ref_g and stats == ref_stats


def test_build_graph_keeps_a_canonical_array():
    arr = np.array([[0, 1], [0, 3], [2, 3]], dtype=np.int64)
    g, stats = build_graph(arr, n=5)
    assert np.shares_memory(g.edges, arr)  # no copy of a clean stream
    assert stats == EdgeStreamStats(3, 0, 0)


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
    ids, compact = bter.graph._compact_ids(arr)
    ref_ids = np.unique(arr)
    assert np.array_equal(ids, ref_ids)
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
        loaded = read_snap_edgelist(path)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), getattr(exc, "line_number", None)
    return loaded.graph, loaded.original_ids.tolist(), loaded.stats


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
    assert np.array_equal(g._indptr, indptr)
    assert np.array_equal(g._indices, indices)
    assert np.array_equal(g.degrees, np.diff(indptr))


@given(edge_streams, st.integers(0, 3))
def test_csr_matches_argsort_build(stream, isolated):
    inferred = max((max(pair) for pair in stream), default=-1) + 1
    g, _ = build_graph(stream, n=inferred + isolated)
    _assert_csr_matches_argsort(g)


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, []),
        (4, []),
        (7, [(0, j) for j in range(1, 7)]),  # star on the first node
        (7, [(j, 6) for j in range(6)]),  # star on the last node
        (9, [(2, 5), (5, 8)]),  # isolated nodes before, between and after
        (8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),  # K8
    ],
)
def test_csr_matches_argsort_build_on_shapes(n, edges):
    _assert_csr_matches_argsort(Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)))


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
