import dataclasses
import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bter.communities
from bter.communities import (
    ConnectivityFormula,
    community_rho,
    excess_degrees,
    partition_communities,
    preprocess,
    read_partition_csv,
    write_partition_csv,
)
from bter.degrees import DegreeSequence, synthesize_powerlaw
from conftest import LINE_ENDS, with_line_ends


def seq_of(*degrees):
    return DegreeSequence.from_degrees(degrees)


def test_cubic_variant_fixes_parameters():
    f = ConnectivityFormula(variant="cubic", rho=0.3, eta=9.0)
    assert (f.rho, f.eta, f.exponent) == (0.7, 0.6, 3)


def test_formula_validation():
    with pytest.raises(ValueError):
        ConnectivityFormula(rho=0.0)
    with pytest.raises(ValueError):
        ConnectivityFormula(rho=1.5)
    for eta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ConnectivityFormula(eta=eta)
    with pytest.raises(ValueError):
        ConnectivityFormula(variant="quartic")


def test_rho_eta_zero_is_flat():
    f = ConnectivityFormula(rho=0.8, eta=0.0)
    assert community_rho(1, 50, f) == community_rho(50, 50, f) == 0.8


def test_rho_at_max_degree_with_full_decay():
    f = ConnectivityFormula(rho=0.9, eta=1.0)
    assert community_rho(100, 100, f) == pytest.approx(0.0, abs=1e-15)


def test_rho_hand_value():
    f = ConnectivityFormula(rho=0.95, eta=0.05)
    expected = 0.95 * (1 - 0.05 * (math.log(4) / math.log(101)) ** 2)
    got = community_rho(3, 100, f)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.9457, abs=5e-5)


def test_rho_clamps_negative_values():
    # eta = 1.25 drives the formula negative near the maximum degree
    f = ConnectivityFormula(rho=0.70, eta=1.25)
    assert community_rho(400, 400, f) == 0.0


def test_rho_domain_error():
    with pytest.raises(ValueError):
        community_rho(10, 5, ConnectivityFormula())


def block_lists(block_start, block_size):
    """Node lists of (block_start, block_size) blocks, for hand comparisons."""
    return [list(range(a, a + s)) for a, s in zip(block_start.tolist(), block_size.tolist())]


def test_partition_hand_example():
    starts, sizes = partition_communities(seq_of(1, 1, 2, 2, 2, 3, 3))
    assert block_lists(starts, sizes) == [[2, 3, 4], [5, 6]]


def test_partition_all_degree_one():
    starts, sizes = partition_communities(seq_of(1, 1, 1))
    assert starts.tolist() == [] and sizes.tolist() == []


def test_partition_uniform_exact_blocks():
    d, q = 4, 6
    starts, sizes = partition_communities(seq_of(*([d] * (q * (d + 1)))))
    assert len(starts) == q
    assert all(s == d + 1 for s in sizes)


@given(st.lists(st.integers(1, 25), min_size=1, max_size=300))
def test_partition_block_shape_invariants(values):
    seq = DegreeSequence.from_degrees(values)
    starts, sizes = partition_communities(seq)
    blocks = block_lists(starts, sizes)
    covered = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    wanted = np.nonzero(seq.degrees >= 2)[0]
    assert np.array_equal(np.sort(covered), wanted)  # disjoint, exactly d>=2
    bar = [int(seq.degrees[b[0]]) for b in blocks]
    for k, block in enumerate(blocks):
        if k < len(blocks) - 1:
            assert len(block) == bar[k] + 1
        else:
            assert len(block) <= bar[k] + 1
    assert bar == sorted(bar)


def test_excess_cases():
    # degree-1 node
    seq = seq_of(1, 2, 2, 2)
    starts, sizes = partition_communities(seq)
    e = excess_degrees(seq, starts, sizes, np.array([1.0]))
    assert e[0] == 1.0
    # full block at rho 1: internal supply equals the degree
    seq = seq_of(*([10] * 11))
    starts, sizes = partition_communities(seq)
    e = excess_degrees(seq, starts, sizes, np.array([1.0]))
    assert np.allclose(e, 0.0)


def test_excess_hand_value():
    seq = seq_of(5, 5, 5, 5)
    e = excess_degrees(seq, np.array([0]), np.array([4]), np.array([0.9457]))
    assert e[0] == pytest.approx(5 - 0.9457 * 3, rel=1e-12)
    assert e[0] == pytest.approx(2.163, abs=5e-4)


def test_excess_clamped_at_zero():
    seq = seq_of(2, 9, 9)  # externally supplied partition larger than d=2 needs
    e = excess_degrees(seq, np.array([0]), np.array([3]), np.array([1.0]))
    assert e[0] == 0.0


def test_excess_keeps_prefix_values_before_an_external_tiling():
    # nodes before the first block keep the degree-1 rule: 1 for degree 1
    # and 0 for any other degree, here the degree-2 node 2
    seq = seq_of(1, 1, 2, 3, 3, 3, 3)
    e = excess_degrees(seq, np.array([3, 5]), np.array([2, 2]), np.array([0.5, 1.0]))
    assert e.tolist() == [1.0, 1.0, 0.0, 2.5, 2.5, 2.0, 2.0]
    e = excess_degrees(seq, np.array([], dtype=np.int64), np.array([], dtype=np.int64), [])
    assert e.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "start, size",
    [
        ([2, 4], [1, 3]),  # a gap: node 3 is in no block
        ([2, 3], [2, 4]),  # an overlap, ending past n
        ([2, 3], [2, 3]),  # an overlap, ending at n
        ([2, 5, 4], [3, -1, 3]),  # a negative size that keeps the bounds in step
        ([2, 2], [0, 5]),  # an empty block
        ([2], [4]),  # ends before n
        ([2], [6]),  # ends after n
        ([-1], [8]),  # starts before node 0
    ],
)
def test_excess_rejects_blocks_that_do_not_tile(start, size):
    seq = seq_of(1, 1, 2, 2, 2, 3, 3)
    with pytest.raises(ValueError, match="tile"):
        excess_degrees(seq, np.array(start), np.array(size), np.full(len(start), 0.9))


def test_partition_holds_per_block_arrays_and_the_degrees():
    # no node-long array of its own: the degrees are the sequence's, and the
    # excess and the assignment are derived on access
    seq = synthesize_powerlaw(3000, 2.0, 60)
    part = preprocess(seq, ConnectivityFormula())
    shapes = {f.name: getattr(part, f.name).shape for f in dataclasses.fields(part)
              if f.name != "degrees"}
    k = part.block_count
    assert shapes == {"block_start": (k,), "block_size": (k,), "bar_d": (k,), "rho": (k,)}
    assert part.degrees is seq.degrees
    e = part.excess
    e[:] = -1.0  # a new array, its caller's own: writing it leaves the partition be
    assert (part.excess >= 0.0).all()


def test_preprocess_memory_is_per_block_arrays():
    # preprocess builds no node-long array but the one-byte mask of where
    # the degree changes; members' block ids, supplies and excess are never
    # held node by node
    import tracemalloc

    seq = synthesize_powerlaw(300_000, 2.0, 2000)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        part = preprocess(seq, ConnectivityFormula())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = seq.n + 96 * part.block_count + (64 << 10)
    assert peak - live <= bound, (peak - live, bound)


def test_preprocess_last_short_block_gets_rho_zero():
    part = preprocess(seq_of(1, 1, 2, 2, 2, 3, 3), ConnectivityFormula())
    assert part.rho[-1] == 0.0
    assert part.rho[0] > 0.0
    # short final block: full degree carried as excess
    assert part.excess[5] == 3.0 and part.excess[6] == 3.0
    assert part.assignment.tolist() == [-1, -1, 0, 0, 0, 1, 1]


def test_preprocess_full_last_block_keeps_formula():
    part = preprocess(seq_of(*([3] * 8)), ConnectivityFormula())
    assert part.block_count == 2
    assert part.rho[-1] == part.rho[0] > 0.0


def preprocess_by_block(seq, f):
    """preprocess as it was: a node list per block and a Python loop over them."""
    degrees = seq.degrees
    blocks = []
    i = int(np.searchsorted(degrees, 2))
    while i < seq.n:
        size = int(degrees[i]) + 1
        blocks.append(np.arange(i, min(i + size, seq.n), dtype=np.int64))
        i += size
    bar_d = np.array([int(degrees[b[0]]) for b in blocks], dtype=np.int64)
    rho = np.zeros(len(blocks), dtype=np.float64)
    for k, block in enumerate(blocks):
        last_and_short = k == len(blocks) - 1 and len(block) < bar_d[k] + 1
        rho[k] = 0.0 if last_and_short else community_rho(int(bar_d[k]), seq.d_max, f)
    assignment = np.full(seq.n, -1, dtype=np.int64)
    excess = np.zeros(seq.n, dtype=np.float64)
    excess[degrees == 1] = 1.0
    for k, block in enumerate(blocks):
        assignment[block] = k
        excess[block] = np.maximum(0.0, degrees[block] - rho[k] * (len(block) - 1))
    return blocks, assignment, bar_d, rho, excess


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=400),
    st.sampled_from([ConnectivityFormula(), ConnectivityFormula(variant="cubic"),
                     ConnectivityFormula(rho=0.7, eta=1.25)]),
)
def test_preprocess_matches_per_block_loop(values, f):
    seq = DegreeSequence.from_degrees(values)
    part = preprocess(seq, f)
    blocks, assignment, bar_d, rho, excess = preprocess_by_block(seq, f)
    assert block_lists(part.block_start, part.block_size) == [b.tolist() for b in blocks]
    assert part.block_count == len(blocks)
    assert part.block_size.tolist() == [len(b) for b in blocks]
    assert np.array_equal(part.assignment, assignment)
    assert np.array_equal(part.bar_d, bar_d)
    # bit-exact: the partition CSV prints these with %.12g
    assert part.rho.tobytes() == rho.tobytes()
    assert part.excess.tobytes() == excess.tobytes()


_PARTITION_SHA256 = {
    # write_partition_csv output of synthesize_powerlaw(n, 2, d_max) as 0.2.0
    # wrote it; the array-native partition must not move a byte
    (ConnectivityFormula(), 2000, 40):
        "97cd9f08b05e10ba3a0e2b24314d2ee39faebd5aa8a2f52bb67db288bac21b89",
    (ConnectivityFormula(), 20000, 300):
        "be5ddab5c9fa83d8ed2b9f2adc0241a921fbb2943b014a3dc1cb2a81ba737730",
    (ConnectivityFormula(variant="cubic"), 20000, 300):
        "73b614822296298247853decf11b3ef0a58300962535f8b86118314f7095603d",
    (ConnectivityFormula(rho=0.7, eta=1.25), 20000, 300):
        "26241e693c6d8ab492b547de98acd3d030b25e481b9d89320f7ad36289fc0a22",
}


@pytest.mark.parametrize(
    "f, n, d_max",
    list(_PARTITION_SHA256),
    ids=["standard-n2000", "standard-n20000", "cubic-n20000", "eta1.25-n20000"],
)
def test_partition_csv_bytes_pinned(tmp_path, f, n, d_max):
    seq = synthesize_powerlaw(n, 2.0, d_max)
    path = tmp_path / "part.csv"
    write_partition_csv(preprocess(seq, f), seq, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PARTITION_SHA256[f, n, d_max]


@given(st.lists(st.integers(1, 25), min_size=1, max_size=200))
def test_preprocess_invariants(values):
    seq = DegreeSequence.from_degrees(values)
    part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
    assert ((part.rho >= 0.0) & (part.rho <= 1.0)).all()
    assert (part.excess >= 0.0).all()
    ones = seq.degrees == 1
    assert np.all(part.excess[ones] == 1.0)
    assert np.all(part.assignment[ones] == -1)


def test_rho_monotone_in_bar_d():
    f = ConnectivityFormula(rho=0.9, eta=0.8)
    values = [community_rho(b, 200, f) for b in range(1, 201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_partition_csv_round_trip(tmp_path):
    seq = synthesize_powerlaw(200, 2.0, 14)
    part = preprocess(seq, ConnectivityFormula())
    path = tmp_path / "part.csv"
    write_partition_csv(part, seq, path)
    assignment, excess = read_partition_csv(path)
    assert np.array_equal(assignment, part.assignment)
    assert np.allclose(excess, part.excess)


def test_partition_csv_rejects_gaps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node,block,bar_d,rho,excess\n0,0,2,0.9,0\n2,0,2,0.9,0\n")
    with pytest.raises(ValueError):
        read_partition_csv(path)


def test_partition_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    header = "node,block,bar_d,rho,excess\n"
    for rows in ("0,0,2,0.9,0\n1,0,2,0.9\n", "0,0,2,0.9,0\nx,0,2,0.9,0\n",
                 "0,0,2,0.9,0\n1.0,0,2,0.9,0\n"):
        path.write_text(header + rows)
        with pytest.raises(ValueError):
            read_partition_csv(path)


def _partition_outcome(path):
    try:
        assignment, excess = read_partition_csv(path)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return assignment.tolist(), excess.tobytes()  # bit-exact, NaN included


@pytest.mark.parametrize(
    "text",
    [
        "node,block,bar_d,rho,excess\n1,0,2,0.9,0.5\n0,-1,0,0,1\n",
        "node,block,bar_d,rho,excess\r\n0,-1,0,0,1\r\n1,0,x,y,2e-3\r\n",
        " node,block,bar_d,rho,excess \n\n 0 , +1 ,2,0.9, nan \n\n",
        "node,block,bar_d,rho,excess\n0,0,2,0.9,1_0\n",
        "node,block,bar_d,rho,excess\n0,0,2,0.9,inf\n1,0,2,0.9,\u0661\n",
        "node,block,bar_d,rho,excess\n0,0,2,0.9,0.5,7\n",
        "node,block,bar_d,rho,excess\n",
        "node,block\n0,0\n",
        "",
        "node,block,bar_d,rho,excess\n0,0,2,0.9,0.5\n0,0,2,0.9,0.5\n",
        "node,block,bar_d,rho,excess\n99999999999999999999,0,2,0.9,0.5\n",
        "node,block,bar_d,rho,excess\n0,99999999999999999999,2,0.9,0.5\n",
        "node,block,bar_d,rho,excess\n0,0,2,0.9,\n",
        "node,block,bar_d,rho,excess\r0,-1,0,0,1\r1,0,2,0.9,0.5",
        "node,block,bar_d,rho,excess\n  \n0,-1,0,0,1\n\t\n",
        "node,block,bar_d,rho,excess\n0,-1,0,0,1\n1,0,2,0.9,0.5 # \u00e9\n",
        "node,block,bar_d,rho,excess",
    ],
)
@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS)
@pytest.mark.parametrize("name", ["part.csv", "part.gz"])
def test_partition_reader_matches_line_parser(tmp_path, text, name, end):
    path = tmp_path / name
    path.write_bytes(with_line_ends(text, end).encode("utf-8"))
    fast = _partition_outcome(path)
    with mock.patch.object(bter.communities, "_partition_rows_fast", return_value=None):
        assert fast == _partition_outcome(path)


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS)
def test_fast_partition_reader_takes_clean_files(tmp_path, end):
    # the oracle above would pass vacuously if the fast parser declined everything
    path = tmp_path / "part.csv"
    path.write_bytes(
        with_line_ends(b"node,block,bar_d,rho,excess\r\n1,0,2,0.9,0.5\r\n0,-1,0,0,1", end)
    )
    nodes, blocks, excess = bter.communities._partition_rows_fast(path)
    assert nodes.tolist() == [1, 0] and blocks.tolist() == [0, -1]
    assert excess.tolist() == [0.5, 1.0]
    gz = tmp_path / "part.gz"  # numpy would decompress it: the line parser reads it
    gz.write_bytes(path.read_bytes())
    assert bter.communities._partition_rows_fast(gz) is None


def write_partition_csv_by_row(part, seq, path) -> None:
    """write_partition_csv as it was: one f-string per node."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,block,bar_d,rho,excess\n")
        assignment = part.assignment  # built on each access: once, not per row
        for node in range(seq.n):
            k = int(assignment[node])
            bar = int(part.bar_d[k]) if k >= 0 else 0
            rho = part.rho[k] if k >= 0 else 0.0
            fh.write(f"{node},{k},{bar},{rho:.12g},{part.excess[node]:.12g}\n")


@pytest.mark.parametrize("chunk", [None, 7])
def test_write_partition_csv_matches_row_writer(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(bter.communities, "_PARTITION_CHUNK", chunk)
    for seq in (synthesize_powerlaw(3000, 2.0, 60), seq_of(1, 1), seq_of(1, 3, 3, 3)):
        part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
        write_partition_csv(part, seq, tmp_path / "new.csv")
        write_partition_csv_by_row(part, seq, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("chunk", [1, 7])
def test_partition_csv_derives_the_excess_per_chunk(tmp_path, monkeypatch, chunk):
    # three degree-1 nodes before the first block, then blocks of 3 and 4
    # nodes and a short last one of 2 (rho 0: its members keep their whole
    # degree). Chunks of 1 and 7 rows start in the prefix, inside blocks and
    # on block starts; each writes the excess that excess_degrees computes
    # for its nodes, which is the partition's own, bit for bit
    seq = seq_of(1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 6, 6)
    part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
    assert part.block_start.tolist() == [3, 6, 10] and part.rho[-1] == 0.0
    expected = excess_degrees(seq, part.block_start, part.block_size, part.rho)
    assert part.excess.tobytes() == expected.tobytes()
    assert expected[:3].tolist() == [1.0] * 3 and expected[10:].tolist() == [6.0] * 2
    monkeypatch.setattr(bter.communities, "_PARTITION_CHUNK", chunk)
    write_partition_csv(part, seq, tmp_path / "new.csv")
    rows = (tmp_path / "new.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [f"{x:.12g}" for x in expected]
    write_partition_csv_by_row(part, seq, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_partition_csv_memory_is_a_chunk(tmp_path):
    # at n=3e5 the dump is ~13 MB; the writer builds no full-length column
    # and formats one chunk of rows at a time
    import tracemalloc

    seq = synthesize_powerlaw(300_000, 2.0, 2000)
    part = preprocess(seq, ConnectivityFormula())
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        write_partition_csv(part, seq, tmp_path / "part.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live <= 4 << 20, peak - live


def test_write_partition_csv_matches_row_writer_at_scale(tmp_path):
    # n=3000 node ids have 1-4 digits; these run from 1 to 6 within one file.
    # The row writer reads the excess once per row, and the partition
    # derives all n of it on each access: the writer gets the derived
    # columns built once
    seq = synthesize_powerlaw(150_000, 2.0, 1000)
    part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
    write_partition_csv(part, seq, tmp_path / "new.csv")
    built = SimpleNamespace(
        bar_d=part.bar_d, rho=part.rho, assignment=part.assignment, excess=part.excess
    )
    write_partition_csv_by_row(built, seq, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
