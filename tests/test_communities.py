import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bter.communities
import bter.graph
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
    with pytest.raises(ValueError):
        ConnectivityFormula(eta=-0.1)
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
    assert part.block_sizes().tolist() == [len(b) for b in blocks]
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
    ],
)
def test_partition_reader_matches_line_parser(tmp_path, text):
    path = tmp_path / "part.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _partition_outcome(path)
    with mock.patch.object(bter.communities, "_partition_rows_fast", return_value=None):
        assert fast == _partition_outcome(path)


def write_partition_csv_by_row(part, seq, path) -> None:
    """write_partition_csv as it was: one f-string per node."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,block,bar_d,rho,excess\n")
        for node in range(seq.n):
            k = int(part.assignment[node])
            bar = int(part.bar_d[k]) if k >= 0 else 0
            rho = part.rho[k] if k >= 0 else 0.0
            fh.write(f"{node},{k},{bar},{rho:.12g},{part.excess[node]:.12g}\n")


@pytest.mark.parametrize("chunk", [None, 7])
def test_write_partition_csv_matches_row_writer(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(bter.graph, "_WRITE_CHUNK", chunk)
    for seq in (synthesize_powerlaw(3000, 2.0, 60), seq_of(1, 1), seq_of(1, 3, 3, 3)):
        part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
        write_partition_csv(part, seq, tmp_path / "new.csv")
        write_partition_csv_by_row(part, seq, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_partition_csv_matches_row_writer_at_scale(tmp_path):
    # n=3000 node ids have 1-4 digits; these run from 1 to 6 within one file
    seq = synthesize_powerlaw(150_000, 2.0, 1000)
    part = preprocess(seq, ConnectivityFormula(rho=0.9, eta=0.7))
    write_partition_csv(part, seq, tmp_path / "new.csv")
    write_partition_csv_by_row(part, seq, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
