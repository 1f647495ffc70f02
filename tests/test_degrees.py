import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bter.degrees import (
    DegreeDistribution,
    DegreeSequence,
    extract_degrees,
    read_degree_file,
    synthesize_powerlaw,
)
from bter.graph import build_graph


def counts_of(seq: DegreeSequence) -> dict[int, int]:
    values, counts = np.unique(seq.degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def test_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence(np.array([2, 1]))  # unsorted
    with pytest.raises(ValueError):
        DegreeSequence(np.array([0, 1]))  # below 1
    with pytest.raises(ValueError):
        DegreeSequence(np.array([], dtype=np.int64))  # empty


def test_extract_triangle():
    g, _ = build_graph([(0, 1), (1, 2), (0, 2)])
    assert extract_degrees(g).degrees.tolist() == [2, 2, 2]


def test_extract_star():
    g, _ = build_graph([(4, i) for i in range(4)])
    assert extract_degrees(g).degrees.tolist() == [1, 1, 1, 1, 4]


def test_extract_isolated_nodes_guarded():
    g, _ = build_graph([(0, 1)], n=3)
    with pytest.raises(ValueError, match="isolated"):
        extract_degrees(g)
    assert extract_degrees(g, drop_isolated=True).degrees.tolist() == [1, 1]


def test_powerlaw_hand_apportionment():
    # weights 1, 1/4, 1/9 give c = 7 / (1 + 1/4 + 1/9) ~ 5.142; floors are
    # 5, 1, 0 and the single leftover unit goes to d=3 (largest remainder)
    seq = synthesize_powerlaw(7, 2.0, 3)
    assert counts_of(seq) == {1: 5, 2: 1, 3: 1}


def test_powerlaw_gamma_limit_all_ones():
    seq = synthesize_powerlaw(9, 60.0, 5)
    assert seq.degrees.tolist() == [1] * 9


def test_powerlaw_largest_degree_tracks_square_root():
    # brute force over the counts: the largest degree with X_d >= 1 should
    # sit near n**(1/gamma) for gamma = 2
    n = 10**6
    seq = synthesize_powerlaw(n, 2.0, 2000)
    counts = counts_of(seq)
    largest = max(counts)
    assert 0.5 * math.sqrt(n) <= largest <= 2.0 * math.sqrt(n)


def test_powerlaw_exact_total_and_monotone():
    seq = synthesize_powerlaw(12345, 1.7, 300)
    assert seq.n == 12345
    counts = counts_of(seq)
    ds = sorted(counts)
    xs = [counts[d] for d in ds]
    assert all(a >= b for a, b in zip(xs, xs[1:]))


def test_powerlaw_validation():
    with pytest.raises(ValueError):
        synthesize_powerlaw(0, 2.0, 5)
    with pytest.raises(ValueError):
        synthesize_powerlaw(5, 2.0, 0)
    for gamma in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            synthesize_powerlaw(5, gamma, 5)


dist_strategy = st.dictionaries(
    st.integers(1, 40), st.integers(1, 20), min_size=1, max_size=10
)


@given(dist_strategy)
def test_histogram_realize_inverse(counts):
    dist = DegreeDistribution(counts)
    assert counts_of(dist.to_sequence()) == counts


@given(st.lists(st.integers(1, 40), min_size=1, max_size=60))
def test_realize_histogram_inverse(values):
    seq = DegreeSequence.from_degrees(values)
    assert DegreeDistribution(counts_of(seq)).to_sequence() == seq


@given(st.integers(1, 3000), st.floats(0.2, 4.0), st.integers(1, 80))
def test_powerlaw_sums_to_n(n, gamma, d_max):
    seq = synthesize_powerlaw(n, gamma, d_max)
    assert seq.n == n
    assert seq.d_max <= d_max


def test_degree_file_sequence_form(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n1\n2\n")
    assert read_degree_file(path).degrees.tolist() == [1, 2, 3]


def test_degree_file_distribution_form(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("degree,count\n1,2\n3,1\n")
    assert read_degree_file(path).degrees.tolist() == [1, 1, 3]


def test_degree_file_round_trip(tmp_path):
    counts = {1: 4, 2: 2, 7: 1}
    path = tmp_path / "d.csv"
    path.write_text("degree,count\n" + "".join(f"{d},{c}\n" for d, c in counts.items()))
    assert counts_of(read_degree_file(path)) == counts


def test_degree_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("degree,count\n1,2,3\n")
    with pytest.raises(ValueError):
        read_degree_file(path)


@pytest.mark.parametrize(
    "text",
    [
        "1\n99999999999999999999\n",
        "9223372036854775808\n",
        "degree,count\n99999999999999999999,1\n",
        "degree,count\n1,9223372036854775808\n",
    ],
)
def test_degree_file_refuses_integers_beyond_int64(tmp_path, text):
    # numpy's int64 conversion of such a value raised OverflowError, not ValueError
    path = tmp_path / "wide.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="outside int64"):
        read_degree_file(path)
