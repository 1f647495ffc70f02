"""Target degree sequences, their histogram form, and power-law synthesis."""

from typing import NamedTuple

import numpy as np

from .graph import Graph, check_keyable, parse_int64


class _DegreeSequenceFields(NamedTuple):
    degrees: np.ndarray


class DegreeSequence(_DegreeSequenceFields):
    """Per-node target degrees, stored sorted ascending, all >= 1."""

    __slots__ = ()

    def __new__(cls, degrees):
        arr = np.asarray(degrees, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("degree sequence must be a non-empty 1-d array")
        if arr[0] < 1:
            raise ValueError("all degrees must be >= 1")
        if arr.size > 1 and (np.diff(arr) < 0).any():
            raise ValueError("degree sequence must be sorted ascending")
        arr.setflags(write=False)
        return super().__new__(cls, arr)

    @classmethod
    def _make(cls, iterable):  # so _replace checks its values too
        return cls(*iterable)

    def __eq__(self, other):
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return np.array_equal(self.degrees, other.degrees)

    def __ne__(self, other):  # tuple's own would compare the arrays as tuple items
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self.degrees.tobytes())

    @classmethod
    def from_degrees(cls, values) -> "DegreeSequence":
        """Build a sequence from arbitrary-order degree values."""
        return cls(np.sort(np.asarray(list(values), dtype=np.int64)))

    @property
    def n(self) -> int:
        return self.degrees.size

    @property
    def total(self) -> int:
        """Sum of degrees (twice the target edge count)."""
        return int(self.degrees.sum())

    @property
    def d_max(self) -> int:
        return int(self.degrees[-1])


class _DegreeDistributionFields(NamedTuple):
    counts: dict[int, int]


class DegreeDistribution(_DegreeDistributionFields):
    """Histogram form: count of nodes per degree. Zero counts are not stored."""

    __slots__ = ()

    def __new__(cls, counts):
        for d, x in counts.items():
            if d < 1 or x < 1:
                raise ValueError(f"invalid histogram entry {d}:{x}")
        return super().__new__(cls, counts)

    @classmethod
    def _make(cls, iterable):  # so _replace checks its values too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def to_sequence(self) -> DegreeSequence:
        """Realize the distribution as a sorted degree sequence; ValueError,
        before allocating, where its nodes are too many to key (see
        graph.check_keyable) or its degree total overflows int64."""
        check_keyable(self.n)
        if sum(d * x for d, x in self.counts.items()) >= 1 << 63:
            raise ValueError("degree total is outside int64")
        ds = np.array(sorted(self.counts), dtype=np.int64)
        reps = np.array([self.counts[int(d)] for d in ds], dtype=np.int64)
        return DegreeSequence(np.repeat(ds, reps))


def extract_degrees(g: Graph, drop_isolated: bool = False) -> DegreeSequence:
    """Sorted realized degrees of a graph.

    Degree-0 nodes violate the sequence invariant (and carry no weight in
    any model), so they raise unless ``drop_isolated`` is set.
    """
    deg = np.sort(g.degrees)
    if deg.size and deg[0] == 0:
        if not drop_isolated:
            isolated = int((deg == 0).sum())
            raise ValueError(
                f"graph has {isolated} isolated nodes; pass drop_isolated=True"
            )
        deg = deg[deg > 0]
    if deg.size == 0:
        raise ValueError("graph has no non-isolated nodes")
    return DegreeSequence(deg)


def synthesize_powerlaw(n: int, gamma: float, d_max: int) -> DegreeSequence:
    """Synthesize a degree sequence with X_d proportional to d**-gamma over
    the degrees 1..d_max.

    Counts are apportioned by the largest-remainder rule so they sum to
    exactly n (ties broken toward the smaller degree), which keeps X_d
    non-increasing in d for gamma > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if not gamma > 0:  # NaN too
        raise ValueError("gamma must be positive")
    ds = np.arange(1, d_max + 1, dtype=np.float64)
    weights = ds**-gamma
    quotas = n * weights / weights.sum()
    base = np.floor(quotas).astype(np.int64)
    remainder = n - int(base.sum())
    if remainder > 0:
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
    counts = {int(d): int(c) for d, c in zip(ds.astype(np.int64), base) if c > 0}
    return DegreeDistribution(counts).to_sequence()


def read_degree_file(path) -> DegreeSequence:
    """Read a degree input file.

    Two forms are accepted: a CSV with header "degree,count" (distribution
    form) or one integer per line (sequence form). Every integer must fit
    in int64; anything else raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty degree file")
    if lines[0].replace(" ", "") == "degree,count":
        counts: dict[int, int] = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: bad distribution row {ln!r}")
            d, c = parse_int64(parts[0]), parse_int64(parts[1])
            counts[d] = counts.get(d, 0) + c
        return DegreeDistribution(counts).to_sequence()
    return DegreeSequence.from_degrees(parse_int64(ln) for ln in lines)

