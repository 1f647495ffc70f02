"""Metric reports and their comparison, in plain Python.

A report's degree, clustering and triangle views are ints, floats and
dicts, so rehydrating two analyze directories and comparing them needs no
numpy: it is imported only where a spectrum (an array) is compared.
"""

from typing import Any, NamedTuple

ALL_METRICS = ("degree", "cc", "triangles", "spectrum")


class MetricsReport(NamedTuple):
    """Bundle of the measurement views computed for one graph."""

    n_nodes: int
    n_edges: int
    degree_hist: dict[int, int] | None = None
    triangles: int | None = None
    wedges: int | None = None
    global_c: float | None = None
    by_degree_cc: dict[int, tuple[float, int]] | None = None
    # numpy arrays, annotated Any: numpy is not imported here, and NamedTuple
    # would compile a quoted annotation at import
    eigenvalues: Any = None
    spectrum_residuals: Any = None

    def metric_set(self) -> frozenset[str]:
        present = set()
        if self.degree_hist is not None:
            present.add("degree")
        if self.triangles is not None:
            present.add("triangles")
        if self.global_c is not None:
            present.add("cc")
        if self.eigenvalues is not None:
            present.add("spectrum")
        return frozenset(present)


class DivergenceSummary(NamedTuple):
    """Per-metric distances between two reports."""

    degree_tv: float | None
    global_c_gap: float | None
    by_degree_cc_gap: float | None
    shared_cc_degrees: int | None
    eigen_rel_gaps: Any  # a numpy array, or None (see MetricsReport)

    @property
    def eigen_max_rel_gap(self) -> float | None:
        if self.eigen_rel_gaps is None or len(self.eigen_rel_gaps) == 0:
            return None
        import numpy as np

        return float(np.max(self.eigen_rel_gaps))

    @property
    def eigen_mean_rel_gap(self) -> float | None:
        if self.eigen_rel_gaps is None or len(self.eigen_rel_gaps) == 0:
            return None
        import numpy as np

        return float(np.mean(self.eigen_rel_gaps))


def degree_tv_distance(hist_a: dict[int, int], hist_b: dict[int, int]) -> float:
    """Total-variation distance between two degree histograms.

    Each histogram is normalized by its own node total; the distance is
    half the L1 gap over the union of degrees (1 when supports are
    disjoint, 0 when the normalized histograms agree).
    """
    na = sum(hist_a.values())
    nb = sum(hist_b.values())
    if na == 0 or nb == 0:
        raise ValueError("empty histogram")
    gap = 0.0
    for d in set(hist_a) | set(hist_b):
        gap += abs(hist_a.get(d, 0) / na - hist_b.get(d, 0) / nb)
    return 0.5 * gap


def compare_reports(
    a: MetricsReport, b: MetricsReport, cc_count_floor: int = 1
) -> DivergenceSummary:
    """Per-metric divergences between two reports on the same metric set.

    The by-degree clustering gap is the largest absolute difference of mean
    C_i over degrees present in both reports with at least cc_count_floor
    nodes on each side (0 when no degree qualifies). Eigenvalue gaps are
    per-rank relative differences and require equal k.
    """
    if a.metric_set() != b.metric_set():
        raise ValueError(
            f"reports computed different metrics: {sorted(a.metric_set())} "
            f"vs {sorted(b.metric_set())}"
        )

    degree_tv = None
    if a.degree_hist is not None:
        degree_tv = degree_tv_distance(a.degree_hist, b.degree_hist)

    global_gap = None
    cc_gap = None
    shared = None
    if a.global_c is not None:
        global_gap = abs(a.global_c - b.global_c)
        common = [
            d
            for d in set(a.by_degree_cc) & set(b.by_degree_cc)
            if a.by_degree_cc[d][1] >= cc_count_floor
            and b.by_degree_cc[d][1] >= cc_count_floor
        ]
        shared = len(common)
        cc_gap = max(
            (abs(a.by_degree_cc[d][0] - b.by_degree_cc[d][0]) for d in common),
            default=0.0,
        )

    rel_gaps = None
    if a.eigenvalues is not None:
        if len(a.eigenvalues) != len(b.eigenvalues):
            raise ValueError(
                f"mismatched spectrum lengths: {len(a.eigenvalues)} vs {len(b.eigenvalues)}"
            )
        import numpy as np

        denom = np.maximum(
            np.maximum(np.abs(a.eigenvalues), np.abs(b.eigenvalues)), 1e-12
        )
        rel_gaps = np.abs(a.eigenvalues - b.eigenvalues) / denom

    return DivergenceSummary(
        degree_tv=degree_tv,
        global_c_gap=global_gap,
        by_degree_cc_gap=cc_gap,
        shared_cc_degrees=shared,
        eigen_rel_gaps=rel_gaps,
    )
