"""Block two-level ER graph synthesis, baselines, metrics, and theory checks.

The public names below are loaded on first access (PEP 562): importing the
package loads no submodule, and so no numpy, until one of its names is used.
"""

import importlib

__version__ = "0.9.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CommunityPartition": "communities",
    "ConnectivityFormula": "communities",
    "community_rho": "communities",
    "partition_communities": "communities",
    "preprocess": "communities",
    "DegreeDistribution": "degrees",
    "DegreeSequence": "degrees",
    "extract_degrees": "degrees",
    "synthesize_powerlaw": "degrees",
    "GenerationConfig": "generate",
    "PhaseTrace": "generate",
    "generate_bter": "generate",
    "generate_cl": "generate",
    "generate_er": "generate",
    "EdgeStreamStats": "graph",
    "Graph": "graph",
    "build_graph": "graph",
    "read_snap_edgelist": "graph",
    "write_edgelist": "graph",
    "ClusteringProfile": "metrics",
    "TriangleWedgeCounts": "metrics",
    "clustering_profile": "metrics",
    "compute_report": "metrics",
    "count_triangles_wedges": "metrics",
    "SpectrumReport": "spectrum",
    "top_eigenvalues": "spectrum",
    "MetricsReport": "reports",
    "compare_reports": "reports",
    "CommunityAudit": "theory",
    "audit_community": "theory",
    "block_size_histogram": "theory",
    "cl_expected_triangles": "theory",
    "kruskal_katona_check": "theory",
    "loglog_slope": "theory",
    "predict_community_profile": "theory",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
