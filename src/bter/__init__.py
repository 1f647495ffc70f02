"""Block two-level ER graph synthesis, baselines, metrics, and theory checks."""

__version__ = "0.4.0"

from .communities import (
    CommunityPartition,
    ConnectivityFormula,
    community_rho,
    excess_degrees,
    partition_communities,
    preprocess,
)
from .degrees import (
    DegreeDistribution,
    DegreeSequence,
    extract_degrees,
    histogram,
    synthesize_powerlaw,
)
from .generate import (
    GenerationConfig,
    PhaseTrace,
    generate_bter,
    generate_cl,
    generate_er,
)
from .graph import (
    EdgeStreamStats,
    Graph,
    build_graph,
    read_snap_edgelist,
    write_edgelist,
)
from .metrics import (
    ClusteringProfile,
    MetricsReport,
    SpectrumReport,
    TriangleWedgeCounts,
    clustering_profile,
    compare_reports,
    compute_report,
    count_triangles_wedges,
    top_eigenvalues,
)
from .theory import (
    CommunityAudit,
    audit_community,
    cl_expected_triangles,
    kruskal_katona_check,
    predict_community_profile,
)

__all__ = [
    "__version__",
    "CommunityPartition",
    "ConnectivityFormula",
    "community_rho",
    "excess_degrees",
    "partition_communities",
    "preprocess",
    "DegreeDistribution",
    "DegreeSequence",
    "extract_degrees",
    "histogram",
    "synthesize_powerlaw",
    "GenerationConfig",
    "PhaseTrace",
    "generate_bter",
    "generate_cl",
    "generate_er",
    "EdgeStreamStats",
    "Graph",
    "build_graph",
    "read_snap_edgelist",
    "write_edgelist",
    "ClusteringProfile",
    "MetricsReport",
    "SpectrumReport",
    "TriangleWedgeCounts",
    "clustering_profile",
    "compare_reports",
    "compute_report",
    "count_triangles_wedges",
    "top_eigenvalues",
    "CommunityAudit",
    "audit_community",
    "cl_expected_triangles",
    "kruskal_katona_check",
    "predict_community_profile",
]
