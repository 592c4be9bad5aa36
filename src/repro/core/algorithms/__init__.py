"""PSGraph algorithms: TG (PageRank, CN, K-core, TC, fast unfolding, LPA),
GE (LINE) and GNN (GraphSage)."""

from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.algorithms.common_neighbor import CommonNeighbor
from repro.core.algorithms.deepwalk import DeepWalk
from repro.core.algorithms.fast_unfolding import (
    FastUnfolding,
    modularity_from_edges,
)
from repro.core.algorithms.graphsage import GraphSage, SageNet, make_sage
from repro.core.algorithms.line import Line, link_prediction_score
from repro.core.algorithms.pagerank import PageRank
from repro.core.algorithms.propagation import (
    ConnectedComponents,
    KCore,
    LabelPropagation,
)
from repro.core.algorithms.triangle_count import TriangleCount

__all__ = [
    "AlgorithmResult",
    "CommonNeighbor",
    "ConnectedComponents",
    "DeepWalk",
    "FastUnfolding",
    "GraphAlgorithm",
    "GraphSage",
    "KCore",
    "LabelPropagation",
    "Line",
    "PageRank",
    "SageNet",
    "TriangleCount",
    "link_prediction_score",
    "make_sage",
    "modularity_from_edges",
]
