"""Scaled stand-ins for the paper's Tencent datasets.

Sec. V-A: "The first dataset DS1 contains 0.8 billion vertices and 11
billion edges.  The second dataset DS2 contains 2 billion vertices and 140
billion edges.  The third dataset DS3 contains 30 million vertices and 100
million edges."

We generate power-law graphs at a configurable ``scale`` preserving the
edges/vertex ratios (DS1: 13.75, DS2: 70, DS3: 3.33).  Resource grants are
scaled by the same factor via :meth:`ClusterConfig.scaled`, so the memory
pressure — and therefore the OOM pattern of Fig. 6 — carries over, and
sim-time extrapolates linearly: ``paper_hours ≈ sim_seconds / scale / 3600``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.rng import DEFAULT_SEED
from repro.common.textcodec import encode_rows
from repro.datasets.generators import (
    community_graph,
    powerlaw_graph,
    vertex_features,
)
from repro.hdfs.filesystem import Hdfs

#: Default scale factor for benches: 1e-5 of the paper's DS1/DS2 sizes.
DEFAULT_SCALE_DS1 = 1e-5
DEFAULT_SCALE_DS2 = 1e-5
#: DS3 is much smaller in the paper; 1e-3 keeps a learnable GNN graph.
DEFAULT_SCALE_DS3 = 1e-3


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset stand-in: paper-scale shape plus the applied scale."""

    name: str
    paper_vertices: int
    paper_edges: int
    scale: float

    @property
    def num_vertices(self) -> int:
        """Vertices at mini scale."""
        return max(64, int(self.paper_vertices * self.scale))

    @property
    def num_edges(self) -> int:
        """Edges at mini scale."""
        return max(256, int(self.paper_edges * self.scale))


def ds1_spec(scale: float = DEFAULT_SCALE_DS1) -> DatasetSpec:
    """DS1: 0.8 B vertices / 11 B edges at paper scale."""
    return DatasetSpec("DS1", 800_000_000, 11_000_000_000, scale)


def ds2_spec(scale: float = DEFAULT_SCALE_DS2) -> DatasetSpec:
    """DS2: 2 B vertices / 140 B edges at paper scale."""
    return DatasetSpec("DS2", 2_000_000_000, 140_000_000_000, scale)


def ds3_spec(scale: float = DEFAULT_SCALE_DS3) -> DatasetSpec:
    """DS3: 30 M vertices / 100 M edges at paper scale."""
    return DatasetSpec("DS3", 30_000_000, 100_000_000, scale)


def generate_edges(spec: DatasetSpec,
                   seed: int = DEFAULT_SEED
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Power-law edge list for a spec (deterministic per seed)."""
    return powerlaw_graph(
        spec.num_vertices, spec.num_edges, seed=seed
    )


#: Communities in :func:`generate_ds3_gnn`'s graph.
DS3_COMMUNITIES = 20


def generate_ds3_gnn(spec: DatasetSpec,
                     feature_dim: int = 32, num_classes: int = 5,
                     seed: int = DEFAULT_SEED
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """DS3 stand-in for the GraphSage experiment: a community graph of
    :data:`DS3_COMMUNITIES` communities with community-correlated features
    and labels (the WeChat Pay task of Table I is proprietary; this
    preserves "a GNN can learn it").

    Returns:
        ``(src, dst, features, labels)``.
    """
    avg_degree = 2.0 * spec.num_edges / spec.num_vertices
    src, dst, communities = community_graph(
        spec.num_vertices, DS3_COMMUNITIES,
        avg_degree=avg_degree, mixing=0.15, seed=seed,
    )
    feats, labels = vertex_features(
        communities, feature_dim, num_classes, noise=3.2, seed=seed + 1
    )
    return src, dst, feats, labels


def write_edges(hdfs: Hdfs, path: str, src: np.ndarray, dst: np.ndarray,
                num_files: int = 8,
                weights: np.ndarray | None = None) -> str:
    """Write an edge list to HDFS as ``part-NNNNN`` text files.

    Each line is ``src<TAB>dst`` (``src<TAB>dst<TAB>weight`` when weights
    are given, the weight formatted ``%.6f``), the paper's assumed input
    format (Sec. IV).  File ``i`` holds rows ``i, i + num_files, ...``.
    """
    num_files = max(1, num_files)
    line, columns = b"%d\t%d\n", [src, dst]
    if weights is not None:
        line, columns = b"%d\t%d\t%.6f\n", [src, dst, weights]
    for i in range(num_files):
        hdfs.write_bytes(
            f"{path}/part-{i:05d}",
            encode_rows(line, [c[i::num_files] for c in columns]),
            overwrite=True)
    return path
