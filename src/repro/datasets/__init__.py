"""Synthetic datasets: power-law graphs, community graphs, DS1/DS2/DS3."""

from repro.datasets.generators import (
    community_graph,
    powerlaw_graph,
    vertex_features,
)
from repro.datasets.tencent import (
    DEFAULT_SCALE_DS1,
    DEFAULT_SCALE_DS2,
    DEFAULT_SCALE_DS3,
    DatasetSpec,
    ds1_spec,
    ds2_spec,
    ds3_spec,
    generate_ds3_gnn,
    generate_edges,
    write_edges,
)

__all__ = [
    "DEFAULT_SCALE_DS1",
    "DEFAULT_SCALE_DS2",
    "DEFAULT_SCALE_DS3",
    "DatasetSpec",
    "community_graph",
    "ds1_spec",
    "ds2_spec",
    "ds3_spec",
    "generate_ds3_gnn",
    "generate_edges",
    "powerlaw_graph",
    "vertex_features",
    "write_edges",
]
