"""Common neighbor on the parameter server (Sec. IV-B).

"This algorithm requires frequent access to the adjacent vertices of a
vertex.  We hence store the neighbor tables on PS ...  Afterward, the
executor iteratively processes a batch of edges, gets the neighbor tables
of the vertices from PS, and calculates the number of overlapping neighbors
of each vertex pair."

The PS neighbor tables are also the model checkpointed to HDFS for the
failure-recovery experiment (Table II).
"""

from __future__ import annotations

from typing import Iterator

from repro.common.batch import RowBatch
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import EdgeBlock
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    count_common_neighbors,
    count_edges,
    max_vertex_id,
    push_neighbor_tables,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD


class CommonNeighbor(GraphAlgorithm):
    """PSGraph common neighbor: per-edge overlap counts.

    Args:
        batch_size: edges processed per PS round trip.
        checkpoint: checkpoint the PS neighbor tables to HDFS after the
            build phase (enables server failure recovery mid-run).
    """

    name = "common-neighbor"
    #: PS partitioner kind for the neighbor table.
    partition = "hash"

    def __init__(self, batch_size: int = 4096,
                 checkpoint: bool = False) -> None:
        self.batch_size = batch_size
        self.checkpoint = checkpoint

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        n = max_vertex_id(dataset) + 1
        table = ctx.ps.create_neighbor_table(
            self._unique_name(ctx, "cn-neighbors"), n,
            partition=self.partition,
        )
        # Build phase: groupBy into undirected neighbor tables, push to PS.
        blocks = to_neighbor_tables(dataset, symmetric=True, dedupe=True)
        pushed = push_neighbor_tables(blocks, table)
        table.compact()
        ctx.ps.barrier()
        if self.checkpoint:
            table.checkpoint()

        batch_size = self.batch_size
        cost_model = ctx.cluster.cost_model

        def score(it: Iterator[EdgeBlock]) -> Iterator[RowBatch]:
            for block in it:
                for batch in block.batches(batch_size):
                    common, work = count_common_neighbors(
                        table, batch.src, batch.dst
                    )
                    yield RowBatch(batch.src, batch.dst, common)
                    charge_primitive_compute(cost_model, work)

        from repro.dataflow.dataframe import DataFrame

        # Lazy result: scoring runs on executors when the frame is acted
        # on, one (src, dst, common) row batch per PS round trip.
        output = DataFrame(
            dataset.map_partitions(score), ["src", "dst", "common"]
        )
        return AlgorithmResult(
            output, iterations=1,
            stats={
                "vertices_pushed": pushed,
                "num_edges": count_edges(dataset),
            },
        )
