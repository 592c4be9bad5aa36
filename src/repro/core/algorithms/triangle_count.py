"""Triangle counting on the parameter server.

"The implementation ... of triangle count is similar to common neighbor"
(Sec. V footnote): undirected neighbor tables are pushed to the PS, then
executors stream canonical edges in batches, pull the two endpoint tables,
and count overlaps.  Every triangle closes exactly three canonical edges,
so the global count is the overlap sum divided by three.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.batch import RowBatch
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import NeighborBlock
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    count_common_neighbors,
    max_vertex_id,
    push_neighbor_tables,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD


class TriangleCount(GraphAlgorithm):
    """PSGraph triangle count (global and per-vertex).

    Args:
        batch_size: canonical edges per PS round trip.
    """

    name = "triangle-count"
    #: PS partitioner kind for the neighbor table.
    partition = "hash"

    def __init__(self, batch_size: int = 4096) -> None:
        self.batch_size = batch_size

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        n = max_vertex_id(dataset) + 1
        table = ctx.ps.create_neighbor_table(
            self._unique_name(ctx, "tc-neighbors"), n,
            partition=self.partition,
        )
        blocks = to_neighbor_tables(
            dataset, symmetric=True, dedupe=True
        ).cache()
        push_neighbor_tables(blocks, table)
        table.compact()
        ctx.ps.barrier()
        batch_size = self.batch_size
        cost_model = ctx.cluster.cost_model

        def score(it: Iterator[NeighborBlock]) -> Iterator[RowBatch]:
            for block in it:
                # Canonical edges owned by this partition: (v, w) with
                # w > v, read straight off the CSR rows, batched across
                # rows so each PS round trip covers ~batch_size edges.
                src = block.sources()
                higher = block.neighbors > src
                src, dst = src[higher], block.neighbors[higher]
                for start in range(0, len(src), batch_size):
                    bs = src[start:start + batch_size]
                    bd = dst[start:start + batch_size]
                    common, work = count_common_neighbors(table, bs, bd)
                    closed = np.flatnonzero(common)
                    yield RowBatch(bs[closed], bd[closed], common[closed])
                    charge_primitive_compute(cost_model, work)

        per_edge = blocks.map_partitions(score)
        triple_sum = sum(per_edge.foreach_partition(
            lambda it: sum(int(batch.columns[2].sum()) for batch in it)
        ))
        triangles = int(round(triple_sum / 3.0))
        output = ctx.create_dataframe(
            [(triangles,)], ["triangles"]
        )
        blocks.unpersist()
        return AlgorithmResult(
            output, iterations=1,
            stats={"triangles": triangles, "closure_sum": triple_sum},
        )
