"""GraphOps: the edge-list / neighbor-table transformations of PSGraph.

Sec. IV-A: "We then use the groupBy operator to transform the original
edge-partitioned graph data to the format of vertex partitioning, that is,
each item in RDD is a neighbor table".  These helpers implement that
pipeline over columnar blocks, through the metered shuffle.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.common.batch import sorted_unique
from repro.common.errors import PSGraphError
from repro.common.sizeof import CONTAINER_ENTRY_BYTES
from repro.common.textcodec import parse_edges
from repro.core.blocks import (
    EdgeBlock,
    NeighborBlock,
    build_neighbor_block,
    intersect_counts,
)
from repro.dataflow.context import SparkContext
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.rdd import RDD, TextBytesRDD
from repro.dataflow.shuffle import ColumnBlock
from repro.dataflow.taskctx import current_task_context

#: Logical bytes, besides its rows, of one boxed ``(pid, EdgeBlock)``
#: record — what a group of rows in a groupBy bucket meters as: the
#: bucket's list entry, the pair's header and two entries, and the pid.
_RECORD_NBYTES = 5 * CONTAINER_ENTRY_BYTES


def charge_primitive_compute(cost_model, records: float) -> None:
    """Charge primitive-array CPU time to the currently running task.

    PSGraph's executor loops run over primitive collections (Angel's
    design); algorithms call this for each block they process so sim-time
    reflects the work.  A no-op outside a task (driver-side tests).
    """
    tctx = current_task_context()
    if tctx is not None:
        tctx.cost.cpu_s += cost_model.primitive_compute_time(records)


def parse_edge_bytes(data: bytes, name: str, weighted: bool = False,
                     rows: slice = slice(None)) -> EdgeBlock:
    """The one edge reader: the edges of file ``name``'s bytes ``data``
    (the ``rows`` slice of its non-empty lines, see
    :func:`~repro.dataflow.rdd.partition_files`) as one EdgeBlock.  The
    grammar and its errors are :func:`~repro.common.textcodec.parse_edges`'."""
    pairs, weight = parse_edges(data, name, weighted, rows)
    return EdgeBlock(np.ascontiguousarray(pairs[:, 0]),
                     np.ascontiguousarray(pairs[:, 1]), weight)


def load_edges(spark: SparkContext, path: str, *, weighted: bool = False,
               num_partitions: int | None = None) -> RDD:
    """Load an HDFS edge list into an RDD of EdgeBlocks (one per partition),
    cached on the executors (Listing 1's ``GraphOps.loadEdges``).  Each
    file a partition reads is parsed from its bytes."""
    files = TextBytesRDD(spark, path, num_partitions)
    blocks = files.map_partitions(lambda it: [EdgeBlock.concat([
        parse_edge_bytes(data, name, weighted, rows)
        for name, data, rows in it])])
    return blocks.cache()


def edges_from_arrays(spark: SparkContext, src: np.ndarray, dst: np.ndarray,
                      weight: Optional[np.ndarray] = None,
                      num_partitions: int | None = None) -> RDD:
    """Driver-side arrays -> RDD of EdgeBlocks (testing convenience)."""
    p = num_partitions or spark.cluster.num_executors
    p = max(1, min(p, max(1, len(src))))
    blocks = [
        EdgeBlock(
            np.asarray(src[i::p], dtype=np.int64),
            np.asarray(dst[i::p], dtype=np.int64),
            np.asarray(weight[i::p]) if weight is not None else None,
        )
        for i in range(p)
    ]
    return spark.parallelize(blocks, p)


def max_vertex_id(edges: RDD) -> int:
    """Largest vertex id appearing in the edge blocks."""
    def block_max(it: Iterator[EdgeBlock]) -> int:
        best = -1
        for b in it:
            if b.num_edges:
                best = max(best, int(b.src.max()), int(b.dst.max()))
        return best

    return max(edges.foreach_partition(block_max))


def count_edges(edges: RDD) -> int:
    """Total edges across all blocks."""
    return sum(
        edges.foreach_partition(lambda it: sum(b.num_edges for b in it))
    )


def to_neighbor_tables(edges: RDD, num_partitions: int | None = None, *,
                       symmetric: bool = False, dedupe: bool = False,
                       weighted: bool = False) -> RDD:
    """The groupBy of Sec. IV-A: edge partitioning -> vertex partitioning.

    Produces an RDD of :class:`NeighborBlock`, vertex-partitioned by
    ``src mod P``.  ``symmetric=True`` also adds the reverse direction
    (undirected neighborhoods, needed by common neighbor, K-core, fast
    unfolding).  The shuffle and the reduce-side CSR build are fully
    metered.
    """
    p = num_partitions or edges.num_partitions
    cost_model = edges.ctx.cluster.cost_model
    width = 3 if weighted else 2
    ids = np.empty(0, dtype=np.int64)

    def to_block(it: Iterator[EdgeBlock]) -> ColumnBlock:
        # Rows in the order the boxed records carried them: block after
        # block, direction 0 before direction 1.  The leading empty group
        # gives a partition without blocks its columns.
        groups = [(ids, ids, np.empty(0))]
        for block in it:
            if weighted and block.weight is None:
                raise PSGraphError("weighted tables need edge weights")
            groups.append((block.src, block.dst, block.weight))
            if symmetric:
                groups.append((block.dst, block.src, block.weight))
        columns = [np.concatenate(column)
                   for column in list(zip(*groups))[:width]]
        return ColumnBlock.bucketed(
            columns, columns[0] % p, p,
            [len(group[0]) for group in groups],
            record_nbytes=_RECORD_NBYTES)

    def merge(it: Iterator[tuple]) -> Iterator[NeighborBlock]:
        targets, others, *weights = next(it)
        block = build_neighbor_block(targets, others, *weights,
                                     dedupe=dedupe)
        # The CSR build sorts the fetched arrays (primitive arrays, no
        # boxed temp table) — only CPU is charged here; the resulting
        # block's memory is charged when the RDD is cached.
        charge_primitive_compute(cost_model, len(targets))
        yield block

    return edges.shuffle_blocks(HashPartitioner(p), to_block) \
        .map_partitions(merge)


def push_neighbor_tables(neighbor_blocks: RDD, table) -> int:
    """Push an RDD of NeighborBlocks into a PS neighbor table.

    Returns the number of vertices pushed.  This is the "push the neighbor
    tables to PS" step of common neighbor (Sec. IV-B).
    """
    def push(it: Iterator[NeighborBlock]) -> int:
        pushed = 0
        for block in it:
            if block.num_vertices == 0:
                continue
            table.push(block)
            pushed += block.num_vertices
        return pushed

    return sum(neighbor_blocks.foreach_partition(push))


def count_common_neighbors(table, src: np.ndarray, dst: np.ndarray
                           ) -> Tuple[np.ndarray, int]:
    """Overlap of the PS neighbor rows of each ``(src, dst)`` pair.

    One PS round trip for the distinct endpoints, then one array kernel:
    a galloping intersection of sorted rows, O(min * log(max/min)),
    charged as ``2 * min`` per pair.  Returns ``(counts, work)``.
    """
    ids = sorted_unique(np.concatenate([src, dst]))
    return intersect_counts(
        table.get(ids), np.searchsorted(ids, src), np.searchsorted(ids, dst)
    )


def push_degrees(neighbor_blocks: RDD, vector) -> None:
    """Push per-vertex degrees from neighbor blocks into a PS vector."""
    def push(it: Iterator[NeighborBlock]) -> None:
        for block in it:
            if block.num_vertices:
                vector.push(
                    block.vertices,
                    block.degrees().astype(np.float64),
                )

    neighbor_blocks.foreach_partition(push)
