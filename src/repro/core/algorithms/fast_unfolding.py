"""Fast unfolding (Louvain) on the parameter server (Sec. IV-C).

"two models are frequently accessed, i.e., the community of each vertex and
the sum of edge weights in each community.  ...  we store these two models
as vertex2com and com2weight on the PS."

Each pass has the paper's two phases: **modularity optimization** (executors
pull the communities of their vertices' neighbors and the community weight
sums, pick the move with the best modularity gain, and push community
re-assignments plus weight-sum deltas) and **community aggregation** (a
Spark map/shuffle that collapses each community into a super-vertex).
Passes repeat until no move improves modularity.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.common.batch import (
    RowBatch,
    accumulate_sequential,
    louvain_move,
    modularity,
    partition_order,
    sorted_unique,
)
from repro.common.sizeof import CONTAINER_ENTRY_BYTES, SCALAR_BYTES
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import EdgeBlock, NeighborBlock
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    max_vertex_id,
    to_neighbor_tables,
)
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.rdd import RDD
from repro.dataflow.shuffle import ColumnBlock
from repro.dataflow.taskctx import current_task_context

#: Logical bytes, besides its two scalars, of one boxed ``(pair key,
#: weight)`` record in a bucket: the bucket's list entry and the tuple's
#: header and two entries.
_PAIR_ENVELOPE_NBYTES = 4 * CONTAINER_ENTRY_BYTES


class FastUnfolding(GraphAlgorithm):
    """PSGraph fast unfolding / Louvain community detection.

    Args:
        num_passes: maximum optimize+aggregate passes.
        max_move_iterations: move rounds per pass.
    """

    name = "fast-unfolding"
    #: PS partitioner kind for vertex2com / com2weight.
    partition = "hash"

    def __init__(self, num_passes: int = 3,
                 max_move_iterations: int = 8) -> None:
        self.num_passes = num_passes
        self.max_move_iterations = max_move_iterations

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        # Not cached: it is a cheap map over the (cached) input dataset,
        # and caching it would double the resident edge footprint.
        edges = _ensure_weights(dataset)
        n_orig = max_vertex_id(dataset) + 1
        two_m = 2.0 * _total_weight(edges)
        mapping: Optional[np.ndarray] = None  # original vertex -> community
        current = edges
        total_moves = 0
        passes = 0
        for pass_idx in range(self.num_passes):
            pass_mapping, moves = self._one_pass(
                ctx, current, two_m, pass_idx
            )
            passes += 1
            total_moves += moves
            mapping = (pass_mapping if mapping is None
                       else pass_mapping[mapping])
            if moves == 0:
                break
            current = _aggregate(current, pass_mapping)
        assert mapping is not None
        q = modularity_from_edges(edges, mapping)
        vertices = np.flatnonzero(_present_vertices(edges, n_orig))
        communities = mapping[vertices]
        output = ctx.create_dataframe(RowBatch(vertices, communities),
                                      ["vertex", "community"])
        edges.unpersist()
        return AlgorithmResult(
            output, passes,
            stats={"modularity": q, "moves": total_moves,
                   "num_communities": len(sorted_unique(communities))},
        )

    # ------------------------------------------------------------------

    def _one_pass(self, ctx: PSGraphContext, current: RDD, two_m: float,
                  pass_idx: int) -> Tuple[np.ndarray, int]:
        """Modularity-optimization phase; returns (vertex->com, moves)."""
        # 4x partitions per executor: averaging several partitions per
        # container smooths hub-induced skew, as Spark deployments do by
        # running more partitions than cores.
        tables = to_neighbor_tables(
            current, symmetric=True, weighted=True,
            num_partitions=4 * current.num_partitions,
        ).cache()
        n = max(
            max_vertex_id(current) + 1, 1
        )
        vertex2com = ctx.ps.create_vector(
            self._unique_name(ctx, f"vertex2com-p{pass_idx}"), n,
            partition=self.partition, init=-1.0,
        )
        com2weight = ctx.ps.create_vector(
            self._unique_name(ctx, f"com2weight-p{pass_idx}"), n,
            partition=self.partition,
        )

        def init(it: Iterator[NeighborBlock]) -> None:
            for block in it:
                if block.num_vertices == 0:
                    continue
                k = _weighted_degrees(block)
                vertex2com.set(
                    block.vertices, block.vertices.astype(np.float64)
                )
                com2weight.push(block.vertices, k)

        tables.foreach_partition(init)
        ctx.ps.barrier()
        cost_model = ctx.spark.cluster.cost_model

        def move(it: Iterator[NeighborBlock]) -> int:
            moves = 0
            for block in it:
                if block.num_vertices == 0:
                    continue
                k = _weighted_degrees(block)
                own = vertex2com.pull(block.vertices)
                ncoms = vertex2com.pull(block.neighbors)
                charge_primitive_compute(
                    cost_model, len(block.neighbors)
                )
                # The kernel sees each community as its index into the
                # pulled ids, so ``tot`` is its table of totals.
                cand_ids, index = np.unique(np.concatenate([ncoms, own]),
                                            return_inverse=True)
                tot = com2weight.pull(cand_ids.astype(np.int64))
                moved, new = louvain_move(
                    block.vertices, index[len(ncoms):], k,
                    np.repeat(block.vertices, np.diff(block.indptr)),
                    index[:len(ncoms)], block.weights, tot, two_m)
                if len(moved):
                    new_c = cand_ids[new]
                    vertex2com.set(block.vertices[moved], new_c)
                    # (own, new) per moved vertex, in block order: the
                    # deltas add up in the order the server receives them.
                    com2weight.push(
                        np.column_stack([own[moved], new_c])
                        .ravel().astype(np.int64),
                        np.column_stack([-k[moved], k[moved]]).ravel(),
                    )
                    moves += len(moved)
            return moves

        total_moves = 0
        for _ in range(self.max_move_iterations):
            moves = sum(tables.foreach_partition(move))
            ctx.ps.barrier()
            total_moves += moves
            if moves == 0:
                break

        raw = vertex2com.to_numpy()
        # Ids absent from the graph keep the -1 init: map them to themselves
        # so composition across passes stays total.
        pass_mapping = np.where(
            raw < 0, np.arange(n), raw
        ).astype(np.int64)
        tables.unpersist()
        ctx.ps.drop_matrix(vertex2com.name)
        ctx.ps.drop_matrix(com2weight.name)
        return pass_mapping, total_moves


def _present_vertices(edges: RDD, n: int) -> np.ndarray:
    """Boolean mask of vertices appearing in the edge blocks."""
    def scan(it: Iterator[EdgeBlock]) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        for b in it:
            mask[b.src] = True
            mask[b.dst] = True
        return mask

    parts = edges.foreach_partition(scan)
    out = np.zeros(n, dtype=bool)
    for p in parts:
        out |= p
    return out


def _weighted_degrees(block: NeighborBlock) -> np.ndarray:
    """Sum of incident edge weights per owned vertex."""
    if block.weights is None:
        return np.diff(block.indptr).astype(np.float64)
    return np.add.reduceat(
        block.weights, block.indptr[:-1]
    ) * (np.diff(block.indptr) > 0)


def _ensure_weights(dataset: RDD) -> RDD:
    """Give unweighted edge blocks unit weights."""
    def fix(it: Iterator[EdgeBlock]) -> Iterator[EdgeBlock]:
        for b in it:
            if b.weight is None:
                yield EdgeBlock(b.src, b.dst, np.ones(b.num_edges))
            else:
                yield b

    return dataset.map_partitions(fix)


def _total_weight(edges: RDD) -> float:
    """Sum of edge weights (each input edge counted once)."""
    return float(sum(
        edges.foreach_partition(
            lambda it: sum(float(b.weight.sum()) for b in it)
        )
    ))


def _fold_first_seen(keys: np.ndarray, weights: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` per distinct key: the keys in first-seen order, each
    sum a left fold in arrival order — bit for bit what a dict fold over
    the boxed ``(key, weight)`` pairs gives."""
    uniq, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sums = np.zeros(len(uniq))
    np.add.at(sums, rank[inverse], weights)
    return uniq[order], sums


def _aggregate(current: RDD, mapping: np.ndarray) -> RDD:
    """Community aggregation: collapse vertices into their communities.

    Community pairs are combined locally and then merged *globally* with a
    ``reduceByKey`` shuffle (map-side combine) — the paper's "build a new
    network whose vertices are the communities".  Without the global merge
    a popular community pair would be duplicated once per partition, and
    super-vertex adjacency would balloon.

    The shuffle moves one column block of ``(pair key, weight)`` rows per
    map task, each row metered as the boxed ``(int, float)`` record it
    stands for.
    """
    stride = len(mapping) + 1
    p = current.num_partitions
    cost_model = current.ctx.cluster.cost_model

    def to_block(it: Iterator[EdgeBlock]) -> ColumnBlock:
        keys = [np.empty(0, dtype=np.int64)]
        weights = [np.empty(0)]
        for b in it:
            pairs = mapping[b.src] * stride + mapping[b.dst]
            uniq, inverse = np.unique(pairs, return_inverse=True)
            w = np.zeros(len(uniq))
            np.add.at(w, inverse, b.weight)
            keys.append(uniq)
            weights.append(w)
        emitted = np.concatenate(keys)
        combined, sums = _fold_first_seen(emitted, np.concatenate(weights))
        # The shuffle charges a record's CPU for every row it writes; the
        # pairs the combine folded away were records on the way in too.
        tctx = current_task_context()
        tctx.cost.cpu_s = accumulate_sequential(
            tctx.cost.cpu_s, cost_model.cpu_record_s,
            len(emitted) - len(combined))
        order, offsets = partition_order(combined % p, p)
        lens = offsets[1:] - offsets[:-1]
        return ColumnBlock((combined[order], sums[order]), lens, lens,
                           slot_nbytes=_PAIR_ENVELOPE_NBYTES)

    def merge(it: Iterator[tuple]) -> Iterator[EdgeBlock]:
        keys, weights = next(it)
        # The reduce side's hash table of boxed pairs: temporary executor
        # memory at the JVM-object multiplier while the fold runs.
        tctx = current_task_context()
        memory = tctx.executor.container.memory
        tag = f"shuffle-agg:{tctx.stage_id}:{tctx.partition_id}"
        pair_nbytes = _PAIR_ENVELOPE_NBYTES + 2 * SCALAR_BYTES
        memory.allocate(
            int((CONTAINER_ENTRY_BYTES + pair_nbytes * len(keys))
                * cost_model.jvm_object_overhead), tag=tag)
        try:
            keys, sums = _fold_first_seen(keys, weights)
        finally:
            memory.release_tag(tag)
        yield EdgeBlock(keys // stride, keys % stride, sums)

    return current.shuffle_blocks(HashPartitioner(p), to_block) \
        .map_partitions(merge)


def modularity_from_edges(edges: RDD, communities: np.ndarray) -> float:
    """Newman modularity of a partition over weighted edge blocks: each
    partition hands back its blocks' endpoint communities and weights."""
    def ends(it: Iterator[EdgeBlock]) -> List[Tuple[np.ndarray, ...]]:
        return [(communities[b.src], communities[b.dst],
                 b.weight if b.weight is not None else np.ones(b.num_edges))
                for b in it]

    none = communities[:0]
    blocks = [(none, none, np.empty(0))]
    for part in edges.foreach_partition(ends):
        blocks += part
    return modularity(*map(np.concatenate, zip(*blocks)))
