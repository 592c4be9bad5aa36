"""GraphX-style algorithm implementations (the Fig. 6 baseline).

Every algorithm here moves data the way GraphX does — full-table shuffle
joins per iteration — so its runtime and memory profile on the metered
substrate reflects the paper's baseline:

* PageRank — classic dense-message Pregel loop.
* Connected components — min-label propagation.
* K-core — iterative h-index with per-iteration lineage caching (GraphX's
  well-known unpersist pitfall: old cached graphs accumulate), the OOM cell
  of Fig. 6.
* Triangle count — neighbor-set attributes replicated to edge partitions,
  the other OOM cell.
* Common neighbor — like triangle count but processed in edge chunks, which
  bounds memory at the price of repeated ship rounds (GraphX finishes DS1
  slowly; still OOMs on DS2's hub replication).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.common.batch import RaggedColumn, h_index
from repro.core.blocks import (
    NeighborBlock,
    build_neighbor_block,
    intersect_counts,
)
from repro.dataflow.taskctx import TaskContext
from repro.graphx.graph import Graph
from repro.graphx.pregel import pregel


def pagerank(graph: Graph, max_iterations: int = 20, tol: float = 1e-4,
             damping: float = 0.85) -> Tuple[np.ndarray, np.ndarray, int]:
    """GraphX PageRank: rank messages shuffled every superstep.

    Returns:
        ``(ids, ranks, iterations)``.
    """
    # Pre-compute out-degrees once, stored alongside rank in a 2-col attr.
    deg_msgs = graph.out_degrees()
    deg_by_first_id = {}
    for vp, (mids, mvals) in zip(graph.vertex_parts, deg_msgs):
        if len(vp.ids):
            deg = np.zeros(len(vp.ids))
            deg[np.searchsorted(vp.ids, mids)] = mvals
            deg_by_first_id[int(vp.ids[0])] = np.maximum(deg, 1.0)

    def initial(ids: np.ndarray) -> np.ndarray:
        out = np.ones((len(ids), 2))
        if len(ids):
            out[:, 1] = deg_by_first_id[int(ids[0])]
        return out

    def send(es, ed, src_attr, dst_attr):
        contrib = src_attr[:, 0] / src_attr[:, 1]
        return [(ed, contrib)]

    def vprog(ids, attrs, msg_ids, msg_vals):
        new = attrs.copy()
        new[:, 0] = 1.0 - damping
        idx = np.searchsorted(ids, msg_ids)
        new[idx, 0] += damping * msg_vals
        return new

    ids, attrs, iters = pregel(
        graph, initial, send, vprog, "sum", max_iterations, tol=tol
    )
    return ids, attrs[:, 0], iters


def connected_components(graph: Graph, max_iterations: int = 50
                         ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Min-label propagation: each vertex converges to the smallest id in
    its (weakly) connected component."""

    def send(es, ed, src_attr, dst_attr):
        return [(ed, src_attr), (es, dst_attr)]

    def vprog(ids, attrs, msg_ids, msg_vals):
        new = attrs.copy()
        idx = np.searchsorted(ids, msg_ids)
        new[idx] = np.minimum(new[idx], msg_vals)
        return new

    ids, attrs, iters = pregel(
        graph, lambda ids: ids.astype(np.float64), send, vprog, "min",
        max_iterations, tol=0.5,
    )
    return ids, attrs.astype(np.int64), iters


def kcore(graph: Graph, max_iterations: int = 30
          ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Coreness via iterative h-index, with GraphX's lineage-cache leak.

    Each iteration ships every vertex's current core estimate to its
    neighbors (a full neighbor-value collect), recomputes the h-index, and
    caches the new graph generation *without unpersisting the previous one*
    — the documented GraphX behaviour that makes iterative subgraph
    algorithms blow executor memory on big inputs (the paper's K-core OOM
    cell).

    Returns:
        ``(ids, coreness, iterations)``.
    """
    ctx = graph.ctx
    cm = ctx.cluster.cost_model
    # Initialize with total degree.
    deg_msgs = graph.degrees()
    graph.join_messages(deg_msgs, _scatter_join)
    leak_tags: List[tuple] = []
    iterations = 0
    try:
        for it in range(max_iterations):
            # Ship estimates; per target, collect neighbor values and take
            # the h-index.  Messages carry (value) per edge — a full-width
            # collect, so the message table is E-sized each iteration.
            changed = 0
            for vp, (uids, h) in zip(graph.vertex_parts,
                                     _neighbor_h_index(graph)):
                new = np.asarray(vp.attrs, dtype=np.float64).copy()
                pos = np.searchsorted(vp.ids, uids)
                lower = h < new[pos]
                new[pos[lower]] = h[lower]
                changed += int(lower.sum())
                vp.attrs = new
            iterations += 1
            # Lineage-cache leak: every generation stays resident.
            for ep in range(graph.num_edge_partitions):
                executor = ctx.executor_for_partition(ep)
                es, ed = graph.edge_parts[ep]
                nbytes = int(
                    (es.nbytes + ed.nbytes + len(es) * 8)
                    * cm.jvm_object_overhead
                )
                tag = f"graphx-kcore-gen{it}:{ep}"
                executor.container.memory.allocate(nbytes, tag=tag)
                leak_tags.append((executor, tag))
            if changed == 0:
                break
        ids, attrs = graph.collect_vertices()
        core = np.asarray(attrs).astype(np.int64)
        # Final coreness collect lands on the driver like any job
        # result; charge it so the driver wall isn't free.
        ctx.charge_driver_result(int(ids.nbytes + core.nbytes))
        return ids, core, iterations
    finally:
        for executor, tag in leak_tags:
            executor.container.memory.release_tag(tag)


def _scatter_join(ids, attrs, msg_ids, msg_vals):
    new = np.zeros(len(ids))
    idx = np.searchsorted(ids, msg_ids)
    new[idx] = msg_vals
    return new


def _neighbor_h_index(graph: Graph
                      ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """For every vertex, the h-index of its neighbors' scalar attrs.

    The same join as aggregate_messages, but the reduce is a *collect* (no
    combiner), so the message table holds one float per edge endpoint — the
    expensive pattern that makes GraphX's K-core heavy.
    """
    cm = graph.ctx.cluster.cost_model

    def compute(ep: int, sv: np.ndarray, dv: np.ndarray):
        es, ed = graph.edge_parts[ep]
        return [(np.concatenate([ed, es]), np.concatenate([sv, dv]))]

    def reduce(vp: int, tctx: TaskContext, targets: np.ndarray,
               values: np.ndarray):
        with graph.temp_table(tctx, f"graphx-collect-table:{vp}",
                              targets.nbytes + values.nbytes):
            tctx.cost.cpu_s += cm.compute_time(len(targets))
            return h_index(targets, values)

    empty = np.empty(0, dtype=np.int64)
    return graph.join("graphx-collect", "graphx-collect-map", compute,
                      reduce, lambda vp: (empty, empty))


def canonical_graph(graph: Graph) -> Graph:
    """Canonicalize to a simple undirected edge set (one shuffle).

    GraphX's triangle count requires "canonical" edges: each undirected
    edge exactly once with ``src < dst``, self-loops dropped.  Implemented
    as a metered shuffle keyed by the low endpoint with reduce-side dedup.
    """
    ctx = graph.ctx
    cm = ctx.cluster.cost_model
    shuffle_id = ctx.next_shuffle_id()
    p = graph.num_edge_partitions

    def emit(ep: int, tctx: TaskContext):
        es, ed = graph.edge_parts[ep]
        lo = np.minimum(es, ed)
        hi = np.maximum(es, ed)
        keep = lo != hi
        tctx.cost.cpu_s += cm.compute_time(len(es))
        return [(lo[keep], hi[keep])]

    graph.emit_stage("graphx-canonical-emit", shuffle_id, p, p, emit)

    def dedup(rp: int, tctx: TaskContext, lo: np.ndarray, hi: np.ndarray):
        pairs = build_neighbor_block(lo, hi, dedupe=True)
        tctx.cost.cpu_s += cm.compute_time(len(lo))
        return pairs.sources(), pairs.neighbors

    empty = np.empty(0, dtype=np.int64)
    parts = graph.reduce_stage("graphx-canonical-dedup", shuffle_id, p, p,
                               dedup, lambda rp: (empty, empty))
    src = np.concatenate([a for a, _b in parts])
    dst = np.concatenate([b for _a, b in parts])
    # The dedup stage hands the whole canonical edge list back to the
    # driver, which is exactly the GraphX driver-bottleneck the paper
    # measures — charge the collection like rdd.collect() does.
    ctx.charge_driver_result(int(src.nbytes + dst.nbytes))
    return Graph.from_edges(ctx, src, dst, num_partitions=p)


def attach_neighbor_sets(graph: Graph) -> None:
    """Set every vertex's attr to its sorted undirected neighbor array (a
    :class:`~repro.common.batch.RaggedColumn` row).

    The first phase of triangle counting / common neighbor: one shuffle of
    both edge directions grouped per vertex.
    """
    ctx = graph.ctx
    cm = ctx.cluster.cost_model
    shuffle_id = ctx.next_shuffle_id()

    def emit(ep: int, tctx: TaskContext):
        es, ed = graph.edge_parts[ep]
        tctx.cost.cpu_s += cm.compute_time(len(es))
        return [(np.concatenate([es, ed]), np.concatenate([ed, es]))]

    graph.emit_stage("graphx-nbr-emit", shuffle_id,
                     graph.num_edge_partitions, graph.num_vertex_partitions,
                     emit)

    def no_neighbors(vp: int) -> None:
        part = graph.vertex_parts[vp]
        part.attrs = RaggedColumn(
            np.zeros(len(part.ids) + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64))

    def build(vp: int, tctx: TaskContext, targets: np.ndarray,
              others: np.ndarray) -> None:
        part = graph.vertex_parts[vp]
        with graph.temp_table(tctx, f"graphx-nbr-table:{vp}",
                              targets.nbytes + others.nbytes):
            block = build_neighbor_block(targets, others, dedupe=True)
            lens = np.zeros(len(part.ids), dtype=np.int64)
            lens[np.searchsorted(part.ids, block.vertices)] = block.degrees()
            part.attrs = RaggedColumn(
                np.concatenate([[0], np.cumsum(lens)]), block.neighbors)
            tctx.cost.cpu_s += cm.compute_time(len(targets))
        # Neighbor-set attrs are resident vertex state in GraphX.
        nbytes = int(part.attrs.boxed_nbytes() * cm.jvm_object_overhead)
        tag = f"graphx-nbrsets:{id(graph)}:{vp}"
        tctx.executor.container.memory.allocate(nbytes, tag=tag)
        graph._charged_tags.append((tctx.executor, tag))

    graph.reduce_stage("graphx-nbr-build", shuffle_id,
                       graph.num_edge_partitions,
                       graph.num_vertex_partitions, build, no_neighbors)


def _common_counts(src_attr, dst_attr) -> np.ndarray:
    """``|N(src) & N(dst)|`` per edge, from neighbor-set attrs."""
    table, left = src_attr
    _table, right = dst_attr
    block = NeighborBlock(np.arange(len(table)), table.indptr, table.values)
    return intersect_counts(block, left, right)[0]


def triangle_count(graph: Graph) -> int:
    """GraphX triangle counting: neighbor sets shipped to edge partitions.

    The replicated neighbor-set map on each edge partition is the memory
    bomb (size ~ sum over replicated vertices of their degree) — this is
    the Fig. 6 OOM on DS1 at 55 GB/executor.

    Returns:
        The global triangle count.
    """
    graph = canonical_graph(graph)
    try:
        attach_neighbor_sets(graph)

        def send(es, ed, src_attr, dst_attr):
            counts = _common_counts(src_attr, dst_attr)
            return [(es, counts.astype(np.float64))]

        per_vertex = graph.aggregate_messages(send, "sum")
        total = sum(float(vals.sum()) for _ids, vals in per_vertex)
    finally:
        graph.unpersist()
    # Over canonical edges every triangle closes exactly 3 edges.
    return int(round(total / 3.0))


def common_neighbor(graph: Graph, num_chunks: int = 4
                    ) -> List[Tuple[int, int, int]]:
    """Common-neighbor counts per edge, computed in edge chunks.

    Chunking bounds the replicated neighbor-set map (so DS1 completes,
    slowly — 1.5 h in the paper) but each chunk repeats the ship round, and
    hub replication still OOMs DS2.

    Returns:
        List of ``(src, dst, common_count)`` triples.
    """
    attach_neighbor_sets(graph)
    results: List[Tuple[int, int, int]] = []
    for chunk in range(num_chunks):
        # The chunk's own routing restricts the ship volume.
        with graph.edge_subset([
                (es[chunk::num_chunks], ed[chunk::num_chunks])
                for es, ed in graph.edge_parts]):
            results.extend(_common_neighbor_chunk(graph))
    return results


def _common_neighbor_chunk(graph: Graph) -> List[Tuple[int, int, int]]:
    """One chunk's ship + intersect pass, returning per-edge counts."""
    out: List[Tuple[int, int, int]] = []

    def send(es, ed, src_attr, dst_attr):
        counts = _common_counts(src_attr, dst_attr)
        # Stash the per-edge triples on the driver via closure (cheap
        # result data), and emit no messages.
        out.extend(zip(es.tolist(), ed.tolist(), counts.tolist()))
        return [(es[:0], np.empty(0))]

    graph.aggregate_messages(send, "sum")
    # Driver receives the result rows.
    graph.ctx.charge_driver_result(len(out) * 24)
    return out
