"""GraphX-style fast unfolding (Louvain) — the Fig. 6 baseline at 10.3 h.

Without a parameter server every move round must move *tables* through
shuffles: the vertex (community, degree) table is shipped to edge
partitions, per-edge (neighbor-community, weight) messages are shuffled
back and *collected* (no combiner — Louvain needs the full multiset), and
the community weight totals are recomputed with a further groupBy and
re-broadcast via the driver.  Three shuffles of full tables per move round
versus PSGraph's incremental pulls/pushes — that is the 2.9x of Fig. 6.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.common.batch import louvain_move, modularity
from repro.dataflow.context import SparkContext
from repro.dataflow.taskctx import TaskContext
from repro.graphx.graph import Graph, VertexPartition, split_vertices


def fast_unfolding(ctx: SparkContext, src: np.ndarray, dst: np.ndarray,
                   weight: np.ndarray | None = None, *,
                   num_passes: int = 2, max_move_iterations: int = 5,
                   num_partitions: int | None = None
                   ) -> Tuple[np.ndarray, float, int]:
    """Louvain over shuffle joins.

    Returns:
        ``(communities, modularity, move_rounds)`` where ``communities``
        maps every vertex id < n to its community.
    """
    if weight is None:
        weight = np.ones(len(src))
    n = int(max(src.max(), dst.max())) + 1
    mapping = np.arange(n, dtype=np.int64)
    cur_src, cur_dst, cur_w = src, dst, weight
    total_rounds = 0
    for _ in range(num_passes):
        pass_map, rounds, moves = _one_pass(
            ctx, cur_src, cur_dst, cur_w, n,
            max_move_iterations, num_partitions,
        )
        total_rounds += rounds
        mapping = pass_map[mapping]
        if moves == 0:
            break
        # Community aggregation (a reduceByKey over relabeled edges).
        key = pass_map[cur_src] * n + pass_map[cur_dst]
        uniq, inverse = np.unique(key, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse, cur_w)
        cur_src = (uniq // n).astype(np.int64)
        cur_dst = (uniq % n).astype(np.int64)
        cur_w = w
        ctx.charge_driver_result(int(uniq.nbytes * 2 + w.nbytes))
    q = modularity(mapping[src], mapping[dst], weight)
    return mapping, q, total_rounds


def _one_pass(ctx: SparkContext, src: np.ndarray, dst: np.ndarray,
              w: np.ndarray, n: int, max_iters: int,
              num_partitions: int | None
              ) -> Tuple[np.ndarray, int, int]:
    """One modularity-optimization phase: ``(vertex -> community, move
    rounds, vertices moved)``."""
    p = num_partitions or ctx.cluster.num_executors
    p = max(1, min(p, max(1, len(src))))
    cm = ctx.cluster.cost_model
    weights = [w[i::p] for i in range(p)]
    # Vertex state lives in hash partitions: ids, com (the attr that is
    # shipped), k (weighted degree).
    k = np.zeros(n)
    np.add.at(k, src, w)
    np.add.at(k, dst, w)
    two_m = float(w.sum()) * 2.0
    graph = Graph(
        ctx, [(src[i::p], dst[i::p]) for i in range(p)],
        [VertexPartition(ids, ids.astype(np.float64))
         for ids in split_vertices(np.flatnonzero(k > 0), p)],
        broadcast=True)
    k_parts = [k[part.ids] for part in graph.vertex_parts]

    def compute(ep: int, cs: np.ndarray, cd: np.ndarray):
        es, ed = graph.edge_parts[ep]
        return [(np.concatenate([ed, es]), np.concatenate([cs, cd]),
                 np.concatenate([weights[ep], weights[ep]]))]

    com = np.arange(n, dtype=np.float64)  # latest global view (driver)
    rounds = total_moves = 0
    for round_idx in range(2 * max_iters):
        # Synchronous rounds oscillate when whole communities swap; the
        # standard distributed-Louvain fix is to let only half the
        # vertices (by id parity) move per round.
        parity = round_idx % 2
        # --- shuffle 1: community totals via groupBy(com) -> driver ----
        com_tot = _community_totals(graph, k_parts, n)

        # --- shuffle 2+3: ship attrs, emit (neighbor com, w) collects ---
        def reduce(vp: int, tctx: TaskContext, targets: np.ndarray,
                   mcom: np.ndarray, mw: np.ndarray) -> int:
            part = graph.vertex_parts[vp]
            with graph.temp_table(
                    tctx, f"gx-fu-msg:{vp}",
                    targets.nbytes + mcom.nbytes + mw.nbytes):
                mine = targets % 2 == parity
                moved, new = louvain_move(
                    part.ids, part.attrs, k_parts[vp], targets[mine],
                    mcom[mine], mw[mine], com_tot, two_m)
                part.attrs[moved] = new
                tctx.cost.cpu_s += cm.compute_time(len(targets))
            return len(moved)

        moves = sum(graph.join("gx-fu", "gx-fu-map", compute, reduce,
                               lambda vp: 0))
        rounds += 1
        total_moves += moves
        if moves == 0 and parity == 1:
            break

    for part in graph.vertex_parts:
        com[part.ids] = part.attrs
    return com.astype(np.int64), rounds, total_moves


def _community_totals(graph: Graph, k_parts: List[np.ndarray],
                      n: int) -> np.ndarray:
    """groupBy(community).sum(k) + driver collect + broadcast: the total
    weighted degree of every community id below ``n`` (0 where none)."""
    ctx = graph.ctx
    cm = ctx.cluster.cost_model
    shuffle_id = ctx.next_shuffle_id()
    p = graph.num_vertex_partitions

    def emit(vp: int, tctx: TaskContext):
        return [(graph.vertex_parts[vp].attrs, k_parts[vp])]

    graph.emit_stage("gx-fu-tot-emit", shuffle_id, p, p, emit)

    def reduce(rp: int, tctx: TaskContext, coms: np.ndarray,
               ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        uids, inverse = np.unique(coms, return_inverse=True)
        tctx.cost.cpu_s += cm.compute_time(len(coms))
        # Sequential, in arrival order: what np.add.at would add up.
        return uids, np.bincount(inverse, weights=ks)

    parts = graph.reduce_stage(
        "gx-fu-tot-reduce", shuffle_id, p, p, reduce,
        lambda rp: (np.empty(0), np.empty(0)))
    out = np.zeros(n)
    for uids, sums in parts:
        out[uids.astype(np.int64)] = sums
    ctx.charge_driver_result(sum(len(uids) for uids, _s in parts) * 16)
    return out
