"""Delta PageRank on the parameter server (Sec. IV-A).

"An optimization of this update rule is to use the increments of ranks
instead of the ranks.  Since the ranks of many vertices barely change after
several iterations, we leverage this sparsity to reduce the communication
cost by transferring the increments of ranks."

PS state is one matrix with four columns per vertex:

====  ==========================================================
col   meaning
====  ==========================================================
0     accumulated rank  (the paper's ``ranks`` vector)
1     Δrank readable this iteration (the paper's ``Δranks``)
2     Δrank being accumulated by pushes for the next iteration
3     out-degree ``L(j)``
====  ==========================================================

One iteration is exactly the paper's five steps: executors pull col 1 for
their local sources, compute destination contributions, push them into
col 2; at the barrier a psFunc advances the state (col 0 += col 2,
col 1 <- col 2, col 2 <- 0) and returns the residual for convergence.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.batch import segment_index, sorted_unique
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import NeighborBlock
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    max_vertex_id,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD
from repro.ps.psfunc import PsFunc
from repro.ps.storage import DenseRowStore

RANK, DELTA, DELTA_NEXT, OUT_DEG = 0, 1, 2, 3


class PageRankAdvance(PsFunc):
    """End-of-iteration state advance, run where the data lives.

    ``rank += delta_next; delta <- delta_next; delta_next <- 0`` and the
    partial L1 norm of the new delta is returned as the residual.
    """

    def apply(self, store: DenseRowStore) -> float:
        arr = store.array
        arr[:, RANK] += arr[:, DELTA_NEXT]
        arr[:, DELTA] = arr[:, DELTA_NEXT]
        arr[:, DELTA_NEXT] = 0.0
        return float(np.abs(arr[:, DELTA]).sum())

    def merge(self, partials) -> float:
        return float(sum(p for p in partials if p is not None))

    def flops(self, store: DenseRowStore) -> float:
        return 3.0 * store.array.shape[0]


class FullPageRankAdvance(PsFunc):
    """Non-delta (classic power-iteration) advance, for the ablation.

    ``rank <- base + delta_next`` with the residual being the total rank
    change; ``delta_next`` is cleared.
    """

    def __init__(self, base: float) -> None:
        self.base = base

    def apply(self, store: DenseRowStore) -> float:
        arr = store.array
        new = self.base + arr[:, DELTA_NEXT]
        # Untouched vertices (rank exactly 0) stay absent.
        present = arr[:, RANK] > 0.0
        residual = float(
            np.abs(new[present] - arr[present, RANK]).sum()
        )
        arr[present, RANK] = new[present]
        arr[:, DELTA_NEXT] = 0.0
        return residual

    def merge(self, partials) -> float:
        return float(sum(p for p in partials if p is not None))

    def flops(self, store: DenseRowStore) -> float:
        return 4.0 * store.array.shape[0]


class PageRank(GraphAlgorithm):
    """PSGraph PageRank.

    Args:
        max_iterations: iteration budget.
        tol: stop when the summed |Δrank| falls below ``tol`` per vertex.
        damping: the 0.85 of the classic formulation.
        use_delta: the paper's increment optimization (Sec. IV-A); when
            False, full ranks are pulled and pushed each iteration (the
            ablation baseline).
        delta_threshold: in delta mode, sources whose |Δrank| is below the
            threshold are skipped entirely — "the ranks of many vertices
            barely change after several iterations" — trading a bounded
            error for less communication.
    """

    name = "pagerank"
    #: PS partitioner kind for the state matrix.
    partition = "range"

    def __init__(self, max_iterations: int = 30, tol: float = 1e-6,
                 damping: float = 0.85, use_delta: bool = True,
                 delta_threshold: float = 0.0) -> None:
        self.max_iterations = max_iterations
        self.tol = tol
        self.damping = damping
        self.use_delta = use_delta
        self.delta_threshold = delta_threshold

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        tables = to_neighbor_tables(dataset).cache()
        n = max_vertex_id(dataset) + 1
        state = ctx.ps.create_matrix(
            self._unique_name(ctx, "pagerank"), n, 4,
            partition=self.partition,
        )
        base = 1.0 - self.damping
        damping = self.damping

        def init(it: Iterator[NeighborBlock]) -> None:
            for block in it:
                if block.num_vertices == 0:
                    continue
                state.push(
                    block.vertices,
                    block.degrees().astype(np.float64), col=OUT_DEG,
                )
                ids = sorted_unique(
                    np.concatenate([block.vertices, block.neighbors])
                )
                fill = np.full(len(ids), base)
                state.set(ids, fill, col=DELTA)
                state.set(ids, fill, col=RANK)

        tables.foreach_partition(init)
        ctx.ps.barrier()

        use_delta = self.use_delta
        threshold = self.delta_threshold
        cost_model = ctx.cluster.cost_model

        def step(it: Iterator[NeighborBlock]) -> int:
            pushed = 0
            for block in it:
                if block.num_vertices == 0:
                    continue
                vertices = block.vertices
                degrees = block.degrees()
                if use_delta and threshold > 0.0:
                    # Skip sources whose increment is negligible — the
                    # sparsity the paper exploits.
                    deltas = state.pull(vertices, col=DELTA)
                    active = np.abs(deltas) > threshold
                    if not active.any():
                        continue
                    keep = segment_index(block.indptr[:-1][active],
                                         degrees[active])[1]
                    targets, inverse = np.unique(
                        block.neighbors[keep], return_inverse=True)
                    deltas = deltas[active]
                    degrees = degrees[active]
                else:
                    col = DELTA if use_delta else RANK
                    deltas = state.pull(vertices, col=col)
                    targets, inverse = block.scatter_plan()
                deg = np.maximum(degrees, 1).astype(np.float64)
                coef = damping * deltas / deg
                contrib = np.repeat(coef, degrees)
                sums = np.zeros(len(targets))
                np.add.at(sums, inverse, contrib)
                charge_primitive_compute(cost_model, len(inverse))
                state.push(targets, sums, col=DELTA_NEXT)
                pushed += len(targets)
            return pushed

        iterations = 0
        residual = float("inf")
        advance = (PageRankAdvance() if use_delta
                   else FullPageRankAdvance(base))
        # PageRank cannot bear inconsistency between model partitions
        # (Sec. III-B), so server failures roll every partition back to
        # the last checkpoint and the interrupted iteration is redone.
        ctx.ps.recovery_mode = "strict"
        ctx.ps.start_iterations()
        while ctx.ps.progress < self.max_iterations:
            gen = ctx.ps.rollback_generation
            tables.foreach_partition(step)
            ctx.ps.barrier()
            if ctx.ps.rollback_generation != gen:
                # A server died mid-step and strict recovery rolled the
                # model back; tasks that ran after the restore pushed
                # partial deltas into it, so restore a clean snapshot and
                # redo the iteration.
                ctx.ps.rollback()
                continue
            residual = state.psfunc(advance)
            if ctx.ps.rollback_generation != gen:
                ctx.ps.rollback()
                continue
            ctx.ps.complete_iteration()
            if ctx.ps.rollback_generation != gen:
                ctx.ps.rollback()
                continue
            iterations = ctx.ps.progress
            if residual <= self.tol * n:
                break
            if not use_delta:
                advance = FullPageRankAdvance(base)

        full = state.to_numpy()
        ranks = full[:, RANK]
        present = ranks > 0.0
        ids = np.flatnonzero(present)
        rows = list(zip(ids.tolist(), ranks[present].tolist()))
        output = ctx.create_dataframe(rows, ["vertex", "rank"])
        tables.unpersist()
        return AlgorithmResult(
            output, iterations,
            stats={"residual": residual, "num_vertices": int(present.sum())},
        )
