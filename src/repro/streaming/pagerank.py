"""Incremental delta-PageRank over a :class:`StreamingGraph`.

The batch algorithm (Sec. IV-A) already transfers rank *increments*; this
module takes the idea to its streaming conclusion: keep rank ``r`` and a
residual ``e`` PS-resident and maintain the Gauss–Southwell invariant

    e(v) = (1 - d) · present(v) + d · Σ_{u→v} r(u)/deg(u) − r(v)

between windows.  A *push* at ``v`` (``r(v) += e(v)``; propagate
``d·e(v)/deg(v)`` to the out-neighbors; ``e(v) = 0``) preserves the
invariant, and driving every ``|e|`` below ``tol`` makes ``r`` the
damped-PageRank fixed point of the *current* graph (to within ``tol``) —
the same fixed point the batch recurrence converges to, with dangling
vertices dropping their mass.

A mutation window only perturbs the invariant locally: each mutated
source's contribution ``d·r(u)/deg(u)`` changes for its old and new
out-neighbors, and presence flips inject or clear the ``(1-d)`` base.
:meth:`update` repairs exactly those residuals from the
:class:`~repro.streaming.graph.GraphDelta` (which carries the pre-window
out-neighbor snapshots) and re-pushes from the dirty frontier.

The push cascade runs **driver-local**: residuals and adjacency of the
affected region are pulled once (per expansion wave, not per decay
round), the relaxation sweeps happen in driver memory, and the result is
committed back in O(1) group calls.  On the sim clock the refresh
therefore costs RPC rounds proportional to how far the perturbation
*reaches*, and bytes proportional to the vertices it *touches* — not the
graph — which is what makes the incremental path beat a from-scratch
recompute by the margins docs/streaming.md reports.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.common.batch import gather_segments, sorted_unique
from repro.core.algorithms.pagerank import PageRank
from repro.core.ops import edges_from_arrays
from repro.dataflow.dataframe import DataFrame
from repro.streaming.graph import RowMemo

RANK, RESID = 0, 1


class _BatchCtx:
    """Duck-typed :class:`~repro.core.context.PSGraphContext` facade.

    The streaming plane holds only the :class:`PSContext`; the batch
    algorithms want the full graph context.  This exposes the three
    members :class:`~repro.core.algorithms.pagerank.PageRank` actually
    touches (``ps``, ``cluster``, ``create_dataframe``) over the live
    session, so a from-scratch batch run shares the sim clock and the
    PS fleet with the streaming state it is benchmarked against.
    """

    def __init__(self, psctx) -> None:
        self.ps = psctx
        self.spark = psctx.spark
        self.cluster = psctx.spark.cluster

    def create_dataframe(self, rows, schema):
        return DataFrame(self.spark.parallelize(list(rows)), schema)


class IncrementalPageRank:
    """PS-resident PageRank kept fresh across mutation windows.

    Args:
        graph: the live :class:`~repro.streaming.graph.StreamingGraph`.
        damping: the classic 0.85.
        tol: per-vertex residual threshold; pushes stop when every
            ``|e|`` is at or below it.
    """

    #: PS matrix name for the ``[rank, residual]`` state.
    matrix_name = "stream.pagerank"
    #: Expansion-wave budget per refresh (safety valve).
    max_rounds = 1000
    #: Iteration budget of :meth:`full_recompute`'s batch PageRank.
    full_max_iterations = 200

    def __init__(self, graph, *, damping: float = 0.85,
                 tol: float = 1e-9) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.damping = damping
        self.tol = tol
        self.state = self.psctx.create_matrix(
            self.matrix_name, graph.num_vertices, 2
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Full compute from scratch into the live state (first window)."""
        present = self.graph.present_vertices()
        return self._push(self.state, present,
                          np.full(len(present), 1.0 - self.damping))

    def update(self, delta) -> Dict[str, float]:
        """Repair residuals for one window's delta and re-push.

        Repairs are *seeded into the local cascade* rather than pushed
        to the PS and re-pulled: the cascade materializes each touched
        vertex's true residual as ``PS value + seed`` and commits the
        final values once, so the repair itself costs no extra rounds.
        """
        if delta.is_empty():
            return {"rounds": 0.0, "pushes": 0.0, "frontier": 0.0}
        d = self.damping
        n = self.graph.num_vertices
        # Presence gained injects the (1-d) base residual; every touched
        # source with rank moves its contribution from its old out-row
        # to its new one.  One scatter-add, in the order the increments
        # reach each vertex: the base first, then source after source
        # (ascending), each source's old row before its new one.
        targets = [delta.became_present]
        amounts = [np.full(len(delta.became_present), 1.0 - d)]
        old = delta.old_out
        sources = old.vertices
        if len(sources):
            ranks = self.state.pull(sources, col=RANK)
            new = self.graph.out.get(sources)
            live = ranks != 0.0
            old_lens = np.where(live, old.degrees(), 0)
            new_lens = np.where(live, new.degrees(), 0)
            # Old and new rows interleave as segments of one pool.
            pool = np.concatenate([old.neighbors, new.neighbors])
            starts = np.stack([old.indptr[:-1],
                               new.indptr[:-1] + len(old.neighbors)], axis=1)
            lens = np.stack([old_lens, new_lens], axis=1).reshape(-1)
            coef = np.stack([-d * ranks / np.maximum(old_lens, 1),
                             d * ranks / np.maximum(new_lens, 1)], axis=1)
            targets.append(gather_segments(pool, starts.reshape(-1),
                                           lens)[1])
            amounts.append(np.repeat(coef.reshape(-1), lens))
        targets = np.concatenate(targets)
        seed = np.zeros(n)
        np.add.at(seed, targets, np.concatenate(amounts))
        seeded = np.zeros(n, dtype=bool)
        seeded[targets] = True

        # Presence lost: the vertex holds no rank and no residual.
        gone = sorted_unique(np.concatenate([delta.became_absent,
                                             delta.dropped]))
        if len(gone):
            zeros = np.zeros(len(gone))
            self.state.set(gone, zeros, col=RANK)
            self.state.set(gone, zeros, col=RESID)
            seeded[gone] = False

        frontier = np.flatnonzero(seeded)
        stats = self._push(self.state, frontier, seed[frontier])
        stats["frontier"] = float(len(frontier))
        return stats

    # ------------------------------------------------------------------
    # results & verification
    # ------------------------------------------------------------------

    def ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, ranks)`` of the live graph's present vertices."""
        present = self.graph.present_vertices()
        if len(present) == 0:
            return present, np.empty(0)
        return present, self.state.pull(present, col=RANK)

    def full_recompute(self) -> Tuple[np.ndarray, np.ndarray]:
        """From-scratch **batch** recompute (the cost yardstick).

        This is what every window would cost without the streaming
        plane: export the current edge set, shuffle it into neighbor
        tables, and run the repo's batch delta-PageRank pipeline
        (Sec. IV-A) — BSP iterations against a fresh PS matrix, with
        per-round executor compute and PS traffic all on the sim
        clock.  The incremental path is judged against this number as
        ``recompute_cost_full`` vs ``recompute_cost_incremental``.
        """
        present = self.graph.present_vertices()
        if len(present) == 0:
            return present, np.empty(0)
        outs = self.graph.out.get(present)
        src, dst = outs.sources(), outs.neighbors
        spark = self.psctx.spark
        edges = edges_from_arrays(spark, src, dst)
        job = PageRank(max_iterations=self.full_max_iterations, tol=self.tol,
                       damping=self.damping)
        before = set(self.psctx.matrix_names())
        saved_recovery = self.psctx.recovery_mode
        try:
            result = job.transform(_BatchCtx(self.psctx), edges)
        finally:
            self.psctx.recovery_mode = saved_recovery
        rows = np.array(result.output.rdd.collect(),
                        dtype=[("vertex", np.int64), ("rank", np.float64)])
        full = np.zeros(self.graph.num_vertices)
        full[rows["vertex"]] = rows["rank"]
        ranks = full[present]
        for name in set(self.psctx.matrix_names()) - before:
            self.psctx.drop_matrix(name)
        return present, ranks

    # ------------------------------------------------------------------
    # the push cascade
    # ------------------------------------------------------------------

    def _push(self, state, seed_ids: np.ndarray,
              seed: np.ndarray) -> Dict[str, float]:
        """Drive every reachable residual below ``tol``; invariant-safe.

        ``seed`` holds residual *increments* for the frontier vertices
        ``seed_ids`` (ascending, distinct), applied on top of their
        PS-resident residual when they materialize — residual repairs
        therefore ride along for free instead of costing their own
        push/pull round.

        Wave structure: materialize the frontier's residuals + adjacency
        from the PS (two group calls), relax locally to convergence, and
        repeat for whatever new vertices the cascade reached.  Commits
        rank deltas and absolute residuals in two group calls at the end.

        Driver state is indexed by vertex id: the materialized residuals
        ``e_local``, the mass ``received`` by vertices not materialized
        yet, the rank increments ``r_delta`` — each with a mask of the
        vertices it holds — the out-rows fetched so far (``adj``) and
        each wave vertex's position in the wave (``slot``, -1 outside it).
        """
        d, tol = self.damping, self.tol
        n = self.graph.num_vertices
        e_local = np.zeros(n)
        materialized = np.zeros(n, dtype=bool)
        r_delta = np.zeros(n)
        has_delta = np.zeros(n, dtype=bool)
        received = np.zeros(n)
        pending = np.zeros(n, dtype=bool)
        received[seed_ids] = seed
        pending[seed_ids] = True
        slot = np.full(n, -1, dtype=np.int64)
        adj = RowMemo(n, self.graph.out.get)
        rounds = 0
        pushes = 0
        while rounds < self.max_rounds:
            # Materialize: vertices the cascade reached get their true
            # residual (PS value + what they received locally) exactly
            # once — re-pulling would clobber uncommitted local state.
            pend = np.flatnonzero(pending)
            if len(pend):
                e_local[pend] = state.pull(pend, col=RESID) + received[pend]
                materialized[pend] = True
                pending[pend] = False
            known = adj.known()
            hot = materialized & ~known & (np.abs(e_local) > tol)
            if not len(pend) and not hot.any():
                break
            rounds += 1
            # Local relaxation (vectorized Jacobi sweeps): free on the
            # sim clock, exact on the invariant.  Only vertices with
            # known adjacency relax; mass landing outside the wave's
            # reach is banked for the next wave's materialization.
            wave_arr = np.flatnonzero(known | hot)
            if not len(wave_arr):
                continue
            e = e_local[wave_arr]
            nbrs = adj.rows(wave_arr)  # fetches the hot rows, one call
            lens = nbrs.degrees()
            coef_k = np.where(lens > 0,
                              d / np.maximum(lens, 1).astype(np.float64),
                              0.0)  # dangling: mass drops, as in batch
            r_acc = np.zeros(len(wave_arr))
            flat = nbrs.neighbors
            if len(flat):
                src_idx = np.repeat(np.arange(len(wave_arr)), lens)
                slot[wave_arr] = np.arange(len(wave_arr))
                ins = slot.take(flat)
                slot[wave_arr] = -1
                internal = ins >= 0
                int_tgt = ins[internal]
                # Each edge's source row, split once per wave (not once
                # per sweep) by where the edge lands.
                int_src, ext_src = src_idx[internal], src_idx[~internal]
                ext_ids, ext_inv = np.unique(flat[~internal],
                                             return_inverse=True)
            else:
                ext_ids = flat
            ext_acc = np.zeros(len(ext_ids))
            while True:
                active = np.abs(e) > tol
                if not active.any():
                    break
                ev = np.where(active, e, 0.0)
                r_acc += ev
                e = np.where(active, 0.0, e)
                pushes += int(active.sum())
                if not len(flat):
                    continue
                contrib = coef_k * ev
                if len(int_tgt):
                    np.add.at(e, int_tgt, contrib[int_src])
                if len(ext_ids):
                    np.add.at(ext_acc, ext_inv, contrib[ext_src])
            moved = r_acc != 0.0
            r_delta[wave_arr[moved]] += r_acc[moved]
            has_delta[wave_arr[moved]] = True
            e_local[wave_arr] = e
            banked = ext_acc != 0.0
            ext_ids, ext_acc = ext_ids[banked], ext_acc[banked]
            here = materialized[ext_ids]
            e_local[ext_ids[here]] += ext_acc[here]
            received[ext_ids[~here]] += ext_acc[~here]
            pending[ext_ids[~here]] = True
        # Commit: rank increments and absolute residuals, one call each.
        if has_delta.any():
            ids = np.flatnonzero(has_delta)
            state.push(ids, r_delta[ids], col=RANK)
        if materialized.any():
            ids = np.flatnonzero(materialized)
            state.set(ids, e_local[ids], col=RESID)
        self.psctx.barrier()
        return {"rounds": float(rounds), "pushes": float(pushes)}
