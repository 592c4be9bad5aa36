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

from repro.core.algorithms.pagerank import PageRank
from repro.core.ops import edges_from_arrays
from repro.dataflow.dataframe import DataFrame

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

    def create_dataframe(self, rows, schema, num_partitions=None):
        return DataFrame(
            self.spark.parallelize(list(rows), num_partitions), schema
        )


class IncrementalPageRank:
    """PS-resident PageRank kept fresh across mutation windows.

    Args:
        graph: the live :class:`~repro.streaming.graph.StreamingGraph`.
        name: PS matrix name for the ``[rank, residual]`` state.
        damping: the classic 0.85.
        tol: per-vertex residual threshold; pushes stop when every
            ``|e|`` is at or below it.
        max_rounds: expansion-wave budget per refresh (safety valve).
    """

    def __init__(self, graph, *, name: str = "stream.pagerank",
                 damping: float = 0.85, tol: float = 1e-9,
                 max_rounds: int = 1000) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.damping = damping
        self.tol = tol
        self.max_rounds = max_rounds
        self.state = self.psctx.create_matrix(
            name, graph.num_vertices, 2
        )
        self._scratch_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Full compute from scratch into the live state (first window)."""
        present = self.graph.present_vertices()
        base = 1.0 - self.damping
        return self._push(self.state,
                          {int(v): base for v in present.tolist()})

    def update(self, delta) -> Dict[str, float]:
        """Repair residuals for one window's delta and re-push.

        Repairs are *seeded into the local cascade* rather than pushed
        to the PS and re-pulled: the cascade materializes each touched
        vertex's true residual as ``PS value + seed`` and commits the
        final values once, so the repair itself costs no extra rounds.
        """
        if delta.is_empty():
            return {"rounds": 0.0, "pushes": 0.0, "frontier": 0.0}
        base = 1.0 - self.damping
        seed: Dict[int, float] = {}

        # Presence gained: inject the (1-d) base residual.
        for v in delta.became_present.tolist():
            seed[int(v)] = seed.get(int(v), 0.0) + base

        # Contribution repair for every source whose out-list changed:
        # subtract the old per-neighbor contribution, add the new one.
        sources = np.asarray(sorted(delta.old_out), dtype=np.int64)
        if len(sources):
            ranks = self.state.pull(sources, col=RANK)
            new_outs = self.graph.out.get(sources)
            for (v, new_n), r in zip(new_outs.rows(), ranks):
                if r == 0.0:
                    continue
                old_n = delta.old_out[int(v)]
                if len(old_n):
                    c = -self.damping * r / len(old_n)
                    for t in old_n.tolist():
                        seed[int(t)] = seed.get(int(t), 0.0) + c
                if len(new_n):
                    c = self.damping * r / len(new_n)
                    for t in new_n.tolist():
                        seed[int(t)] = seed.get(int(t), 0.0) + c

        # Presence lost: the vertex holds no rank and no residual.
        gone = np.union1d(delta.became_absent, delta.dropped)
        if len(gone):
            zeros = np.zeros(len(gone))
            self.state.set(gone, zeros, col=RANK)
            self.state.set(gone, zeros, col=RESID)
            for v in gone.tolist():
                seed.pop(int(v), None)

        stats = self._push(self.state, seed)
        stats["frontier"] = float(len(seed))
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

    def full_recompute(self, *, max_iterations: int = 200
                       ) -> Tuple[np.ndarray, np.ndarray]:
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
        job = PageRank(max_iterations=max_iterations, tol=self.tol,
                       damping=self.damping)
        before = set(self.psctx.matrix_names())
        saved_recovery = self.psctx.recovery_mode
        try:
            result = job.transform(_BatchCtx(self.psctx), edges)
        finally:
            self.psctx.recovery_mode = saved_recovery
        got = {int(v): float(r)
               for v, r in result.output.rdd.collect()}
        ranks = np.asarray([got.get(int(v), 0.0)
                            for v in present.tolist()])
        for name in set(self.psctx.matrix_names()) - before:
            self.psctx.drop_matrix(name)
        return present, ranks

    # ------------------------------------------------------------------
    # the push cascade
    # ------------------------------------------------------------------

    def _push(self, state, seed: Dict[int, float]) -> Dict[str, float]:
        """Drive every reachable residual below ``tol``; invariant-safe.

        ``seed`` maps frontier vertices to residual *increments* applied
        on top of their PS-resident residual when they materialize —
        residual repairs therefore ride along for free instead of
        costing their own push/pull round.

        Wave structure: materialize the frontier's residuals + adjacency
        from the PS (two group calls), relax locally to convergence, and
        repeat for whatever new vertices the cascade reached.  Commits
        rank deltas and absolute residuals in two group calls at the end.
        """
        d, tol = self.damping, self.tol
        e_local: Dict[int, float] = {}
        r_delta: Dict[int, float] = {}
        adj: Dict[int, np.ndarray] = {}
        rounds = 0
        pushes = 0
        received: Dict[int, float] = {int(v): float(a)
                                      for v, a in seed.items()}
        while rounds < self.max_rounds:
            # Materialize: vertices the cascade reached get their true
            # residual (PS value + what they received locally) exactly
            # once — re-pulling would clobber uncommitted local state.
            pend = sorted(received)
            if pend:
                vs = np.asarray(pend, dtype=np.int64)
                for v, e in zip(pend, state.pull(vs, col=RESID)):
                    e_local[v] = float(e) + received.pop(v)
            hot = sorted(v for v in e_local
                         if abs(e_local[v]) > tol and v not in adj)
            if not pend and not hot:
                break
            rounds += 1
            if hot:
                hs = np.asarray(hot, dtype=np.int64)
                adj.update(self.graph.out.get(hs).rows())
            # Local relaxation (vectorized Jacobi sweeps): free on the
            # sim clock, exact on the invariant.  Only vertices with
            # known adjacency relax; mass landing outside the wave's
            # reach is banked for the next wave's materialization.
            wave = sorted(v for v in e_local if v in adj)
            if not wave:
                continue
            wave_arr = np.asarray(wave, dtype=np.int64)
            e = np.asarray([e_local[v] for v in wave])
            nbrs = [adj[v] for v in wave]
            lens = np.asarray([len(t) for t in nbrs], dtype=np.int64)
            coef_k = np.where(lens > 0,
                              d / np.maximum(lens, 1).astype(np.float64),
                              0.0)  # dangling: mass drops, as in batch
            r_acc = np.zeros(len(wave))
            if int(lens.sum()):
                flat = np.concatenate([t for t in nbrs if len(t)])
                src_idx = np.repeat(np.arange(len(wave)), lens)
                ins = np.minimum(np.searchsorted(wave_arr, flat),
                                 len(wave_arr) - 1)
                internal = wave_arr[ins] == flat
                int_tgt = ins[internal]
                # Each edge's source row, split once per wave (not once
                # per sweep) by where the edge lands.
                int_src, ext_src = src_idx[internal], src_idx[~internal]
                ext_ids, ext_inv = np.unique(flat[~internal],
                                             return_inverse=True)
            else:
                flat = np.empty(0, dtype=np.int64)
                ext_ids = np.empty(0, dtype=np.int64)
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
            for i, v in enumerate(wave):
                if r_acc[i]:
                    r_delta[v] = r_delta.get(v, 0.0) + float(r_acc[i])
                e_local[v] = float(e[i])
            for u, a in zip(ext_ids.tolist(), ext_acc.tolist()):
                if a == 0.0:
                    continue
                u = int(u)
                if u in e_local:
                    e_local[u] += a
                else:
                    received[u] = received.get(u, 0.0) + a
        # Commit: rank increments and absolute residuals, one call each.
        if r_delta:
            ids = np.asarray(sorted(r_delta), dtype=np.int64)
            state.push(ids, np.asarray([r_delta[int(v)] for v in ids]),
                       col=RANK)
        if e_local:
            ids = np.asarray(sorted(e_local), dtype=np.int64)
            state.set(ids, np.asarray([e_local[int(v)] for v in ids]),
                      col=RESID)
        self.psctx.barrier()
        return {"rounds": float(rounds), "pushes": float(pushes)}
