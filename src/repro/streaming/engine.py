"""The streaming window loop: poll, apply, incrementally recompute.

:class:`StreamingEngine` is the driver-side glue of the streaming plane.
Each :meth:`run_window` call drains the ingest consumer (mutations land
to HDFS and merge into the PS tables with at-least-once semantics, see
:mod:`repro.ingest.kafka`), applies the batch to the
:class:`~repro.streaming.graph.StreamingGraph`, and refreshes every
registered incremental algorithm from the resulting delta.

Both refresh paths are timed on the **sim clock**: the incremental
update's cost is measured directly, and (when ``measure_full`` is on)
a from-scratch recompute on scratch PS state provides the per-window
``recompute_cost_full`` baseline.  The pair lands in the
``streaming.window.cost_*`` histograms and their ratio in the
``streaming.window.cost_ratio`` gauge — the acceptance metric for the
incremental plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.metrics import (
    STREAM_COST_FULL_H,
    STREAM_COST_INC_H,
    STREAM_COST_RATIO_G,
    STREAM_DIRTY_VERTICES,
    STREAM_WINDOWS,
)
from repro.ingest.mutations import MutationBatch


@dataclass
class WindowReport:
    """What one streaming window did and what it cost (sim seconds)."""

    window: int
    records: int
    edges_added: int
    edges_removed: int
    vertices_dropped: int
    dirty_vertices: int
    cost_incremental_s: float
    cost_full_s: Optional[float]
    algo_stats: Dict[str, Dict[str, float]]

    @property
    def cost_ratio(self) -> Optional[float]:
        """Incremental / full cost; ``None`` without a full measurement."""
        if self.cost_full_s is None or self.cost_full_s <= 0.0:
            return None
        return self.cost_incremental_s / self.cost_full_s

    def to_dict(self) -> Dict[str, object]:
        d = {
            "window": self.window,
            "records": self.records,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "vertices_dropped": self.vertices_dropped,
            "dirty_vertices": self.dirty_vertices,
            "cost_incremental_s": self.cost_incremental_s,
            "cost_full_s": self.cost_full_s,
            "cost_ratio": self.cost_ratio,
            "algos": self.algo_stats,
        }
        return d


class StreamingEngine:
    """Window-driven incremental recompute over a mutation stream.

    Args:
        graph: the live :class:`StreamingGraph` (its PS tables mirror the
            consumer's merges).
        consumer: an :class:`~repro.ingest.kafka.EdgeStreamConsumer`
            whose ``sink`` buffers into this engine (see
            :meth:`attach_consumer`), or ``None`` to feed mutation
            batches directly to :meth:`run_window`.
        measure_full: when True, every window also runs (and times) a
            from-scratch recompute per algorithm on scratch PS state.
    """

    def __init__(self, graph, consumer=None, *,
                 measure_full: bool = True) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.spark = graph.psctx.spark
        self.metrics = self.spark.metrics
        self.consumer = consumer
        self.measure_full = measure_full
        self.algos: Dict[str, object] = {}
        self._started: set = set()  # names whose state has been computed
        self.reports: List[WindowReport] = []
        self._pending: List[MutationBatch] = []
        self._window = 0
        if consumer is not None:
            self.attach_consumer(consumer)

    def attach_consumer(self, consumer) -> None:
        """Buffer the consumer's merged mutations for the next window.

        The buffer checks every id first, with ``apply``'s error, so a
        poll holding a bad id raises inside its merge phase and commits
        nothing: the valid mutations it read are not lost with it."""
        self.consumer = consumer
        consumer.sink = self._buffer

    def _buffer(self, batch: MutationBatch) -> None:
        self.graph.check_ids(batch)
        self._pending.append(batch)

    def register(self, name: str, algo) -> object:
        """Register an incremental algorithm (bootstrap/update protocol)."""
        self.algos[name] = algo
        self._started.discard(name)
        return algo

    # ------------------------------------------------------------------
    # the window loop
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, Dict[str, float]]:
        """Initial full compute for every registered algorithm that has
        not had one.  Idempotent: seeding a state twice would double it."""
        stats = {}
        for name in sorted(set(self.algos) - self._started):
            self._started.add(name)
            stats[name] = self.algos[name].bootstrap()
        return stats

    def run_window(self, batch: Optional[MutationBatch] = None
                   ) -> WindowReport:
        """Drain one window of mutations and refresh every algorithm.

        ``batch`` bypasses the consumer (direct-feed mode); with a
        consumer attached, the window is whatever ``poll()`` merges.
        """
        if batch is None:
            if self.consumer is None:
                raise ValueError(
                    "run_window needs mutations or an attached consumer")
            self._pending.clear()
            self.consumer.poll()
            batch = MutationBatch.concat(self._pending)
            self._pending.clear()
        self._window += 1
        records = len(batch)

        t0 = self.spark.sim_time()
        delta = self.graph.apply(batch)
        algo_stats: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.algos):
            if name in self._started:
                algo_stats[name] = self.algos[name].update(delta)
            else:  # first window: the whole graph, not only this delta
                self._started.add(name)
                algo_stats[name] = self.algos[name].bootstrap()
        cost_inc = self.spark.sim_time() - t0

        cost_full: Optional[float] = None
        if self.measure_full:
            t1 = self.spark.sim_time()
            for name in sorted(self.algos):
                self.algos[name].full_recompute()
            cost_full = self.spark.sim_time() - t1

        dirty = int(len(delta.touched()))
        report = WindowReport(
            window=self._window,
            records=records,
            edges_added=delta.num_added,
            edges_removed=delta.num_removed,
            vertices_dropped=len(delta.dropped),
            dirty_vertices=dirty,
            cost_incremental_s=cost_inc,
            cost_full_s=cost_full,
            algo_stats=algo_stats,
        )
        self.reports.append(report)
        self.metrics.inc(STREAM_WINDOWS)
        self.metrics.inc(STREAM_DIRTY_VERTICES, dirty)
        self.metrics.observe(STREAM_COST_INC_H, cost_inc)
        if cost_full is not None:
            self.metrics.observe(STREAM_COST_FULL_H, cost_full)
            if report.cost_ratio is not None:
                self.metrics.set_gauge(STREAM_COST_RATIO_G,
                                       report.cost_ratio)
        return report

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Aggregate costs across every completed window."""
        inc = sum(r.cost_incremental_s for r in self.reports)
        full = sum(r.cost_full_s or 0.0 for r in self.reports)
        measured = [r for r in self.reports if r.cost_full_s]
        return {
            "windows": float(len(self.reports)),
            "cost_incremental_s": inc,
            "cost_full_s": full,
            "cost_ratio": (inc / full) if measured and full > 0 else 0.0,
        }
