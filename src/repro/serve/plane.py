"""The serving plane: PS-resident models behind admission-controlled lookups.

:class:`ServingPlane` replays a generated request stream against matrices
and vectors living on the parameter servers, entirely on the simulated
clock.  The loop runs in fixed *service quanta* (default 50 sim-ms): each
quantum admits every request that arrived inside it — through the tenant
rate limiter, the watermark backpressure gate, and the bounded priority
queue, recording a :class:`~repro.serve.admission.DropRecord` for every
casualty — then drains one micro-batch, serves it with the hot-key cache
in front of agent pulls, and observes the per-request latency
(completion minus arrival) into the ``serve.latency_s`` histogram.

Failure behavior rides the existing machinery: a chaos ``kill_server``
makes the next pull raise, the agent auto-recovers through the PS master
(charging the full restart delay to the driver clock), and the plane
notices the bumped ``recovery_generation`` — it flushes the hot cache,
marks itself *degraded* until the backlog drains, and mirrors latencies
observed while degraded into ``serve.latency.degraded_s`` so reports can
quote a degraded-mode p99.  Every quantum ticks the telemetry collector
and every served batch fires the task hooks (stage id ``-1``, kind
``"serve"``), so SLO burn-rate alerting and ``after_tasks`` fault
triggers both work mid-traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.batch import sorted_unique
from repro.common.errors import ConfigError
from repro.common.metrics import (
    SERVE_BATCH_SIZE_H,
    SERVE_BATCHES,
    SERVE_DEGRADED_LATENCY_H,
    SERVE_EVICTED_CAPACITY,
    SERVE_EVICTED_DEADLINE,
    SERVE_LATENCY_H,
    SERVE_QUEUE_DEPTH_G,
    SERVE_RATE_LIMITED,
    SERVE_REQUESTS,
    SERVE_SERVED,
    SERVE_SHED,
)
from repro.obs.slo import SloSpec
from repro.ps.matrix import PSEmbedding
from repro.serve.admission import AdmissionQueue, DropRecord
from repro.serve.hotcache import HotKeyCache
from repro.serve.limiter import TenantRateLimiter, WatermarkGate
from repro.serve.workload import Request, TenantSpec

#: Serving stage id passed to task hooks (no dataflow stage owns it).
SERVE_STAGE_ID = -1


def default_serve_slos() -> List[SloSpec]:
    """The stock serving SLO: 99% of lookups complete within 250 sim-ms.

    Healthy quanta finish far below the threshold; a PS restart parks
    whole batches behind a ~30 sim-s recovery, so the burn rate saturates
    both alert windows and the ``serve-latency`` alert fires between
    injection and backlog drain.
    """
    return [
        SloSpec(
            name="serve-latency",
            description="online lookups complete within 250 sim-ms",
            kind="latency",
            objective=0.99,
            histogram=SERVE_LATENCY_H,
            threshold_s=0.25,
            short_windows=1,
            long_windows=3,
            burn_threshold=5.0,
        ),
    ]


@dataclass
class ServingReport:
    """Aggregate outcome of one serving run (all times simulated)."""

    offered: int
    served: int
    drops: Dict[str, int]
    p50_s: float
    p99_s: float
    degraded_p99_s: Optional[float]
    cache_hit_rate: float
    batches: int
    gate_transitions: int
    peak_depth: int
    recoveries: int
    start_s: float
    end_s: float
    drop_records: List[DropRecord] = field(default_factory=list)

    @property
    def dropped(self) -> int:
        """Total requests dropped, over every reason."""
        return sum(self.drops.values())

    def conserved(self) -> bool:
        """The plane's conservation law: nothing vanished silently."""
        return self.offered == self.served + self.dropped

    def to_dict(self) -> dict:
        """JSON-friendly summary (drop records elided)."""
        return {
            "offered": self.offered,
            "served": self.served,
            "drops": dict(self.drops),
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "degraded_p99_s": self.degraded_p99_s,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "gate_transitions": self.gate_transitions,
            "peak_depth": self.peak_depth,
            "recoveries": self.recoveries,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "conserved": self.conserved(),
        }


class ServingPlane:
    """Admission-controlled lookup service over PS-resident models.

    Args:
        psctx: the PS context holding the served matrices.
        tenants: tenant specs (limits/priorities are read from these).
        queue_capacity: bounded admission-queue size.
        batch_size: max requests served per quantum.
        service_interval_s: scheduling quantum on the sim clock.
        cache_capacity: hot-key cache entries per model.
        high_watermark / low_watermark: backpressure hysteresis depths;
            default to 75% / 25% of the queue capacity.
    """

    def __init__(self, psctx, tenants: Sequence[TenantSpec], *,
                 queue_capacity: int = 512, batch_size: int = 256,
                 service_interval_s: float = 0.05,
                 cache_capacity: int = 256,
                 high_watermark: Optional[int] = None,
                 low_watermark: Optional[int] = None) -> None:
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if service_interval_s <= 0.0:
            raise ConfigError("service_interval_s must be > 0")
        self.psctx = psctx
        self.spark = psctx.spark
        self.tenants = list(tenants)
        self.batch_size = batch_size
        self.service_interval_s = service_interval_s
        self.queue = AdmissionQueue(queue_capacity)
        self.limiter = TenantRateLimiter(self.tenants)
        protect = max(t.priority for t in self.tenants)
        self.gate = WatermarkGate(
            high=(high_watermark if high_watermark is not None
                  else max(2, (queue_capacity * 3) // 4)),
            low=(low_watermark if low_watermark is not None
                 else max(1, queue_capacity // 4)),
            protect_priority=protect,
        )
        metrics = self.spark.metrics
        self._pulls = {}
        self._caches: Dict[str, HotKeyCache] = {}
        for tenant in self.tenants:
            if tenant.model not in self._pulls:
                handle = psctx.matrix(tenant.model)
                # Embeddings shard by column and only serve whole rows.
                self._pulls[tenant.model] = (
                    handle.pull_rows if isinstance(handle, PSEmbedding)
                    else handle.pull)
                self._caches[tenant.model] = HotKeyCache(
                    cache_capacity, metrics=metrics)
        self.drop_records: List[DropRecord] = []
        self.peak_depth = 0
        self._degraded = False
        self._recoveries_seen = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _drop(self, request: Request, reason: str, now_s: float,
              counter: str) -> None:
        self.drop_records.append(DropRecord(
            seq=request.seq, tenant=request.tenant, reason=reason,
            sim_time_s=now_s,
        ))
        self.spark.metrics.inc(counter)

    def _admit(self, request: Request) -> None:
        metrics = self.spark.metrics
        metrics.inc(SERVE_REQUESTS)
        if not self.limiter.admit(request):
            self._drop(request, "rate_limited", request.arrival_s,
                       SERVE_RATE_LIMITED)
            return
        self.gate.update(self.queue.depth)
        if not self.gate.admits(request):
            self._drop(request, "backpressure", request.arrival_s,
                       SERVE_SHED)
            return
        victim = self.queue.offer(request)
        if victim is not None:
            self._drop(victim, "queue_full", request.arrival_s,
                       SERVE_EVICTED_CAPACITY)
        self.peak_depth = max(self.peak_depth, self.queue.depth)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------

    def _serve_batch(self, batch: List[Request], batch_index: int) -> None:
        clock = self.spark.driver_clock
        metrics = self.spark.metrics
        tags = {"batch": batch_index, "size": len(batch)}
        with self.spark.tracer.clock_span("driver", "serve",
                                          "serve.batch", clock, tags):
            by_model: Dict[str, List[int]] = {}
            for request in batch:
                by_model.setdefault(request.model, []).append(request.key)
            for model, keys in sorted(by_model.items()):
                cache = self._caches[model]
                ukeys = sorted_unique(np.asarray(keys, dtype=np.int64))
                mask, _ = cache.lookup(ukeys)
                missing = ukeys[~mask]
                if len(missing):
                    values = self._pulls[model](missing)
                    cache.store(missing, np.asarray(values))
        completion_s = clock.now_s
        generation = self.psctx.recovery_generation
        if generation != self._recoveries_seen:
            # A pull inside this batch tripped auto-recovery: the cached
            # rows may predate the restored snapshot, and everything
            # queued behind the outage is now late.
            self._recoveries_seen = generation
            self._degraded = True
            for cache in self._caches.values():
                cache.clear()
        for request in batch:
            latency = completion_s - request.arrival_s
            metrics.observe(SERVE_LATENCY_H, latency)
            if self._degraded:
                metrics.observe(SERVE_DEGRADED_LATENCY_H, latency)
        metrics.inc(SERVE_SERVED, len(batch))
        metrics.inc(SERVE_BATCHES)
        metrics.observe(SERVE_BATCH_SIZE_H, len(batch))
        self.spark.notify_task_complete(SERVE_STAGE_ID, batch_index, "serve")

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Serve the full request stream; returns the aggregate report.

        Requests must be sorted by arrival time (``RequestGenerator``
        output already is).
        """
        clock = self.spark.driver_clock
        metrics = self.spark.metrics
        start_s = clock.now_s
        pending = list(requests)
        i, n = 0, len(pending)
        batch_index = 0
        while i < n or self.queue.depth:
            if (self.queue.depth == 0 and i < n
                    and pending[i].arrival_s > clock.now_s):
                # Idle: jump straight to the next arrival.
                clock.advance_to(pending[i].arrival_s)
            quantum_end = clock.now_s + self.service_interval_s
            while i < n and pending[i].arrival_s <= quantum_end:
                self._admit(pending[i])
                i += 1
            clock.advance_to(quantum_end)
            batch, expired = self.queue.drain(self.batch_size, clock.now_s)
            for request in expired:
                self._drop(request, "deadline", clock.now_s,
                           SERVE_EVICTED_DEADLINE)
            if batch:
                self._serve_batch(batch, batch_index)
                batch_index += 1
            if self._degraded and self.queue.depth == 0:
                self._degraded = False
            self.gate.update(self.queue.depth)
            metrics.set_gauge(SERVE_QUEUE_DEPTH_G, self.queue.depth)
            self.spark.notify_tick(clock.now_s)
        return self._report(start_s, clock.now_s, batch_index)

    def _report(self, start_s: float, end_s: float,
                batches: int) -> ServingReport:
        metrics = self.spark.metrics
        latency = metrics.histogram(SERVE_LATENCY_H)
        degraded = metrics.histogram(SERVE_DEGRADED_LATENCY_H)
        drops: Dict[str, int] = {}
        for record in self.drop_records:
            drops[record.reason] = drops.get(record.reason, 0) + 1
        hits = sum(c.stats.hits for c in self._caches.values())
        misses = sum(c.stats.misses for c in self._caches.values())
        return ServingReport(
            offered=int(metrics.get(SERVE_REQUESTS)),
            served=int(metrics.get(SERVE_SERVED)),
            drops=drops,
            p50_s=latency.percentile(50.0) if latency.count else 0.0,
            p99_s=latency.percentile(99.0) if latency.count else 0.0,
            degraded_p99_s=(degraded.percentile(99.0)
                            if degraded.count else None),
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            batches=batches,
            gate_transitions=self.gate.transitions,
            peak_depth=self.peak_depth,
            recoveries=self._recoveries_seen,
            start_s=start_s,
            end_s=end_s,
            drop_records=list(self.drop_records),
        )
