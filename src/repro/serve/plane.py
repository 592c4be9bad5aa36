"""The serving plane: PS-resident models behind admission-controlled lookups.

:class:`ServingPlane` replays a generated request stream against matrices
and vectors living on the parameter servers, entirely on the simulated
clock.  The loop runs in fixed *service quanta* (default 50 sim-ms): each
quantum admits every request that arrived inside it — through the tenant
rate limiter, the watermark backpressure gate, and the bounded priority
queue, logging every casualty with its reason in a
:class:`~repro.serve.admission.DropLog` — then drains one micro-batch,
serves it with a hot-key cache in front of agent pulls, and observes the
per-request latency (completion minus arrival) into the
``serve.latency_s`` histogram.

The hot-key cache is one capacity-bounded LRU
:class:`~repro.ps.cache.PullCache` per model.  Unlike the training-path
caches it is not epoch-scoped (no barriers run while serving: epoch 0,
staleness 0), and it has no registry of its own: the plane meters its
hits, misses and evictions as ``serve.cache.*``, so training- and
serving-path evictions stay apart.

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

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.batch import sorted_unique
from repro.common.errors import ConfigError
from repro.common.metrics import (
    Histogram,
    SERVE_BATCH_SIZE_H,
    SERVE_BATCHES,
    SERVE_CACHE_EVICTIONS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
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
from repro.ps.cache import PullCache
from repro.ps.matrix import PSEmbedding
from repro.serve.admission import (
    BACKPRESSURE,
    DEADLINE,
    RATE_LIMITED,
    AdmissionQueue,
    DropLog,
)
from repro.serve.limiter import TenantRateLimiter, WatermarkGate
from repro.serve.workload import (
    RequestBatch,
    TenantSpec,
    check_tenant_names,
)

#: Serving stage id passed to task hooks (no dataflow stage owns it).
SERVE_STAGE_ID = -1


def _remap(codes: np.ndarray, names: Sequence[str],
           known: Sequence[str]) -> np.ndarray:
    """``codes`` into ``names``, as positions in ``known``; a name that
    ``known`` lacks is a :class:`ConfigError` if any code uses it."""
    position = {name: i for i, name in enumerate(known)}
    table = np.array([position.get(name, -1) for name in names],
                     dtype=np.int64)
    ids = table[codes]
    missing = ids < 0
    if missing.any():
        name = names[codes[np.argmax(missing)]]
        raise ConfigError(f"unknown tenant or model {name!r}")
    return ids


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


def publish_snapshot(psctx, name: str, rows: Sequence[Tuple]) -> int:
    """Publish trained ``(key, value)`` rows as the PS vector ``name`` and
    checkpoint every resident matrix; returns the key space.

    Everything is snapshotted, not just ``name``: auto-recovery restores
    every matrix, so an uncheckpointed leftover from training would turn
    a mid-serving shard kill into an unrecoverable fault.
    """
    keys = np.array([r[0] for r in rows], dtype=np.int64)
    values = np.array([r[1] for r in rows], dtype=np.float64)
    key_space = int(keys.max()) + 1 if len(keys) else 1
    psctx.create_vector(name, key_space).set(keys, values)
    psctx.checkpoint_all()
    return key_space


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
    drop_records: DropLog

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
        queue_capacity: bounded admission-queue size; backpressure closes
            the gate at 75% of it and reopens it at 25%.
        batch_size: max requests served per quantum.
        cache_capacity: hot-key cache rows per model.
    """

    #: Scheduling quantum on the sim clock.
    service_interval_s = 0.05

    def __init__(self, psctx, tenants: Sequence[TenantSpec], *,
                 queue_capacity: int = 512, batch_size: int = 256,
                 cache_capacity: int = 256) -> None:
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.tenants = list(tenants)
        check_tenant_names(self.tenants)
        self.psctx = psctx
        self.spark = psctx.spark
        self.batch_size = batch_size
        self.queue = AdmissionQueue(queue_capacity)
        self.limiter = TenantRateLimiter(self.tenants)
        protect = max(t.priority for t in self.tenants)
        self.gate = WatermarkGate(
            high=max(2, (queue_capacity * 3) // 4),
            low=max(1, queue_capacity // 4),
            protect_priority=protect,
        )
        self._pulls = {}
        self._caches: Dict[str, PullCache] = {}
        for tenant in self.tenants:
            if tenant.model not in self._pulls:
                handle = psctx.matrix(tenant.model)
                # Embeddings shard by column and only serve whole rows.
                self._pulls[tenant.model] = (
                    handle.pull_rows if isinstance(handle, PSEmbedding)
                    else handle.pull)
                self._caches[tenant.model] = PullCache(
                    staleness=0, capacity=cache_capacity)
        #: Served models in name order; a request's *model id* indexes it.
        self._models = sorted(self._pulls)
        self.drop_records = DropLog(tuple(t.name for t in self.tenants))
        self.peak_depth = 0
        self._degraded = False
        self._recoveries_seen = 0

    def _columns(self, batch: RequestBatch) -> Tuple[np.ndarray, ...]:
        """``(seq, tenant id, priority, model id, key, arrival, deadline)``
        of the stream: the batch's own columns, with its tenant and model
        codes remapped to this plane's ids by one lookup each."""
        tenant = _remap(batch.tenant, batch.tenants,
                        [t.name for t in self.tenants])
        model = _remap(batch.model, batch.models, self._models)
        arrival = batch.arrival_s
        if not (arrival[1:] >= arrival[:-1]).all():
            raise ConfigError("requests must be sorted by arrival time")
        return (batch.seq, tenant, batch.priority, model, batch.key, arrival,
                batch.deadline_s)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------

    def _serve_batch(self, batch_index: int, model: np.ndarray,
                     key: np.ndarray, arrival: np.ndarray) -> np.ndarray:
        """Serve one batch, given as its requests' model id, key and
        arrival columns in service order; returns their latencies."""
        clock = self.spark.driver_clock
        metrics = self.spark.metrics
        tags = {"batch": batch_index, "size": len(key)}
        with self.spark.tracer.clock_span("driver", "serve",
                                          "serve.batch", clock, tags):
            for model_id, name in enumerate(self._models):
                ukeys = sorted_unique(key[model == model_id])
                if not len(ukeys):
                    continue
                cache = self._caches[name]
                mask, _ = cache.lookup(ukeys, None, 0)
                missing = ukeys[~mask]
                metrics.inc(SERVE_CACHE_HITS, len(ukeys) - len(missing))
                metrics.inc(SERVE_CACHE_MISSES, len(missing))
                if len(missing):
                    values = self._pulls[name](missing)
                    evicted = cache.stats.evictions
                    cache.store(missing, None, np.asarray(values), 0)
                    evicted = cache.stats.evictions - evicted
                    if evicted:
                        metrics.inc(SERVE_CACHE_EVICTIONS, evicted)
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
        latency = completion_s - arrival
        metrics.histogram(SERVE_LATENCY_H).observe_many(latency)
        if self._degraded:
            metrics.histogram(SERVE_DEGRADED_LATENCY_H).observe_many(latency)
        metrics.inc(SERVE_SERVED, len(key))
        metrics.inc(SERVE_BATCHES)
        metrics.observe(SERVE_BATCH_SIZE_H, len(key))
        self.spark.notify_task_complete(SERVE_STAGE_ID, batch_index, "serve")
        return latency

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------

    def run(self, requests: RequestBatch) -> ServingReport:
        """Serve the full request stream; returns the run's own report.

        Requests must be sorted by arrival time (``RequestGenerator``
        output already is).  The loop handles a quantum's arrivals as
        slices of the columns.
        """
        clock = self.spark.driver_clock
        metrics = self.spark.metrics
        queue, gate = self.queue, self.gate
        start_s = clock.now_s
        seq, tenant, priority, model, key, arrival, deadline = self._columns(
            requests)
        n = len(seq)
        # The queue's total order, sorted once: ``order[rank]`` is the
        # arrival position of the request ranked ``rank``, and the columns
        # the queue's output indexes are kept in rank order.
        order = np.lexsort((seq, deadline, -priority))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        model, key, deadline = model[order], key[order], deadline[order]
        arrival_of = arrival[order]
        # A bucket sees nothing but its own tenant's arrival times, so the
        # limiter's verdicts do not depend on the loop: take them now,
        # count them per quantum.  ``offered`` are the arrivals that reach
        # the gate.
        passed = self.limiter.admit(tenant, arrival)
        offered = np.flatnonzero(passed)
        offered_before = np.concatenate([[0], np.cumsum(passed)]).tolist()
        offered_rank = rank[offered]
        offered_protected = gate.protects(priority[offered])
        limited = np.flatnonzero(~passed)
        # The run's drops as (decision time, rank, reason id, sim time)
        # chunks; arrival ``j`` decides at ``2j + 1``, the deadline sweep
        # that follows arrival ``j - 1`` at ``2j``.
        drops = [(2 * limited + 1, rank[limited],
                  np.full(len(limited), RATE_LIMITED), arrival[limited])]
        arrivals = arrival.tolist()
        latencies: List[np.ndarray] = []
        degraded: List[np.ndarray] = []
        i = 0
        while i < n or queue.depth:
            if queue.depth == 0 and i < n and arrivals[i] > clock.now_s:
                # Idle: jump straight to the next arrival.
                clock.advance_to(arrivals[i])
            quantum_end = clock.now_s + self.service_interval_s
            lo, i = i, bisect_right(arrivals, quantum_end, i)
            first, last = offered_before[lo], offered_before[i]
            if i > lo:
                metrics.inc(SERVE_REQUESTS, i - lo)
            if i - lo > last - first:
                metrics.inc(SERVE_RATE_LIMITED, (i - lo) - (last - first))
            if last > first:
                dropped = queue.admit(offered_rank[first:last],
                                      offered_protected[first:last], gate)
                if dropped is not None:
                    position, victim, reason = dropped
                    cause = offered[first:last][position]
                    drops.append((2 * cause + 1, victim, reason,
                                  arrival[cause]))
                    shed = int(np.count_nonzero(reason == BACKPRESSURE))
                    if shed:
                        metrics.inc(SERVE_SHED, shed)
                    if len(reason) > shed:
                        metrics.inc(SERVE_EVICTED_CAPACITY,
                                    len(reason) - shed)
                self.peak_depth = max(self.peak_depth, queue.depth)
            clock.advance_to(quantum_end)
            batch, expired = queue.drain(self.batch_size, clock.now_s,
                                         deadline)
            if len(expired):
                drops.append((np.full(len(expired), 2 * i), expired,
                              np.full(len(expired), DEADLINE),
                              np.full(len(expired), clock.now_s)))
                metrics.inc(SERVE_EVICTED_DEADLINE, len(expired))
            if len(batch):
                latencies.append(self._serve_batch(
                    len(latencies), model[batch], key[batch],
                    arrival_of[batch]))
                if self._degraded:
                    degraded.append(latencies[-1])
            if self._degraded and queue.depth == 0:
                self._degraded = False
            gate.update(queue.depth)
            metrics.set_gauge(SERVE_QUEUE_DEPTH_G, queue.depth)
            self.spark.notify_tick(clock.now_s)
        decided, victim, reason, time = map(np.concatenate, zip(*drops))
        decided = np.argsort(decided, kind="stable")
        victim = order[victim[decided]]
        dropped = DropLog(self.drop_records.tenants, seq[victim],
                          tenant[victim], reason[decided], time[decided])
        self.drop_records.extend(dropped)
        return self._report(start_s, clock.now_s, n, dropped, latencies,
                            degraded)

    def _report(self, start_s: float, end_s: float, offered: int,
                dropped: DropLog, latencies: List[np.ndarray],
                degraded: List[np.ndarray]) -> ServingReport:
        """The run's own tallies: a second plane on the same registry does
        not report the first one's requests.  Percentiles come from
        histograms fed the run's latencies in order — the state the
        registry's would have if this run were all it had seen."""
        latency, slow = Histogram(), Histogram()
        latency.observe_many(np.concatenate(latencies or [np.empty(0)]))
        slow.observe_many(np.concatenate(degraded or [np.empty(0)]))
        hits = sum(c.stats.hits for c in self._caches.values())
        misses = sum(c.stats.misses for c in self._caches.values())
        return ServingReport(
            offered=offered,
            served=latency.count,
            drops=dropped.counts(),
            p50_s=latency.percentile(50.0) if latency.count else 0.0,
            p99_s=latency.percentile(99.0) if latency.count else 0.0,
            degraded_p99_s=(slow.percentile(99.0) if slow.count else None),
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            batches=len(latencies),
            gate_transitions=self.gate.transitions,
            peak_depth=self.peak_depth,
            recoveries=self._recoveries_seen,
            start_s=start_s,
            end_s=end_s,
            drop_records=dropped,
        )
