"""Cluster-wide metrics registry.

A single :class:`MetricsRegistry` per simulated cluster collects counters
(bytes shuffled, RPC calls, records processed, checkpoints written, ...),
gauges (point-in-time values) and histograms (distributions with p50/p95),
so experiments and ablation benches can report *why* one system beats
another, not just the end-to-end time.

Counters remain a flat map of name -> float and are the only thing
:meth:`MetricsRegistry.snapshot` returns, so code written against the
counter-only registry (including the benchmark suite) sees identical
snapshots whether or not histograms are populated.  The full structured
dump lives in :func:`repro.obs.export.metrics_to_dict`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.common.batch import accumulate_sequential
from repro.common.simclock import SimClock
from repro.common.sketch import QuantileSketch

#: Exact samples kept per histogram before switching to the sketch.
HISTOGRAM_MAX_EXACT = 8192


class Histogram:
    """A distribution of observed values with percentile queries.

    Up to :data:`HISTOGRAM_MAX_EXACT` samples are kept verbatim — sorting
    is deferred to the first percentile query (append is O(1), the hot
    path in big runs) — so percentiles are exact for every series a test
    asserts on.  Past the cap the samples fold into a
    :class:`~repro.common.sketch.QuantileSketch` and memory stays O(1)
    while p50/p95/p99 keep a 1% relative-error bound.  count/sum/min/max
    are tracked as scalars and stay exact in both regimes.
    """

    __slots__ = ("_samples", "_dirty", "_sum", "_count", "_min", "_max",
                 "_sketch", "_pending", "_pending_count")

    #: Exact samples kept before the switch to the sketch.
    max_exact = HISTOGRAM_MAX_EXACT

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._dirty = False
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sketch: QuantileSketch | None = None
        #: Batches from ``observe_many`` not yet folded into the samples.
        self._pending: List[np.ndarray] = []
        self._pending_count = 0

    def observe(self, value: float) -> None:
        """Add one sample."""
        if self._pending:
            self._fold()
        v = float(value)
        self._count += 1
        self._sum += value
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if self._sketch is not None:
            self._sketch.add(v)
            return
        self._samples.append(v)
        self._dirty = True
        if len(self._samples) > self.max_exact:
            self._sketch = QuantileSketch.from_samples(self._samples)
            self._samples = []
            self._dirty = False

    def observe_many(self, values: Sequence[float]) -> None:
        """Add every sample: the state ``observe`` leaves after the same
        values one by one.

        count / sum / min / max move at once (the sum accumulates left to
        right).  The samples wait in a buffer of at most ``max_exact``
        values and are folded in — verbatim up to the cap, the rest by
        :meth:`QuantileSketch.add_many` — when the buffer fills or a query
        needs them, so a stream of small batches pays the sketch's
        per-call cost once per buffer, not once per batch.
        """
        v = np.array(values, dtype=np.float64)
        if not len(v):
            return
        self._count += len(v)
        self._sum = accumulate_sequential(self._sum, v, len(v))
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        self._pending.append(v)
        self._pending_count += len(v)
        if self._pending_count > self.max_exact:
            self._fold()

    def _fold(self) -> None:
        """Move the buffered batches, in arrival order, into the samples."""
        if not self._pending:
            return
        v = np.concatenate(self._pending)
        self._pending, self._pending_count = [], 0
        if self._sketch is not None:
            self._sketch.add_many(v)
        elif len(self._samples) + len(v) > self.max_exact:
            self._sketch = QuantileSketch.from_samples(
                np.concatenate([self._samples, v]))
            self._samples = []
            self._dirty = False
        else:
            self._samples.extend(v.tolist())
            self._dirty = True

    def _sorted_samples(self) -> List[float]:
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return self._samples

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), linearly interpolated.

        Returns 0.0 for an empty histogram; the single sample for a
        one-sample histogram.  Exact below the sample cap; within the
        sketch's relative-error bound above it.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        self._fold()
        if self._sketch is not None:
            return self._sketch.percentile(q)
        values = self._sorted_samples()
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        pos = (len(values) - 1) * (q / 100.0)
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(values):
            return values[-1]
        return values[lo] * (1.0 - frac) + values[lo + 1] * frac

    def count_above(self, threshold: float) -> int:
        """Number of samples strictly greater than ``threshold``.

        The SLO engine diffs this between sim-clock ticks to classify
        per-window good/bad events.  Exact below the sample cap; bucket
        granularity above it.
        """
        if self._count == 0:
            return 0
        self._fold()
        if self._sketch is not None:
            return self._sketch.count_above(threshold)
        values = self._sorted_samples()
        return len(values) - bisect_right(values, float(threshold))

    def summary(self) -> Dict[str, float]:
        """Compact description: count, sum, min/mean/max, p50/p95/p99."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Gauge:
    """A point-in-time value with high- and low-water marks.

    The marks initialize from the *first* ``set()`` — a gauge whose
    values are all negative reports that first value as its high-water
    mark, not a phantom 0.0.
    """

    __slots__ = ("value", "high", "low", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.high = 0.0
        self.low = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        v = float(value)
        self.value = v
        if self.updates == 0:
            self.high = v
            self.low = v
        else:
            if v > self.high:
                self.high = v
            if v < self.low:
                self.low = v
        self.updates += 1


class MetricsRegistry:
    """Counters, gauges and histograms keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}

    # -- counters ----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> float:
        """Increment counter ``name`` by ``value`` and return the new total."""
        self._counters[name] += value
        return self._counters[name]

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    # -- histograms --------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Add one sample to histogram ``name`` (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name``, created empty if it does not exist yet."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def histograms(self) -> Iterator[Tuple[str, Histogram]]:
        """All histograms, sorted by name."""
        return iter(sorted(self._histograms.items()))

    @contextmanager
    def timer(self, name: str, clock: SimClock):
        """Observe the *simulated* seconds a block takes on ``clock`` in
        histogram ``name``."""
        start = clock.now_s
        try:
            yield self
        finally:
            self.observe(name, clock.now_s - start)

    # -- gauges ------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.set(value)

    def get_gauge(self, name: str) -> float:
        """Current value of gauge ``name`` (0.0 if never set)."""
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else 0.0

    def gauge_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of every gauge: ``{name: {value, high, low, updates}}``."""
        return {
            name: {"value": g.value, "high": g.high, "low": g.low,
                   "updates": float(g.updates)}
            for name, g in sorted(self._gauges.items())
        }

    # -- views ------------------------------------------------------------

    def scoped(self, prefix: str) -> "ScopedMetrics":
        """A view that prepends ``prefix + '.'`` to every metric name.

        Lets a subsystem write ``m.inc("polls")`` instead of hand-
        concatenating ``"ingest.polls"`` strings at every call site.
        """
        return ScopedMetrics(self, prefix)

    def snapshot(self) -> Dict[str, float]:
        """Immutable copy of all counters (counters only, see module doc)."""
        return dict(self._counters)


class ScopedMetrics:
    """Prefix-applying view over a :class:`MetricsRegistry`."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def inc(self, name: str, value: float = 1.0) -> float:
        """Increment the prefixed counter."""
        return self._registry.inc(self._name(name), value)

    def timer(self, name: str, clock: SimClock):
        """Time a block into the prefixed histogram."""
        return self._registry.timer(self._name(name), clock)


# Well-known counter names, kept here so subsystems agree on spelling.
SHUFFLE_BYTES_WRITTEN = "dataflow.shuffle.bytes_written"
SHUFFLE_BYTES_READ = "dataflow.shuffle.bytes_read"
SHUFFLE_RECORDS = "dataflow.shuffle.records"
TASKS_LAUNCHED = "dataflow.tasks.launched"
TASKS_FAILED = "dataflow.tasks.failed"
STAGES_RUN = "dataflow.stages.run"
RDD_RECORDS = "dataflow.records.processed"
PS_PULL_BYTES = "ps.pull.bytes"
PS_PUSH_BYTES = "ps.push.bytes"
PS_PULLS = "ps.pull.calls"
PS_PUSHES = "ps.push.calls"
PS_PSFUNC_CALLS = "ps.psfunc.calls"
PS_CHECKPOINTS = "ps.checkpoint.count"
PS_CHECKPOINT_BYTES = "ps.checkpoint.bytes"
HDFS_BYTES_READ = "hdfs.bytes_read"
HDFS_BYTES_WRITTEN = "hdfs.bytes_written"
RPC_CALLS = "net.rpc.calls"
RPC_BYTES = "net.rpc.bytes"
CONTAINERS_RESTARTED = "yarn.containers.restarted"
CHAOS_FAULTS = "chaos.faults.fired"
PS_RECOVERIES = "ps.recovery.count"
PS_ROLLBACKS = "ps.recovery.rollbacks"
PS_PINGS_FAILED = "ps.master.pings_failed"

ALERTS_FIRED = "obs.alerts.fired"

# Well-known histogram names (populated via ``MetricsRegistry.observe``).
TASK_DURATION_H = "dataflow.task.duration_s"
SHUFFLE_WRITE_H = "dataflow.shuffle.write_bytes_dist"
SHUFFLE_FETCH_H = "dataflow.shuffle.fetch_bytes_dist"
PS_REQUEST_H = "ps.request.bytes_dist"
PS_PULL_LATENCY_H = "ps.pull.latency_s"
PS_PUSH_LATENCY_H = "ps.push.latency_s"
RPC_LATENCY_H = "net.rpc.latency_s"

# Well-known gauge names (liveness, sampled by the telemetry collector).
EXECUTORS_ALIVE_G = "dataflow.executors.alive"
PS_SERVERS_ALIVE_G = "ps.servers.alive"
PS_SERVERS_TOTAL_G = "ps.servers.total"

# Well-known serving-plane names (the ``serve.*`` family; see
# docs/observability.md for the catalogue).
PS_CACHE_EVICTIONS = "ps.cache.evictions"
SERVE_REQUESTS = "serve.requests.offered"
SERVE_SERVED = "serve.requests.served"
SERVE_BATCHES = "serve.batches"
SERVE_RATE_LIMITED = "serve.limiter.rejected"
SERVE_SHED = "serve.limiter.shed"
SERVE_EVICTED_CAPACITY = "serve.queue.evicted_capacity"
SERVE_EVICTED_DEADLINE = "serve.queue.evicted_deadline"
SERVE_CACHE_HITS = "serve.cache.hits"
SERVE_CACHE_MISSES = "serve.cache.misses"
SERVE_CACHE_EVICTIONS = "serve.cache.evictions"
SERVE_LATENCY_H = "serve.latency_s"
SERVE_DEGRADED_LATENCY_H = "serve.latency.degraded_s"
SERVE_BATCH_SIZE_H = "serve.batch.size_dist"
SERVE_QUEUE_DEPTH_G = "serve.queue.depth"

# Well-known streaming-ingest and incremental-recompute names (the
# ``ingest.*`` and ``streaming.*`` families; catalogued in
# docs/observability.md, semantics in docs/streaming.md).  ``polls``
# counts only polls that consumed records; empty polls (every partition
# already consumed) go to ``polls.empty`` so records-per-poll stays an
# honest batch-size signal.
INGEST_POLLS = "ingest.polls"
INGEST_POLLS_EMPTY = "ingest.polls.empty"
INGEST_RECORDS = "ingest.records"
STREAM_WINDOWS = "streaming.windows"
STREAM_EDGES_ADDED = "streaming.edges.added"
STREAM_EDGES_REMOVED = "streaming.edges.removed"
STREAM_VERTICES_DROPPED = "streaming.vertices.dropped"
STREAM_DIRTY_VERTICES = "streaming.dirty_vertices"
STREAM_EDGES_LIVE_G = "streaming.edges.live"
STREAM_COST_INC_H = "streaming.window.cost_incremental_s"
STREAM_COST_FULL_H = "streaming.window.cost_full_s"
STREAM_COST_RATIO_G = "streaming.window.cost_ratio"
