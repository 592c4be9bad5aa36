"""The array forms against the per-object forms they replaced.

The serving plane reads its requests into columns and admits a quantum
as slices; the pull cache keeps its entries in arrays; a neighbor block
memoises its scatter plan; the agent skips the dedupe for keys that
arrive sorted.  Each test here holds the new form to the old one — the
per-request loop and the ``OrderedDict`` cache of commit ``1d49e73``,
copied below as oracles — decision for decision and bit for bit.  (The
histogram's bulk observation is held to one sample at a time in
``tests/test_telemetry.py``.)  Example counts follow
the hypothesis profile (``tests/conftest.py``): small in tier-1, ``deep``
in the ``serve`` entry of the ``smoke`` CI matrix.
"""

from bisect import insort
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.common.errors import ConfigError
from repro.common.metrics import (
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
    MetricsRegistry,
)
from repro.core.blocks import build_neighbor_block
from repro.core.context import PSGraphContext
from repro.obs import Tracer
from repro.ps.cache import PullCache
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from repro.serve.plane import SERVE_STAGE_ID, ServingReport
from tests.conftest import drop_rows, histogram_state, request_batch

# ----------------------------------------------------------------------
# oracles: the per-request serving stack and the dict cache at 1d49e73
# ----------------------------------------------------------------------


class RefTokenBucket:
    def __init__(self, rate, burst):
        self.rate, self.burst = rate, burst
        self.tokens, self.last_s = float(burst), 0.0

    def try_take(self, now_s):
        if self.rate == 0.0:
            return True
        if now_s > self.last_s:
            self.tokens = min(
                float(self.burst),
                self.tokens + (now_s - self.last_s) * self.rate,
            )
            self.last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RefGate:
    def __init__(self, high, low, protect_priority):
        self.high, self.low = high, low
        self.protect_priority = protect_priority
        self.closed, self.transitions = False, 0

    def update(self, depth):
        if not self.closed and depth >= self.high:
            self.closed = True
            self.transitions += 1
        elif self.closed and depth <= self.low:
            self.closed = False

    def admits(self, request):
        return not self.closed or request.priority >= self.protect_priority


class RefQueue:
    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = []

    @property
    def depth(self):
        return len(self._entries)

    def offer(self, request):
        key = (-request.priority, request.deadline_s, request.seq)
        if len(self._entries) >= self.capacity:
            worst_key, worst = self._entries[-1]
            if key >= worst_key:
                return request
            self._entries.pop()
            insort(self._entries, (key, request))
            return worst
        insort(self._entries, (key, request))
        return None

    def drain(self, limit, now_s):
        batch, expired = [], []
        kept_from = 0
        while kept_from < len(self._entries) and len(batch) < limit:
            _, request = self._entries[kept_from]
            kept_from += 1
            if request.deadline_s < now_s:
                expired.append(request)
            else:
                batch.append(request)
        if kept_from:
            del self._entries[:kept_from]
        return batch, expired


class RefStats:
    def __init__(self):
        self.hits = self.misses = self.evictions = 0


class RefPullCache:
    """The ``OrderedDict`` pull cache: one entry per (key, col)."""

    def __init__(self, staleness=0, capacity=None):
        self.staleness, self.capacity = staleness, capacity
        self.stats = RefStats()
        self._entries = OrderedDict()
        self._index = {}

    def lookup(self, keys, col, epoch):
        mask = np.zeros(len(keys), dtype=bool)
        values = [None] * len(keys)
        for i, k in enumerate(keys.tolist()):
            entry = self._entries.get((int(k), col))
            if entry is None:
                self.stats.misses += 1
                continue
            value, pulled_at = entry
            if epoch - pulled_at > self.staleness:
                self._discard((int(k), col))
                self.stats.misses += 1
                continue
            mask[i] = True
            values[i] = value
            self.stats.hits += 1
            if self.capacity is not None:
                self._entries.move_to_end((int(k), col))
        return mask, values

    def store(self, keys, col, values, epoch):
        for k, v in zip(keys.tolist(), values):
            kc = (int(k), col)
            self._entries[kc] = (np.copy(v), epoch)
            self._entries.move_to_end(kc)
            self._index.setdefault(int(k), set()).add(col)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                kc, _ = self._entries.popitem(last=False)
                self._unindex(kc)
                self.stats.evictions += 1

    def invalidate(self, keys):
        for k in keys.tolist():
            for col in self._index.pop(int(k), ()):
                del self._entries[(int(k), col)]

    def _discard(self, kc):
        del self._entries[kc]
        self._unindex(kc)

    def _unindex(self, kc):
        cols = self._index.get(kc[0])
        if cols is not None:
            cols.discard(kc[1])
            if not cols:
                del self._index[kc[0]]

    def clear(self):
        self._entries.clear()
        self._index.clear()

    def __len__(self):
        return len(self._entries)


class RefHotKeyCache:
    """The hot-key cache over the dict cache, metering ``serve.cache.*``."""

    def __init__(self, capacity, metrics):
        self._cache = RefPullCache(staleness=0, capacity=capacity)
        self._metrics = metrics
        self.stats = self._cache.stats
        self.clear = self._cache.clear

    def lookup(self, keys):
        mask, values = self._cache.lookup(np.asarray(keys), None, epoch=0)
        hits = int(mask.sum())
        self._metrics.inc(SERVE_CACHE_HITS, hits)
        self._metrics.inc(SERVE_CACHE_MISSES, len(mask) - hits)
        return mask, values

    def store(self, keys, values):
        before = self._cache.stats.evictions
        self._cache.store(np.asarray(keys), None, values, epoch=0)
        evicted = self._cache.stats.evictions - before
        if evicted:
            self._metrics.inc(SERVE_CACHE_EVICTIONS, evicted)


class RefPlane:
    """``ServingPlane`` at 1d49e73: ``_admit`` once per request, one
    ``(seq, tenant, reason, sim_time_s)`` row per casualty, one
    ``observe`` per served request."""

    def __init__(self, psctx, tenants, *, queue_capacity=512, batch_size=256,
                 service_interval_s=0.05, cache_capacity=256,
                 high_watermark=None, low_watermark=None):
        self.psctx, self.spark = psctx, psctx.spark
        self.tenants = list(tenants)
        self.batch_size = batch_size
        self.service_interval_s = service_interval_s
        self.queue = RefQueue(queue_capacity)
        self._buckets = {t.name: RefTokenBucket(t.rate_limit, float(t.burst))
                         for t in self.tenants}
        self.gate = RefGate(
            high=(high_watermark if high_watermark is not None
                  else max(2, (queue_capacity * 3) // 4)),
            low=(low_watermark if low_watermark is not None
                 else max(1, queue_capacity // 4)),
            protect_priority=max(t.priority for t in self.tenants))
        self._pulls, self._caches = {}, {}
        for tenant in self.tenants:
            if tenant.model not in self._pulls:
                self._pulls[tenant.model] = psctx.matrix(tenant.model).pull
                self._caches[tenant.model] = RefHotKeyCache(
                    cache_capacity, psctx.spark.metrics)
        self.drop_records = []
        self.peak_depth = 0
        self._degraded = False
        self._recoveries_seen = 0

    def _drop(self, request, reason, now_s, counter):
        self.drop_records.append((request.seq, request.tenant, reason, now_s))
        self.spark.metrics.inc(counter)

    def _admit(self, request):
        self.spark.metrics.inc(SERVE_REQUESTS)
        if not self._buckets[request.tenant].try_take(request.arrival_s):
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

    def _serve_batch(self, batch, batch_index):
        clock, metrics = self.spark.driver_clock, self.spark.metrics
        tags = {"batch": batch_index, "size": len(batch)}
        with self.spark.tracer.clock_span("driver", "serve",
                                          "serve.batch", clock, tags):
            by_model = {}
            for request in batch:
                by_model.setdefault(request.model, []).append(request.key)
            for model, keys in sorted(by_model.items()):
                cache = self._caches[model]
                ukeys = np.unique(np.asarray(keys, dtype=np.int64))
                mask, _ = cache.lookup(ukeys)
                missing = ukeys[~mask]
                if len(missing):
                    values = self._pulls[model](missing)
                    cache.store(missing, np.asarray(values))
        completion_s = clock.now_s
        generation = self.psctx.recovery_generation
        if generation != self._recoveries_seen:
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

    def run(self, requests):
        clock, metrics = self.spark.driver_clock, self.spark.metrics
        start_s = clock.now_s
        pending = list(requests)
        i, n = 0, len(pending)
        batch_index = 0
        while i < n or self.queue.depth:
            if (self.queue.depth == 0 and i < n
                    and pending[i].arrival_s > clock.now_s):
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
        latency = metrics.histogram(SERVE_LATENCY_H)
        degraded = metrics.histogram(SERVE_DEGRADED_LATENCY_H)
        drops = {}
        for _seq, _tenant, reason, _at in self.drop_records:
            drops[reason] = drops.get(reason, 0) + 1
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
            batches=batch_index,
            gate_transitions=self.gate.transitions,
            peak_depth=self.peak_depth,
            recoveries=self._recoveries_seen,
            start_s=start_s, end_s=clock.now_s,
            drop_records=list(self.drop_records),
        )


# ----------------------------------------------------------------------
# array admission == per-request admission
# ----------------------------------------------------------------------

KEYS = 40
MODELS = ("serve.a", "serve.b")


def serve(plane_cls, tenants, stream, kill_after, watermarks=None,
          **plane_args):
    """Run one plane over ``stream`` on a fresh context; everything a
    decision could show up in.  ``watermarks`` — ``(high, low)`` — replace
    the plane's gate thresholds before the first request."""
    tracer = Tracer()
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    with PSGraphContext(cluster, tracer=tracer) as ctx:
        for model in MODELS:
            ctx.ps.create_vector(model, KEYS).set(
                np.arange(KEYS), np.arange(KEYS, dtype=np.float64))
        ctx.ps.checkpoint_all()
        by_name = {t.name: t for t in tenants}
        requests = request_batch([
            (seq, name, by_name[name].model, key, arrival,
             arrival + by_name[name].deadline_s, by_name[name].priority)
            for seq, (name, key, arrival) in enumerate(stream)])
        plane = plane_cls(ctx.ps, tenants, **plane_args)
        if watermarks is not None:
            high, low = watermarks
            plane.gate = type(plane.gate)(
                high=high, low=low,
                protect_priority=plane.gate.protect_priority)
        pulled = []
        for model, pull in list(plane._pulls.items()):
            def recording(keys, model=model, pull=pull):
                pulled.append((model, np.asarray(keys).tolist()))
                return pull(keys)
            plane._pulls[model] = recording
        ticks = []
        ctx.spark.add_tick_hook(ticks.append)
        engine = None
        if kill_after is not None:
            engine = ChaosEngine(FaultSchedule([FaultSpec(
                "kill_server", index=0, after_tasks=kill_after,
                task_kind="serve")], seed=0), ctx.spark, ctx.ps).attach()
        try:
            report = plane.run(requests)
        finally:
            if engine is not None:
                engine.detach()
        metrics = ctx.metrics
        return {
            "report": report.to_dict(),
            "drops": drop_rows(report.drop_records),
            "plane_drops": len(plane.drop_records),
            "pulled": pulled,
            "batches": [(s.start_s, s.end_s, sorted(s.tags.items()))
                        for s in tracer.spans() if s.name == "serve.batch"],
            "ticks": ticks,
            "latency": histogram_state(metrics.histogram(SERVE_LATENCY_H)),
            "degraded": histogram_state(
                metrics.histogram(SERVE_DEGRADED_LATENCY_H)),
            "counters": sorted((k, v) for k, v in metrics.snapshot().items()
                               if k.startswith("serve.")),
            "gauges": metrics.gauge_snapshot().get(SERVE_QUEUE_DEPTH_G),
            "queue_depth": plane.queue.depth,
            "gate": (plane.gate.closed, plane.gate.transitions),
            "sim_s": ctx.sim_time(),
        }


def assert_same_decisions(tenants, stream, kill_after=None, watermarks=None,
                          **plane_args):
    old = serve(RefPlane, tenants, stream, kill_after, watermarks,
                **plane_args)
    new = serve(ServingPlane, tenants, stream, kill_after, watermarks,
                **plane_args)
    for field in old:
        assert new[field] == old[field], field
    assert old["report"]["conserved"]


@st.composite
def traffic(draw):
    """Tenants, a request stream and plane sizes small enough that a few
    dozen arrivals fill the queue, cross both watermarks, empty a bucket
    and outlive their deadlines."""
    tenants = [
        TenantSpec(
            name=f"t{i}", model=draw(st.sampled_from(MODELS)),
            priority=draw(st.integers(1, 3)),
            deadline_s=draw(st.sampled_from([0.04, 0.11, 0.3, 5.0])),
            rate_limit=draw(st.sampled_from([0.0, 0.0, 30.0, 200.0])),
            burst=draw(st.integers(1, 6)))
        for i in range(draw(st.integers(1, 3)))]
    # Gaps: zeros make bursts with equal arrival times — and, within a
    # tenant, equal (priority, deadline) ties — the long ones idle gaps.
    gaps = draw(st.lists(st.sampled_from(
        [0.0, 0.0, 0.0005, 0.004, 0.02, 0.05, 0.4]), min_size=0,
        max_size=120))
    arrivals = np.cumsum(gaps).tolist()
    stream = [(draw(st.sampled_from(tenants)).name,
               draw(st.integers(0, KEYS - 1)), arrival)
              for arrival in arrivals]
    capacity = draw(st.integers(1, 12))
    high = draw(st.integers(1, capacity + 2))
    plane_args = dict(
        queue_capacity=capacity, batch_size=draw(st.integers(1, 6)),
        cache_capacity=draw(st.integers(1, 10)),
        watermarks=(high, draw(st.integers(0, high - 1))))
    kill_after = draw(st.one_of(st.none(), st.integers(1, 6)))
    return tenants, stream, kill_after, plane_args


@given(traffic())
def test_array_admission_equals_per_request_admission(case):
    tenants, stream, kill_after, plane_args = case
    assert_same_decisions(tenants, stream, kill_after, **plane_args)


def test_quantum_ending_exactly_on_a_watermark():
    # 6 arrivals into a queue with high == capacity == 6: the one-step
    # bound holds with equality, the 7th arrival meets the closed gate.
    tenants = [TenantSpec(name="p1", model=MODELS[0], priority=1),
               TenantSpec(name="p2", model=MODELS[1], priority=2)]
    for count in (5, 6, 7, 8):
        stream = [("p1" if i % 2 else "p2", i, 0.0) for i in range(count)]
        assert_same_decisions(tenants, stream, queue_capacity=6,
                              batch_size=2, watermarks=(6, 1))


def test_full_queue_where_the_newcomer_is_the_worst():
    tenants = [TenantSpec(name="hi", model=MODELS[0], priority=3,
                          deadline_s=1.0),
               TenantSpec(name="lo", model=MODELS[0], priority=1,
                          deadline_s=9.0)]
    stream = ([("hi", i, 0.0) for i in range(4)]
              + [("lo", 9, 0.001), ("hi", 5, 0.002), ("lo", 7, 0.003)])
    assert_same_decisions(tenants, stream, queue_capacity=4, batch_size=1,
                          watermarks=(100, 0))


def test_ten_thousand_arrivals_in_one_quantum():
    rng = np.random.default_rng(8)
    tenants = [
        TenantSpec(name="feeds", model=MODELS[0], priority=2,
                   deadline_s=0.5),
        TenantSpec(name="reco", model=MODELS[1], priority=1, deadline_s=0.2,
                   rate_limit=500.0, burst=32)]
    arrivals = np.sort(rng.uniform(0.0, 0.05, 10_000)).tolist()
    names = rng.choice(["feeds", "reco"], 10_000).tolist()
    keys = rng.integers(0, KEYS, 10_000).tolist()
    assert_same_decisions(tenants, list(zip(names, keys, arrivals)),
                          queue_capacity=64, batch_size=16)


def test_unsorted_or_unknown_requests_are_rejected():
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    with PSGraphContext(cluster) as ctx:
        ctx.ps.create_vector(MODELS[0], KEYS)
        tenants = [TenantSpec(name="t", model=MODELS[0])]

        def request(seq, arrival, tenant="t", model=MODELS[0]):
            return (seq, tenant, model, 0, arrival, arrival + 1.0, 1)

        for bad in ([request(0, 1.0), request(1, 0.5)],
                    [request(0, 0.0, tenant="ghost")],
                    [request(0, 0.0, model="nope")]):
            with pytest.raises(ConfigError):
                ServingPlane(ctx.ps, tenants).run(request_batch(bad))


def test_second_plane_on_a_shared_registry_reports_its_own_run():
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    tenants = [TenantSpec(name="free", model=MODELS[0], priority=2),
               TenantSpec(name="limited", model=MODELS[0], priority=1,
                          rate_limit=50.0, burst=4)]
    with PSGraphContext(cluster) as ctx:
        ctx.ps.create_vector(MODELS[0], KEYS)
        reports = []
        for seed in (1, 2):
            requests = RequestGenerator(
                tenants, key_space=KEYS, rate=800.0, seed=seed).generate(
                    3000, start_s=ctx.sim_time())
            reports.append(ServingPlane(ctx.ps, tenants).run(requests))
        first, second = reports
        assert first.conserved() and second.conserved()
        assert first.offered == second.offered == 3000
        assert second.dropped and len(second.drop_records) == second.dropped
        assert second.start_s == first.end_s
        # the registry still has every request of both runs
        assert ctx.metrics.get(SERVE_REQUESTS) == 6000
        assert ctx.metrics.get(SERVE_SERVED) == first.served + second.served
        assert (ctx.metrics.histogram(SERVE_LATENCY_H).count
                == first.served + second.served)


# ----------------------------------------------------------------------
# array cache == dict cache
# ----------------------------------------------------------------------

COLS = (None, 0, 3)
key_lists = st.lists(st.integers(0, 30), min_size=0, max_size=12)


class PullCacheMachine(RuleBasedStateMachine):
    """Any interleaving of lookups, stores, invalidations and clears over
    several columns leaves the array cache and the dict cache with the
    same answers, the same counters and the same LRU order."""

    def __init__(self):
        super().__init__()
        self.epoch = 0
        self.serial = 0.0

    @rule(staleness=st.integers(0, 2),
          capacity=st.one_of(st.none(), st.integers(1, 8)))
    def configure(self, staleness, capacity):
        if not hasattr(self, "new"):
            self.new = PullCache(staleness=staleness, capacity=capacity)
            self.old = RefPullCache(staleness=staleness, capacity=capacity)

    def _rows(self, n, col):
        # Distinct values, so a row served from the wrong slot shows.
        start = self.serial
        self.serial += n
        rows = start + np.arange(n, dtype=np.float64)
        return rows if col is not None else np.stack([rows, -rows], axis=1)

    @rule(keys=key_lists, col=st.sampled_from(COLS), sort=st.booleans())
    def store(self, keys, col, sort):
        if not hasattr(self, "new"):
            return
        keys = np.asarray(sorted(set(keys)) if sort else keys,
                          dtype=np.int64)
        rows = self._rows(len(keys), col)
        self.new.store(keys, col, rows, self.epoch)
        self.old.store(keys, col, rows, self.epoch)

    @rule(keys=key_lists, col=st.sampled_from(COLS))
    def lookup(self, keys, col):
        if not hasattr(self, "new"):
            return
        keys = np.asarray(keys, dtype=np.int64)
        mask, values = self.new.lookup(keys, col, self.epoch)
        old_mask, old_values = self.old.lookup(keys, col, self.epoch)
        assert mask.tolist() == old_mask.tolist()
        for i in np.flatnonzero(mask).tolist():
            assert np.array_equal(values[i], old_values[i])

    @rule(keys=key_lists)
    def invalidate(self, keys):
        if hasattr(self, "new"):
            keys = np.asarray(keys, dtype=np.int64)
            self.new.invalidate(keys)
            self.old.invalidate(keys)

    @rule()
    def barrier(self):
        self.epoch += 1

    @rule()
    def clear(self):
        if hasattr(self, "new"):
            self.new.clear()
            self.old.clear()

    @invariant()
    def same_counters_and_lru_order(self):
        if not hasattr(self, "new"):
            return
        new, old = self.new, self.old
        assert new._size == len(old)
        assert ((new.stats.hits, new.stats.misses, new.stats.evictions)
                == (old.stats.hits, old.stats.misses, old.stats.evictions))
        if new.capacity is None:
            return
        # Entries from least to most recently used: the order a store
        # evicts in.  (An unbounded cache keeps no recency on lookups.)
        live = np.flatnonzero(new._stamps != np.iinfo(np.int64).max)
        live = live[np.argsort(new._stamps[live])]
        order = [(int(new._slot_key[s]), new._cols[new._slot_col[s]])
                 for s in live]
        assert order == list(old._entries)


PullCacheMachine.TestCase.settings = settings(stateful_step_count=40)
TestPullCacheMachine = PullCacheMachine.TestCase


def test_store_of_more_rows_than_capacity_keeps_the_most_recent():
    new, old = PullCache(capacity=3), RefPullCache(capacity=3)
    for cache in (new, old):
        cache.store(np.array([50, 51]), 1, np.array([1.0, 2.0]), 0)
        cache.store(np.array([7, 51, 3, 9, 3, 8]), None,
                    np.arange(12.0).reshape(6, 2), 0)
    assert new._size == len(old) == 3
    assert new.stats.evictions == old.stats.evictions
    keys = np.arange(60)
    for col in (None, 1):
        assert (new.lookup(keys, col, 0)[0].tolist()
                == old.lookup(keys, col, 0)[0].tolist())


# ----------------------------------------------------------------------
# derived once: scatter plan, sorted pulls
# ----------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 40)),
                max_size=80))
def test_scatter_plan_equals_unique_inverse(pairs):
    targets = np.asarray([p[0] for p in pairs], dtype=np.int64)
    others = np.asarray([p[1] for p in pairs], dtype=np.int64)
    block = build_neighbor_block(targets, others)
    expected = np.unique(block.neighbors, return_inverse=True)
    for _ in range(2):  # the second call is served from the memo
        plan = block.scatter_plan()
        assert np.array_equal(plan[0], expected[0])
        assert np.array_equal(plan[1], expected[1])
    assert block.scatter_plan()[0] is plan[0]
    assert block.logical_nbytes == (block.vertices.nbytes
                                    + block.indptr.nbytes
                                    + block.neighbors.nbytes)


@given(keys=st.lists(st.integers(0, 59), max_size=30),
       cached=st.booleans(), whole_rows=st.booleans())
def test_pull_of_increasing_keys_equals_general_path(keys, cached,
                                                     whole_rows):
    """Strictly increasing keys take the no-dedupe path; the same keys
    shuffled (and repeated) take ``np.unique``.  Both must read the same
    rows, with and without the pull cache in front."""
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    increasing = np.asarray(sorted(set(keys)), dtype=np.int64)
    general = np.asarray(keys + keys[::-1], dtype=np.int64)
    with PSGraphContext(cluster, metrics=MetricsRegistry()) as ctx:
        matrix = ctx.ps.create_matrix("m", 60, 3)
        table = np.arange(180, dtype=np.float64).reshape(60, 3)
        matrix.set(np.arange(60), table)
        if cached:
            ctx.ps.enable_pull_cache("m", staleness=5, capacity=7)
        col = None if whole_rows else 1
        expect = table if whole_rows else table[:, 1]
        for _ in range(2):  # cold, then through whatever got cached
            assert np.array_equal(matrix.pull(increasing, col=col),
                                  expect[increasing])
            assert np.array_equal(matrix.pull(general, col=col),
                                  expect[general])
