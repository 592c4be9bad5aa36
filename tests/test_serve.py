"""Tests for the serving plane: workload generation, admission control,
hot-key caching, the serving loop, chaos-under-serving, and the CLI."""

import numpy as np
import pytest

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.common.errors import ConfigError
from repro.common.metrics import (
    PS_CACHE_EVICTIONS,
    SERVE_CACHE_EVICTIONS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_LATENCY_H,
    SERVE_QUEUE_DEPTH_G,
    SERVE_REQUESTS,
    SERVE_SERVED,
    MetricsRegistry,
)
from repro.common.rng import derive_seed, make_rng
from repro.core.context import PSGraphContext
from repro.obs import TelemetryCollector, Tracer
from repro.obs.slo import default_slos
from repro.ps.cache import PullCache
from repro.serve import (
    AdmissionQueue,
    RequestGenerator,
    ServingPlane,
    TenantSpec,
    TokenBucket,
    WatermarkGate,
    default_serve_slos,
)
from repro.serve.admission import QUEUE_FULL
from repro.serve.workload import default_tenants, zipf_probabilities
from tests.conftest import drop_rows, request_batch


def small_cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=2, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )


def make_request(seq=0, tenant="feeds", model="m", key=0, arrival=0.0,
                 deadline=5.0, priority=1):
    """One row of :func:`tests.conftest.request_batch`."""
    return (seq, tenant, model, key, arrival, arrival + deadline, priority)


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------

class TestWorkload:
    def test_zipf_pmf_normalized_and_skewed(self):
        pmf = zipf_probabilities(100, 1.1)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pmf) <= 0)  # hot keys are the low ids
        assert pmf[0] > 10 * pmf[50]

    def test_zipf_zero_exponent_is_uniform(self):
        pmf = zipf_probabilities(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_generator_is_deterministic(self):
        tenants = default_tenants("m")
        a = RequestGenerator(tenants, key_space=50, seed=3).generate(500)
        b = RequestGenerator(tenants, key_space=50, seed=3).generate(500)
        assert [(r.seq, r.tenant, r.key, r.arrival_s) for r in a] \
            == [(r.seq, r.tenant, r.key, r.arrival_s) for r in b]
        c = RequestGenerator(tenants, key_space=50, seed=4).generate(500)
        assert [r.key for r in a] != [r.key for r in c]

    def test_streams_are_independent(self):
        tenants = default_tenants("m")
        a = RequestGenerator(tenants, key_space=50, zipf_s=0.5,
                             seed=3).generate(200)
        b = RequestGenerator(tenants, key_space=50, zipf_s=2.0,
                             seed=3).generate(200)
        # changing the key skew must not reshuffle arrivals or tenants
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.tenant for r in a] == [r.tenant for r in b]

    def test_arrivals_sorted_and_deadlines_offset(self):
        tenants = default_tenants("m")
        by_name = {t.name: t for t in tenants}
        reqs = RequestGenerator(tenants, key_space=20, seed=1).generate(300)
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in reqs} == {"feeds", "batch-reco"}
        for r in reqs:
            spec = by_name[r.tenant]
            assert r.deadline_s == pytest.approx(
                r.arrival_s + spec.deadline_s)
            assert r.priority == spec.priority

    def test_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="x", model="m", weight=0.0)
        with pytest.raises(ConfigError):
            RequestGenerator([], key_space=10)
        with pytest.raises(ConfigError):
            RequestGenerator(
                [TenantSpec(name="a", model="m"),
                 TenantSpec(name="a", model="m")], key_space=10)
        with pytest.raises(ConfigError):
            zipf_probabilities(0, 1.0)


# ----------------------------------------------------------------------
# rate limiting & backpressure
# ----------------------------------------------------------------------

class TestLimiter:
    def test_token_bucket_refills_on_sim_time(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        # The burst, then exhausted; one token refilled by 0.1 sim-s.
        assert bucket.take([0.0, 0.0, 0.0, 0.1, 0.1]) == [
            True, True, False, True, False]

    def test_token_bucket_burst_cap_and_unlimited(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        # a long idle period must not accumulate beyond the burst
        assert bucket.take([0.0, 100.0, 100.0, 100.0]) == [
            True, True, True, False]
        free = TokenBucket(rate=0.0, burst=1)
        assert all(free.take([0.0] * 100))

    def test_watermark_gate_hysteresis(self):
        gate = WatermarkGate(high=10, low=2, protect_priority=2)
        gate.update(9)
        assert not gate.closed
        gate.update(10)
        assert gate.closed
        # the protected class keeps flowing through a closed gate
        assert gate.protects(np.array([1, 2, 3])).tolist() == [
            False, True, True]
        gate.update(5)                       # above low: still closed
        assert gate.closed
        gate.update(2)
        assert not gate.closed
        assert gate.transitions == 1

    def test_gate_validation(self):
        with pytest.raises(ConfigError):
            WatermarkGate(high=2, low=2, protect_priority=2)


# ----------------------------------------------------------------------
# admission queue
# ----------------------------------------------------------------------

def ranked(rows):
    """``(rank per request, deadline per rank)`` under the queue's total
    order, the way the plane ranks a run."""
    requests = request_batch(rows)
    order = np.lexsort((requests.seq, requests.deadline_s,
                        -requests.priority))
    rank = np.empty(len(requests), dtype=np.int64)
    rank[order] = np.arange(len(requests))
    return rank, requests.deadline_s[order]


def offer(queue, ranks):
    """Offer ranks through a gate that never closes; the drops."""
    gate = WatermarkGate(high=10 ** 9, low=0, protect_priority=2)
    return queue.admit(np.asarray(ranks), np.zeros(len(ranks), dtype=bool),
                       gate)


class TestAdmissionQueue:
    def test_priority_then_deadline_order(self):
        q = AdmissionQueue(capacity=10)
        rank, deadline_of = ranked([
            make_request(seq=0, priority=1, arrival=0.0, deadline=5.0),
            make_request(seq=1, priority=2, arrival=0.0, deadline=9.0),
            make_request(seq=2, priority=2, arrival=0.0, deadline=1.0),
        ])
        assert offer(q, rank) is None
        batch, expired = q.drain(10, 0.5, deadline_of)
        assert not len(expired)
        assert [rank.tolist().index(r) for r in batch] == [2, 1, 0]

    def test_full_queue_evicts_worst(self):
        q = AdmissionQueue(capacity=2)
        rank, _ = ranked([
            make_request(seq=0, priority=1),   # low
            make_request(seq=1, priority=2),   # mid
            make_request(seq=2, priority=3),
            make_request(seq=3, priority=1),
        ])
        assert offer(q, rank[:2]) is None
        position, victim, reason = offer(q, rank[2:])
        assert position.tolist() == [0, 1]
        # the worst entry made way, then the newcomer itself was the worst
        assert victim.tolist() == [rank[0], rank[3]]
        assert reason.tolist() == [QUEUE_FULL, QUEUE_FULL]
        assert q.depth == 2

    def test_drain_evicts_expired(self):
        q = AdmissionQueue(capacity=10)
        rank, deadline_of = ranked([
            make_request(seq=0, arrival=0.0, deadline=1.0),
            make_request(seq=1, arrival=0.0, deadline=9.0),
        ])
        offer(q, rank)
        batch, expired = q.drain(10, 2.0, deadline_of)
        assert batch.tolist() == [rank[1]]
        assert expired.tolist() == [rank[0]]
        assert q.depth == 0

    def test_queue_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(capacity=0)


# ----------------------------------------------------------------------
# pull-cache capacity (satellite) & hot-key cache
# ----------------------------------------------------------------------

class TestPullCacheCapacity:
    def test_default_stays_unbounded(self):
        cache = PullCache(staleness=0)
        keys = np.arange(10_000)
        cache.store(keys, None, np.ones(10_000), epoch=0)
        assert cache._size == 10_000
        assert cache.stats.evictions == 0

    def test_lru_eviction_order(self):
        cache = PullCache(staleness=0, capacity=2)
        cache.store(np.array([1]), None, np.array([1.0]), epoch=0)
        cache.store(np.array([2]), None, np.array([2.0]), epoch=0)
        # touching key 1 makes key 2 the LRU victim
        mask, _ = cache.lookup(np.array([1]), None, epoch=0)
        assert mask.all()
        cache.store(np.array([3]), None, np.array([3.0]), epoch=0)
        assert cache.stats.evictions == 1
        mask, _ = cache.lookup(np.array([2]), None, epoch=0)
        assert not mask.any()
        mask, _ = cache.lookup(np.array([1, 3]), None, epoch=0)
        assert mask.all()

    def test_eviction_counter_reaches_registry(self):
        metrics = MetricsRegistry()
        cache = PullCache(staleness=0, capacity=3, metrics=metrics)
        cache.store(np.arange(10), None, np.ones(10), epoch=0)
        assert cache._size == 3
        assert cache.stats.evictions == 7
        assert metrics.get(PS_CACHE_EVICTIONS) == 7

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            PullCache(capacity=0)

    def test_staleness_still_expires_with_capacity(self):
        cache = PullCache(staleness=1, capacity=8)
        cache.store(np.array([5]), None, np.array([1.0]), epoch=0)
        mask, _ = cache.lookup(np.array([5]), None, epoch=1)
        assert mask.all()
        mask, _ = cache.lookup(np.array([5]), None, epoch=2)
        assert not mask.any()

    def test_context_enable_with_capacity(self):
        with PSGraphContext(small_cluster()) as ctx:
            ctx.ps.create_vector("v", 100)
            cache = ctx.ps.enable_pull_cache("v", capacity=4)
            assert cache.capacity == 4
            handle = ctx.ps.matrix("v")
            handle.pull(np.arange(10))
            assert cache._size == 4
            assert ctx.metrics.get(PS_CACHE_EVICTIONS) == 6


class TestHotKeyCache:
    def test_hits_misses_and_evictions_metered(self):
        # Two batches, one quantum apart: keys {1, 2} miss and fill the
        # two-row cache; then 1 and 2 hit, 3 misses and evicts one row.
        with PSGraphContext(small_cluster()) as ctx:
            publish_vector(ctx, "m", 10)
            tenants = [TenantSpec("feeds", "m")]
            plane = ServingPlane(ctx.ps, tenants, cache_capacity=2)
            report = plane.run(request_batch([
                make_request(seq=0, key=1, arrival=0.0),
                make_request(seq=1, key=2, arrival=0.0),
                make_request(seq=2, key=2, arrival=0.1),
                make_request(seq=3, key=1, arrival=0.1),
                make_request(seq=4, key=3, arrival=0.1)]))
            assert report.batches == 2
            metrics = ctx.metrics
            assert metrics.get(SERVE_CACHE_HITS) == 2
            assert metrics.get(SERVE_CACHE_MISSES) == 3
            assert metrics.get(SERVE_CACHE_EVICTIONS) == 1
            assert report.cache_hit_rate == 2 / 5
            # The serving caches meter nothing under the training names.
            assert PS_CACHE_EVICTIONS not in metrics.snapshot()


# ----------------------------------------------------------------------
# the serving plane
# ----------------------------------------------------------------------

def publish_vector(ctx, name, size, seed=11):
    vec = ctx.ps.create_vector(name, size)
    vec.set(np.arange(size),
            make_rng(derive_seed(seed, "publish")).random(size))
    ctx.ps.checkpoint_all()
    return vec


class TestServingPlane:
    def test_healthy_run_serves_everything(self):
        with PSGraphContext(small_cluster()) as ctx:
            publish_vector(ctx, "serve.ranks", 500)
            tenants = default_tenants("serve.ranks")
            plane = ServingPlane(ctx.ps, tenants, cache_capacity=100)
            reqs = RequestGenerator(
                tenants, key_space=500, seed=5).generate(5000)
            report = plane.run(reqs)
            assert report.offered == 5000
            assert report.served == 5000
            assert report.dropped == 0
            assert report.conserved()
            assert 0.0 < report.p50_s <= report.p99_s < 0.25
            assert report.degraded_p99_s is None
            assert report.cache_hit_rate > 0.5  # Zipf skew + 20% cache
            metrics = ctx.metrics
            assert metrics.get(SERVE_REQUESTS) == 5000
            assert metrics.get(SERVE_SERVED) == 5000
            assert metrics.histogram(SERVE_LATENCY_H).count == 5000
            assert metrics.gauge_snapshot()[SERVE_QUEUE_DEPTH_G][
                "value"] == 0.0

    def test_rate_limited_tenant_sheds_with_records(self):
        with PSGraphContext(small_cluster()) as ctx:
            publish_vector(ctx, "serve.ranks", 100)
            tenants = [TenantSpec(name="greedy", model="serve.ranks",
                                  rate_limit=100.0, burst=1)]
            plane = ServingPlane(ctx.ps, tenants)
            reqs = RequestGenerator(
                tenants, key_space=100, rate=1000.0, seed=5).generate(2000)
            report = plane.run(reqs)
            assert report.drops.get("rate_limited", 0) > 0
            assert report.conserved()
            limited = [r for r in drop_rows(report.drop_records)
                       if r[2] == "rate_limited"]
            assert len(limited) == report.drops["rate_limited"]
            assert all(r[1] == "greedy" for r in limited)

    @pytest.mark.parametrize("names, message", [
        ((), "at least one tenant"),
        # Duplicates used to let the later spec win: requests drawn for
        # the unlimited ``a`` were served under the rate-limited one.
        (("a", "a"), "duplicate tenant names")])
    def test_tenant_list_is_validated(self, names, message):
        tenants = [TenantSpec(name=name, model="serve.ranks", priority=2 - i,
                              rate_limit=5.0 * i)
                   for i, name in enumerate(names)]
        with PSGraphContext(small_cluster()) as ctx:
            publish_vector(ctx, "serve.ranks", 100)
            with pytest.raises(ConfigError, match=message):
                ServingPlane(ctx.ps, tenants)

    def test_unknown_model_raises(self):
        with PSGraphContext(small_cluster()) as ctx:
            with pytest.raises(Exception):
                ServingPlane(ctx.ps, default_tenants("nope"))


class TestChaosUnderServing:
    """The satellite coverage: alert timing, conservation, determinism."""

    def run_chaos(self, seed=20200420):
        metrics = MetricsRegistry()
        tracer = Tracer()
        with PSGraphContext(small_cluster(), metrics=metrics,
                            tracer=tracer) as ctx:
            publish_vector(ctx, "serve.ranks", 400)
            collector = TelemetryCollector(
                metrics, tracer,
                slos=default_slos() + default_serve_slos(),
            ).attach(ctx.spark)
            tenants = default_tenants("serve.ranks")
            schedule = FaultSchedule([
                FaultSpec("kill_server", index=0, after_tasks=30,
                          task_kind="serve"),
            ], seed=seed)
            engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
            engine.bind_telemetry(collector)
            plane = ServingPlane(ctx.ps, tenants, cache_capacity=40)
            reqs = RequestGenerator(
                tenants, key_space=400, seed=seed).generate(8000)
            try:
                report = plane.run(reqs)
            finally:
                engine.detach()
                collector.finalize(ctx.sim_time())
                collector.detach()
            return report, engine, collector, ctx.sim_time()

    def test_slo_alert_fires_between_injection_and_recovery(self):
        report, engine, collector, end_s = self.run_chaos()
        assert len(engine.fired) == 1
        injected_at = engine.fired[0].sim_time_s
        serve_alerts = [a for a in collector.alerts
                        if a.slo == "serve-latency"]
        assert serve_alerts, "serve-latency SLO never fired under chaos"
        # the outage window for serving ends when the backlog drains
        assert injected_at <= serve_alerts[0].fired_at_s <= end_s
        assert report.degraded_p99_s is not None
        assert report.degraded_p99_s > 0.25   # way past the SLO threshold
        assert report.recoveries == 1

    def test_no_silent_drops_under_chaos(self):
        report, engine, _, _ = self.run_chaos()
        assert report.served < report.offered  # the outage cost something
        assert report.conserved()
        assert len(report.drop_records) == report.dropped
        rows = drop_rows(report.drop_records)
        seqs = [r[0] for r in rows]
        assert len(seqs) == len(set(seqs))     # each request dropped once
        from repro.serve.admission import DROP_REASONS
        assert all(r[2] in DROP_REASONS for r in rows)

    def test_strict_double_run_determinism(self):
        from repro.obs.determinism import check_determinism
        report = check_determinism("serve-chaos", seed=99)
        assert report.ok, report.describe()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestServeCli:
    def test_end_to_end_with_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        record = tmp_path / "serve.json"
        views = tmp_path / "views"
        rc = main([
            "serve", "--requests", "12000", "--vertices", "300",
            "--edges", "1200", "--iterations", "4", "--seed", "7", "--chaos",
            "--record", str(record),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "hot cache" in out
        assert "serve-latency" in out
        import json
        doc = json.loads(record.read_text())
        assert any(s["name"] == "serve-latency"
                   for s in doc["telemetry"]["slos"])
        assert doc["report"]["conserved"] is True
        assert doc["report"]["degraded_p99_s"] > 0.25
        assert main(["report", str(record), "--out", str(views),
                     "--require-alert", "1"]) == 0
        assert json.loads((views / "report.json").read_text()) == \
            doc["report"]

    def test_require_alert_fails_without_chaos(self, tmp_path, capsys):
        from repro.cli import main
        record = tmp_path / "serve.json"
        assert main([
            "serve", "--requests", "1000", "--vertices", "200",
            "--edges", "800", "--iterations", "3",
            "--record", str(record),
        ]) == 0
        assert main(["report", str(record), "--require-alert", "1"]) == 1
        assert "required >= 1 alert" in capsys.readouterr().err
