"""Golden pins for the serving plane and batch PageRank: sim clock,
reports, drop records, latency histograms, cache counters, rank digests.

The serving plane's admission path, both caches and the latency
histograms moved from one Python object per request to columns, and
``PageRank.step`` to a scatter plan memoised on the cached block; none of
that may move a simulated number.  Each run's record is a line of the
ledger (``tests/ledger.py``); the values have held since commit
``1d49e73`` (the per-request ``_admit`` loop, the ``OrderedDict`` pull
cache, one ``np.unique`` per PageRank iteration).

The serving scenario is the benchmark's ladder at a reduced size: five
planes run back to back on one context (pinned, under-loaded, two
saturated rungs, one with a ``kill_server`` mid-traffic) over three
tenants, one of whose token bucket runs dry.  Only the first plane's
whole report is pinned: at ``1d49e73`` a later plane on a shared registry
reported lifetime ``offered`` / ``served`` / percentiles (fixed since),
so later rungs pin the fields that were already the run's own, and the
registry's counters and histograms are read after every rung.
"""

import numpy as np
import pytest

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import ClusterConfig
from repro.common.metrics import (
    PS_CACHE_EVICTIONS,
    SERVE_CACHE_EVICTIONS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_DEGRADED_LATENCY_H,
    SERVE_LATENCY_H,
    SERVE_REQUESTS,
    SERVE_SERVED,
)
from repro.core.algorithms import PageRank
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays
from repro.datasets.generators import powerlaw_graph
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.ps.psfunc import RandomInit
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from tests.conftest import digest
from tests.ledger import check, pin, runner_key

KEYS = 1200

#: (name, sim req/s, requests, kill PS server 0 after this many batches)
RUNGS = [
    ("pinned", 400, 9000, None),
    ("under", 150, 800, None),
    ("saturated900", 900, 2500, None),
    ("saturated1600", 1600, 2500, None),
    ("kill", 400, 2000, 25),
]

#: Report fields that were the run's own at 1d49e73 (see module doc).
RUN_LOCAL = ("drops", "cache_hit_rate", "batches", "gate_transitions",
             "peak_depth", "recoveries", "start_s", "end_s")


def _cluster() -> ClusterConfig:
    return ClusterConfig(num_executors=4, executor_mem_bytes=1 << 40,
                         num_servers=2, server_mem_bytes=1 << 40)


def _tenants():
    return [
        TenantSpec(name="feeds", model="serve.ranks", weight=3.0,
                   priority=2, deadline_s=0.6),
        TenantSpec(name="similar-items", model="serve.emb", weight=2.0,
                   priority=1, deadline_s=0.12),
        TenantSpec(name="batch-reco", model="serve.ranks", weight=1.0,
                   priority=1, deadline_s=0.9, rate_limit=60.0, burst=8),
    ]


def _histogram(hist) -> tuple:
    return (hist.count, hist.sum, hist.min, hist.max, hist.percentile(50.0),
            hist.percentile(99.0), hist.count_above(0.25))


def serving_snapshot() -> dict:
    """The record of everything the serving pins hold, keyed by rung."""
    out = {}
    with PSGraphContext(_cluster(), app_name="serve-pins",
                        tracer=Tracer()) as ctx:
        ranks = ctx.ps.create_vector("serve.ranks", KEYS)
        ranks.set(np.arange(KEYS), np.random.default_rng(3).random(KEYS))
        ctx.ps.create_embedding("serve.emb", KEYS, 8).psfunc(RandomInit(5))
        ctx.ps.enable_pull_cache("serve.ranks", staleness=1 << 30,
                                 capacity=KEYS // 8)
        ctx.ps.checkpoint_all()
        tenants = _tenants()
        metrics = ctx.metrics
        for salt, (name, rate, count, kill_after) in enumerate(RUNGS):
            requests = RequestGenerator(
                tenants, key_space=KEYS, zipf_s=1.1, rate=float(rate),
                seed=40 + salt).generate(count, start_s=ctx.sim_time())
            plane = ServingPlane(ctx.ps, tenants, queue_capacity=96,
                                 batch_size=32, cache_capacity=KEYS // 12)
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
            doc = report.to_dict()
            out[name] = {
                "report": (doc if name == "pinned"
                           else {k: doc[k] for k in RUN_LOCAL}),
                "degraded_p99_s": doc["degraded_p99_s"],
                "drops": (len(plane.drop_records), digest(
                    [(r.seq, r.tenant, r.reason, r.sim_time_s)
                     for r in plane.drop_records])),
                "report_drops": len(report.drop_records),
                "queue_depth": plane.queue.depth,
                "offered": metrics.get(SERVE_REQUESTS),
                "served": metrics.get(SERVE_SERVED),
                "latency": _histogram(metrics.histogram(SERVE_LATENCY_H)),
                "counters": tuple(metrics.get(c) for c in (
                    SERVE_CACHE_HITS, SERVE_CACHE_MISSES,
                    SERVE_CACHE_EVICTIONS, PS_CACHE_EVICTIONS)),
                "sim_s": ctx.sim_time(),
            }
        out["degraded"] = _histogram(
            metrics.histogram(SERVE_DEGRADED_LATENCY_H))
        out["ps_cache"] = (ctx.ps.pull_cache("serve.ranks").stats.hits,
                           ctx.ps.pull_cache("serve.ranks").stats.misses)
    return run_record(out, ctx.tracer, ctx.metrics)


PAGERANK = {
    "delta": dict(),
    "full": dict(use_delta=False),
    "threshold": dict(delta_threshold=0.02),
}

#: (variant, partitions, kill executor 1 after this many tasks)
PAGERANK_CELLS = [(variant, p, None) for variant in PAGERANK
                  for p in (4, 16)] + [
    (variant, 4, 30) for variant in PAGERANK]


def pagerank_cell(variant: str, p: int, kill_after) -> dict:
    """The record of one batch PageRank run (sim time, iterations, ranks);
    a mid-run ``kill_executor`` drops that executor's cached tables, so
    the recomputed blocks must derive their scatter plan afresh."""
    with PSGraphContext(_cluster(), app_name="pagerank-pins",
                        tracer=Tracer()) as ctx:
        src, dst = powerlaw_graph(400, 3000, seed=11)
        edges = edges_from_arrays(ctx.spark, src, dst, num_partitions=p)
        engine = None
        if kill_after is not None:
            engine = ChaosEngine(FaultSchedule([FaultSpec(
                "kill_executor", index=1, after_tasks=kill_after)], seed=0),
                ctx.spark, ctx.ps).attach()
        try:
            result = PageRank(max_iterations=6, tol=0.0,
                              **PAGERANK[variant]).transform(ctx, edges)
        finally:
            if engine is not None:
                assert len(engine.fired) == 1
                engine.detach()
        doc = {"sim_s": ctx.sim_time(), "iterations": result.iterations,
               "ranks": digest(result.output.collect())}
    return run_record(doc, ctx.tracer, ctx.metrics)


PINNED = [(serving_snapshot, ())] + [(pagerank_cell, cell)
                                     for cell in PAGERANK_CELLS]


@pytest.fixture(scope="module")
def serving():
    return serving_snapshot()


@pytest.mark.parametrize("rung", [r[0] for r in RUNGS]
                         + ["degraded", "ps_cache"])
def test_serving_rung_is_pinned(serving, rung):
    check(runner_key(serving_snapshot), serving, label=rung)


def test_serving_run_matches_its_ledger_line(serving):
    """Every span and metric of the run too, not only the rungs."""
    check(runner_key(serving_snapshot), serving)


def test_every_drop_reason_is_exercised(serving):
    reasons = set()
    for name, _rate, _count, _kill in RUNGS:
        reasons |= set(serving[name]["report"]["drops"])
    assert reasons == {"rate_limited", "backpressure", "queue_full",
                       "deadline"}
    assert serving["kill"]["report"]["recoveries"] == 1


@pytest.mark.parametrize("variant,p,kill_after", PAGERANK_CELLS)
def test_pagerank_is_pinned(variant, p, kill_after):
    pin(pagerank_cell, variant, p, kill_after)
