"""Golden pins for the serving plane and batch PageRank: sim clock,
reports, drop records, latency histograms, cache counters, rank digests.

The serving plane's admission path, both caches and the latency
histograms moved from one Python object per request to columns, and
``PageRank.step`` to a scatter plan memoised on the cached block; none of
that may move a simulated number.  The values below were computed at
commit ``1d49e73`` (the per-request ``_admit`` loop, the ``OrderedDict``
pull cache, one ``np.unique`` per PageRank iteration);
``python tests/test_serve_pins.py`` prints them again.

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
from repro.ps.psfunc import RandomInit
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from tests.conftest import digest

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
    """Everything the serving pins hold, keyed by rung."""
    out = {}
    with PSGraphContext(_cluster(), app_name="serve-pins") as ctx:
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
    return out


PAGERANK = {
    "delta": dict(),
    "full": dict(use_delta=False),
    "threshold": dict(delta_threshold=0.02),
}

#: (variant, partitions, kill executor 1 after this many tasks)
PAGERANK_CELLS = [(variant, p, None) for variant in PAGERANK
                  for p in (4, 16)] + [
    (variant, 4, 30) for variant in PAGERANK]


def pagerank_cell(variant: str, p: int, kill_after) -> tuple:
    """``(sim_s, iterations, rank digest)`` of one batch PageRank run; a
    mid-run ``kill_executor`` drops that executor's cached tables, so the
    recomputed blocks must derive their scatter plan afresh."""
    with PSGraphContext(_cluster(), app_name="pagerank-pins") as ctx:
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
        return (ctx.sim_time(), result.iterations,
                digest(result.output.collect()))


SERVING_PINS = {'pinned': {'report': {'offered': 9000,
                       'served': 8817,
                       'drops': {'rate_limited': 183},
                       'p50_s': 0.026511650270246597,
                       'p99_s': 0.050279910507353406,
                       'degraded_p99_s': None,
                       'cache_hit_rate': 0.5806713589604765,
                       'batches': 434,
                       'gate_transitions': 0,
                       'peak_depth': 34,
                       'recoveries': 0,
                       'start_s': 0.0001173232,
                       'end_s': 22.80645090810483,
                       'conserved': True},
            'degraded_p99_s': None,
            'drops': (183, 'b7aaffd2f8c0e621'),
            'report_drops': 183,
            'queue_depth': 0,
            'offered': 9000.0,
            'served': 8817.0,
            'latency': (8817,
                        232.3448703118504,
                        0.00010892568898768218,
                        0.06281215396330708,
                        0.026511650270246597,
                        0.050279910507353406,
                        0),
            'counters': (4290.0, 3098.0, 2898.0, 1563.0),
            'sim_s': 22.80645090810483},
 'under': {'report': {'drops': {},
                      'cache_hit_rate': 0.556786703601108,
                      'batches': 94,
                      'gate_transitions': 0,
                      'peak_depth': 14,
                      'recoveries': 0,
                      'start_s': 22.80645090810483,
                      'end_s': 27.966771588909406},
           'degraded_p99_s': None,
           'drops': (0, 'e3b0c44298fc1c14'),
           'report_drops': 0,
           'queue_depth': 0,
           'offered': 9800.0,
           'served': 9617.0,
           'latency': (9617,
                       254.7286141840306,
                       6.018705807520064e-05,
                       0.06281215396330708,
                       0.026511650270246597,
                       0.050279910507353406,
                       0),
           'counters': (4692.0, 3418.0, 3018.0, 1728.0),
           'sim_s': 27.966771588909406},
 'saturated900': {'report': {'drops': {'rate_limited': 220,
                                       'deadline': 87,
                                       'backpressure': 421},
                             'cache_hit_rate': 0.5310136157337367,
                             'batches': 56,
                             'gate_transitions': 10,
                             'peak_depth': 80,
                             'recoveries': 0,
                             'start_s': 27.966771588909406,
                             'end_s': 30.77244268081351},
                  'degraded_p99_s': None,
                  'drops': (728, '6a0c4d02a87e1a9d'),
                  'report_drops': 728,
                  'queue_depth': 0,
                  'offered': 12300.0,
                  'served': 11389.0,
                  'latency': (11389,
                              370.50619992929296,
                              6.018705807520064e-05,
                              0.8850679483019412,
                              0.02759364803660703,
                              0.11646998560436082,
                              92),
                  'counters': (5394.0, 4038.0, 3438.0, 2096.0),
                  'sim_s': 30.77244268081351},
 'saturated1600': {'report': {'drops': {'backpressure': 932,
                                        'rate_limited': 288,
                                        'queue_full': 207},
                              'cache_hit_rate': 0.4837451235370611,
                              'batches': 34,
                              'gate_transitions': 1,
                              'peak_depth': 96,
                              'recoveries': 0,
                              'start_s': 30.77244268081351,
                              'end_s': 32.47536580659184},
                   'degraded_p99_s': None,
                   'drops': (1427, '02a6c367a327fdc1'),
                   'report_drops': 1427,
                   'queue_depth': 0,
                   'offered': 14800.0,
                   'served': 12462.0,
                   'latency': (12462,
                               497.7381290719737,
                               6.018705807520064e-05,
                               0.8850679483019412,
                               0.029891921784499075,
                               0.14806355481226524,
                               92),
                   'counters': (5766.0, 4435.0, 3735.0, 2434.0),
                   'sim_s': 32.47536580659184},
 'kill': {'report': {'drops': {'rate_limited': 33,
                               'backpressure': 677,
                               'queue_full': 670,
                               'deadline': 96},
                     'cache_hit_rate': 0.45734597156398105,
                     'batches': 26,
                     'gate_transitions': 1,
                     'peak_depth': 96,
                     'recoveries': 1,
                     'start_s': 32.47536580659184,
                     'end_s': 63.88571066785706},
          'degraded_p99_s': 30.05033473439805,
          'drops': (1476, '5ed0d22d8edb7f72'),
          'report_drops': 1476,
          'queue_depth': 0,
          'offered': 16800.0,
          'served': 12986.0,
          'latency': (12986,
                      1141.4193504698978,
                      6.018705807520064e-05,
                      30.0503625705,
                      0.029891921784499075,
                      0.14806355481226524,
                      113),
          'counters': (5959.0, 4664.0, 3764.0, 2533.0),
          'sim_s': 63.88571066785706},
 'degraded': (21,
              630.6040339179102,
              30.001054228830895,
              30.0503625705,
              30.02756867763607,
              30.05033473439805,
              21),
 'ps_cache': (530, 2689)}

PAGERANK_PINS = {('delta', 4, None): (0.0022476096, 6, '91279761e404cbca'),
 ('delta', 16, None): (0.0048610496, 6, 'b420f38b09eecf3e'),
 ('full', 4, None): (0.0022476384000000003, 6, '299900f9a17c5f5e'),
 ('full', 16, None): (0.0048610784, 6, '9bf05aaabac1bce1'),
 ('threshold', 4, None): (0.0022476096, 6, 'afd0f4ec1488afb4'),
 ('threshold', 16, None): (0.004860417600000002, 6, 'e5e59d8d3a8322a3'),
 ('delta', 4, 30): (30.002653694399996, 6, '91279761e404cbca'),
 ('full', 4, 30): (30.002653751999997, 6, '299900f9a17c5f5e'),
 ('threshold', 4, 30): (30.002644083199996, 6, 'afd0f4ec1488afb4')}


@pytest.fixture(scope="module")
def serving():
    return serving_snapshot()


@pytest.mark.parametrize("rung", [r[0] for r in RUNGS]
                         + ["degraded", "ps_cache"])
def test_serving_rung_is_pinned(serving, rung):
    assert serving[rung] == SERVING_PINS[rung]


def test_every_drop_reason_is_exercised(serving):
    reasons = set()
    for name, _rate, _count, _kill in RUNGS:
        reasons |= set(serving[name]["report"]["drops"])
    assert reasons == {"rate_limited", "backpressure", "queue_full",
                       "deadline"}
    assert serving["kill"]["report"]["recoveries"] == 1


@pytest.mark.parametrize("variant,p,kill_after", PAGERANK_CELLS)
def test_pagerank_is_pinned(variant, p, kill_after):
    assert pagerank_cell(variant, p, kill_after) == PAGERANK_PINS[
        (variant, p, kill_after)]


if __name__ == "__main__":
    import pprint
    print("SERVING_PINS = ", end="")
    pprint.pprint(serving_snapshot(), width=78, sort_dicts=False)
    print("\nPAGERANK_PINS = ", end="")
    pprint.pprint({cell: pagerank_cell(*cell) for cell in PAGERANK_CELLS},
                  width=78, sort_dicts=False)
