"""Naive-vs-array micro-benchmark cases.

Each case runs the same logical computation twice on fresh contexts —
once the way a per-record client would write it (``boxed_s``), once on
the array path the system provides (``batched_s``) — and reports host
wall-clock for each.  Simulated counters are embedded beside them; what
these measure is *host* speed.

Timing covers the pipeline itself; context construction and teardown
sit outside the clock.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.common.batch import segment_reduce
from repro.common.config import ClusterConfig
from repro.dataflow.context import SparkContext
from repro.ps.context import PSContext

FEATURE_DIM = 16

#: Counter prefixes embedded in the results JSON.  These are *simulated*
#: counters — shuffle volumes, PS request counts, HDFS bytes — so for a
#: fixed case they are bit-identical on every host, unlike the wall-clock
#: fields next to them.
METRIC_PREFIXES = ("dataflow.", "ps.", "hdfs.", "net.", "serve.",
                   "streaming.", "ingest.")


def _metrics_snapshot(ctx: SparkContext) -> Dict[str, float]:
    """Deterministic counters from one run (sorted, prefix-filtered)."""
    return {
        name: value
        for name, value in sorted(ctx.metrics.snapshot().items())
        if name.startswith(METRIC_PREFIXES)
    }


#: Best-of-N timing; keeps the committed quick-mode baseline stable enough
#: for CI to gate on speedup regressions.
REPEATS = 3


def _result(name: str, n: int, boxed_s: float, batched_s: float,
            metrics: Dict[str, float] | None = None) -> Dict:
    return {
        "name": name,
        "records": n,
        "boxed_s": round(boxed_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(boxed_s / batched_s, 3) if batched_s else 0.0,
        "records_per_s": int(n / batched_s) if batched_s else 0,
        "metrics": metrics or {},
    }


def case_graphsage_minibatch(n: int) -> Dict:
    """Minibatch neighbor aggregation: PS feature pull + per-dst sum.

    The pull itself is bulk in both variants (that is how the agent works);
    the contrast is the aggregation — boxed folds rows through a Python
    dict, batched runs one segment-reduce over the pulled columns.
    """
    num_vertices = max(64, n // 8)
    rng = np.random.default_rng(2)
    src = rng.integers(0, num_vertices, size=n).astype(np.int64)
    dst = rng.integers(0, num_vertices, size=n).astype(np.int64)
    feat_values = rng.integers(
        0, 10, size=(num_vertices, FEATURE_DIM)
    ).astype(np.float64)

    def run(aggregate) -> tuple:
        best = float("inf")
        snapshot: Dict[str, float] = {}
        for _ in range(REPEATS):
            cluster = ClusterConfig(
                num_executors=2, executor_mem_bytes=1 << 40,
                num_servers=2, server_mem_bytes=1 << 40,
            )
            spark = SparkContext(cluster)
            psctx = PSContext(spark)
            try:
                feats = psctx.create_matrix(
                    "feats", num_vertices, FEATURE_DIM
                )
                feats.set(np.arange(num_vertices), feat_values)
                t0 = time.perf_counter()
                aggregate(feats)
                best = min(best, time.perf_counter() - t0)
                snapshot = _metrics_snapshot(spark)
            finally:
                psctx.stop()
                spark.stop()
        return best, snapshot

    def boxed(feats):
        rows = feats.pull(src)
        acc: Dict[int, np.ndarray] = {}
        for d, row in zip(dst.tolist(), list(rows)):
            if d in acc:
                acc[d] = acc[d] + row
            else:
                acc[d] = row
        sorted(acc.items())

    def batched(feats):
        segment_reduce(dst, feats.pull(src), "add")

    boxed_s, _ = run(boxed)
    batched_s, snap = run(batched)
    return _result("graphsage_minibatch", n, boxed_s, batched_s, snap)


def case_serve_qps(n: int) -> Dict:
    """Online serving throughput: naive per-request pulls vs the plane.

    Boxed replays ``n`` Zipfian lookups as one single-key agent pull
    each — no batching, no caching, the loop a client library would
    write.  Batched routes the same stream through the
    :class:`~repro.serve.plane.ServingPlane`: quantum micro-batching
    dedupes keys, the hot-key cache absorbs the skewed head, and only
    cold keys reach the servers.
    """
    from repro.serve.plane import ServingPlane
    from repro.serve.workload import RequestGenerator, default_tenants

    key_space = 2_000
    tenants = default_tenants("ranks")
    requests = RequestGenerator(
        tenants, key_space=key_space, zipf_s=1.1, rate=1000.0, seed=3,
    ).generate(n)
    rng = np.random.default_rng(4)
    ranks = rng.random(key_space)

    def run(serve) -> tuple:
        best = float("inf")
        snapshot: Dict[str, float] = {}
        for _ in range(REPEATS):
            cluster = ClusterConfig(
                num_executors=2, executor_mem_bytes=1 << 40,
                num_servers=2, server_mem_bytes=1 << 40,
            )
            spark = SparkContext(cluster)
            psctx = PSContext(spark)
            try:
                vector = psctx.create_vector("ranks", key_space)
                vector.set(np.arange(key_space), ranks)
                t0 = time.perf_counter()
                serve(psctx, vector)
                best = min(best, time.perf_counter() - t0)
                snapshot = _metrics_snapshot(spark)
            finally:
                psctx.stop()
                spark.stop()
        return best, snapshot

    def boxed(psctx, vector):
        for request in requests:
            vector.pull(np.array([request.key], dtype=np.int64))

    def batched(psctx, vector):
        ServingPlane(
            psctx, tenants, cache_capacity=key_space // 10,
        ).run(requests)

    boxed_s, _ = run(boxed)
    batched_s, snap = run(batched)
    return _result("serve_qps", n, boxed_s, batched_s, snap)


def case_streaming_window(n: int) -> Dict:
    """Streaming windows: per-window full recompute vs incremental.

    Both legs replay the same mutation stream (adds + removals over a
    power-law base graph, ~1% churn per window) through the
    :class:`~repro.streaming.graph.StreamingGraph`.  Boxed re-runs the
    batch PageRank pipeline after every window — the operating mode the
    streaming plane replaces — while batched repairs the PS-resident
    rank/residual state with the incremental cascade.  Wall-clock is the
    host cost; ``sim_cost_ratio`` additionally pins the sim-clock
    incremental/full ratio the acceptance gate bounds at 0.25.
    """
    from repro.datasets.generators import powerlaw_graph
    from repro.ingest.mutations import edge_adds, edge_dels
    from repro.streaming import IncrementalPageRank, StreamingGraph

    windows = 4
    num_vertices = max(n, 100)
    base_edges = 10 * num_vertices
    src, dst = powerlaw_graph(num_vertices, base_edges, seed=11)
    rng = np.random.default_rng(12)
    per_window = max(2, n // windows)
    rm = per_window // 2
    removal_idx = rng.choice(base_edges, size=windows * rm, replace=False)
    batches = []
    for w in range(windows):
        adds = per_window - rm
        a_s = rng.integers(0, num_vertices, adds)
        a_d = (a_s + 1 + rng.integers(0, num_vertices - 1, adds)
               ) % num_vertices
        ridx = removal_idx[w * rm:(w + 1) * rm]
        batches.append(edge_adds(a_s, a_d)
                       + edge_dels(src[ridx], dst[ridx]))

    def run(refresh) -> tuple:
        best = float("inf")
        snapshot: Dict[str, float] = {}
        sim_cost = 0.0
        for _ in range(REPEATS):
            cluster = ClusterConfig(
                num_executors=4, executor_mem_bytes=1 << 40,
                num_servers=2, server_mem_bytes=1 << 40,
            )
            spark = SparkContext(cluster)
            psctx = PSContext(spark)
            try:
                graph = StreamingGraph(psctx, num_vertices,
                                       metrics=spark.metrics)
                graph.apply(edge_adds(src, dst))
                pr = IncrementalPageRank(graph, tol=1e-6)
                pr.bootstrap()
                s0 = spark.sim_time()
                t0 = time.perf_counter()
                for batch in batches:
                    delta = graph.apply(batch)
                    refresh(pr, delta)
                best = min(best, time.perf_counter() - t0)
                sim_cost = spark.sim_time() - s0
                snapshot = _metrics_snapshot(spark)
            finally:
                psctx.stop()
                spark.stop()
        return best, snapshot, sim_cost

    def boxed(pr, delta):
        pr.full_recompute()

    def batched(pr, delta):
        pr.update(delta)

    boxed_s, _, sim_full = run(boxed)
    batched_s, snap, sim_inc = run(batched)
    out = _result("streaming_window", n, boxed_s, batched_s, snap)
    out["sim_cost_full_s"] = round(sim_full, 9)
    out["sim_cost_incremental_s"] = round(sim_inc, 9)
    out["sim_cost_ratio"] = (round(sim_inc / sim_full, 6)
                             if sim_full else 0.0)
    return out


#: name -> (case_fn, quick_n, full_n).
CASES: Dict[str, tuple] = {
    "graphsage_minibatch": (case_graphsage_minibatch, 20_000, 400_000),
    "serve_qps": (case_serve_qps, 4_000, 100_000),
    "streaming_window": (case_streaming_window, 2_000, 20_000),
}


def run_cases(quick: bool = True,
              names: List[str] | None = None) -> List[Dict]:
    """Run the selected cases; returns one result dict per case."""
    out = []
    for name, (fn, quick_n, full_n) in CASES.items():
        if names and name not in names:
            continue
        out.append(fn(quick_n if quick else full_n))
    return out
