#!/usr/bin/env python
"""Online serving walkthrough: train -> snapshot -> serve under chaos.

Trains two models on one simulated cluster — PageRank scores and LINE
embeddings — snapshots them on the parameter servers, then replays a
seeded Zipfian three-tenant workload through the admission-controlled
serving plane while a chaos schedule kills one serving shard
mid-traffic.  Watch the ``serve-latency`` SLO fire during the outage,
the hot-key cache absorb the skewed head, and the drop ledger account
for every request the outage cost.

Run:
    python examples/serving_pipeline.py
"""

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.core.algorithms import Line, PageRank
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs import TelemetryCollector, Tracer
from repro.obs.slo import default_slos
from repro.serve import (
    RequestGenerator,
    ServingPlane,
    TenantSpec,
    publish_snapshot,
)
from repro.serve.plane import default_serve_slos

SEED = 11


def main() -> None:
    cluster = ClusterConfig(
        num_executors=4, executor_mem_bytes=512 * MB,
        num_servers=2, server_mem_bytes=512 * MB,
    )
    tracer = Tracer()
    with PSGraphContext(cluster, app_name="serving-pipeline",
                        tracer=tracer) as ctx:
        # ---- train: two models on the same graph ----------------------
        src, dst = powerlaw_graph(1500, 9000, seed=SEED)
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        runner = GraphRunner(ctx)
        ranks = runner.run(PageRank(max_iterations=10), "/input/edges")
        embeddings = runner.run(
            Line(dim=8, epochs=1, seed=SEED), "/input/edges")
        emb = embeddings.stats["embedding"]
        print(f"trained pagerank ({ranks.iterations} iters) and line "
              f"({emb.name}, dim 8) in {ctx.sim_time():.3f} sim-s")

        # ---- snapshot: publish ranks, checkpoint everything -----------
        key_space = publish_snapshot(ctx.ps, "serve.ranks",
                                     ranks.output.rdd.collect())
        print(f"snapshotted serve.ranks[{key_space}] and {emb.name} "
              "to HDFS checkpoints")

        # ---- serve: three tenants, two models, one dead shard ---------
        collector = TelemetryCollector(
            ctx.metrics, tracer,
            slos=default_slos() + default_serve_slos(),
        ).attach(ctx.spark)
        tenants = [
            TenantSpec(name="feeds", model="serve.ranks", weight=3.0,
                       priority=2, deadline_s=5.0),
            TenantSpec(name="similar-items", model=emb.name, weight=2.0,
                       priority=1, deadline_s=8.0),
            TenantSpec(name="batch-reco", model="serve.ranks", weight=1.0,
                       priority=1, deadline_s=10.0, rate_limit=200.0,
                       burst=32),
        ]
        requests = RequestGenerator(
            tenants, key_space=key_space, zipf_s=1.1, rate=1500.0,
            seed=SEED,
        ).generate(30_000, start_s=ctx.sim_time())
        engine = ChaosEngine(FaultSchedule([
            FaultSpec("kill_server", index=0, after_tasks=60,
                      task_kind="serve"),
        ], seed=SEED), ctx.spark, ctx.ps).attach()
        engine.bind_telemetry(collector)
        plane = ServingPlane(ctx.ps, tenants,
                             cache_capacity=key_space // 10)
        try:
            report = plane.run(requests)
        finally:
            engine.detach()
            collector.finalize(ctx.sim_time())
            collector.detach()

        # ---- report ---------------------------------------------------
        print(engine.describe())
        print(f"served {report.served}/{report.offered} requests, "
              f"p50 {report.p50_s * 1e3:.1f} ms / "
              f"p99 {report.p99_s * 1e3:.1f} ms (sim)")
        if report.degraded_p99_s is not None:
            print(f"degraded-mode p99 {report.degraded_p99_s:.2f} s over "
                  f"{report.recoveries} recovery")
        print(f"hot-key cache hit rate {report.cache_hit_rate * 100:.1f}%")
        for reason, count in sorted(report.drops.items()):
            print(f"  dropped {count} ({reason})")
        assert report.conserved(), "request conservation violated"
        for alert in collector.alerts:
            print(f"alert {alert.slo}: fired {alert.fired_at_s:.2f} sim-s")


if __name__ == "__main__":
    main()
