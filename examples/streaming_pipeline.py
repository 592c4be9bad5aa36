#!/usr/bin/env python
"""Streaming mutations with incremental recompute (the Fig. 3 ecosystem).

Mutations — edge adds *and* removals, plus the occasional vertex
takedown — arrive on a Kafka-style topic.  The consumer stages each
poll, lands it on HDFS for the batch jobs, and hands the typed batch to
the window engine, which repairs the PS-resident graph and refreshes
PageRank and connected components *incrementally*: every window ends
with ranks that match a from-scratch batch recompute, at a small
fraction of its sim-clock cost.

Run:
    python examples/streaming_pipeline.py
"""

import numpy as np

from repro.common.config import ClusterConfig, MB
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    StreamingEngine,
    StreamingGraph,
)

NUM_VERTICES = 2000
BASE_EDGES = 15000


def main() -> None:
    cluster = ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )
    with PSGraphContext(cluster, app_name="streaming") as ctx:
        topic = KafkaTopic("friend-events", num_partitions=4)
        graph = StreamingGraph(ctx.ps, NUM_VERTICES, metrics=ctx.metrics)
        consumer = EdgeStreamConsumer(
            topic, ctx.hdfs, landing_dir="/stream/edges",
            metrics=ctx.metrics,
        )
        engine = StreamingEngine(graph, consumer, measure_full=True)
        pagerank = engine.register(
            "pagerank", IncrementalPageRank(graph, tol=1e-8))
        engine.register("components", IncrementalComponents(graph))

        # Wave 0: the base graph arrives and the algorithms bootstrap.
        src, dst = powerlaw_graph(NUM_VERTICES, BASE_EDGES, seed=41)
        topic.produce(src, dst)
        engine.run_window()
        engine.reports.clear()
        print(f"bootstrap: {graph.num_edges} live edges, "
              f"{len(graph.present_vertices())} present vertices")

        # Waves of churn: friendships form AND dissolve, one account
        # is taken down, and each window re-freshens the ranks.
        rng = np.random.default_rng(43)
        for wave in range(3):
            a_s = rng.integers(0, NUM_VERTICES, 40)
            a_d = (a_s + 1 + rng.integers(0, NUM_VERTICES - 1, 40)
                   ) % NUM_VERTICES
            topic.produce(a_s, a_d)
            ridx = rng.choice(len(src), size=25, replace=False)
            topic.produce_removals(src[ridx], dst[ridx])
            if wave == 1:
                present = graph.present_vertices()
                doomed = present[int(rng.integers(0, len(present)))]
                topic.produce_vertex_removals(
                    np.asarray([doomed], dtype=np.int64))
            report = engine.run_window()
            ids, ranks = pagerank.ranks()
            top = ids[np.argsort(ranks)[::-1][:3]]
            print(f"wave {wave}: +{report.edges_added} "
                  f"-{report.edges_removed} edges, "
                  f"{report.vertices_dropped} drops, "
                  f"inc={report.cost_incremental_s:.4f}s vs "
                  f"full={report.cost_full_s:.4f}s "
                  f"(ratio {report.cost_ratio:.3f}), "
                  f"top ranks: {top.tolist()}")

        summary = engine.summary()
        print(f"summary: {int(summary['windows'])} windows, "
              f"incremental {summary['cost_incremental_s']:.4f}s vs "
              f"full recompute {summary['cost_full_s']:.4f}s "
              f"(ratio {summary['cost_ratio']:.3f})")
        print(f"total ingested records: "
              f"{int(ctx.metrics.get('ingest.records'))}")
        print(f"simulated job time: {ctx.sim_time():.3f} s")


if __name__ == "__main__":
    main()
