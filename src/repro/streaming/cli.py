"""``repro-streaming`` — the streaming-mutation pipeline end to end.

Generates a power-law base graph, streams it through the Kafka-style
topic into a PS-resident :class:`~repro.streaming.graph.StreamingGraph`,
bootstraps the incremental algorithms (delta-PageRank, connected
components, optionally an online embedding), then drives mutation
windows — edge adds, edge removals and vertex drops — through the
at-least-once consumer and reports the incremental-vs-full recompute
cost per window on the sim clock::

    repro-streaming --vertices 500 --base-edges 2000 --windows 4
    repro-streaming --windows 6 --embedding --json report.json

``--max-ratio R`` turns the command into a smoke check: it exits
non-zero unless the aggregate incremental cost stays below ``R`` times
the full-recompute cost — CI runs it to gate the incremental plane.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

import numpy as np

from repro.common.config import MB, ClusterConfig
from repro.common.rng import derive_seed
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.streaming.components import IncrementalComponents
from repro.streaming.embedding import OnlineEmbeddingRefresh
from repro.streaming.engine import StreamingEngine
from repro.streaming.graph import StreamingGraph
from repro.streaming.pagerank import IncrementalPageRank


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-streaming",
        description="Stream graph mutations through the ingest path and "
                    "keep PS-resident algorithms fresh incrementally.",
        epilog="See docs/streaming.md for semantics and the cost model.",
    )
    parser.add_argument("--vertices", type=int, default=400,
                        help="vertex-id space of the streamed graph")
    parser.add_argument("--base-edges", type=int, default=1600,
                        help="edges in the bootstrap graph")
    parser.add_argument("--windows", type=int, default=4,
                        help="mutation windows to stream after bootstrap")
    parser.add_argument("--adds", type=int, default=12,
                        help="edge adds per window")
    parser.add_argument("--removals", type=int, default=8,
                        help="edge removals per window")
    parser.add_argument("--drop-every", type=int, default=2,
                        help="drop one vertex every Nth window (0 = never)")
    parser.add_argument("--embedding", action="store_true",
                        help="also keep an online embedding fresh")
    parser.add_argument("--no-full", dest="measure_full",
                        action="store_false",
                        help="skip the per-window full-recompute baseline")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--executors", type=int, default=4)
    parser.add_argument("--servers", type=int, default=2)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the per-window reports as JSON")
    parser.add_argument("--max-ratio", type=float, default=None,
                        metavar="R",
                        help="exit non-zero unless aggregate incremental "
                             "cost < R x full-recompute cost")
    return parser


def stream_mutations(topic: KafkaTopic, graph: StreamingGraph,
                     window: int, args: argparse.Namespace,
                     rng: np.random.Generator) -> None:
    """Produce one window's mutation mix onto the topic."""
    n = args.vertices
    if args.adds:
        src = rng.integers(0, n, size=args.adds)
        dst = (src + 1 + rng.integers(0, n - 1, size=args.adds)) % n
        topic.produce(src, dst)
    if args.removals:
        present = graph.present_vertices()
        pick = present[rng.integers(0, len(present),
                                    size=min(args.removals, len(present)))]
        outs = graph.out.get(np.unique(pick))
        rm_s, rm_d = [], []
        for v, nbrs in outs.rows():
            if len(nbrs):
                rm_s.append(v)
                rm_d.append(int(nbrs[rng.integers(0, len(nbrs))]))
        if rm_s:
            topic.produce_removals(np.asarray(rm_s, dtype=np.int64),
                                   np.asarray(rm_d, dtype=np.int64))
    if args.drop_every and window % args.drop_every == 0:
        present = graph.present_vertices()
        if len(present):
            doomed = present[int(rng.integers(0, len(present)))]
            topic.produce_vertex_removals(
                np.asarray([doomed], dtype=np.int64))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    cluster = ClusterConfig(
        num_executors=args.executors, executor_mem_bytes=256 * MB,
        num_servers=args.servers, server_mem_bytes=256 * MB,
    )
    rng = np.random.default_rng(derive_seed(args.seed, "stream-cli"))
    with PSGraphContext(cluster, app_name="repro-streaming") as ctx:
        topic = KafkaTopic("mutations", num_partitions=4)
        graph = StreamingGraph(ctx.ps, args.vertices,
                               metrics=ctx.metrics)
        consumer = EdgeStreamConsumer(
            topic, ctx.hdfs, landing_dir="/stream/edges",
            metrics=ctx.metrics,
        )
        engine = StreamingEngine(graph, consumer,
                                 measure_full=args.measure_full)
        engine.register("pagerank", IncrementalPageRank(graph, tol=1e-6))
        engine.register("components", IncrementalComponents(graph))
        if args.embedding:
            engine.register("embedding", OnlineEmbeddingRefresh(
                graph, seed=args.seed))

        # -- bootstrap --------------------------------------------------
        src, dst = powerlaw_graph(
            args.vertices, args.base_edges,
            seed=derive_seed(args.seed, "stream-base"))
        topic.produce(src, dst)
        engine.run_window()  # applies the base graph (bootstrap window)
        base = engine.reports.pop()  # the load window is not a mutation
        print(f"bootstrap : {graph.num_edges} edges, "
              f"{len(graph.present_vertices())} vertices "
              f"({base.records} records)")

        # -- mutation windows -------------------------------------------
        for w in range(1, args.windows + 1):
            stream_mutations(topic, graph, w, args, rng)
            report = engine.run_window()
            ratio = report.cost_ratio
            print(f"window {w:2d} : +{report.edges_added} "
                  f"-{report.edges_removed} edges, "
                  f"{report.vertices_dropped} drops, "
                  f"dirty={report.dirty_vertices}, "
                  f"inc={report.cost_incremental_s:.4f}s"
                  + (f", full={report.cost_full_s:.4f}s "
                     f"(ratio {ratio:.3f})"
                     if ratio is not None else ""))

        summary = engine.summary()
        print(f"summary   : {int(summary['windows'])} windows, "
              f"incremental {summary['cost_incremental_s']:.4f}s vs "
              f"full {summary['cost_full_s']:.4f}s "
              f"(ratio {summary['cost_ratio']:.3f})")
        if args.json is not None:
            doc = {
                "schema": "repro.streaming/v1",
                "summary": summary,
                "windows": [r.to_dict() for r in engine.reports],
            }
            with open(args.json, "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
            print(f"report    : wrote {args.json}")
        if args.max_ratio is not None and args.measure_full:
            if summary["cost_ratio"] >= args.max_ratio:
                print(f"FAIL      : cost ratio {summary['cost_ratio']:.3f} "
                      f">= {args.max_ratio}")
                return 1
            print(f"PASS      : cost ratio {summary['cost_ratio']:.3f} "
                  f"< {args.max_ratio}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
