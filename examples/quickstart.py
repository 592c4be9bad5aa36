#!/usr/bin/env python
"""Quickstart: PageRank on PSGraph, end to end.

Mirrors Listing 1 of the paper: create the Spark + PS contexts, load an
edge list from (simulated) HDFS, run an algorithm, save the result — and
record a sim-time trace of the whole run (see docs/observability.md).

Run:
    python examples/quickstart.py

Then open ``quickstart-trace.json`` in chrome://tracing or
https://ui.perfetto.dev to see the simulated cluster schedule.
"""

from repro.common.config import ClusterConfig, MB
from repro.core.algorithms import PageRank
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs import Tracer, timeline_report, write_chrome_trace


def main() -> None:
    # A small "cluster": 8 executors and 4 parameter servers.
    cluster = ClusterConfig(
        num_executors=8, executor_mem_bytes=256 * MB,
        num_servers=4, server_mem_bytes=256 * MB,
    )
    tracer = Tracer()
    with PSGraphContext(cluster, app_name="quickstart",
                        tracer=tracer) as ctx:
        # Generate a power-law graph and stage it on HDFS as text.
        src, dst = powerlaw_graph(5000, 60000, seed=7)
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=8)

        # Listing 1: load -> transform -> save.
        runner = GraphRunner(ctx)
        result = runner.run(
            PageRank(max_iterations=30, tol=1e-6),
            "/input/edges", "/output/ranks",
        )

        print(f"converged after {result.iterations} iterations "
              f"(residual {result.stats['residual']:.2e})")
        top = sorted(result.output.collect_tuples(),
                     key=lambda row: row[1], reverse=True)[:5]
        print("top-5 vertices by rank:")
        ctx.create_dataframe(top, result.output.columns).show()
        print(f"simulated job time: {ctx.sim_time():.3f} s")
        print(f"output files: {len(ctx.hdfs.listdir('/output/ranks'))} "
              f"partitions on HDFS")

        # Observability: the sim-time schedule as a Chrome trace plus a
        # per-stage timeline on stdout.
        n = write_chrome_trace("quickstart-trace.json", tracer)
        print(f"wrote {n} trace events to quickstart-trace.json")
        print()
        print(timeline_report(tracer, sim_time_s=ctx.sim_time()))


if __name__ == "__main__":
    main()
