"""Command-line job submission — Listing 1's ``GraphRunner.main``.

Submits one algorithm over an edge-list file on the local filesystem (it is
staged into the simulated HDFS), prints the result summary, and optionally
writes the output back out::

    python -m repro.cli pagerank --input edges.tsv --iterations 20
    python -m repro.cli fast-unfolding --input weighted.tsv --weighted
    python -m repro.cli line --input edges.tsv --dim 32 --epochs 5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Sequence

from repro.chaos import ChaosEngine, FaultSchedule
from repro.common.config import GB, ClusterConfig
from repro.obs import (
    NOOP_TRACER,
    TelemetryCollector,
    Tracer,
    build_telemetry_doc,
    timeline_report,
    write_chrome_trace,
    write_metrics_json,
)
from repro.core.algorithms import (
    CommonNeighbor,
    ConnectedComponents,
    DeepWalk,
    FastUnfolding,
    KCore,
    LabelPropagation,
    Line,
    PageRank,
    TriangleCount,
)
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner

#: CLI name -> algorithm factory (configured from parsed args).
ALGORITHMS = (
    "pagerank", "common-neighbor", "fast-unfolding", "kcore",
    "triangle-count", "label-propagation", "connected-components",
    "line", "deepwalk",
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run a PSGraph algorithm on an edge list.",
        epilog=(
            "Observability: --trace writes a Chrome-trace JSON (open in "
            "chrome://tracing or https://ui.perfetto.dev), --metrics dumps "
            "counters/gauges/histograms as JSON, --timeline prints a "
            "per-stage sim-time report.  See docs/observability.md."
        ),
    )
    parser.add_argument("algorithm", choices=ALGORITHMS)
    parser.add_argument("--input", required=True,
                        help="edge-list file: 'src<TAB>dst[<TAB>weight]'")
    parser.add_argument("--output", default=None,
                        help="write the result table to this local file")
    parser.add_argument("--weighted", action="store_true",
                        help="parse a third weight column")
    parser.add_argument("--executors", type=int, default=8)
    parser.add_argument("--servers", type=int, default=4)
    parser.add_argument("--executor-gb", type=float, default=4.0)
    parser.add_argument("--server-gb", type=float, default=4.0)
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--dim", type=int, default=16,
                        help="embedding dimension (line / deepwalk)")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the simulated "
                             "schedule to PATH")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write counters/gauges/histograms to PATH "
                             "as JSON")
    parser.add_argument("--timeline", action="store_true",
                        help="print a per-stage / per-iteration sim-time "
                             "timeline after the run")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="sample windowed time-series + SLO burn-rate "
                             "alerts during the run and write the telemetry "
                             "document (render with 'repro-obs report')")
    parser.add_argument("--chaos", default=None, metavar="SCHEDULE.JSON",
                        help="inject this deterministic fault schedule "
                             "during the run and print a fault report "
                             "(see docs/fault-tolerance.md)")
    parser.add_argument("--speculation", action="store_true",
                        help="enable speculative execution for straggler "
                             "executors")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="PS auto-checkpoint interval in iterations "
                             "(default: 1 when --chaos is given, else 0)")
    return parser


def make_algorithm(args: argparse.Namespace):
    """Instantiate the requested algorithm from parsed args."""
    name = args.algorithm
    if name == "pagerank":
        return PageRank(max_iterations=args.iterations)
    if name == "common-neighbor":
        return CommonNeighbor()
    if name == "fast-unfolding":
        return FastUnfolding()
    if name == "kcore":
        return KCore(max_iterations=args.iterations)
    if name == "triangle-count":
        return TriangleCount()
    if name == "label-propagation":
        return LabelPropagation(max_iterations=args.iterations)
    if name == "connected-components":
        return ConnectedComponents(max_iterations=args.iterations)
    if name == "line":
        return Line(dim=args.dim, epochs=args.epochs, seed=args.seed)
    if name == "deepwalk":
        return DeepWalk(dim=args.dim, epochs=args.epochs, seed=args.seed)
    raise ValueError(name)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    with open(args.input) as f:
        lines: List[str] = [ln.strip() for ln in f if ln.strip()]
    cluster = ClusterConfig(
        num_executors=args.executors,
        executor_mem_bytes=int(args.executor_gb * GB),
        num_servers=args.servers,
        server_mem_bytes=int(args.server_gb * GB),
    )
    # Telemetry needs spans for the critical-path profile, so --telemetry
    # implies tracing.
    tracing = (args.trace is not None or args.timeline
               or args.telemetry is not None)
    tracer = Tracer() if tracing else NOOP_TRACER
    checkpoint_every = args.checkpoint_every
    if checkpoint_every is None:
        checkpoint_every = 1 if args.chaos else 0
    schedule = FaultSchedule.load(args.chaos) if args.chaos else None
    with PSGraphContext(cluster, app_name=f"cli-{args.algorithm}",
                        tracer=tracer,
                        checkpoint_interval=checkpoint_every,
                        speculation=args.speculation) as ctx:
        ctx.hdfs.write_text("/input/edges/part-00000", lines)
        collector = None
        if args.telemetry is not None:
            collector = TelemetryCollector(
                ctx.metrics, tracer).attach(ctx.spark)
        engine = None
        if schedule is not None:
            engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
            if collector is not None:
                engine.bind_telemetry(collector)
        try:
            result = GraphRunner(ctx).run(
                make_algorithm(args), "/input/edges",
                "/output" if args.output else None,
                weighted=args.weighted,
            )
        finally:
            if engine is not None:
                engine.detach()
            if collector is not None:
                collector.finalize(ctx.sim_time())
                collector.detach()
        if engine is not None:
            print(engine.describe())
        print(f"algorithm : {args.algorithm}")
        print(f"iterations: {result.iterations}")
        for key, value in sorted(result.stats.items()):
            if isinstance(value, (int, float)):
                print(f"{key:10s}: {value}")
        print(f"sim time  : {ctx.sim_time():.3f} s")
        if args.output:
            rows = ctx.spark.text_file("/output").collect()
            with open(args.output, "w") as f:
                f.write("\n".join(rows) + "\n")
            print(f"wrote {len(rows)} rows to {args.output}")
        # Artifact writes come after the run; a bad path must not dump a
        # traceback over the (already printed) results.
        rc = 0
        if args.trace:
            try:
                n = write_chrome_trace(args.trace, tracer)
                print(f"wrote {n} trace events to {args.trace}")
            except OSError as e:
                print(f"error: cannot write trace: {e}", file=sys.stderr)
                rc = 1
        if args.metrics:
            try:
                write_metrics_json(args.metrics, ctx.metrics)
                print(f"wrote metrics to {args.metrics}")
            except OSError as e:
                print(f"error: cannot write metrics: {e}", file=sys.stderr)
                rc = 1
        if args.telemetry and collector is not None:
            doc = build_telemetry_doc(
                collector, tracer, ctx.sim_time(),
                meta={"algorithm": args.algorithm, "seed": args.seed,
                      "executors": args.executors,
                      "servers": args.servers},
                chaos=engine.report() if engine is not None else None,
            )
            try:
                with open(args.telemetry, "w") as f:
                    json.dump(doc, f, indent=2, sort_keys=True)
                alerts = collector.alerts
                print(f"wrote telemetry ({len(alerts)} alert(s)) to "
                      f"{args.telemetry}; render with "
                      f"'repro-obs report {args.telemetry}'")
            except OSError as e:
                print(f"error: cannot write telemetry: {e}",
                      file=sys.stderr)
                rc = 1
        if args.timeline:
            print()
            print(timeline_report(tracer, sim_time_s=ctx.sim_time()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
