"""``repro`` — the one command line (Listing 1's ``GraphRunner.main``).

    repro run pagerank --input edges.tsv --iterations 20
    repro serve --requests 100000 --seed 7 --chaos --record serve.json
    repro stream --vertices 2000 --edges 20000 --windows 4 --max-ratio 0.25
    repro report serve.json --out serve-views --require-alert 1
    repro lint --dynamic pagerank serve-chaos
    python -m repro experiments figure6

``run``, ``serve`` and ``stream`` are pipelines: functions of ``(args,
tracer, metrics)`` that return a result document.  :func:`main` prints
its lines and writes ``--output`` and the ``--record`` run record, from
which ``repro report`` derives every view; the determinism harness runs
the same pipelines in memory through :func:`execute`.  Exit codes: 0
success, 1 a failed gate or write, 2 a usage error (a bad setting too).
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.chaos import ChaosEngine, FaultSchedule
from repro.common.batch import sorted_unique
from repro.common.config import GB, ClusterConfig
from repro.common.errors import ConfigError, GraphLoadError
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.core.algorithms import (
    CommonNeighbor, ConnectedComponents, DeepWalk, FastUnfolding, KCore,
    LabelPropagation, Line, PageRank, TriangleCount)
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.experiments.report import run_all
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.obs import (
    NOOP_TRACER, TelemetryCollector, Tracer, build_record, read_record,
    record_views, summary_lines, telemetry_doc)
from repro.obs.determinism import WORKLOADS, check_determinism
from repro.obs.slo import default_slos
from repro.serve import (
    RequestGenerator, ServingPlane, default_serve_slos, publish_snapshot)
from repro.serve.workload import default_tenants
from repro.streaming import (
    IncrementalComponents, IncrementalPageRank, OnlineEmbeddingRefresh,
    StreamingEngine, StreamingGraph)

#: ``repro run`` algorithm -> factory (``--iterations`` = max_iterations).
ALGORITHMS: Dict[str, Callable[[argparse.Namespace], object]] = {
    "pagerank": lambda a: PageRank(a.iterations),
    "common-neighbor": lambda a: CommonNeighbor(),
    "fast-unfolding": lambda a: FastUnfolding(),
    "kcore": lambda a: KCore(a.iterations),
    "triangle-count": lambda a: TriangleCount(),
    "label-propagation": lambda a: LabelPropagation(a.iterations),
    "connected-components": lambda a: ConnectedComponents(a.iterations),
    "line": lambda a: Line(dim=a.dim, epochs=a.epochs, seed=a.seed),
    "deepwalk": lambda a: DeepWalk(dim=a.dim, epochs=a.epochs, seed=a.seed),
}

#: What a bare ``--chaos`` injects, per pipeline.  ``run``'s schedule is
#: also committed as ``examples/chaos-schedule.json``.
BUILTIN_FAULTS: Dict[str, List[Dict[str, object]]] = {
    "run": [{"kind": "kill_executor", "index": 1, "after_tasks": 20},
            {"kind": "kill_server", "index": 0, "at_epoch": 4}],
    "serve": [{"kind": "kill_server", "index": 0, "after_tasks": 100,
               "task_kind": "serve"}],
}

#: PS vector the trained ranks are published into for serving.
SERVE_MODEL = "serve.ranks"

#: Where ``run`` and ``serve`` stage the ``--input`` file on HDFS.
STAGED_INPUT = "/input/edges/part-00000"


# Shared flags are parent parsers, built afresh for every command so that
# one command's set_defaults cannot leak into another.
def _cluster() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    for flag, kind in (("--seed", int), ("--executors", int),
                       ("--servers", int), ("--executor-gb", float),
                       ("--server-gb", float)):
        p.add_argument(flag, type=kind, help="default: %(default)s")
    return p


def _graph(with_input: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--vertices", type=int, help="generated graph: vertices")
    p.add_argument("--edges", type=int, help="generated graph: edges")
    if with_input:
        p.add_argument("--input", help="edge-list file instead: 'src dst' "
                       "lines ('src dst weight' under run --weighted), ids >= 0")
    return p


def _observe(chaos: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--record", metavar="PATH",
                   help="write the run record (see 'repro report')")
    if chaos:
        p.add_argument("--chaos", nargs="?", const="auto",
                       metavar="SCHEDULE.JSON", help="inject this fault "
                       "schedule (bare: the built-in one)")
    return p


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="The PSGraph reproduction's command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[_cluster(), _graph(), _observe()],
                         help="run one algorithm on a graph",
                         epilog="Needs --input or --vertices.")
    run.add_argument("algorithm", choices=ALGORITHMS)
    run.add_argument("--output", help="write the result table to this file")
    run.add_argument("--weighted", action="store_true",
                     help="parse a third weight column")
    run.add_argument("--iterations", type=int)
    run.add_argument("--dim", type=int, help="line / deepwalk dimension")
    run.add_argument("--epochs", type=int)
    run.set_defaults(seed=1, executors=8, servers=4, executor_gb=4.0,
                     server_gb=4.0, edges=8000, iterations=30, dim=16,
                     epochs=3)

    serve = sub.add_parser(
        "serve", parents=[_cluster(), _graph(), _observe()],
        help="train PageRank, snapshot it, serve Zipfian traffic from it")
    serve.add_argument("--iterations", type=int, help="train-phase PageRank")
    serve.add_argument("--requests", type=int, help="requests to generate")
    serve.set_defaults(seed=7, executors=4, servers=2, executor_gb=1.0,
                       server_gb=1.0, vertices=2000, edges=8000,
                       iterations=10, requests=100_000)

    stream = sub.add_parser(
        "stream", parents=[_cluster(), _graph(with_input=False),
                           _observe(chaos=False)],
        help="stream graph mutations, refresh algorithms incrementally")
    stream.add_argument("--windows", type=int, help="mutation windows")
    stream.add_argument("--adds", type=int, help="edge adds per window")
    stream.add_argument("--removals", type=int,
                        help="edge removals per window")
    stream.add_argument("--embedding", action="store_true",
                        help="also keep an online embedding fresh")
    stream.add_argument("--max-ratio", type=float, metavar="R",
                        help="exit 1 unless incremental cost < R x full")
    stream.set_defaults(seed=7, executors=4, servers=2, executor_gb=0.25,
                        server_gb=0.25, vertices=400, edges=1600, windows=4,
                        adds=12, removals=8)

    report = sub.add_parser("report", help="derive the views of a run record")
    report.add_argument("document", metavar="RECORD.JSON")
    report.add_argument("--out", metavar="DIR",
                        help="views directory (default: <record>-views)")
    report.add_argument("--require-alert", type=int, default=0, metavar="N",
                        help="exit 1 unless at least N alerts fired")

    lint = sub.add_parser(
        "lint", help="simulation-invariant lint, or the determinism harness",
        epilog="Suppress a finding with `# repro-lint: disable=RULE` on its "
               "line, or `# repro-lint: disable-file=RULE` for a module.")
    lint.add_argument("paths", nargs="*", help="default: src/repro")
    lint.add_argument("--json", action="store_true", help="emit JSON")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument("--dynamic", nargs="+", choices=sorted(WORKLOADS),
                      metavar="WORKLOAD", help="double-run these instead: "
                      + ", ".join(sorted(WORKLOADS)))
    lint.add_argument("--seed", type=int, default=DEFAULT_SEED)

    experiments = sub.add_parser("experiments", help="the paper's experiments")
    experiments.add_argument("which", nargs="?", default="all", choices=(
        "all", "figure6", "table1", "table2", "line", "ablations",
        "resources", "scaling"))
    return parser


def _load(args: argparse.Namespace) -> None:
    """Read ``--input`` / ``--chaos`` into ``args.edge_bytes`` /
    ``.schedule`` before anything runs; ``OSError`` / ``ConfigError`` is a
    usage error, as is a malformed ``--input`` line once the run reads it."""
    path = getattr(args, "input", None)
    if args.command == "run" and path is None and args.vertices is None:
        raise ConfigError("run needs --input FILE or --vertices N")
    args.edge_bytes = None if path is None else Path(path).read_bytes()
    chaos = getattr(args, "chaos", None)
    args.schedule = (
        None if chaos is None
        else FaultSchedule(BUILTIN_FAULTS[args.command], seed=args.seed)
        if chaos == "auto" else FaultSchedule.load(chaos))


@dataclass
class Session:
    """One pipeline run: its context, the telemetry collector and chaos
    engine around the phase it measures, and its result document."""

    args: argparse.Namespace
    tracer: Tracer
    metrics: MetricsRegistry
    lines: List[str] = field(default_factory=list, init=False)
    errors: List[str] = field(default_factory=list, init=False)
    collector: Optional[TelemetryCollector] = field(default=None, init=False)
    engine: Optional[ChaosEngine] = field(default=None, init=False)

    def context(self, app_name: str, **kwargs) -> PSGraphContext:
        a = self.args
        cluster = ClusterConfig(
            num_executors=a.executors, num_servers=a.servers,
            executor_mem_bytes=int(a.executor_gb * GB),
            server_mem_bytes=int(a.server_gb * GB))
        return PSGraphContext(cluster, app_name=app_name, tracer=self.tracer,
                              metrics=self.metrics, **kwargs)

    @contextmanager
    def observe(self, ctx: PSGraphContext, slos=None) -> Iterator[None]:
        """Attach the collector (with ``--record`` or ``slos``) and the
        chaos engine (with ``--chaos``) for the block, then finalize."""
        if self.args.record or slos is not None:
            self.collector = TelemetryCollector(
                ctx.metrics, self.tracer, slos=slos).attach(ctx.spark)
        if self.args.schedule is not None:
            self.engine = ChaosEngine(self.args.schedule, ctx.spark,
                                      ctx.ps).attach()
            if self.collector is not None:
                self.engine.bind_telemetry(self.collector)
        try:
            yield
        finally:
            if self.engine is not None:
                self.engine.detach()
            if self.collector is not None:
                self.collector.finalize(ctx.sim_time())
                self.collector.detach()
        if self.engine is not None:
            self.lines.append(self.engine.describe())

    def document(self, ctx: PSGraphContext, meta: Optional[Dict] = None,
                 **fields: object) -> Dict[str, object]:
        """The result document: report lines, gate errors, sim time, run
        meta, ``fields``, the chaos report and the collector's dump."""
        doc: Dict[str, object] = {"lines": self.lines, "errors": self.errors,
                                  "sim_time_s": ctx.sim_time(),
                                  "meta": meta or {}, **fields}
        if self.engine is not None:
            doc["chaos"] = self.engine.report()
        if self.collector is not None:
            doc["telemetry"] = self.collector.to_dict()
        return doc


def _crc(*columns: object) -> int:
    """CRC-32 of the columns' bytes: how a result document shows the
    determinism harness any bit of drift in an output it does not print."""
    return zlib.crc32(b"".join(np.asarray(c).tobytes() for c in columns))


def _stage_edges(ctx: PSGraphContext, args: argparse.Namespace) -> None:
    """Put the graph at HDFS ``/input/edges``: the ``--input`` file's
    bytes, or a generated ``--vertices`` / ``--edges`` power-law graph."""
    if args.edge_bytes is not None:
        ctx.hdfs.write_bytes(STAGED_INPUT, args.edge_bytes)
        return
    src, dst = powerlaw_graph(
        args.vertices, args.edges,
        seed=derive_seed(args.seed, f"{args.command}-graph"))
    write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)


def run_algorithm(args: argparse.Namespace, tracer: Tracer,
                  metrics: MetricsRegistry) -> Dict[str, object]:
    """``repro run``: one algorithm over the staged graph.  Under
    ``--chaos`` the PS checkpoints every iteration."""
    s = Session(args, tracer, metrics)
    with s.context(f"cli-{args.algorithm}",
                   checkpoint_interval=1 if args.schedule else 0) as ctx:
        _stage_edges(ctx, args)
        with s.observe(ctx):
            result = GraphRunner(ctx).run(
                ALGORITHMS[args.algorithm](args), "/input/edges",
                "/output" if args.output else None, weighted=args.weighted)
        stats = {k: v for k, v in sorted(result.stats.items())
                 if isinstance(v, (int, float))}
        s.lines += [f"algorithm : {args.algorithm}",
                    f"iterations: {result.iterations}",
                    *(f"{k:10s}: {v}" for k, v in stats.items()),
                    f"sim time  : {ctx.sim_time():.3f} s"]
        output = (ctx.spark.text_file("/output").collect()
                  if args.output else None)
        return s.document(
            ctx, meta={"algorithm": args.algorithm, "seed": args.seed,
                       "executors": args.executors, "servers": args.servers},
            iterations=result.iterations, stats=stats, output=output,
            output_crc=None if output is None else _crc(output))


def serve(args: argparse.Namespace, tracer: Tracer,
          metrics: MetricsRegistry) -> Dict[str, object]:
    """``repro serve``: train PageRank, snapshot the ranks on the PS, and
    replay seeded Zipfian multi-tenant traffic against them."""
    s = Session(args, tracer, metrics)
    with s.context(f"repro-{args.command}") as ctx:
        _stage_edges(ctx, args)
        result = GraphRunner(ctx).run(
            PageRank(max_iterations=args.iterations), "/input/edges")
        s.lines.append(f"train     : pagerank x{result.iterations} "
                       f"iterations, {ctx.sim_time():.3f} sim-s")
        key_space = publish_snapshot(ctx.ps, SERVE_MODEL,
                                     result.output.rdd.collect())
        s.lines.append(f"snapshot  : {SERVE_MODEL}[{key_space}] checkpointed")
        tenants = default_tenants(SERVE_MODEL)
        gen = RequestGenerator(tenants, key_space=key_space, seed=args.seed)
        requests = gen.generate(args.requests, start_s=ctx.sim_time())
        plane = ServingPlane(ctx.ps, tenants,
                             cache_capacity=max(32, key_space // 10))
        with s.observe(ctx, slos=default_slos() + default_serve_slos()):
            rep = plane.run(requests)
        s.lines += [
            f"served    : {rep.served}/{rep.offered} requests in "
            f"{rep.batches} batches ({len(tenants)} tenants, "
            f"zipf s={gen.zipf_s})",
            f"latency   : p50={rep.p50_s * 1e3:.2f} ms  "
            f"p99={rep.p99_s * 1e3:.2f} ms (sim)"]
        if rep.degraded_p99_s is not None:
            s.lines.append(f"degraded  : p99={rep.degraded_p99_s:.3f} s "
                           f"over {rep.recoveries} recovery(ies)")
        drops = ", ".join(f"{k}={v}" for k, v in sorted(rep.drops.items()))
        s.lines += [f"hot cache : {rep.cache_hit_rate * 100:.1f}% hit rate",
                    f"drops     : {drops or 'none'}",
                    f"conserved : {rep.conserved()} "
                    f"(offered == served + dropped)",
                    f"sim time  : {ctx.sim_time():.3f} s"]
        for alert in s.collector.alerts:
            resolved = (f"resolved {alert.resolved_at_s:.3f}"
                        if alert.resolved_at_s is not None else "unresolved")
            s.lines.append(f"alert     : {alert.slo} fired "
                           f"{alert.fired_at_s:.3f} sim-s ({resolved})")
        if not rep.conserved():
            s.errors.append("request conservation violated")
        log = rep.drop_records
        return s.document(
            ctx, meta={"pipeline": f"repro-{args.command}", "seed": args.seed,
                       "requests": args.requests, "key_space": key_space,
                       "zipf_s": gen.zipf_s, "tenants": len(tenants),
                       "serving": rep.to_dict()},
            report=rep.to_dict(),
            drops_crc=_crc(log.seq, log.tenant, log.reason, log.time))


def _stream_mutations(topic: KafkaTopic, graph: StreamingGraph, window: int,
                      args: argparse.Namespace,
                      rng: np.random.Generator) -> None:
    """Produce one window's mutation mix onto the topic."""
    n = args.vertices
    if args.adds:
        src = rng.integers(0, n, size=args.adds)
        topic.produce(src, (src + 1 + rng.integers(0, n - 1, args.adds)) % n)
    if args.removals:
        present = graph.present_vertices()
        pick = present[rng.integers(0, len(present),
                                    size=min(args.removals, len(present)))]
        rm_s, rm_d = [], []
        for v, nbrs in graph.out.get(sorted_unique(pick)).rows():
            if len(nbrs):
                rm_s.append(v)
                rm_d.append(int(nbrs[rng.integers(0, len(nbrs))]))
        if rm_s:
            topic.produce_removals(np.asarray(rm_s, dtype=np.int64),
                                   np.asarray(rm_d, dtype=np.int64))
    present = graph.present_vertices()
    if window % 2 == 0 and len(present):  # a vertex drop every 2nd window
        doomed = present[int(rng.integers(0, len(present)))]
        topic.produce_vertex_removals(np.asarray([doomed], dtype=np.int64))


def stream(args: argparse.Namespace, tracer: Tracer,
           metrics: MetricsRegistry) -> Dict[str, object]:
    """``repro stream``: bootstrap a power-law graph through the ingest
    path, then stream mutation windows; each refreshes the algorithms
    incrementally and times a full recompute beside it."""
    s = Session(args, tracer, metrics)
    rng = np.random.default_rng(derive_seed(args.seed, "stream-cli"))
    with s.context(f"repro-{args.command}") as ctx:
        topic = KafkaTopic("mutations", num_partitions=4)
        graph = StreamingGraph(ctx.ps, args.vertices, metrics=ctx.metrics)
        engine = StreamingEngine(graph, EdgeStreamConsumer(
            topic, ctx.hdfs, landing_dir="/stream/edges",
            metrics=ctx.metrics))
        engine.register("pagerank", IncrementalPageRank(graph, tol=1e-6))
        engine.register("components", IncrementalComponents(graph))
        if args.embedding:
            engine.register("embedding",
                            OnlineEmbeddingRefresh(graph, seed=args.seed))
        topic.produce(*powerlaw_graph(
            args.vertices, args.edges,
            seed=derive_seed(args.seed, "stream-base")))
        engine.run_window()  # applies the base graph (bootstrap window)
        base = engine.reports.pop()  # the load window is not a mutation
        s.lines.append(f"bootstrap : {graph.num_edges} edges, "
                       f"{len(graph.present_vertices())} vertices "
                       f"({base.records} records)")
        for w in range(1, args.windows + 1):
            _stream_mutations(topic, graph, w, args, rng)
            r = engine.run_window()
            full = (f", full={r.cost_full_s:.4f}s (ratio {r.cost_ratio:.3f})"
                    if r.cost_ratio is not None else "")
            s.lines.append(
                f"window {w:2d} : +{r.edges_added} -{r.edges_removed} edges, "
                f"{r.vertices_dropped} drops, dirty={r.dirty_vertices}, "
                f"inc={r.cost_incremental_s:.4f}s{full}")
        summary = engine.summary()
        ratio = summary["cost_ratio"]
        s.lines.append(f"summary   : {int(summary['windows'])} windows, "
                       f"incremental {summary['cost_incremental_s']:.4f}s vs "
                       f"full {summary['cost_full_s']:.4f}s "
                       f"(ratio {ratio:.3f})")
        # summary() reports ratio 0.0 when no window measured a full
        # recompute, so the gate looks for a measured window itself.
        if args.max_ratio is not None:
            if all(r.cost_ratio is None for r in engine.reports):
                s.errors.append("--max-ratio: no window measured a full "
                                "recompute")
            elif ratio >= args.max_ratio:
                s.errors.append(f"cost ratio {ratio:.3f} >= {args.max_ratio}")
            else:
                s.lines.append(f"PASS      : cost ratio {ratio:.3f} < "
                               f"{args.max_ratio}")
        ids, ranks = engine.algos["pagerank"].ranks()  # after the report
        _, labels = engine.algos["components"].assignments()
        return s.document(ctx, report={
            "schema": "repro.streaming/v1", "summary": summary,
            "windows": [r.to_dict() for r in engine.reports]}, state={
            "edges_live": graph.num_edges, "ranks_crc": _crc(ids, ranks),
            "labels_crc": _crc(labels)})


#: The pipelines, by subcommand.
PIPELINES: Dict[str, Callable[..., Dict[str, object]]] = {
    "run": run_algorithm, "serve": serve, "stream": stream}


def execute(argv: Sequence[str], tracer: Tracer,
            metrics: MetricsRegistry) -> Dict[str, object]:
    """Run a pipeline command line in memory — nothing is printed or
    written — and return its result document."""
    args = build_parser().parse_args(argv)
    _load(args)
    return PIPELINES[args.command](args, tracer, metrics)


def _write_all(files) -> int:
    """Write each ``(what, path, text)`` whose path is set — ``text()`` is
    built only then — after the report is printed: a bad path costs exit
    1, never the report."""
    rc = 0
    for what, path, text in files:
        if path:
            try:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_text(text())
                print(f"wrote {what} to {path}")
            except OSError as e:
                print(f"error: cannot write {what}: {e}", file=sys.stderr)
                rc = 1
    return rc


def write_artifacts(args: argparse.Namespace, doc: Dict[str, object],
                    tracer: Tracer, metrics: MetricsRegistry) -> int:
    """The ``--output`` result table and the ``--record`` run record."""
    return _write_all([
        ("result table", getattr(args, "output", None),
         lambda: "\n".join(doc["output"]) + "\n"),
        ("record", args.record,
         lambda: json.dumps(build_record(doc, tracer, metrics)))])


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: every view of one run record, and the alert gate."""
    try:
        record, spans = read_record(args.document)
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: cannot read {args.document}: {e}", file=sys.stderr)
        return 1
    out = Path(args.out or f"{Path(args.document).with_suffix('')}-views")
    telemetry = telemetry_doc(record, spans)
    summary = summary_lines(telemetry)
    rc = _write_all((name, out / name, lambda text=text: text)
                    for name, text in record_views(
                        record, spans, telemetry).items())
    print("\n".join(summary))
    alerts = len(telemetry["telemetry"].get("alerts", []))
    if alerts < args.require_alert:
        print(f"error: required >= {args.require_alert} alert(s), "
              f"got {alerts}", file=sys.stderr)
        rc = 1
    return rc


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the static pass, or ``--dynamic`` determinism."""
    from repro.lint.engine import format_human, format_json, lint_paths
    from repro.lint.rules import RULES

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.name:22s} {rule.description}")
        return 0
    if args.dynamic:
        reports = [check_determinism(name, args.seed)
                   for name in args.dynamic]
        print(json.dumps([r.to_dict() for r in reports], indent=2)
              if args.json else "\n".join(r.describe() for r in reports))
        return int(not all(r.ok for r in reports))
    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = lint_paths(paths)
    print(format_json(violations) if args.json else format_human(violations))
    return 1 if violations else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """``repro experiments``: print the paper's tables and figures."""
    run_all(args.which)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command not in PIPELINES:
        return {"report": cmd_report, "lint": cmd_lint,
                "experiments": cmd_experiments}[args.command](args)
    tracer = Tracer() if args.record else NOOP_TRACER
    metrics = MetricsRegistry()
    try:
        _load(args)
        doc = PIPELINES[args.command](args, tracer, metrics)
    except (OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GraphLoadError as e:  # a line of the staged --input file
        print(f"error: {str(e).replace(STAGED_INPUT, args.input, 1)}",
              file=sys.stderr)
        return 2
    print("\n".join(doc["lines"]))
    rc = write_artifacts(args, doc, tracer, metrics)
    for error in doc["errors"]:
        print(f"error: {error}", file=sys.stderr)
    return 1 if doc["errors"] else rc
