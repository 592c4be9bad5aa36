"""Dynamic determinism harness.

Cross-system comparisons (GraphX vs PS, Table I/II of the paper) are only
trustworthy if a seeded run is bit-for-bit repeatable — "Experimental
Analysis of Distributed Graph Systems" shows how easily uncontrolled
nondeterminism invalidates benchmark numbers.  This harness runs a
registered workload **twice with the same seed** on fresh contexts and
diffs:

* the full metrics dump (counters, gauges, histogram summaries),
* the obs span sequence (component / track / name / boundaries / tags),
* the workload's own float statistics (losses, residuals, accuracy),
* the final simulated time.

In the default mode tiny float drift (relative 1e-9) is tolerated; under
``strict=True`` **any** drift > 0 fails, which is what CI runs — the
simulator is single-process, so two seeded runs have no excuse to differ.

The first run's spans are also replayed through the
:mod:`repro.lint.races` happens-before detector, so staleness windows of
async configurations surface in the same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.common.config import MB, ClusterConfig
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.lint.races import RaceReport, find_races
from repro.obs.export import metrics_to_dict
from repro.obs.tracer import Span, Tracer

#: A workload: ``fn(seed, tracer, metrics) -> (float stats, sim_time_s)``.
Workload = Callable[[int, Tracer, MetricsRegistry],
                    Tuple[Dict[str, float], float]]

#: Registered workloads by CLI name.
WORKLOADS: Dict[str, Workload] = {}


def workload(name: str) -> Callable[[Workload], Workload]:
    """Decorator registering a determinism workload under ``name``."""
    def deco(fn: Workload) -> Workload:
        WORKLOADS[name] = fn
        return fn
    return deco


def _flatten(prefix: str, value: object, out: Dict[str, float]) -> None:
    """Flatten nested dicts/lists of numbers into dotted float keys."""
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, bool):
        out[prefix] = float(value)
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    # non-numeric leaves (strings, None) don't participate in drift checks


def _span_key(span: Span) -> Tuple:
    """Canonical comparable form of one span."""
    tags = tuple(sorted(
        (k, repr(v)) for k, v in (span.tags or {}).items()
    ))
    return (span.component, span.track, span.name, span.kind,
            span.start_s, span.end_s, tags)


@dataclass
class RunSnapshot:
    """Everything one seeded run produced that determinism is judged on."""

    workload: str
    seed: int
    metrics: Dict[str, float]
    spans: List[Tuple]
    stats: Dict[str, float]
    sim_time_s: float
    raw_spans: List[Span] = field(default_factory=list, repr=False)


def run_workload(name: str, seed: int = DEFAULT_SEED) -> RunSnapshot:
    """Run one registered workload on a fresh context; snapshot it."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: "
            f"{', '.join(sorted(WORKLOADS))}"
        ) from None
    tracer = Tracer()
    metrics = MetricsRegistry()
    stats, sim_time_s = fn(seed, tracer, metrics)
    flat_metrics: Dict[str, float] = {}
    _flatten("", metrics_to_dict(metrics), flat_metrics)
    flat_stats: Dict[str, float] = {}
    _flatten("", stats, flat_stats)
    raw = tracer.spans()
    return RunSnapshot(
        workload=name, seed=seed, metrics=flat_metrics,
        spans=[_span_key(s) for s in raw], stats=flat_stats,
        sim_time_s=sim_time_s, raw_spans=raw,
    )


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

#: Relative drift tolerated in the default (non-strict) mode.
DEFAULT_RTOL = 1e-9


def _drifts(a: Dict[str, float], b: Dict[str, float],
            rtol: float) -> List[str]:
    """Human-readable differences between two flat float maps."""
    out: List[str] = []
    for key in sorted(set(a) | set(b)):
        if key not in a:
            out.append(f"{key}: missing in run 1 (run 2: {b[key]!r})")
        elif key not in b:
            out.append(f"{key}: missing in run 2 (run 1: {a[key]!r})")
        else:
            x, y = a[key], b[key]
            if x == y:
                continue
            tol = rtol * max(abs(x), abs(y))
            if abs(x - y) > tol:
                out.append(f"{key}: {x!r} != {y!r} "
                           f"(drift {abs(x - y):.3e})")
    return out


def _span_diffs(a: List[Tuple], b: List[Tuple],
                limit: int = 10) -> List[str]:
    """First differences between two span sequences."""
    out: List[str] = []
    if len(a) != len(b):
        out.append(f"span count: {len(a)} != {len(b)}")
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            out.append(f"span[{i}]: {x!r} != {y!r}")
            if len(out) >= limit:
                out.append("... (further span diffs elided)")
                break
    return out


@dataclass
class DeterminismReport:
    """Verdict of one double-run determinism check."""

    workload: str
    seed: int
    strict: bool
    metric_diffs: List[str]
    span_diffs: List[str]
    stat_diffs: List[str]
    sim_times: Tuple[float, float]
    races: List[RaceReport]

    @property
    def deterministic(self) -> bool:
        """Whether the two runs were indistinguishable."""
        return not (self.metric_diffs or self.span_diffs
                    or self.stat_diffs
                    or self.sim_times[0] != self.sim_times[1])

    @property
    def ok(self) -> bool:
        """Pass/fail verdict (races report, they do not fail the check)."""
        return self.deterministic

    def describe(self) -> str:
        mode = "strict" if self.strict else "default"
        lines = [
            f"determinism[{self.workload}] seed={self.seed} ({mode}): "
            + ("PASS" if self.ok else "FAIL")
        ]
        lines.append(
            f"  sim times: {self.sim_times[0]!r} / {self.sim_times[1]!r}"
        )
        for label, diffs in (("metrics", self.metric_diffs),
                             ("spans", self.span_diffs),
                             ("stats", self.stat_diffs)):
            for d in diffs:
                lines.append(f"  {label} drift: {d}")
        if self.races:
            shown = self.races[:8]
            lines.append(f"  {len(self.races)} unsynchronized PS access "
                         "pattern(s) observed (informational):")
            for r in shown:
                lines.append(f"    {r.describe()}")
            if len(self.races) > len(shown):
                lines.append(f"    ... ({len(self.races) - len(shown)} "
                             "more patterns elided)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "strict": self.strict,
            "ok": self.ok,
            "metric_diffs": list(self.metric_diffs),
            "span_diffs": list(self.span_diffs),
            "stat_diffs": list(self.stat_diffs),
            "sim_times": list(self.sim_times),
            "races": [r.to_dict() for r in self.races],
        }


def check_determinism(name: str, seed: int = DEFAULT_SEED, *,
                      strict: bool = False) -> DeterminismReport:
    """Run ``name`` twice with ``seed`` and diff everything observable.

    Args:
        strict: fail on *any* float drift > 0 (CI mode); the default
            tolerates relative drift up to :data:`DEFAULT_RTOL`.
    """
    one = run_workload(name, seed)
    two = run_workload(name, seed)
    rtol = 0.0 if strict else DEFAULT_RTOL
    return DeterminismReport(
        workload=name, seed=seed, strict=strict,
        metric_diffs=_drifts(one.metrics, two.metrics, rtol),
        span_diffs=_span_diffs(one.spans, two.spans),
        stat_diffs=_drifts(one.stats, two.stats, rtol),
        sim_times=(one.sim_time_s, two.sim_time_s),
        races=find_races(one.raw_spans),
    )


# ----------------------------------------------------------------------
# built-in workloads (small, seconds-scale: these run twice in CI)
# ----------------------------------------------------------------------


def _small_cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )


@workload("pagerank")
def _pagerank(seed: int, tracer: Tracer, metrics: MetricsRegistry
              ) -> Tuple[Dict[str, float], float]:
    """PageRank quickstart: power-law graph, BSP, a few iterations."""
    from repro.core.algorithms import PageRank
    from repro.core.context import PSGraphContext
    from repro.core.runner import GraphRunner
    from repro.datasets.generators import powerlaw_graph
    from repro.datasets.tencent import write_edges

    with PSGraphContext(_small_cluster(), app_name="lint-pagerank",
                        metrics=metrics, tracer=tracer) as ctx:
        src, dst = powerlaw_graph(
            400, 3000, seed=derive_seed(seed, "lint-pagerank"))
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        result = GraphRunner(ctx).run(
            PageRank(max_iterations=8, tol=1e-9), "/input/edges",
        )
        stats = {"iterations": float(result.iterations),
                 "residual": float(result.stats["residual"])}
        return stats, ctx.sim_time()


@workload("chaos-pagerank")
def _chaos_pagerank(seed: int, tracer: Tracer, metrics: MetricsRegistry
                    ) -> Tuple[Dict[str, float], float]:
    """PageRank under fault injection: an executor kill and a PS server
    kill mid-run, with per-iteration checkpoints and strict recovery.

    The CI chaos-smoke job double-runs this workload to assert that a
    seeded fault schedule — including every recovery and rollback it
    causes — is bit-for-bit reproducible.
    """
    from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
    from repro.core.algorithms import PageRank
    from repro.core.context import PSGraphContext
    from repro.core.runner import GraphRunner
    from repro.datasets.generators import powerlaw_graph
    from repro.datasets.tencent import write_edges

    with PSGraphContext(_small_cluster(), app_name="lint-chaos-pagerank",
                        metrics=metrics, tracer=tracer,
                        checkpoint_interval=1) as ctx:
        src, dst = powerlaw_graph(
            400, 3000, seed=derive_seed(seed, "lint-chaos-pagerank"))
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        schedule = FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=20),
            FaultSpec("kill_server", index=0, at_epoch=4),
        ], seed=seed)
        engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
        try:
            result = GraphRunner(ctx).run(
                PageRank(max_iterations=8, tol=1e-9), "/input/edges",
            )
        finally:
            engine.detach()
        ranks = result.output.rdd.collect()
        stats = {
            "iterations": float(result.iterations),
            "residual": float(result.stats["residual"]),
            "ranks_checksum": float(sum(r[1] for r in ranks)),
            "faults_fired": float(len(engine.fired)),
            "recoveries": float(ctx.ps.master.recoveries),
        }
        return stats, ctx.sim_time()


@workload("telemetry-chaos-pagerank")
def _telemetry_chaos_pagerank(seed: int, tracer: Tracer,
                              metrics: MetricsRegistry
                              ) -> Tuple[Dict[str, float], float]:
    """The chaos-pagerank schedule with the telemetry pipeline attached.

    Determinism here covers the *observability* layer itself: windowed
    series contents, SLO burn rates, alert fire/resolve sim-times, and
    the critical-path attribution must all be bit-identical across
    seeded double-runs — sampling may read only the sim clock.
    """
    from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
    from repro.core.algorithms import PageRank
    from repro.core.context import PSGraphContext
    from repro.core.runner import GraphRunner
    from repro.datasets.generators import powerlaw_graph
    from repro.datasets.tencent import write_edges
    from repro.obs.critical import critical_path
    from repro.obs.telemetry import TelemetryCollector

    with PSGraphContext(_small_cluster(),
                        app_name="lint-telemetry-chaos-pagerank",
                        metrics=metrics, tracer=tracer,
                        checkpoint_interval=1) as ctx:
        src, dst = powerlaw_graph(
            400, 3000, seed=derive_seed(seed, "lint-chaos-pagerank"))
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        collector = TelemetryCollector(metrics, tracer).attach(ctx.spark)
        schedule = FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=20),
            FaultSpec("kill_server", index=0, at_epoch=4),
        ], seed=seed)
        engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
        engine.bind_telemetry(collector)
        try:
            result = GraphRunner(ctx).run(
                PageRank(max_iterations=8, tol=1e-9), "/input/edges",
            )
        finally:
            engine.detach()
            collector.finalize(ctx.sim_time())
            collector.detach()
        store = collector.store
        series_checksum = sum(
            widx * 31.0 + value
            for name in sorted(store.series)
            for widx, value in store.series[name].points
        )
        report = critical_path(tracer.spans(), ctx.sim_time())
        detection = engine.detection_timeline()
        stats = {
            "iterations": float(result.iterations),
            "residual": float(result.stats["residual"]),
            "faults_fired": float(len(engine.fired)),
            "ticks": float(store.ticks),
            "series": float(len(store.series)),
            "series_checksum": series_checksum,
            "alerts": float(len(collector.alerts)),
            "alert_fired_at": [a.fired_at_s for a in collector.alerts],
            "alert_resolved_at": [
                a.resolved_at_s if a.resolved_at_s is not None else -1.0
                for a in collector.alerts
            ],
            "max_burn_long": [
                float(row["max_burn_long"])
                for row in collector.engine.status()
            ],
            "detected": float(sum(
                1 for row in detection
                if row["detected_at_s"] is not None)),
            "critical_covered_pct": report.covered_pct,
        }
        return stats, ctx.sim_time()


@workload("graphsage")
def _graphsage(seed: int, tracer: Tracer, metrics: MetricsRegistry
               ) -> Tuple[Dict[str, float], float]:
    """GraphSage quickstart: one training epoch on a community graph."""
    from repro.core.algorithms.graphsage import GraphSage
    from repro.core.context import PSGraphContext
    from repro.core.ops import edges_from_arrays
    from repro.datasets.generators import community_graph, vertex_features

    gseed = derive_seed(seed, "lint-graphsage")
    src, dst, comm = community_graph(
        100, 3, avg_degree=8, mixing=0.05, seed=gseed)
    feats, labels = vertex_features(
        comm, 8, 3, noise=0.8, seed=derive_seed(gseed, "features"))
    with PSGraphContext(_small_cluster(), app_name="lint-graphsage",
                        metrics=metrics, tracer=tracer) as ctx:
        edges = edges_from_arrays(ctx.spark, src, dst)
        result = GraphSage(
            feats, labels, hidden=8, epochs=1, batch_size=32, lr=0.05,
            seed=seed,
        ).transform(ctx, edges)
        stats = {
            "accuracy": float(result.stats["accuracy"]),
            "losses": [float(x) for x in result.stats["epoch_losses"]],
        }
        return stats, ctx.sim_time()


@workload("graphx")
def _graphx(seed: int, tracer: Tracer, metrics: MetricsRegistry
            ) -> Tuple[Dict[str, float], float]:
    """The GraphX baseline's join pipeline: every shuffle form it has.

    PageRank (array attrs), K-core (the collect join), fast unfolding
    (the broadcast join, weighted) and triangle count (neighbor-set
    attrs) on one power-law graph — the spans carry every shuffle's
    bytes, records and local / remote split, so a change to how the
    joins run on the host must reproduce this workload span for span.
    """
    import numpy as np

    from repro.dataflow.context import SparkContext
    from repro.datasets.generators import powerlaw_graph
    from repro.graphx import algorithms as gx
    from repro.graphx.fast_unfolding import fast_unfolding
    from repro.graphx.graph import Graph

    gseed = derive_seed(seed, "lint-graphx")
    src, dst = powerlaw_graph(400, 3000, seed=gseed)
    weight = np.random.default_rng(gseed).uniform(0.25, 4.0, len(src))
    ctx = SparkContext(_small_cluster(), app_name="lint-graphx",
                       metrics=metrics, tracer=tracer)
    try:
        _ids, ranks, supersteps = gx.pagerank(
            Graph.from_edges(ctx, src, dst), max_iterations=3, tol=0.0)
        _ids, cores, core_rounds = gx.kcore(
            Graph.from_edges(ctx, src, dst), max_iterations=4)
        communities, modularity, move_rounds = fast_unfolding(
            ctx, src, dst, weight, num_passes=2, max_move_iterations=3)
        triangles = gx.triangle_count(Graph.from_edges(ctx, src, dst))
        stats = {
            "supersteps": float(supersteps),
            "ranks_checksum": float(ranks.sum()),
            "core_rounds": float(core_rounds),
            "cores_checksum": float(cores.sum()),
            "communities": float(len(np.unique(communities))),
            "modularity": modularity,
            "move_rounds": float(move_rounds),
            "triangles": float(triangles),
        }
        return stats, ctx.sim_time()
    finally:
        ctx.stop()


@workload("psgraph-tables")
def _psgraph_tables(seed: int, tracer: Tracer, metrics: MetricsRegistry
                    ) -> Tuple[Dict[str, float], float]:
    """PSGraph's groupBy (``to_neighbor_tables``) in every form, with a
    lost map output.

    CommonNeighbor with a checkpoint, TriangleCount (cached tables) and
    weighted FastUnfolding on one power-law graph; an executor dies as
    the first groupBy's map stage ends, so the block shuffle's write, its
    merged read and the lineage re-write of the lost blocks all emit
    spans — bytes, records and the local / remote split included.
    """
    import numpy as np

    from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
    from repro.common.metrics import TASKS_FAILED
    from repro.core.algorithms import (
        CommonNeighbor,
        FastUnfolding,
        TriangleCount,
    )
    from repro.core.context import PSGraphContext
    from repro.core.runner import GraphRunner
    from repro.datasets.generators import powerlaw_graph
    from repro.datasets.tencent import write_edges

    gseed = derive_seed(seed, "lint-psgraph-tables")
    src, dst = powerlaw_graph(400, 3000, seed=gseed)
    weight = np.random.default_rng(gseed).uniform(0.25, 4.0, len(src))
    with PSGraphContext(_small_cluster(), app_name="lint-psgraph-tables",
                        metrics=metrics, tracer=tracer) as ctx:
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=8)
        write_edges(ctx.hdfs, "/input/weighted", src, dst, num_files=8,
                    weights=weight)
        # 8 tasks find the largest vertex id, 8 more write the groupBy's
        # map outputs: the kill lands between its map and reduce stage.
        engine = ChaosEngine(FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=16),
        ], seed=seed), ctx.spark, ctx.ps).attach()
        runner = GraphRunner(ctx)
        try:
            common = runner.run(CommonNeighbor(checkpoint=True),
                                "/input/edges", num_partitions=8)
            overlaps = common.output.rdd.collect()
        finally:
            engine.detach()
        triangles = runner.run(TriangleCount(), "/input/edges",
                               num_partitions=8)
        louvain = runner.run(
            FastUnfolding(num_passes=2, max_move_iterations=3),
            "/input/weighted", weighted=True, num_partitions=8)
        stats = {
            "faults_fired": float(len(engine.fired)),
            "tasks_failed": metrics.get(TASKS_FAILED),
            "overlap_checksum": float(sum(r[2] for r in overlaps)),
            "triangles": float(triangles.stats["triangles"]),
            "modularity": float(louvain.stats["modularity"]),
            "moves": float(louvain.stats["moves"]),
        }
        return stats, ctx.sim_time()


@workload("serve-chaos")
def _serve_chaos(seed: int, tracer: Tracer, metrics: MetricsRegistry
                 ) -> Tuple[Dict[str, float], float]:
    """The serving plane under a kill-shard fault, telemetry attached.

    Covers the whole online path: seeded Zipfian traffic, token-bucket
    and watermark admission, hot-key caching over agent pulls, PS
    auto-recovery mid-traffic, and the ``serve-latency`` burn-rate alert.
    The CI serve-smoke job double-runs this in strict mode: every drop
    record, latency sample and alert boundary must be bit-identical.
    """
    import numpy as np

    from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
    from repro.common.rng import make_rng
    from repro.core.context import PSGraphContext
    from repro.obs.slo import default_slos
    from repro.obs.telemetry import TelemetryCollector
    from repro.serve import RequestGenerator, ServingPlane
    from repro.serve.plane import default_serve_slos
    from repro.serve.workload import default_tenants

    key_space = 1000
    with PSGraphContext(_small_cluster(), app_name="lint-serve-chaos",
                        metrics=metrics, tracer=tracer) as ctx:
        vector = ctx.ps.create_vector("serve.ranks", key_space)
        rng = make_rng(derive_seed(seed, "lint-serve-publish"))
        vector.set(np.arange(key_space), rng.random(key_space))
        ctx.ps.checkpoint_all()
        collector = TelemetryCollector(
            metrics, tracer, slos=default_slos() + default_serve_slos(),
        ).attach(ctx.spark)
        tenants = default_tenants("serve.ranks")
        generator = RequestGenerator(
            tenants, key_space=key_space, zipf_s=1.1, rate=1000.0,
            seed=derive_seed(seed, "lint-serve-traffic"))
        schedule = FaultSchedule([
            FaultSpec("kill_server", index=0, after_tasks=50,
                      task_kind="serve"),
        ], seed=seed)
        engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
        engine.bind_telemetry(collector)
        plane = ServingPlane(ctx.ps, tenants, cache_capacity=100)
        try:
            report = plane.run(generator.generate(
                12_000, start_s=ctx.sim_time()))
        finally:
            engine.detach()
            collector.finalize(ctx.sim_time())
            collector.detach()
        stats = {
            "served": float(report.served),
            "dropped": float(report.dropped),
            "drops": {k: float(v) for k, v in sorted(report.drops.items())},
            "conserved": report.conserved(),
            "p99_s": report.p99_s,
            "degraded_p99_s": report.degraded_p99_s or -1.0,
            "cache_hit_rate": report.cache_hit_rate,
            "drop_checksum": float(sum(
                r.seq * 31.0 + r.sim_time_s for r in report.drop_records)),
            "faults_fired": float(len(engine.fired)),
            "recoveries": float(ctx.ps.master.recoveries),
            "alerts": float(len(collector.alerts)),
            "alert_fired_at": [a.fired_at_s for a in collector.alerts],
        }
        return stats, ctx.sim_time()


@workload("streaming-window")
def _streaming_window(seed: int, tracer: Tracer, metrics: MetricsRegistry
                      ) -> Tuple[Dict[str, float], float]:
    """The streaming-mutation plane end to end, double-run in strict mode.

    Mutations flow topic -> staged at-least-once consumer -> window
    engine; every window mixes adds, removals and a vertex drop, and the
    incremental PageRank / components / embedding refreshes plus the
    per-window full-recompute baselines all run on the sim clock.  The
    CI streaming-smoke job asserts the whole pipeline — landing files,
    offsets, deltas, cascade pushes, sim costs — is bit-reproducible.
    """
    import numpy as np

    from repro.common.rng import make_rng
    from repro.core.context import PSGraphContext
    from repro.datasets.generators import powerlaw_graph
    from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
    from repro.streaming import (
        IncrementalComponents,
        IncrementalPageRank,
        OnlineEmbeddingRefresh,
        StreamingEngine,
        StreamingGraph,
    )

    num_vertices = 300
    with PSGraphContext(_small_cluster(), app_name="lint-streaming",
                        metrics=metrics, tracer=tracer) as ctx:
        topic = KafkaTopic("mutations", num_partitions=4)
        graph = StreamingGraph(ctx.ps, num_vertices, metrics=ctx.metrics)
        consumer = EdgeStreamConsumer(
            topic, ctx.hdfs, landing_dir="/stream/edges",
            metrics=ctx.metrics)
        engine = StreamingEngine(graph, consumer, measure_full=True)
        engine.register("pagerank", IncrementalPageRank(graph, tol=1e-8))
        engine.register("components", IncrementalComponents(graph))
        engine.register("embedding", OnlineEmbeddingRefresh(
            graph, dim=4, seed=seed))

        src, dst = powerlaw_graph(
            num_vertices, 1200, seed=derive_seed(seed, "lint-stream-base"))
        topic.produce(src, dst)
        engine.run_window()  # base-load window
        engine.reports.clear()

        rng = make_rng(derive_seed(seed, "lint-stream-muts"))
        for w in range(3):
            a_s = rng.integers(0, num_vertices, 10)
            a_d = (a_s + 1 + rng.integers(0, num_vertices - 1, 10)
                   ) % num_vertices
            topic.produce(a_s, a_d)
            present = graph.present_vertices()
            victims = present[rng.integers(0, len(present), 6)]
            outs = graph.out.get(victims)
            r_s, r_d = [], []
            for v, nb in outs.rows():
                if len(nb):
                    r_s.append(v)
                    r_d.append(int(nb[rng.integers(0, len(nb))]))
            if r_s:
                topic.produce_removals(
                    np.asarray(r_s, dtype=np.int64),
                    np.asarray(r_d, dtype=np.int64))
            if w == 1:
                doomed = present[int(rng.integers(0, len(present)))]
                topic.produce_vertex_removals(
                    np.asarray([doomed], dtype=np.int64))
            engine.run_window()

        ids, ranks = engine.algos["pagerank"].ranks()
        _, labels = engine.algos["components"].assignments()
        summary = engine.summary()
        stats = {
            "windows": summary["windows"],
            "records": float(sum(r.records for r in engine.reports)),
            "edges_live": float(graph.num_edges),
            "present": float(len(ids)),
            "ranks_checksum": float(ranks.sum()),
            "labels_checksum": float(labels.sum()),
            "components": float(len(np.unique(labels))),
            "dirty": float(sum(r.dirty_vertices for r in engine.reports)),
            "cost_incremental_s": summary["cost_incremental_s"],
            "cost_full_s": summary["cost_full_s"],
            "cost_ratio": summary["cost_ratio"],
            "landed_files": float(consumer._files),
            "ingest_polls": metrics.get("ingest.polls"),
        }
        return stats, ctx.sim_time()
