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

Five workloads are ``repro`` command lines (:data:`CLI_WORKLOADS`), run
in memory through the CLI's own pipelines, so the gate checks the
commands users and CI run; their stats are the flattened result
document, which carries CRC-32 digests of the outputs (saved ranks,
drop records, streaming ranks and labels).  ``graphsage``, ``graphx`` and ``psgraph-tables`` have no
command line and are written out below.

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

#: A workload: ``fn(seed, tracer, metrics) -> (stats, sim_time_s)``; the
#: stats' numeric leaves are what the double run diffs.
Workload = Callable[[int, Tracer, MetricsRegistry],
                    Tuple[Dict[str, object], float]]

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

#: Workloads that are ``repro`` command lines, run in memory through the
#: CLI's own pipelines (:func:`repro.cli.execute`) with ``--seed`` added.
#: In memory no local file is written: ``--output`` saves the ranks to
#: simulated HDFS so the document carries their digest, and
#: ``--telemetry``'s path only switches the collector on.
CLI_WORKLOADS: Dict[str, str] = {
    "pagerank": "run pagerank --vertices 400 --edges 3000 --iterations 8 "
                "--output ranks.tsv",
    "chaos-pagerank": "run pagerank --vertices 400 --edges 3000 "
                      "--iterations 8 --output ranks.tsv --chaos",
    "telemetry-chaos-pagerank": "run pagerank --vertices 400 --edges 3000 "
                                "--iterations 8 --output ranks.tsv --chaos "
                                "--telemetry telemetry.json",
    "serve-chaos": "serve --vertices 400 --edges 3000 --iterations 4 "
                   "--requests 12000 --chaos --telemetry telemetry.json",
    "streaming-window": "stream --vertices 300 --edges 1200 --windows 3 "
                        "--embedding",
}


def cli_argv(name: str, seed: int) -> List[str]:
    """The full command line of CLI workload ``name`` at ``seed``."""
    return (CLI_WORKLOADS[name].split()
            + "--executors 4 --servers 2 --executor-gb 0.25 "
              "--server-gb 0.25 --seed".split() + [str(seed)])


def _cli_workload(name: str) -> Workload:
    def run(seed: int, tracer: Tracer, metrics: MetricsRegistry
            ) -> Tuple[Dict[str, object], float]:
        from repro.cli import execute  # repro.cli imports this module

        doc = execute(cli_argv(name, seed), tracer, metrics)
        return doc, doc["sim_time_s"]
    return run


WORKLOADS.update((name, _cli_workload(name)) for name in CLI_WORKLOADS)


def _small_cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )


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
