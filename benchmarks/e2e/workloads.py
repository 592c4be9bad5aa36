"""The four workloads: inputs, timed bodies, and output checks.

A workload is ``generate`` (seeded inputs — arrays only reach the
program), ``expect`` (oracle values, set-up only), ``run_pass`` (the timed
body: cells made of slices, each slice one public call) and ``check``
(program outputs against the oracle, after the body).  Scales are the
EXPERIMENTS.md defaults; a body's length comes from cell choice and from
iteration / epoch / window / request counts, so the OOM boundaries stay
where the paper puts them.

Why these four (BENCHMARK.json carries the one-line form):

* ``tg-psgraph`` — bulk dense PS traffic: few calls, large arrays, wide
  fan-out, checkpoints; the workload a per-batch PS envelope must not
  slow.
* ``tg-graphx`` — pure dataflow + graphx, zero PS calls: the bypass for
  every PS change and the showcase for dataflow changes.
* ``gnn-embed`` — the PS used the opposite way: thousands of small sparse
  pulls, samples and pushes per epoch with torchlite compute between.
* ``serve-stream`` — the PS as an online store: cached reads beside
  neighbour-table writes, through serve, ps.cache, streaming, ingest.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import (
    MB,
    ClusterConfig,
    euler_config_ds3,
    graphx_config_ds1,
    graphx_config_ds2,
    psgraph_config_ds1,
    psgraph_config_ds2,
    psgraph_config_ds3,
)
from repro.common.errors import SimulatedOOMError
from repro.common.metrics import MetricsRegistry
from repro.core.algorithms import CommonNeighbor, Line, PageRank
from repro.core.algorithms.graphsage import GraphSage, make_sage
from repro.core.context import PSGraphContext
from repro.core.graphio import GraphIO
from repro.dataflow.context import SparkContext
from repro.datasets.tencent import (
    ds1_spec,
    ds2_spec,
    ds3_spec,
    generate_ds3_gnn,
    generate_edges,
    write_edges,
)
from repro.eulersim.euler import EulerSystem
from repro.experiments.figure6 import PAPER_FIG6
from repro.graphx import algorithms as gxalgo
from repro.graphx.graph import Graph
from repro.hdfs.filesystem import Hdfs
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ps.psfunc import RandomInit
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    StreamingEngine,
    StreamingGraph,
)
from repro.streaming.embedding import OnlineEmbeddingRefresh
from repro.torchlite.script import ScriptModule

import oracles

#: The module, not the function ``repro.graphx`` re-exports under the same
#: name: calls go through the module attribute so the traced pass sees them.
gxfu = importlib.import_module("repro.graphx.fast_unfolding")

#: The serving SLO (repro.serve.plane.default_serve_slos): 99 % of
#: lookups complete within 250 sim-ms.
SLO_LATENCY_S = 0.25
SLO_OBJECTIVE = 0.99


@dataclass(frozen=True)
class Size:
    """Pinned parameters of one sizing (``FULL`` is the benchmark)."""

    ds1_scale: float = 1e-5
    ds2_scale: float = 2e-6
    ds3_scale: float = 1e-3
    #: Fig. 6 cells as (algorithm, dataset), per system.  A 20 s window
    #: has to hold the body three times, so PSGraph keeps the dense-row
    #: cell and the neighbour-table build with the DS2 300 x 200 fan-out
    #: (CommonNeighbor DS1 is Table II's fault-free run), and GraphX leaves
    #: out CommonNeighbor DS1, a single 12-18 s call, and one of the two
    #: DS2 cells (both die in the same load).
    ps_cells: Tuple[Tuple[str, str], ...] = (
        ("PageRank", "DS1"), ("CommonNeighbor", "DS2"))
    gx_cells: Tuple[Tuple[str, str], ...] = (
        ("PageRank", "DS1"), ("FastUnfolding", "DS1"), ("KCore", "DS1"),
        ("TriangleCount", "DS1"), ("PageRank", "DS2"))
    pagerank_iters: int = 5
    kcore_iters: int = 4
    fu_passes: int = 1
    fu_move_iters: int = 2
    kill_after_tasks: int = 30
    sage_epochs: int = 6
    line_epochs: int = 2
    line_dim: int = 128
    line_negative: int = 1
    stream_windows: int = 2
    #: serve ladder in sim req/s; ``serve_rate`` is the pinned rung.
    serve_ladder: Tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000,
                                     8000)
    serve_rate: int = 2000
    serve_requests: int = 100_000
    rung_requests: int = 20_000
    kill_after_batches: int = 60


FULL = Size()
#: Schema-test and warm-up sizing: every code path of FULL on a tenth of
#: the data.
SMOKE = Size(ds1_scale=1e-6, ds2_scale=2e-7, ds3_scale=5e-4,
             pagerank_iters=3, kcore_iters=3,
             kill_after_tasks=10,
             sage_epochs=3, line_dim=16, stream_windows=1,
             serve_requests=4_000, rung_requests=2_000,
             kill_after_batches=10)


# ----------------------------------------------------------------------
# one pass over a body
# ----------------------------------------------------------------------


def _reading(registry: MetricsRegistry) -> Dict[str, float]:
    """Counters plus sim-second histogram sums, via public accessors.

    ``net.rpc.sim_s`` is every second a PS group call or a fabric call
    charged its caller (``ps.<method>.latency_s`` + ``net.rpc.latency_s``).
    """
    out = registry.snapshot()
    sums = {name: hist.sum for name, hist in registry.histograms()}
    out["ps.pull.sim_s"] = sums.get("ps.pull.latency_s", 0.0)
    out["ps.push.sim_s"] = sums.get("ps.push.latency_s", 0.0)
    out["dataflow.task.sim_s"] = sums.get("dataflow.task.duration_s", 0.0)
    out["net.rpc.sim_s"] = sums.get("net.rpc.latency_s", 0.0) + sum(
        v for name, v in sums.items()
        if name.startswith("ps.") and name.endswith(".latency_s"))
    return out


class Pass:
    """What one pass over a workload's cells reports.

    ``slice`` times one public call on the calibrated clock; ``cell``
    scopes a group of slices, adding the cell's sim seconds and registry
    deltas to the pass totals.  Everything outside ``slice`` is untimed
    preparation (contexts, HDFS staging, producing onto the topic).
    """

    def __init__(self, clock, recorder=None,
                 before_slice: Optional[Callable[[str], None]] = None) -> None:
        self.clock = clock
        self.recorder = recorder
        #: Called with the slice name before each slice; a repeat pass
        #: uses it to stop once the measurement window is used.
        self.before_slice = before_slice
        self.sim_s = 0.0
        self.counts: Dict[str, float] = defaultdict(float)
        self.results: Dict[str, Any] = {}
        self._cell = ""

    @contextmanager
    def cell(self, name: str, registry: MetricsRegistry,
             sim_time: Callable[[], float],
             spark: Optional[SparkContext] = None) -> Iterator[None]:
        """Scope one cell; ``spark`` (when the cell has one) gets a task
        hook so the clock can split long slices at task boundaries."""
        self._cell = name
        if self.recorder is not None:
            self.recorder.cell = name
        if spark is not None:
            spark.add_task_hook(self._after_task)
        before = _reading(registry)
        sim0 = sim_time()
        try:
            yield
        finally:
            if spark is not None:
                spark.remove_task_hook(self._after_task)
            self.sim_s += sim_time() - sim0
            for key, value in _reading(registry).items():
                self.counts[key] += value - before.get(key, 0.0)

    def _after_task(self, _stage: int, _partition: int, _kind: str) -> None:
        self.clock.checkpoint()

    def slice(self, name: str, fn: Callable, *args, **kwargs):
        full = f"{self._cell}/{name}"
        if self.before_slice is not None:
            self.before_slice(full)
        if self.recorder is not None:
            # Root span of the slice: its self time is what no wrapped
            # layer accounts for (bench.unattributed_host_ratio).
            fn = self.recorder.wrapper(full, "bench")(fn)
        return self.clock.slice(full, fn, *args, **kwargs)


@dataclass(frozen=True)
class Workload:
    """One workload: its name in BENCHMARK.json and its four functions."""

    name: str
    generate: Callable[[int, Size], Any]
    expect: Callable[[Any, Size], Any]
    run_pass: Callable[[Pass, Any, Size], None]
    check: Callable[[oracles.Checks, Pass, Any, Any, Size], Dict[str, float]]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


@dataclass
class EdgeSet:
    """One generated dataset; ``staged`` holds its HDFS edge files when a
    PSGraph cell reads it (GraphX takes the arrays)."""

    spec: Any
    src: np.ndarray
    dst: np.ndarray
    staged: Optional[Hdfs] = None


def _edge_set(spec, seed: int, num_files: int = 0) -> EdgeSet:
    """Generate ``spec``; stage it as ``num_files`` edge files if > 0."""
    src, dst = generate_edges(spec, seed)
    staged = None
    if num_files:
        staged = Hdfs()
        write_edges(staged, "/input/edges", src, dst, num_files=num_files)
    return EdgeSet(spec, src, dst, staged)


def _psgraph_ctx(cluster: ClusterConfig, edges: EdgeSet, name: str
                 ) -> PSGraphContext:
    """Fresh session with the staged edge files copied into its HDFS."""
    metrics = MetricsRegistry()
    hdfs = Hdfs(cluster.cost_model, metrics)
    for path in edges.staged.listdir("/input/edges"):
        hdfs.write_bytes(path, edges.staged.read_bytes(path))
    return PSGraphContext(cluster, hdfs=hdfs, metrics=metrics,
                          app_name=name)


def _rank_arrays(rows) -> Tuple[np.ndarray, np.ndarray]:
    ids = np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))
    ranks = np.fromiter((r[1] for r in rows), dtype=np.float64,
                        count=len(rows))
    return ids, ranks


# ----------------------------------------------------------------------
# tg-psgraph
# ----------------------------------------------------------------------

def _tg_generate(seed: int, size: Size) -> Dict[str, EdgeSet]:
    ds1 = ds1_spec(size.ds1_scale)
    ds2 = ds2_spec(size.ds2_scale)
    return {
        "DS1": _edge_set(ds1, seed, psgraph_config_ds1().num_executors),
        "DS2": _edge_set(ds2, seed, psgraph_config_ds2().num_executors),
    }


def _tg_expect(inputs: Dict[str, EdgeSet], size: Size) -> Dict[str, Any]:
    refs = {
        "PageRank": lambda e: oracles.pagerank_ref(
            e.src, e.dst, size.pagerank_iters, start=0.15),
        # Fig. 6 CommonNeighbor cells only build the tables.
        "CommonNeighbor": lambda e: len(
            np.unique(np.concatenate([e.src, e.dst]))),
    }
    expected = {f"{algo}.{ds}": refs[algo](inputs[ds])
                for algo, ds in size.ps_cells}
    ds1 = inputs["DS1"]
    expected["table2"] = oracles.common_neighbor_ref(ds1.src, ds1.dst)
    return expected


def _psgraph_algo(name: str, size: Size):
    return {
        "PageRank": lambda: PageRank(max_iterations=size.pagerank_iters,
                                     tol=0.0),
        "CommonNeighbor": lambda: CommonNeighbor(batch_size=8192),
    }[name]()


def _psgraph_cluster(ds: str, scale: float) -> ClusterConfig:
    base = psgraph_config_ds1() if ds == "DS1" else psgraph_config_ds2()
    return base.scaled(scale)


def _tg_psgraph_pass(p: Pass, inputs: Dict[str, EdgeSet], size: Size
                     ) -> None:
    for algo_name, ds in size.ps_cells:
        edges = inputs[ds]
        cell = f"fig6.{algo_name}.{ds}"
        ctx = _psgraph_ctx(_psgraph_cluster(ds, edges.spec.scale), edges,
                           cell)
        try:
            with p.cell(cell, ctx.metrics, ctx.sim_time, ctx.spark):
                # GraphIO.load is lazy: the read runs inside transform.
                graph = GraphIO.load(ctx, "/input/edges")
                result = p.slice(
                    "transform", _psgraph_algo(algo_name, size).transform,
                    ctx, graph)
                # CommonNeighbor scores lazily, so here only the table
                # build runs (on DS2: the wide fan-out; scoring it costs
                # another 5 s).  Table II's cells score, on DS1.
                rows = (None if algo_name == "CommonNeighbor"
                        else p.slice("collect", result.output.rdd.collect))
            p.results[cell] = {"rows": rows, "stats": result.stats,
                               "iterations": result.iterations}
        finally:
            ctx.stop()
    for scenario in ("none", "executor", "server"):
        _table2_cell(p, inputs["DS1"], scenario, size)


def _table2_cell(p: Pass, edges: EdgeSet, scenario: str, size: Size
                 ) -> None:
    """Table II: CommonNeighbor with one container killed mid-scoring."""
    scale = edges.spec.scale
    cell = f"table2.{scenario}"
    ctx = _psgraph_ctx(_psgraph_cluster("DS1", scale), edges, cell)
    # Fixed restart / health-check latencies are injected pre-scaled, as
    # repro.experiments.table2 does, so projections stay linear.
    ctx.spark.resource_manager.restart_delay_s = 90.0 * scale
    ctx.ps.master.health_check_cost_s = 1.0 * scale
    faults = {
        "none": [],
        "executor": [FaultSpec("kill_executor", index=3,
                               after_tasks=size.kill_after_tasks,
                               task_kind="result")],
        "server": [FaultSpec("kill_server", index=1,
                             after_tasks=size.kill_after_tasks,
                             task_kind="result")],
    }[scenario]
    engine = ChaosEngine(FaultSchedule(faults, seed=0), ctx.spark, ctx.ps)
    try:
        with p.cell(cell, ctx.metrics, ctx.sim_time, ctx.spark):
            graph = GraphIO.load(ctx, "/input/edges")
            result = p.slice(
                "transform",
                CommonNeighbor(batch_size=8192, checkpoint=True).transform,
                ctx, graph)
            engine.attach()
            sim0 = ctx.sim_time()
            rows = p.slice("collect", result.output.rdd.collect)
            ctx.sync_clocks()
            score_sim_s = ctx.sim_time() - sim0
        p.results[cell] = {
            "rows": rows, "score_sim_s": score_sim_s,
            "fired": len(engine.fired),
            "ps_recoveries": ctx.ps.master.recoveries,
            "executor_restarts":
                ctx.spark.executors[3].container.restarts,
        }
    finally:
        engine.detach()
        ctx.stop()


def _tg_psgraph_check(checks: oracles.Checks, p: Pass,
                      inputs: Dict[str, EdgeSet], expected: Dict[str, Any],
                      size: Size) -> Dict[str, float]:
    res = p.results
    for algo, ds in size.ps_cells:
        got, name = res[f"fig6.{algo}.{ds}"], f"{algo}.{ds}"
        if algo == "PageRank":
            checks.check(f"{name}.iterations",
                         got["iterations"] == size.pagerank_iters,
                         f"{got['iterations']} of {size.pagerank_iters}")
            checks.check(f"{name}.vs_scipy", oracles.same_ranks(
                *_rank_arrays(got["rows"]), *expected[name]))
        else:
            pushed = got["stats"]["vertices_pushed"]
            checks.check(f"{name}.tables_built", pushed == expected[name],
                         f"{pushed} of {expected[name]} vertices pushed")
    ds1 = inputs["DS1"]
    # Table II: any fault schedule yields the fault-free answer.
    clean = oracles.edge_counts(res["table2.none"]["rows"])
    want = {(int(s), int(d)): int(c)
            for s, d, c in zip(ds1.src, ds1.dst, expected["table2"])}
    checks.check("table2.none.vs_scipy", clean == want,
                 f"{len(clean)} scored edges vs {len(want)} expected")
    for scenario in ("executor", "server"):
        got = res[f"table2.{scenario}"]
        checks.check(f"table2.{scenario}.equals_fault_free",
                     oracles.edge_counts(got["rows"]) == clean)
        checks.check(f"table2.{scenario}.fault_fired", got["fired"] == 1)
    checks.check("table2.executor.restarted",
                 res["table2.executor"]["executor_restarts"] == 1)
    checks.check("table2.server.recovered",
                 res["table2.server"]["ps_recoveries"] == 1)
    base = res["table2.none"]["score_sim_s"]
    overhead = {s: (res[f"table2.{s}"]["score_sim_s"] / base - 1.0) * 100.0
                for s in ("executor", "server")}
    # A killed executor only costs sim time when its re-run lands on the
    # critical path, so its overhead may be exactly zero.
    checks.check("table2.server_costs_more_than_executor",
                 overhead["server"] > overhead["executor"] >= 0.0,
                 f"{overhead}")
    return {"recovery_overhead_sim_pct": overhead["server"]}


def _check_modularity(checks: oracles.Checks, name: str, edges: EdgeSet,
                      community: np.ndarray, reported: float) -> None:
    q = oracles.modularity(edges.src, edges.dst, np.asarray(community))
    checks.check(f"{name}.modularity_reported", abs(q - reported) < 1e-9,
                 f"recomputed {q:.6f} vs reported {reported:.6f}")
    checks.check(f"{name}.finds_structure", q > 0.0, f"Q={q:.4f}")


# ----------------------------------------------------------------------
# tg-graphx
# ----------------------------------------------------------------------

def _gx_generate(seed: int, size: Size) -> Dict[str, EdgeSet]:
    return {"DS1": _edge_set(ds1_spec(size.ds1_scale), seed),
            "DS2": _edge_set(ds2_spec(size.ds2_scale), seed)}


def _gx_expect(inputs: Dict[str, EdgeSet], size: Size) -> Dict[str, Any]:
    ds1 = inputs["DS1"]
    return {
        "PageRank.DS1": oracles.pagerank_ref(
            ds1.src, ds1.dst, size.pagerank_iters, start=1.0),
        "oom": {(a, d) for (a, d, system), hours in PAPER_FIG6.items()
                if system == "GraphX" and hours is None},
    }


def _graphx_run(p: Pass, name: str, ctx: SparkContext, edges: EdgeSet,
                size: Size):
    if name == "FastUnfolding":
        return p.slice("run", gxfu.fast_unfolding, ctx, edges.src, edges.dst,
                       num_passes=size.fu_passes,
                       max_move_iterations=size.fu_move_iters)
    graph = p.slice("load", Graph.from_edges, ctx, edges.src, edges.dst)
    if name == "PageRank":
        return p.slice("run", gxalgo.pagerank, graph,
                       max_iterations=size.pagerank_iters, tol=0.0)
    if name == "CommonNeighbor":
        return p.slice("run", gxalgo.common_neighbor, graph, num_chunks=32)
    if name == "KCore":
        return p.slice("run", gxalgo.kcore, graph,
                       max_iterations=size.kcore_iters)
    return p.slice("run", gxalgo.triangle_count, graph)


def _tg_graphx_pass(p: Pass, inputs: Dict[str, EdgeSet], size: Size) -> None:
    for algo_name, ds in size.gx_cells:
        edges = inputs[ds]
        base = graphx_config_ds1() if ds == "DS1" else graphx_config_ds2()
        cell = f"fig6.{algo_name}.{ds}"
        ctx = SparkContext(base.scaled(edges.spec.scale), app_name=cell)
        try:
            with p.cell(cell, ctx.metrics, ctx.sim_time, ctx):
                try:
                    out = _graphx_run(p, algo_name, ctx, edges, size)
                    p.results[cell] = {"status": "ok", "out": out}
                except SimulatedOOMError as oom:
                    p.results[cell] = {"status": "OOM", "out": str(oom)}
        finally:
            ctx.stop()


def _tg_graphx_check(checks: oracles.Checks, p: Pass,
                     inputs: Dict[str, EdgeSet], expected: Dict[str, Any],
                     size: Size) -> Dict[str, float]:
    res = p.results
    oom = {(a, d) for a, d in size.gx_cells
           if res[f"fig6.{a}.{d}"]["status"] == "OOM"}
    checks.check("oom_set_equals_paper_fig6",
                 oom == expected["oom"] & set(size.gx_cells),
                 f"{sorted(oom)}")
    ds1 = inputs["DS1"]
    pr = res["fig6.PageRank.DS1"]
    if checks.check("pagerank.DS1.completed", pr["status"] == "ok"):
        ids, ranks, iters = pr["out"]
        checks.check("pagerank.DS1.iterations", iters == size.pagerank_iters)
        checks.check("pagerank.DS1.vs_scipy", oracles.same_ranks(
            ids, ranks, *expected["PageRank.DS1"]))
    fu = res["fig6.FastUnfolding.DS1"]
    if checks.check("fast_unfolding.DS1.completed", fu["status"] == "ok"):
        community, reported, _rounds = fu["out"]
        _check_modularity(checks, "FastUnfolding.DS1", ds1, community,
                          reported)
    ps_traffic = {k: v for k, v in p.counts.items()
                  if k.startswith(("ps.", "net.rpc.")) and v != 0.0}
    checks.check("no_ps_traffic", not ps_traffic, f"{ps_traffic}")
    return {}


# ----------------------------------------------------------------------
# gnn-embed
# ----------------------------------------------------------------------

SAGE_HIDDEN = 32
SAGE_BATCH = 512
EULER_BATCH = 64
SAGE_LR = 0.02
SAGE_FANOUTS = (10, 5)
SAGE_LABELED = 0.02
LINE_BATCH = 4096


def _gnn_generate(seed: int, size: Size) -> Dict[str, Any]:
    spec = ds3_spec(size.ds3_scale)
    src, dst, feats, labels = generate_ds3_gnn(spec, 32, 5, seed=seed)
    ps_files = psgraph_config_ds3().num_executors
    staged = Hdfs()
    write_edges(staged, "/input/edges", src, dst, num_files=ps_files)
    return {
        "seed": seed,
        "ds3": EdgeSet(spec, src, dst, staged),
        "feats": feats, "labels": labels,
        "ds1": _edge_set(ds1_spec(size.ds1_scale), seed,
                         psgraph_config_ds1().num_executors),
    }


def _gnn_pass(p: Pass, inputs: Dict[str, Any], size: Size) -> None:
    ds3: EdgeSet = inputs["ds3"]
    feats, labels, seed = inputs["feats"], inputs["labels"], inputs["seed"]
    classes = int(labels.max()) + 1
    scale = ds3.spec.scale

    cell = "table1.psgraph"
    ctx = _psgraph_ctx(psgraph_config_ds3().scaled(scale), ds3, cell)
    try:
        with p.cell(cell, ctx.metrics, ctx.sim_time, ctx.spark):
            graph = GraphIO.load(ctx, "/input/edges")
            algo = GraphSage(
                feats, labels, hidden=SAGE_HIDDEN, num_classes=classes,
                fanouts=SAGE_FANOUTS, epochs=size.sage_epochs,
                batch_size=SAGE_BATCH, lr=SAGE_LR,
                labeled_fraction=SAGE_LABELED, seed=seed)
            result = p.slice("transform", algo.transform, ctx, graph)
        p.results[cell] = dict(result.stats)
    finally:
        ctx.stop()

    cell = "table1.euler"
    system = EulerSystem(euler_config_ds3().scaled(scale), seed=seed)
    try:
        write_edges(system.hdfs, "/input/ds3", ds3.src, ds3.dst,
                    num_files=16)
        blob = ScriptModule.trace(make_sage, in_dim=feats.shape[1],
                                  hidden=SAGE_HIDDEN, num_classes=classes,
                                  seed=seed)
        with p.cell(cell, system.metrics, system.sim_time):
            prep = p.slice("preprocess", system.preprocess, "/input/ds3",
                           feats, labels)
            stats = p.slice(
                "train", system.train_graphsage, blob,
                epochs=size.sage_epochs, batch_size=EULER_BATCH,
                fanouts=SAGE_FANOUTS, lr=SAGE_LR,
                labeled_fraction=SAGE_LABELED)
        p.results[cell] = {**stats, "preprocess_sim_s": prep["total_s"]}
    finally:
        system.stop()

    # LINE on DS1, dim 128: the servers get 4x the TG grant so the model
    # fits (EXPERIMENTS.md, Sec. V-B2 discusses the paper's own mismatch).
    cell = "line.DS1"
    ds1: EdgeSet = inputs["ds1"]
    base = psgraph_config_ds1()
    cluster = replace(base, server_mem_bytes=base.server_mem_bytes * 4
                      ).scaled(ds1.spec.scale)
    ctx = _psgraph_ctx(cluster, ds1, cell)
    try:
        with p.cell(cell, ctx.metrics, ctx.sim_time, ctx.spark):
            graph = GraphIO.load(ctx, "/input/edges")
            algo = Line(dim=size.line_dim, order=2, epochs=size.line_epochs,
                        negative=size.line_negative, batch_size=LINE_BATCH,
                        seed=seed)
            result = p.slice("transform", algo.transform, ctx, graph)
        p.results[cell] = {
            "epoch_losses": result.stats["epoch_losses"],
            "epoch_sim_times": result.stats["epoch_sim_times"],
        }
    finally:
        ctx.stop()


def _gnn_check(checks: oracles.Checks, p: Pass, inputs: Dict[str, Any],
               expected: Any, size: Size) -> Dict[str, float]:
    ps, euler, line = (p.results["table1.psgraph"],
                       p.results["table1.euler"], p.results["line.DS1"])
    acc, euler_acc = ps["accuracy"] * 100.0, euler["accuracy"] * 100.0
    checks.check("graphsage.accuracy_at_least_90", acc >= 90.0, f"{acc:.2f}")
    checks.check("graphsage.within_5_points_of_euler",
                 abs(acc - euler_acc) <= 5.0, f"{acc:.2f} vs {euler_acc:.2f}")
    epoch = float(np.mean(ps["epoch_sim_times"]))
    euler_epoch = float(np.mean(euler["epoch_sim_times"]))
    checks.check("graphsage.epoch_faster_than_euler",
                 euler_epoch > 10.0 * epoch,
                 f"{euler_epoch:.4f} vs {epoch:.4f} sim-s")
    checks.check("graphsage.preprocess_faster_than_euler",
                 euler["preprocess_sim_s"] > 10.0 * ps["preprocess_sim_time"])
    losses = line["epoch_losses"]
    checks.check("line.loss_strictly_decreasing",
                 all(b < a for a, b in zip(losses, losses[1:])), f"{losses}")
    return {"gnn_epoch_sim_s": epoch, "gnn_accuracy_pct": acc,
            "line_final_loss": float(losses[-1])}


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------

EMB_DIM = 16
CHURN = 0.01  # share of base edges added and removed per window (half each)


@dataclass
class Traffic:
    """A pre-generated request stream with its arrival offsets, so every
    pass can re-anchor the same requests at its own sim time."""

    requests: list
    offsets: List[float]
    budgets: List[float]

    def starting_at(self, start_s: float) -> list:
        for r, offset, budget in zip(self.requests, self.offsets,
                                     self.budgets):
            r.arrival_s = start_s + offset
            r.deadline_s = r.arrival_s + budget
        return self.requests


def _tenants() -> List[TenantSpec]:
    return [
        TenantSpec(name="feeds", model="serve.ranks", weight=3.0,
                   priority=2, deadline_s=5.0),
        TenantSpec(name="similar-items", model="serve.emb", weight=2.0,
                   priority=1, deadline_s=8.0),
        TenantSpec(name="batch-reco", model="serve.ranks", weight=1.0,
                   priority=1, deadline_s=10.0, rate_limit=1500.0, burst=64),
    ]


def _ss_generate(seed: int, size: Size) -> Dict[str, Any]:
    spec = ds1_spec(size.ds1_scale)
    src, dst = generate_edges(spec, seed)
    n, m = spec.num_vertices, len(src)
    rng = np.random.default_rng([seed, 1])
    half = max(1, int(m * CHURN / 2))
    removal = rng.choice(m, size=size.stream_windows * half, replace=False)
    windows = []
    for w in range(size.stream_windows):
        a_s = rng.integers(0, n, half)
        a_d = (a_s + 1 + rng.integers(0, n - 1, half)) % n
        ridx = removal[w * half:(w + 1) * half]
        windows.append((a_s, a_d, src[ridx], dst[ridx]))
    # Open loop on the sim clock: every arrival time is fixed here, before
    # the body, so generator lateness is zero by construction; latency
    # counts from the scheduled arrival.
    tenants = _tenants()

    def traffic(rate: int, count: int, salt: int) -> Traffic:
        requests = RequestGenerator(
            tenants, key_space=n, zipf_s=1.1, rate=float(rate),
            seed=seed * 1000 + salt).generate(count)
        return Traffic(requests, [r.arrival_s for r in requests],
                       [r.deadline_s - r.arrival_s for r in requests])

    rungs = [("pinned", size.serve_rate,
              traffic(size.serve_rate, size.serve_requests, 0))]
    rungs += [(f"ladder{rate}", rate,
               traffic(rate, size.rung_requests, i + 1))
              for i, rate in enumerate(size.serve_ladder)]
    rungs.append(("kill", size.serve_rate,
                  traffic(size.serve_rate, size.rung_requests, 99)))
    return {"seed": seed, "n": n, "src": src, "dst": dst,
            "windows": windows, "rungs": rungs, "tenants": tenants}


def _ss_expect(inputs: Dict[str, Any], size: Size) -> Dict[str, Any]:
    """Final live edge set (set semantics) and its converged references."""
    n = inputs["n"]
    live = set(zip(inputs["src"].tolist(), inputs["dst"].tolist()))
    for a_s, a_d, r_s, r_d in inputs["windows"]:
        live |= set(zip(a_s.tolist(), a_d.tolist()))
        live -= set(zip(r_s.tolist(), r_d.tolist()))
    pairs = np.asarray(sorted(live), dtype=np.int64)
    src, dst = pairs[:, 0], pairs[:, 1]
    return {"live_edges": len(live),
            "ranks": oracles.pagerank_ref(src, dst, 200, start=0.15),
            "components": oracles.num_components(src, dst), "n": n}


def _serve_rung(p: Pass, ctx: PSGraphContext, name: str, rate: int,
                traffic: Traffic, tenants, size: Size, kill: bool = False
                ) -> None:
    metrics = ctx.metrics
    hist = metrics.histogram("serve.latency_s")
    before = metrics.snapshot()
    late0, count0 = hist.count_above(SLO_LATENCY_S), hist.count
    requests = traffic.starting_at(ctx.sim_time())
    plane = ServingPlane(ctx.ps, tenants, cache_capacity=ctx_keys(ctx) // 10)
    engine = None
    if kill:
        engine = ChaosEngine(FaultSchedule([FaultSpec(
            "kill_server", index=0, after_tasks=size.kill_after_batches,
            task_kind="serve")], seed=0), ctx.spark, ctx.ps).attach()
    try:
        report = p.slice(f"serve.{name}", plane.run, requests)
    finally:
        if engine is not None:
            engine.detach()
    after = metrics.snapshot()
    offered = after["serve.requests.offered"] - before.get(
        "serve.requests.offered", 0.0)
    served = after["serve.requests.served"] - before.get(
        "serve.requests.served", 0.0)
    late = hist.count_above(SLO_LATENCY_S) - late0
    p.results[f"rung.{name}"] = {
        "rate": rate, "offered": int(offered), "served": int(served),
        "dropped": len(plane.drop_records), "late": int(late),
        "observed": hist.count - count0, "drained": plane.queue.depth == 0,
        "p50_s": report.p50_s, "p99_s": report.p99_s,
        "degraded_p99_s": report.degraded_p99_s,
        "peak_depth": report.peak_depth, "recoveries": report.recoveries,
        "cache_hit_rate": report.cache_hit_rate,
    }


def ctx_keys(ctx: PSGraphContext) -> int:
    """Key space of the published models."""
    return ctx.ps.matrix_meta("serve.ranks").rows


def _publish(ctx: PSGraphContext, pagerank: IncrementalPageRank) -> None:
    """Overwrite the served rank vector with the live ranks (invalidates
    the agent-side pull cache for every key written)."""
    ids, ranks = pagerank.ranks()
    ctx.ps.matrix("serve.ranks").set(ids, ranks)


def _ss_pass(p: Pass, inputs: Dict[str, Any], size: Size) -> None:
    n, tenants = inputs["n"], inputs["tenants"]
    cluster = ClusterConfig(num_executors=8, executor_mem_bytes=1024 * MB,
                            num_servers=4, server_mem_bytes=1024 * MB)
    with PSGraphContext(cluster, app_name="serve-stream") as ctx:
        topic = KafkaTopic("mutations", num_partitions=4)
        graph = StreamingGraph(ctx.ps, n, metrics=ctx.metrics)
        consumer = EdgeStreamConsumer(topic, ctx.hdfs,
                                      landing_dir="/stream/edges",
                                      metrics=ctx.metrics)
        engine = StreamingEngine(graph, consumer, measure_full=True)
        ctx.ps.create_vector("serve.ranks", n)
        emb = ctx.ps.create_embedding("serve.emb", n, EMB_DIM)
        emb.psfunc(RandomInit(inputs["seed"]))
        cache = ctx.ps.enable_pull_cache("serve.ranks", staleness=1 << 30,
                                         capacity=n // 4)
        topic.produce(inputs["src"], inputs["dst"])
        with p.cell("pipeline", ctx.metrics, ctx.sim_time, ctx.spark):
            # The base graph lands before any algorithm is registered:
            # a registered algorithm would already refresh itself from the
            # base window's delta and bootstrap() would count it twice.
            p.slice("base_window", engine.run_window)
            pagerank = engine.register(
                "pagerank", IncrementalPageRank(graph, tol=1e-6))
            components = engine.register(
                "components", IncrementalComponents(graph))
            engine.register("embedding", OnlineEmbeddingRefresh(
                graph, seed=inputs["seed"]))
            p.slice("bootstrap", engine.bootstrap)
            engine.reports.clear()
            p.slice("publish", _publish, ctx, pagerank)
            rungs = list(inputs["rungs"])
            name, rate, requests = rungs.pop(0)
            _serve_rung(p, ctx, name, rate, requests, tenants, size)
            for w, (a_s, a_d, r_s, r_d) in enumerate(inputs["windows"]):
                topic.produce(a_s, a_d)
                topic.produce_removals(r_s, r_d)
                p.slice(f"window{w}", engine.run_window)
                p.slice(f"publish{w}", _publish, ctx, pagerank)
                # Ladder rungs interleave with the windows; whatever is
                # left runs after the last one.
                share = -(-len(rungs) // (len(inputs["windows"]) - w))
                for name, rate, requests in rungs[:share]:
                    if name == "kill":
                        p.slice("checkpoint_all", ctx.ps.checkpoint_all)
                    _serve_rung(p, ctx, name, rate, requests, tenants, size,
                                kill=name == "kill")
                del rungs[:share]
        ids, ranks = pagerank.ranks()
        p.results["stream"] = {
            "summary": engine.summary(),
            "reports": [r.to_dict() for r in engine.reports],
            "rank_ids": ids, "ranks": ranks,
            "components": components.num_components(),
            "live_edges": graph.num_edges,
            "ps_cache_hit_ratio": cache.stats.hit_rate,
        }


def _slo_met(rung: Dict[str, Any]) -> bool:
    """99 % of *offered* requests answered within the limit — a drop or a
    refusal misses it — and no backlog left."""
    good = rung["served"] - rung["late"]
    return rung["drained"] and good >= SLO_OBJECTIVE * rung["offered"]


def _ss_check(checks: oracles.Checks, p: Pass, inputs: Dict[str, Any],
              expected: Dict[str, Any], size: Size) -> Dict[str, float]:
    rungs = {k[5:]: r for k, r in p.results.items() if k.startswith("rung.")}
    for name, r in rungs.items():
        checks.check(f"serve.{name}.offered_equals_served_plus_dropped",
                     r["offered"] == r["served"] + r["dropped"],
                     f"{r['offered']} = {r['served']} + {r['dropped']}")
    pinned = rungs["pinned"]
    checks.check("serve.pinned.sample_count",
                 pinned["served"] >= 0.99 * size.serve_requests,
                 f"{pinned['served']} served")
    checks.check("serve.pinned.meets_slo", _slo_met(pinned))
    kill = rungs["kill"]
    checks.check("serve.kill.recovered",
                 kill["recoveries"] >= 1
                 and kill["degraded_p99_s"] is not None)
    stream = p.results["stream"]
    summary = stream["summary"]
    checks.check("stream.windows", summary["windows"] == size.stream_windows)
    checks.check("stream.incremental_under_quarter_of_full",
                 0.0 < summary["cost_ratio"] < 0.25,
                 f"{summary['cost_ratio']:.4f}")
    checks.check("stream.live_edges", stream["live_edges"]
                 == expected["live_edges"],
                 f"{stream['live_edges']} vs {expected['live_edges']}")
    ref_ids, ref_ranks = expected["ranks"]
    checks.check("stream.incremental_ranks_vs_scipy",
                 np.array_equal(stream["rank_ids"], ref_ids)
                 and bool(np.allclose(stream["ranks"], ref_ranks,
                                      atol=1e-4, rtol=0.0)))
    checks.check("stream.components_vs_scipy",
                 stream["components"] == expected["components"],
                 f"{stream['components']} vs {expected['components']}")
    ladder = [rungs[f"ladder{rate}"] for rate in size.serve_ladder]
    passing = [r["rate"] for r in ladder if _slo_met(r)]
    checks.check("serve.ladder.lowest_rung_meets_slo", bool(passing)
                 and passing[0] == size.serve_ladder[0])
    offered = sum(r["offered"] for r in rungs.values())
    served = sum(r["served"] for r in rungs.values())
    return {
        "serve.drop_ratio": 1.0 - served / offered,
        "serve.p50_sim_ms": pinned["p50_s"] * 1e3,
        "serve.queue.peak_depth": float(max(
            r["peak_depth"] for r in rungs.values())),
        "ps.cache.hit_ratio": stream["ps_cache_hit_ratio"],
        "streaming.cost_incremental_sim_s": summary["cost_incremental_s"],
        "streaming.cost_full_sim_s": summary["cost_full_s"],
        "serve_p99_sim_ms": pinned["p99_s"] * 1e3,
        "serve_goodput_ratio":
            (pinned["served"] - pinned["late"]) / pinned["offered"],
        "serve_max_rate_sim_rps": float(max(passing, default=0)),
        "stream_incr_full_sim_ratio": summary["cost_ratio"],
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("tg-psgraph", _tg_generate, _tg_expect, _tg_psgraph_pass,
             _tg_psgraph_check),
    Workload("tg-graphx", _gx_generate, _gx_expect, _tg_graphx_pass,
             _tg_graphx_check),
    Workload("gnn-embed", _gnn_generate, lambda inputs, size: None,
             _gnn_pass, _gnn_check),
    Workload("serve-stream", _ss_generate, _ss_expect, _ss_pass, _ss_check),
]}
