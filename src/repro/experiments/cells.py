"""Experiment cells: one record per measured cell, one function that runs it.

The paper's evaluation (Sec. V) is a set of cells — a system, a dataset,
an algorithm and a fault schedule on one cluster.  A :class:`Cell` names
one; :func:`run_cell` is the only place that builds its cluster, HDFS,
edge files and context, times the run and catches a simulated OOM, so
every system is loaded, clocked and reported the same way.  Figure 6,
Tables I and II, LINE and the extension experiments are lists of cells.

Datasets are ``DS1`` / ``DS2`` / ``DS3`` (the Tencent stand-ins, written
to HDFS and loaded through :class:`GraphRunner`, as in Listing 1) and
``PL<vertices>x<edges>`` (an in-memory power-law graph handed to the
algorithm directly, for the ablations and sweeps).  Each is generated,
and its edge files formatted, once per process.
"""

# run_cell reports the host runtime of each cell next to its sim time, so
# reading the wall clock here is the point.
# repro-lint: disable-file=SIM001

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.chaos import ChaosEngine, FaultSchedule
from repro.common.config import (
    GB,
    ClusterConfig,
    euler_config_ds3,
    graphx_config_ds1,
    graphx_config_ds2,
    psgraph_config_ds1,
    psgraph_config_ds2,
    psgraph_config_ds3,
)
from repro.common.errors import SimulatedOOMError
from repro.common.metrics import PS_PULL_BYTES, PS_PUSH_BYTES, MetricsRegistry
from repro.common.rng import DEFAULT_SEED
from repro.core import algorithms
from repro.core.algorithms.graphsage import make_sage
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays
from repro.core.runner import GraphRunner
from repro.dataflow.context import SparkContext
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import (
    ds1_spec,
    ds2_spec,
    ds3_spec,
    generate_ds3_gnn,
    generate_edges,
    write_edges,
)
from repro.eulersim.euler import EulerSystem
from repro.experiments.harness import ExperimentRow
from repro.graphx import algorithms as gxalgo
from repro.graphx.fast_unfolding import fast_unfolding
from repro.graphx.graph import Graph
from repro.hdfs.filesystem import Hdfs
from repro.torchlite.script import ScriptModule

#: The paper's allocation per (system, dataset), Sec. V-B.
CLUSTERS = {
    ("PSGraph", "DS1"): psgraph_config_ds1,
    ("PSGraph", "DS2"): psgraph_config_ds2,
    ("PSGraph", "DS3"): psgraph_config_ds3,
    ("GraphX", "DS1"): graphx_config_ds1,
    ("GraphX", "DS2"): graphx_config_ds2,
    ("Euler", "DS3"): euler_config_ds3,
}
#: The power-law graphs' cluster: memory never binds.
PL_CLUSTER = ClusterConfig(num_executors=8, executor_mem_bytes=1 << 40,
                           num_servers=4, server_mem_bytes=1 << 40)
#: Where a cell's HDFS holds its edge files.
EDGES_PATH = "/input/edges"
#: ``Cell.cluster`` keys that configure the PS context, not the allocation.
CONTEXT_OPTIONS = ("sync_mode", "checkpoint_interval")
#: DS3's node features and label classes (Table I).
DS3_FEATURES = 32
DS3_CLASSES = 5
#: Paper-scale latencies that do not shrink with the data (a container
#: restart, one health-check probe): pre-scaled so the linear projection
#: recovers them.
RESTART_DELAY_PAPER_S = 90.0
HEALTH_CHECK_PAPER_S = 1.0


@dataclass(frozen=True)
class Cell:
    """One measured cell.

    Attributes:
        experiment / system / dataset / algorithm: what the row reports;
            ``algorithm`` names a class of :mod:`repro.core.algorithms`
            (PSGraph), its :mod:`repro.graphx` counterpart (GraphX) or
            ``GraphSage`` (Euler).
        scale: dataset scale factor; memory grants shrink with it.
        variant: suffix of the row's algorithm label.
        knobs: algorithm arguments.  Two are modelled runs, not faults:
            ``server_drag_s`` (PSGraph: PS server 0 lags this much per
            task, the BSP / ASP ablation's straggler) and
            ``lost_supersteps`` (GraphX: that many supersteps run and are
            lost with executor 1, which restarts; lineage then recomputes
            the job from superstep 0).
        cluster: :class:`ClusterConfig` field overrides at paper scale, and
            the PS context's ``sync_mode`` / ``checkpoint_interval``.
        faults: PSGraph only; fired by a :class:`ChaosEngine`.
        output: ``""`` leaves the output lazy; ``"score"`` counts it once
            the model is built, with the faults armed only from there on
            (Table II kills containers while the job scores edges over its
            checkpointed model); ``"ranks"`` collects and sums the ranks.
        paper / unit: the paper's value and its unit.
    """

    experiment: str
    system: str
    dataset: str
    algorithm: str
    scale: float = 1.0
    variant: str = ""
    knobs: Mapping[str, Any] = field(default_factory=dict)
    cluster: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None
    output: str = ""
    paper: Optional[float] = None
    unit: str = "hours"

    @property
    def label(self) -> str:
        """The row's algorithm column."""
        return f"{self.algorithm}/{self.variant}" if self.variant \
            else self.algorithm


def cluster_config(cell: Cell) -> ClusterConfig:
    """The cell's allocation at paper scale (memory not yet scaled)."""
    base = (PL_CLUSTER if cell.dataset.startswith("PL")
            else CLUSTERS[(cell.system, cell.dataset)]())
    return replace(base, **{k: v for k, v in cell.cluster.items()
                            if k not in CONTEXT_OPTIONS})


@lru_cache(maxsize=8)
def dataset(name: str, scale: float) -> Tuple[np.ndarray, ...]:
    """``(src, dst)``, or ``(src, dst, features, labels)`` for DS3."""
    if name == "DS3":
        arrays = generate_ds3_gnn(ds3_spec(scale), DS3_FEATURES,
                                  DS3_CLASSES, seed=DEFAULT_SEED)
    elif name.startswith("PL"):
        vertices, edges = map(int, name[2:].split("x"))
        arrays = powerlaw_graph(vertices, edges, seed=DEFAULT_SEED)
    else:
        spec = {"DS1": ds1_spec, "DS2": ds2_spec}[name](scale)
        arrays = generate_edges(spec, DEFAULT_SEED)
    for array in arrays:
        array.setflags(write=False)  # shared by every cell of the run
    return tuple(arrays)


@lru_cache(maxsize=8)
def _edge_files(name: str, scale: float,
                num_files: int) -> Tuple[Tuple[str, bytes], ...]:
    """The dataset's edge list as ``(path, bytes)`` HDFS part files."""
    staging = Hdfs()
    write_edges(staging, EDGES_PATH, *dataset(name, scale)[:2],
                num_files=num_files)
    return tuple((p, staging.read_bytes(p))
                 for p in staging.listdir(EDGES_PATH))


def _write_edge_files(hdfs: Hdfs, cell: Cell, num_files: int) -> None:
    for path, data in _edge_files(cell.dataset, cell.scale, num_files):
        hdfs.write_bytes(path, data)


def run_cells(cells: List[Cell]) -> List[ExperimentRow]:
    """Run cells in order."""
    return [run_cell(cell) for cell in cells]


def run_cell(cell: Cell) -> ExperimentRow:
    """Build the cell's cluster, run it once and report one row.

    ``sim_seconds`` is the driver clock's advance over the run (``None``
    on a simulated OOM).  ``extra`` holds the algorithm's iterations and
    stats, the PS traffic, and the allocation's paper-scale memory.
    """
    config = cluster_config(cell)
    cluster = config.scaled(cell.scale)
    data = dataset(cell.dataset, cell.scale)
    path = None if cell.dataset.startswith("PL") else EDGES_PATH
    wall0 = time.perf_counter()
    if cell.system == "Euler":
        ctx = EulerSystem(cluster, seed=DEFAULT_SEED)
        _write_edge_files(ctx.hdfs, cell, num_files=16)
    elif cell.system == "GraphX":
        ctx = SparkContext(cluster, app_name=cell.experiment)
        ctx.resource_manager.restart_delay_s = \
            RESTART_DELAY_PAPER_S * cell.scale
    else:
        hdfs = None
        if path is not None:
            hdfs = Hdfs(cluster.cost_model, MetricsRegistry())
            _write_edge_files(hdfs, cell, cluster.num_executors)
        ctx = PSGraphContext(
            cluster, hdfs=hdfs, app_name=cell.experiment,
            **{k: v for k, v in cell.cluster.items()
               if k in CONTEXT_OPTIONS},
        )
        ctx.spark.resource_manager.restart_delay_s = \
            RESTART_DELAY_PAPER_S * cell.scale
        ctx.ps.master.health_check_cost_s = HEALTH_CHECK_PAPER_S * cell.scale
    try:
        sim0 = ctx.sim_time()
        try:
            extra = _RUNNERS[cell.system](cell, ctx, path, data)
            status, sim_s = "ok", ctx.sim_time() - sim0
        except SimulatedOOMError:
            status, sim_s, extra = "OOM", None, {}
    finally:
        ctx.stop()
    extra["total_memory_gb"] = (
        config.num_executors * config.executor_mem_bytes
        + config.num_servers * config.server_mem_bytes
    ) / GB
    return ExperimentRow(
        cell.experiment, cell.system, cell.dataset, cell.label, status,
        sim_s, cell.scale, paper_value=cell.paper, unit=cell.unit,
        wall_seconds=time.perf_counter() - wall0, extra=extra,
    )


def _run_psgraph(cell: Cell, ctx: PSGraphContext, path: Optional[str],
                 data: Tuple[np.ndarray, ...]) -> Dict[str, Any]:
    knobs = dict(cell.knobs)
    drag = knobs.pop("server_drag_s", 0.0)
    if drag:
        ctx.spark.add_task_hook(
            lambda *_: ctx.ps.servers[0].container.clock.advance(drag)
        )
    if cell.algorithm == "GraphSage":
        knobs.update(features=data[2], labels=data[3],
                     num_classes=int(data[3].max()) + 1)
    algo = getattr(algorithms, cell.algorithm)(**knobs)
    engine = ChaosEngine(cell.faults or FaultSchedule(), ctx.spark, ctx.ps)
    if cell.output != "score":
        engine.attach()
    try:
        if path is not None:
            result = GraphRunner(ctx).run(algo, path)
        else:
            result = algo.transform(
                ctx, edges_from_arrays(ctx.spark, data[0], data[1])
            )
        extra: Dict[str, Any] = {"iterations": result.iterations, **{
            k: v for k, v in result.stats.items()
            if isinstance(v, (int, float, list))
        }}
        if "epoch_losses" in extra:
            extra["loss"] = extra["epoch_losses"][-1]
        if cell.output == "score":
            engine.attach()
            extra["edges_scored"] = result.output.count()
        elif cell.output == "ranks":
            extra["ranks_checksum"] = float(
                sum(r[1] for r in result.output.rdd.collect())
            )
    finally:
        engine.detach()
    if cell.faults is not None:
        extra["recoveries"] = ctx.ps.master.recoveries + sum(
            e.container.restarts for e in ctx.spark.executors
        )
    servers = ctx.cluster.num_servers
    extra.update(
        pull_bytes=ctx.metrics.get(PS_PULL_BYTES),
        push_bytes=ctx.metrics.get(PS_PUSH_BYTES),
        congestion=max(1.0, ctx.cluster.num_executors / servers),
    )
    return extra


def _run_graphx(cell: Cell, ctx: SparkContext, _path: Optional[str],
                data: Tuple[np.ndarray, ...]) -> Dict[str, Any]:
    src, dst = data[0], data[1]
    knobs = dict(cell.knobs)
    lost = knobs.pop("lost_supersteps", 0)
    if cell.algorithm == "FastUnfolding":
        fast_unfolding(ctx, src, dst, **knobs)
        return {}
    run = _GRAPHX[cell.algorithm]
    if lost:
        prefix = Graph.from_edges(ctx, src, dst)
        run(prefix, **{**knobs, "max_iterations": lost})
        prefix.unpersist()
        ctx.kill_executor(1, reason="lost supersteps")
        ctx.restart_executor(1)
    out = run(Graph.from_edges(ctx, src, dst), **knobs)
    if cell.output != "ranks":
        return {}
    _ids, ranks, iterations = out
    return {"iterations": iterations, "ranks_checksum": float(ranks.sum())}


def _run_euler(cell: Cell, system: EulerSystem, path: Optional[str],
               data: Tuple[np.ndarray, ...]) -> Dict[str, Any]:
    _src, _dst, features, labels = data
    knobs = dict(cell.knobs)
    prep = system.preprocess(path, features, labels)
    blob = ScriptModule.trace(
        make_sage, in_dim=features.shape[1], hidden=knobs.pop("hidden"),
        num_classes=int(labels.max()) + 1, seed=knobs.pop("seed"),
    )
    stats = system.train_graphsage(blob, **knobs)
    return {"preprocess_sim_time": prep["total_s"],
            "epoch_sim_times": stats["epoch_sim_times"],
            "accuracy": stats["accuracy"]}


_GRAPHX = {"PageRank": gxalgo.pagerank, "CommonNeighbor": gxalgo.common_neighbor,
           "KCore": gxalgo.kcore, "TriangleCount": gxalgo.triangle_count}
_RUNNERS = {"PSGraph": _run_psgraph, "GraphX": _run_graphx,
            "Euler": _run_euler}
