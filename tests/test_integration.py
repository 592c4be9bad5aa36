"""Integration tests: cross-module flows and PSGraph-vs-GraphX agreement."""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.core.algorithms import (
    CommonNeighbor,
    KCore,
    PageRank,
    TriangleCount,
    common_neighbor_reference,
)
from repro.core.ops import edges_from_arrays
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.dataflow.context import SparkContext
from repro.graphx import algorithms as gxalgo
from repro.graphx.graph import Graph
from tests.conftest import make_psg


@pytest.fixture
def psg():
    ctx = make_psg(4)
    yield ctx
    ctx.stop()


class TestSystemsAgree:
    """PSGraph and GraphX must compute the same answers."""

    def test_pagerank_agrees_across_systems(self, psg):
        src, dst = powerlaw_graph(60, 250, seed=51)
        edges = edges_from_arrays(psg.spark, src, dst)
        ps_result = PageRank(max_iterations=150, tol=1e-9).transform(
            psg, edges
        )
        ps_ranks = {r["vertex"]: r["rank"]
                    for r in ps_result.output.collect()}

        gx = SparkContext(ClusterConfig(
            num_executors=4, executor_mem_bytes=1 << 40))
        try:
            g = Graph.from_edges(gx, src, dst)
            ids, ranks, _ = gxalgo.pagerank(
                g, max_iterations=150, tol=1e-11
            )
            gx_ranks = dict(zip(ids.tolist(), ranks.tolist()))
        finally:
            gx.stop()
        # Same fixed point (the transient iterates differ: delta-
        # accumulation vs power iteration, so compare near convergence).
        assert set(ps_ranks) == set(gx_ranks)
        for v in ps_ranks:
            assert ps_ranks[v] == pytest.approx(gx_ranks[v], rel=1e-5)

    def test_triangle_count_agrees(self, psg):
        src, dst = powerlaw_graph(40, 160, seed=52)
        edges = edges_from_arrays(psg.spark, src, dst)
        ps_count = TriangleCount().transform(psg, edges).stats["triangles"]
        gx = SparkContext(ClusterConfig(
            num_executors=4, executor_mem_bytes=1 << 40))
        try:
            g = Graph.from_edges(gx, src, dst)
            gx_count = gxalgo.triangle_count(g)
        finally:
            gx.stop()
        assert ps_count == gx_count

    def test_kcore_agrees(self, psg):
        raw = powerlaw_graph(40, 140, seed=53)
        lo = np.minimum(raw[0], raw[1])
        hi = np.maximum(raw[0], raw[1])
        keep = lo != hi
        pairs = np.unique(np.stack([lo[keep], hi[keep]], 1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
        edges = edges_from_arrays(psg.spark, src, dst)
        ps = {r["vertex"]: r["coreness"]
              for r in KCore().transform(psg, edges).output.collect()}
        gx = SparkContext(ClusterConfig(
            num_executors=4, executor_mem_bytes=1 << 40))
        try:
            g = Graph.from_edges(gx, src, dst)
            ids, cores, _ = gxalgo.kcore(g, max_iterations=60)
            gxc = dict(zip(ids.tolist(), cores.tolist()))
        finally:
            gx.stop()
        assert ps == gxc


class TestPipelines:
    def test_two_algorithms_share_one_session(self, psg):
        """The Spark-pipeline selling point: stay in one session."""
        src, dst = powerlaw_graph(50, 200, seed=54)
        write_edges(psg.hdfs, "/in/g", src, dst, num_files=4)
        runner = GraphRunner(psg)
        pr = runner.run(PageRank(max_iterations=5), "/in/g", "/out/pr")
        cn = runner.run(CommonNeighbor(), "/in/g", "/out/cn")
        assert pr.output.count() > 0
        assert cn.output.count() == len(src)
        assert len(psg.hdfs.listdir("/out/pr")) > 0
        assert len(psg.hdfs.listdir("/out/cn")) > 0

    def test_metrics_tell_the_papers_story(self, psg):
        """PSGraph moves model traffic via PS, not via shuffle joins."""
        from repro.common.metrics import PS_PULL_BYTES, SHUFFLE_BYTES_WRITTEN

        src, dst = powerlaw_graph(80, 400, seed=56)
        edges = edges_from_arrays(psg.spark, src, dst)
        PageRank(max_iterations=10, tol=0.0).transform(psg, edges)
        pulls = psg.metrics.get(PS_PULL_BYTES)
        shuffle = psg.metrics.get(SHUFFLE_BYTES_WRITTEN)
        # One groupBy shuffle up front; iterations hit only the PS.
        assert pulls > shuffle


class TestFailureIntegration:
    def test_cn_with_server_failure_matches_clean_run(self, psg):
        src, dst = powerlaw_graph(60, 240, seed=57)
        write_edges(psg.hdfs, "/in/f", src, dst, num_files=4)
        runner = GraphRunner(psg)
        result = runner.run(
            CommonNeighbor(checkpoint=True, batch_size=64), "/in/f"
        )
        state = {"n": 0}

        def chaos(_s, _p, kind):
            if kind == "result":
                state["n"] += 1
                if state["n"] == 2:
                    psg.ps.kill_server(0)

        psg.spark.add_task_hook(chaos)
        with_failure = sorted(result.output.collect_tuples())
        psg.spark.remove_task_hook(chaos)
        psg.ps.recover()
        clean = sorted(
            runner.run(CommonNeighbor(batch_size=64), "/in/f")
            .output.collect_tuples()
        )
        assert with_failure == clean
        assert with_failure == sorted(common_neighbor_reference(src, dst))
        assert psg.ps.master.recoveries >= 1

    def test_executor_failure_during_pagerank_iterations(self, psg):
        src, dst = powerlaw_graph(60, 240, seed=58)
        edges = edges_from_arrays(psg.spark, src, dst)
        state = {"n": 0}

        def chaos(_s, _p, kind):
            state["n"] += 1
            if state["n"] == 25:
                psg.spark.kill_executor(2)

        psg.spark.add_task_hook(chaos)
        result = PageRank(max_iterations=8, tol=0.0).transform(psg, edges)
        psg.spark.remove_task_hook(chaos)
        from repro.core.algorithms import reference_delta_pagerank

        ids, ref = reference_delta_pagerank(src, dst, result.iterations)
        got = {r["vertex"]: r["rank"] for r in result.output.collect()}
        for v, r in zip(ids.tolist(), ref.tolist()):
            assert got[v] == pytest.approx(r, rel=1e-9)
        assert psg.spark.executors[2].container.restarts == 1


class TestChaosSchedule:
    def test_rules_fire_once_and_job_survives(self, psg):
        from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec

        src, dst = powerlaw_graph(60, 240, seed=59)
        write_edges(psg.hdfs, "/in/cm", src, dst, num_files=4)
        runner = GraphRunner(psg)
        result = runner.run(
            CommonNeighbor(checkpoint=True, batch_size=64), "/in/cm"
        )
        schedule = FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=1),
            FaultSpec("kill_server", index=0, after_tasks=2),
        ])
        with ChaosEngine(schedule, psg.spark, psg.ps) as engine:
            count = result.output.count()
            assert count == 240
            assert len(engine.fired) == 2
            # Re-running inside the block fires nothing further.
            result.output.count()
            assert len(engine.fired) == 2

    def test_hook_removed_on_exit(self, psg):
        from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec

        schedule = FaultSchedule(
            [FaultSpec("kill_executor", index=0, after_tasks=1)])
        with ChaosEngine(schedule, psg.spark, psg.ps) as engine:
            pass
        psg.spark.parallelize(range(4)).count()
        assert engine.fired == []  # detached: no kills outside the block


class TestDeterminism:
    def test_sim_time_is_reproducible(self):
        """The cost model is deterministic: identical runs, identical
        simulated times (a regression lock on the calibration)."""
        from dataclasses import replace

        from repro.experiments.cells import run_cell
        from repro.experiments.figure6 import CELLS

        cell = replace(CELLS[0], scale=5e-7)  # PageRank DS1 PSGraph
        a, b = run_cell(cell), run_cell(cell)
        assert a.sim_seconds == b.sim_seconds
        assert a.extra == b.extra

    def test_algorithm_outputs_reproducible(self, psg):
        src, dst = powerlaw_graph(50, 200, seed=60)
        edges = edges_from_arrays(psg.spark, src, dst)
        r1 = PageRank(max_iterations=8).transform(psg, edges)
        r2 = PageRank(max_iterations=8).transform(psg, edges)
        assert sorted(r1.output.collect_tuples()) == \
            sorted(r2.output.collect_tuples())
