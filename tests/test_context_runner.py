"""Tests for PSGraphContext, GraphRunner and cross-path consistency."""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.core.algorithms import FastUnfolding, Line, PageRank
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays
from repro.core.runner import GraphRunner
from repro.datasets.generators import community_graph, powerlaw_graph
from repro.datasets.tencent import write_edges


def make_psg(**kwargs):
    cluster = ClusterConfig(
        num_executors=3, executor_mem_bytes=1 << 40,
        num_servers=2, server_mem_bytes=1 << 40,
    )
    return PSGraphContext(cluster, **kwargs)


@pytest.fixture
def psg():
    ctx = make_psg()
    yield ctx
    ctx.stop()


class TestContext:
    def test_context_manager_stops(self):
        with make_psg() as ctx:
            rm = ctx.spark.resource_manager
            assert len(rm._containers) > 0
        assert len(rm._containers) == 0

    def test_stop_releases_what_the_containers_held(self):
        # A stopped context usually stays referenced (a result's lazy
        # frame, a caller's local): it must not pin its data.
        ctx = make_psg()
        src, dst = powerlaw_graph(30, 90, seed=70)
        edges = edges_from_arrays(ctx.spark, src, dst).cache()
        PageRank(max_iterations=2).transform(ctx, edges)
        svc = ctx.spark.shuffle_service
        shuffles = range(ctx.spark.next_shuffle_id())
        assert any(0 in svc._outputs.get(sid, {}) for sid in shuffles)
        assert any(ex._cache for ex in ctx.spark.executors)
        ctx.stop()
        assert not any(0 in svc._outputs.get(sid, {}) for sid in shuffles)
        assert not any(ex._cache for ex in ctx.spark.executors)

    def test_double_stop_is_safe(self):
        ctx = make_psg()
        ctx.stop()
        ctx.stop()

    def test_create_dataframe(self, psg):
        df = psg.create_dataframe([(1, "a")], ["id", "x"])
        assert df.collect() == [{"id": 1, "x": "a"}]

    def test_sync_clocks_aligns_everything(self, psg):
        psg.spark.executors[0].container.clock.advance(3.0)
        psg.ps.servers[1].container.clock.advance(7.0)
        t = psg.sync_clocks()
        assert t >= 7.0
        assert psg.sim_time() >= 7.0

    def test_shared_metrics_and_hdfs(self, psg):
        assert psg.metrics is psg.spark.metrics
        assert psg.hdfs is psg.spark.hdfs

    def test_same_algorithm_twice_gets_unique_matrices(self, psg):
        src, dst = powerlaw_graph(30, 90, seed=71)
        edges = edges_from_arrays(psg.spark, src, dst)
        r1 = PageRank(max_iterations=2).transform(psg, edges)
        r2 = PageRank(max_iterations=2).transform(psg, edges)
        names = psg.ps.matrix_names()
        assert "pagerank" in names
        assert "pagerank-1" in names
        assert r1.output.count() == r2.output.count()


class TestRunner:
    def test_weighted_input_path(self, psg):
        src, dst, _ = community_graph(80, 3, avg_degree=8, seed=72)
        w = np.ones(len(src))
        write_edges(psg.hdfs, "/in/w", src, dst, num_files=3, weights=w)
        result = GraphRunner(psg).run(
            FastUnfolding(num_passes=2), "/in/w", weighted=True
        )
        assert result.stats["modularity"] > 0.2

    def test_missing_input_raises(self, psg):
        with pytest.raises(FileNotFoundError):
            GraphRunner(psg).run(PageRank(), "/does/not/exist")

    def test_output_path_written(self, psg):
        src, dst = powerlaw_graph(30, 90, seed=73)
        write_edges(psg.hdfs, "/in/p", src, dst, num_files=2)
        GraphRunner(psg).run(PageRank(max_iterations=3), "/in/p", "/out/p")
        lines = psg.spark.text_file("/out/p").collect()
        assert len(lines) > 0
        v, _, r = lines[0].partition("\t")
        int(v)
        float(r)


class TestLinePathsAgree:
    def test_psfunc_and_pull_paths_identical(self, psg):
        """Both LINE update paths compute the same math (Sec. IV-D is a
        communication optimization, not an approximation)."""
        src, dst = powerlaw_graph(40, 200, seed=74)
        results = {}
        for use_psfunc in (True, False):
            ctx = make_psg()
            try:
                edges = edges_from_arrays(ctx.spark, src, dst)
                r = Line(dim=8, epochs=2, batch_size=64, seed=99,
                         use_psfunc=use_psfunc).transform(ctx, edges)
                emb = r.stats["embedding"]
                n = int(max(src.max(), dst.max())) + 1
                results[use_psfunc] = (
                    emb.pull_rows(np.arange(n)).copy(),
                    r.stats["epoch_losses"],
                )
            finally:
                ctx.stop()
        vecs_a, loss_a = results[True]
        vecs_b, loss_b = results[False]
        np.testing.assert_allclose(loss_a, loss_b, rtol=1e-5)
        np.testing.assert_allclose(vecs_a, vecs_b, rtol=1e-3, atol=1e-6)
