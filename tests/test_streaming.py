"""Streaming-mutation plane: graph deltas, incremental recompute, cache.

Covers the full stack of the streaming plane:

* ``NeighborTableStore`` / ``PSNeighborTable`` removal paths (including
  the compacted-CSR reopen that used to lose frozen data),
* :class:`~repro.streaming.graph.StreamingGraph` delta semantics,
* incremental PageRank vs the batch pipeline (correctness and the
  <25%-of-full sim-cost acceptance bound),
* incremental connected components across merges, splits and drops,
* dirty-only online embedding refresh,
* the window engine end to end,
* the :class:`~repro.ps.cache.PullCache` indexed-invalidate regression.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MB, ClusterConfig
from repro.common.errors import PSError
from repro.common.metrics import STREAM_WINDOWS
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ingest.mutations import (
    MutationBatch,
    edge_adds,
    edge_dels,
    vertex_dels,
)
from repro.ps.cache import PullCache
from tests.conftest import (
    block_rows,
    embedding_vectors,
    lag,
    reference_delta_pagerank,
    table_block,
)
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    OnlineEmbeddingRefresh,
    StreamingEngine,
    StreamingGraph,
)


def _cluster():
    return ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )


@pytest.fixture()
def ctx():
    c = PSGraphContext(_cluster(), app_name="test-streaming")
    yield c
    c.stop()


def _ids(*vs):
    return np.asarray(vs, dtype=np.int64)


# ---------------------------------------------------------------------------
# PS neighbor-table removal paths
# ---------------------------------------------------------------------------


class TestNeighborTableRemoval:
    def test_remove_subset(self, ctx):
        t = ctx.ps.create_neighbor_table("t", 10)
        t.push(table_block({1: [2, 3, 4]}))
        t.remove(table_block({1: [3]}))
        assert block_rows(t.get(_ids(1))) == [[2, 4]]
        assert t.degrees(_ids(1)).tolist() == [2]

    def test_remove_absent_neighbor_is_noop(self, ctx):
        t = ctx.ps.create_neighbor_table("t", 10)
        t.push(table_block({1: [2]}))
        t.remove(table_block({1: [9]}))
        t.remove(table_block({5: [9]}))  # vertex with no table at all
        assert block_rows(t.get(_ids(1))) == [[2]]

    def test_remove_all_empties_table(self, ctx):
        t = ctx.ps.create_neighbor_table("t", 10)
        t.push(table_block({1: [2, 3]}))
        t.remove(table_block({1: [2, 3]}))
        assert block_rows(t.get(_ids(1))) == [[]]
        assert t.degrees(_ids(1)).tolist() == [0]

    def test_remove_after_compact_keeps_other_rows(self, ctx):
        # Regression: a write against a compacted store once merged
        # against an empty table, silently losing the frozen adjacency.
        t = ctx.ps.create_neighbor_table("t", 10)
        t.push(table_block({1: [3, 4], 2: [5]}))
        t.compact()
        t.remove(table_block({1: [4]}))
        assert block_rows(t.get(_ids(1, 2))) == [[3], [5]]

    def test_drop_vertices(self, ctx):
        t = ctx.ps.create_neighbor_table("t", 10)
        t.push(table_block({1: [3], 2: [4]}))
        t.drop(_ids(1, 7))  # dropping an absent vertex is fine
        assert block_rows(t.get(_ids(1, 2))) == [[], [4]]


# ---------------------------------------------------------------------------
# StreamingGraph delta semantics
# ---------------------------------------------------------------------------


class TestStreamingGraphApply:
    def test_add_dedupes_and_ignores_existing(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0), _ids(1)))
        delta = g.apply(edge_adds(_ids(0, 0, 2), _ids(1, 1, 3)))
        assert delta.num_added == 1  # only (2,3) is new
        assert g.num_edges == 2

    def test_remove_absent_edge_is_noop(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0), _ids(1)))
        delta = g.apply(edge_dels(_ids(4), _ids(5)))
        assert delta.num_removed == 0
        assert g.num_edges == 1

    def test_old_out_snapshots_pre_window_state(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 0), _ids(1, 2)))
        delta = g.apply(edge_adds(_ids(0), _ids(3))
                        + edge_dels(_ids(0), _ids(1)))
        assert delta.old_out.vertices.tolist() == [0]
        assert block_rows(delta.old_out) == [[1, 2]]
        assert block_rows(g.out.get(_ids(0))) == [[2, 3]]

    def test_presence_crossings(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        d1 = g.apply(edge_adds(_ids(0), _ids(1)))
        assert d1.became_present.tolist() == [0, 1]
        d2 = g.apply(edge_dels(_ids(0), _ids(1)))
        assert d2.became_absent.tolist() == [0, 1]
        assert g.present_vertices().tolist() == []

    def test_same_window_add_then_remove(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0), _ids(1))
                + edge_dels(_ids(0), _ids(1)))
        assert g.num_edges == 0
        assert g.present_vertices().tolist() == []

    def test_vertex_drop_removes_both_directions(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 2, 1), _ids(1, 1, 3)))
        delta = g.apply(vertex_dels(_ids(1)))
        assert delta.dropped.tolist() == [1]
        removed = set(zip(delta.removed_src.tolist(),
                          delta.removed_dst.tolist()))
        assert removed == {(0, 1), (2, 1), (1, 3)}
        assert g.num_edges == 0
        # 0, 2, 3 lost their only edge and crossed to absent with it.
        assert g.present_vertices().tolist() == []

    @pytest.mark.parametrize("bad", [
        edge_adds(_ids(3), _ids(12)),
        edge_adds(_ids(0, 5), _ids(4, 6)) + edge_adds(_ids(3), _ids(12)),
        edge_adds(_ids(5), _ids(6)) + edge_dels(_ids(-1), _ids(2)),
        vertex_dels(_ids(1, 10)),
    ], ids=["add", "after-a-valid-run", "negative", "drop"])
    def test_ids_outside_the_vertex_space_apply_nothing(self, ctx, bad):
        # 3 -> 12 used to be stored and 12 reported present.
        g = StreamingGraph(ctx.ps, 10, metrics=ctx.metrics)
        g.apply(edge_adds(_ids(0, 2), _ids(1, 3)))
        before = (ctx.sim_time(), sorted(ctx.metrics.snapshot().items()))
        with pytest.raises(PSError, match="outside"):
            g.apply(bad)
        assert (ctx.sim_time(),
                sorted(ctx.metrics.snapshot().items())) == before
        assert g.num_edges == 2
        assert g.present_vertices().tolist() == [0, 1, 2, 3]
        assert block_rows(g.out.get(np.arange(10))) == [
            [1], [], [3], [], [], [], [], [], [], []]

    def test_metrics_wired(self, ctx):
        g = StreamingGraph(ctx.ps, 10, metrics=ctx.metrics)
        g.apply(edge_adds(_ids(0), _ids(1)))
        assert ctx.metrics.get("streaming.edges.added") == 1


# ---------------------------------------------------------------------------
# incremental PageRank
# ---------------------------------------------------------------------------


def _edge_set(g):
    present = g.present_vertices()
    outs = g.out.get(g.present_vertices())
    return outs.sources(), outs.neighbors


class TestIncrementalPageRank:
    def test_matches_reference_across_windows(self, ctx):
        rng = np.random.default_rng(11)
        src, dst = powerlaw_graph(60, 240, seed=5)
        g = StreamingGraph(ctx.ps, 60)
        g.apply(edge_adds(src, dst))
        pr = IncrementalPageRank(g, tol=1e-10)
        pr.bootstrap()
        for _ in range(3):
            a_s = rng.integers(0, 60, 6)
            a_d = (a_s + 1 + rng.integers(0, 59, 6)) % 60
            cs, cd = _edge_set(g)
            ridx = rng.choice(len(cs), size=4, replace=False)
            delta = g.apply(edge_adds(a_s, a_d)
                            + edge_dels(cs[ridx], cd[ridx]))
            pr.update(delta)
        ids, ranks = pr.ranks()
        cs, cd = _edge_set(g)
        ref_ids, ref_ranks = reference_delta_pagerank(cs, cd, 300)
        assert ids.tolist() == ref_ids.tolist()
        np.testing.assert_allclose(ranks, ref_ranks, atol=1e-6)

    def test_vertex_drop_clears_state(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 1), _ids(1, 2)))
        pr = IncrementalPageRank(g, tol=1e-12)
        pr.bootstrap()
        delta = g.apply(vertex_dels(_ids(2)))
        pr.update(delta)
        ids, ranks = pr.ranks()
        assert 2 not in ids.tolist()
        assert float(pr.state.pull(_ids(2), col=0)[0]) == 0.0

    def test_empty_window_costs_nothing(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0), _ids(1)))
        pr = IncrementalPageRank(g)
        pr.bootstrap()
        t0 = ctx.sim_time()
        stats = pr.update(g.apply(edge_adds(_ids(), _ids())))
        assert stats == {"rounds": 0.0, "pushes": 0.0, "frontier": 0.0}
        assert ctx.sim_time() == t0

    def test_acceptance_incremental_under_quarter_of_full(self, ctx):
        """ISSUE gate: a 1%-edge window costs <25% of a full batch
        recompute on the sim clock, with matching ranks."""
        n, e = 2000, 20000
        src, dst = powerlaw_graph(n, e, seed=3)
        g = StreamingGraph(ctx.ps, n)
        g.apply(edge_adds(src, dst))
        pr = IncrementalPageRank(g, tol=1e-6)
        pr.bootstrap()
        rng = np.random.default_rng(4)
        nm = e // 100  # 1% churn
        ridx = rng.choice(len(src), size=nm // 2, replace=False)
        a_s = rng.integers(0, n, nm - nm // 2)
        a_d = (a_s + 1 + rng.integers(0, n - 1, nm - nm // 2)) % n
        t0 = ctx.sim_time()
        delta = g.apply(edge_adds(a_s, a_d)
                        + edge_dels(src[ridx], dst[ridx]))
        pr.update(delta)
        cost_inc = ctx.sim_time() - t0
        t1 = ctx.sim_time()
        ids_full, ranks_full = pr.full_recompute()
        cost_full = ctx.sim_time() - t1
        assert cost_full > 0
        assert cost_inc < 0.25 * cost_full, (
            f"incremental {cost_inc:.5f}s not < 25% of full "
            f"{cost_full:.5f}s")
        ids_inc, ranks_inc = pr.ranks()
        assert ids_inc.tolist() == ids_full.tolist()
        # Both paths stop at tol-scale residuals; the remaining gap is
        # bounded by the undelivered residual mass (observed ~2e-5).
        np.testing.assert_allclose(ranks_inc, ranks_full, atol=1e-4)


# ---------------------------------------------------------------------------
# incremental connected components
# ---------------------------------------------------------------------------


def _labels(cc):
    ids, labels = cc.assignments()
    return dict(zip(ids.tolist(), labels.tolist()))


class TestIncrementalComponents:
    def test_add_merges_components(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 4), _ids(1, 5)))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        assert cc.num_components() == 2
        cc.update(g.apply(edge_adds(_ids(1), _ids(4))))
        assert cc.num_components() == 1
        assert set(_labels(cc).values()) == {0}

    def test_remove_splits_component(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 1, 2), _ids(1, 2, 3)))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        cc.update(g.apply(edge_dels(_ids(1), _ids(2))))
        labels = _labels(cc)
        assert labels == {0: 0, 1: 0, 2: 2, 3: 2}

    def test_remove_keeping_component_intact(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        # Triangle: removing one edge must not split anything.
        g.apply(edge_adds(_ids(0, 1, 2), _ids(1, 2, 0)))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        cc.update(g.apply(edge_dels(_ids(1), _ids(2))))
        assert set(_labels(cc).values()) == {0}

    def test_vertex_drop_splits_path(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0, 1, 2, 3), _ids(1, 2, 3, 4)))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        cc.update(g.apply(vertex_dels(_ids(2))))
        labels = _labels(cc)
        assert labels == {0: 0, 1: 0, 3: 3, 4: 3}

    def test_split_relabels_side_losing_the_minimum(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        # 5-6 .. 0 .. 7-8 with 0 bridging; removing 0 orphans label 0.
        g.apply(edge_adds(_ids(5, 0, 0, 7), _ids(6, 5, 7, 8)))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        assert set(_labels(cc).values()) == {0}
        cc.update(g.apply(vertex_dels(_ids(0))))
        labels = _labels(cc)
        assert labels == {5: 5, 6: 5, 7: 7, 8: 7}

    def test_random_churn_matches_full_recompute(self, ctx):
        rng = np.random.default_rng(9)
        src, dst = powerlaw_graph(80, 160, seed=2)
        g = StreamingGraph(ctx.ps, 80)
        g.apply(edge_adds(src, dst))
        cc = IncrementalComponents(g)
        cc.bootstrap()
        for _ in range(4):
            a_s = rng.integers(0, 80, 5)
            a_d = (a_s + 1 + rng.integers(0, 79, 5)) % 80
            cs, cd = _edge_set(g)
            ridx = rng.choice(len(cs), size=min(6, len(cs)),
                              replace=False)
            muts = edge_adds(a_s, a_d) + edge_dels(cs[ridx], cd[ridx])
            if rng.random() < 0.5:
                pres = g.present_vertices()
                muts += vertex_dels(pres[[rng.integers(0, len(pres))]])
            cc.update(g.apply(muts))
            ids_i, labs_i = cc.assignments()
            ids_f, labs_f = cc.full_recompute()
            assert ids_i.tolist() == ids_f.tolist()
            assert labs_i.tolist() == labs_f.tolist()


# ---------------------------------------------------------------------------
# online embedding refresh
# ---------------------------------------------------------------------------


class TestOnlineEmbeddingRefresh:
    def test_bootstrap_trains_toward_positive_pairs(self, ctx):
        src, dst = powerlaw_graph(40, 160, seed=6)
        g = StreamingGraph(ctx.ps, 40)
        g.apply(edge_adds(src, dst))
        emb = OnlineEmbeddingRefresh(g, dim=8, epochs=3)
        emb.bootstrap()
        dots = emb.emb.dot(src, dst)
        assert float(dots.mean()) > 0.0

    def test_update_trains_only_dirty_neighborhoods(self, ctx):
        g = StreamingGraph(ctx.ps, 20)
        g.apply(edge_adds(_ids(0, 1, 10, 11), _ids(1, 2, 11, 12)))
        emb = OnlineEmbeddingRefresh(g, dim=4)
        emb.bootstrap()
        before = emb.emb.pull_rows(np.arange(20, dtype=np.int64))
        delta = g.apply(edge_adds(_ids(0), _ids(2)))
        stats = emb.update(delta)
        after = emb.emb.pull_rows(np.arange(20, dtype=np.int64))
        assert stats["trained"] == 2.0  # dirty = {0, 2}
        # The far component's rows move only if sampled as negatives;
        # vertex 0's row must move (it trains on its positive pairs).
        assert not np.allclose(before[0], after[0])

    def test_empty_delta_trains_nothing(self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        g.apply(edge_adds(_ids(0), _ids(1)))
        emb = OnlineEmbeddingRefresh(g, dim=4)
        emb.bootstrap()
        before = emb.emb.pull_rows(_ids(0, 1))
        stats = emb.update(g.apply(edge_adds(_ids(), _ids())))
        assert stats == {"pairs": 0.0, "trained": 0.0}
        np.testing.assert_array_equal(before, emb.emb.pull_rows(_ids(0, 1)))

    @settings(max_examples=40, deadline=None)
    @given(*[st.lists(st.integers(0, 29), min_size=n, max_size=n).map(
        lambda ids: np.asarray(ids, dtype=np.int64)) for n in (40, 40, 8, 8)],
        st.lists(st.integers(0, 29), max_size=4))
    def test_dirty_set_is_touched_intersect_present(self, src, dst, dels,
                                                    adds, drops):
        """The window's retrained vertices: what ``np.intersect1d(
        delta.touched(), graph.present_vertices())`` returned."""
        cluster = ClusterConfig(num_executors=2, executor_mem_bytes=64 * MB,
                                num_servers=2, server_mem_bytes=64 * MB)
        with PSGraphContext(cluster) as c:
            g = StreamingGraph(c.ps, 30)
            g.apply(edge_adds(src, dst))
            emb = OnlineEmbeddingRefresh(g, dim=2)
            trained = []
            emb._train = lambda vertices, salt: trained.append(vertices)
            delta = g.apply(MutationBatch.concat([
                edge_dels(src[dels], dst[dels]),
                edge_adds(adds, adds[::-1]), vertex_dels(drops)]))
            emb.update(delta)
            want = np.intersect1d(delta.touched(), g.present_vertices())
            assert trained[0].dtype == want.dtype
            assert trained[0].tolist() == want.tolist()

    def test_deterministic_across_runs(self):
        def run():
            cluster = ClusterConfig(
                num_executors=2, executor_mem_bytes=128 * MB,
                num_servers=1, server_mem_bytes=128 * MB,
            )
            with PSGraphContext(cluster, app_name="emb-det") as c:
                src, dst = powerlaw_graph(30, 90, seed=1)
                g = StreamingGraph(c.ps, 30)
                g.apply(edge_adds(src, dst))
                emb = OnlineEmbeddingRefresh(g, dim=4)
                emb.bootstrap()
                emb.update(g.apply(edge_adds(_ids(3), _ids(9))))
                return emb.emb.pull_rows(g.present_vertices())

        np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# the window engine
# ---------------------------------------------------------------------------


class TestStreamingEngine:
    def _build(self, ctx, *, with_consumer=False, measure_full=False):
        g = StreamingGraph(ctx.ps, 50, metrics=ctx.metrics)
        consumer = None
        topic = None
        if with_consumer:
            topic = KafkaTopic("muts", num_partitions=2)
            consumer = EdgeStreamConsumer(
                topic, ctx.hdfs, landing_dir="/stream/t",
                metrics=ctx.metrics)
        engine = StreamingEngine(g, consumer, measure_full=measure_full)
        engine.register("pagerank", IncrementalPageRank(g, tol=1e-8))
        engine.register("components", IncrementalComponents(g))
        return g, topic, engine

    def test_direct_feed_window(self, ctx):
        g, _, engine = self._build(ctx)
        engine.run_window(edge_adds(_ids(0, 1), _ids(1, 2)))
        engine.bootstrap()
        report = engine.run_window(edge_adds(_ids(2), _ids(3))
                                   + edge_dels(_ids(0), _ids(1)))
        assert report.edges_added == 1
        assert report.edges_removed == 1
        assert report.cost_incremental_s > 0
        assert report.cost_full_s is None
        assert set(report.algo_stats) == {"pagerank", "components"}
        assert ctx.metrics.get(STREAM_WINDOWS) == 2

    def test_consumer_fed_window(self, ctx):
        g, topic, engine = self._build(ctx, with_consumer=True)
        topic.produce(_ids(0, 1, 2), _ids(1, 2, 3))
        engine.run_window()
        engine.bootstrap()
        topic.produce_removals(_ids(0), _ids(1))
        report = engine.run_window()
        assert report.records == 1
        assert report.edges_removed == 1
        assert g.num_edges == 2

    def test_bad_id_in_a_poll_commits_nothing(self, ctx):
        # The poll used to commit before apply raised, so its valid
        # mutations were dropped with the bad one.
        g = StreamingGraph(ctx.ps, 10, metrics=ctx.metrics)
        topic = KafkaTopic("muts", num_partitions=2)
        consumer = EdgeStreamConsumer(topic, ctx.hdfs, landing_dir="/t",
                                      metrics=ctx.metrics)
        engine = StreamingEngine(g, consumer, measure_full=False)
        topic.produce(_ids(0, 1, 2), _ids(1, 2, 10))
        for _ in range(2):  # a retry replays the same poll
            with pytest.raises(PSError, match=r"ids \[10\] outside"):
                engine.run_window()
            assert lag(consumer) == 3
            assert consumer.offsets == {0: 0, 1: 0}
            assert g.num_edges == 0
            assert ctx.metrics.get("ingest.polls") == 0
            assert not engine.reports

    def test_needs_mutations_or_consumer(self, ctx):
        _, _, engine = self._build(ctx)
        with pytest.raises(ValueError):
            engine.run_window()

    def test_measure_full_reports_ratio(self, ctx):
        g, _, engine = self._build(ctx, measure_full=True)
        engine.run_window(edge_adds(_ids(0, 1, 2, 3), _ids(1, 2, 3, 4)))
        engine.bootstrap()
        report = engine.run_window(edge_adds(_ids(4), _ids(5)))
        assert report.cost_full_s is not None and report.cost_full_s > 0
        assert report.cost_ratio is not None
        summary = engine.summary()
        assert summary["windows"] == 2.0
        assert summary["cost_ratio"] > 0


class TestEngineBootstrapOrder:
    """However register / base window / bootstrap interleave, every
    algorithm must sit at the from-scratch answer — and stay there.

    Regression: the CLI's order (register, base window, ``bootstrap()``)
    seeded PageRank's ``1-d`` twice and doubled every rank.
    """

    N = 60
    #: The benchmark's order, which was right all along.
    REFERENCE = ("window", "register", "bootstrap")
    ORDERS = {
        "cli": ("register", "window"),
        "cli-explicit": ("register", "window", "bootstrap"),
        "doubled": ("window", "register", "bootstrap", "bootstrap"),
    }

    def _run(self, order):
        """``[after base, after mutation windows]`` snapshots, each
        ``(rank ids, ranks, component labels, embedding rows)``."""
        with PSGraphContext(_cluster(), app_name="bootstrap-order") as ctx:
            g = StreamingGraph(ctx.ps, self.N)
            engine = StreamingEngine(g, measure_full=False)
            src, dst = powerlaw_graph(self.N, 300, seed=5)

            def register():
                engine.register("pagerank",
                                IncrementalPageRank(g, tol=1e-10))
                engine.register("components", IncrementalComponents(g))
                engine.register("embedding",
                                OnlineEmbeddingRefresh(g, dim=4))

            steps = {
                "register": register,
                "window": lambda: engine.run_window(edge_adds(src, dst)),
                "bootstrap": engine.bootstrap,
            }
            for step in order:
                steps[step]()
            snaps = [self._checked_snapshot(g, engine)]
            # From scratch on the same graph: a fresh embedding's
            # bootstrap is the batch run the live one must equal.
            fresh = type("Fresh", (OnlineEmbeddingRefresh,),
                         {"embedding_name": "fresh.emb"})(g, dim=4)
            fresh.bootstrap()
            np.testing.assert_array_equal(snaps[0][3], embedding_vectors(fresh)[1])

            rng = np.random.default_rng(11)
            for w in range(3):
                a_s = rng.integers(0, self.N, 6)
                a_d = (a_s + 1 + rng.integers(0, self.N - 1, 6)) % self.N
                cs, cd = _edge_set(g)
                ridx = rng.choice(len(cs), size=4, replace=False)
                muts = edge_adds(a_s, a_d) + edge_dels(cs[ridx], cd[ridx])
                if w == 1:
                    muts += vertex_dels(g.present_vertices()[:1])
                engine.run_window(muts)
            snaps.append(self._checked_snapshot(g, engine))
            return snaps

    @staticmethod
    def _checked_snapshot(g, engine):
        ids, ranks = engine.algos["pagerank"].ranks()
        ref_ids, ref_ranks = reference_delta_pagerank(*_edge_set(g), 300)
        assert ids.tolist() == ref_ids.tolist()
        np.testing.assert_allclose(ranks, ref_ranks, atol=1e-6)
        cc = engine.algos["components"]
        labels = cc.assignments()[1]
        assert labels.tolist() == cc.full_recompute()[1].tolist()
        return ids, ranks, labels, embedding_vectors(engine.algos["embedding"])[1]

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_every_order_matches_from_scratch(self, order):
        got = self._run(self.ORDERS[order])
        want = self._run(self.REFERENCE)
        for (ids, ranks, labels, rows), (w_ids, w_ranks, w_labels,
                                         w_rows) in zip(got, want):
            assert ids.tolist() == w_ids.tolist()
            np.testing.assert_array_equal(ranks, w_ranks)
            assert labels.tolist() == w_labels.tolist()
            np.testing.assert_array_equal(rows, w_rows)

    def test_algorithm_registered_mid_stream_starts_from_whole_graph(
            self, ctx):
        g = StreamingGraph(ctx.ps, 10)
        engine = StreamingEngine(g, measure_full=False)
        engine.run_window(edge_adds(_ids(0, 1), _ids(1, 2)))
        cc = engine.register("components", IncrementalComponents(g))
        engine.run_window(edge_adds(_ids(5), _ids(6)))
        assert _labels(cc) == {0: 0, 1: 0, 2: 0, 5: 5, 6: 5}


# ---------------------------------------------------------------------------
# PullCache indexed invalidation (bugfix regression)
# ---------------------------------------------------------------------------


class TestPullCacheInvalidate:
    def _filled(self, n):
        cache = PullCache(staleness=5)
        keys = np.arange(n, dtype=np.int64)
        values = np.ones((n, 2))
        cache.store(keys, None, values, epoch=0)
        cache.store(keys, 1, values, epoch=0)
        return cache

    def test_invalidate_drops_all_columns_of_written_keys(self):
        cache = self._filled(10)
        assert cache._size == 20
        cache.invalidate(np.asarray([3, 7], dtype=np.int64))
        assert cache._size == 16
        mask, _ = cache.lookup(np.asarray([3]), None, epoch=0)
        assert not mask.any()
        mask, _ = cache.lookup(np.asarray([4]), None, epoch=0)
        assert mask.all()

    def test_invalidate_cost_independent_of_cache_size(self):
        big = self._filled(20000)
        small = self._filled(20)
        key = np.asarray([1], dtype=np.int64)
        val = np.ones((1, 2))

        def bench(cache):
            t0 = time.perf_counter()
            for _ in range(2000):
                cache.invalidate(key)
                cache.store(key, None, val, epoch=0)
            return time.perf_counter() - t0

        bench(small)  # warm both paths
        bench(big)
        t_small = bench(small)
        t_big = bench(big)
        # O(cache size) would make this ~1000x; allow generous jitter.
        assert t_big < 50 * max(t_small, 1e-9)

    def test_eviction_keeps_index_consistent(self):
        cache = PullCache(staleness=5, capacity=3)
        keys = np.arange(5, dtype=np.int64)
        cache.store(keys, None, np.ones((5, 2)), epoch=0)
        assert cache._size == 3
        cache.invalidate(keys)  # evicted keys must not KeyError
        assert cache._size == 0
