"""Tests for the GraphX baseline, validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.common.batch import modularity
from repro.common.config import ClusterConfig
from repro.common.errors import GraphLoadError, SimulatedOOMError
from repro.common.metrics import SHUFFLE_BYTES_WRITTEN
from repro.dataflow.context import SparkContext
from repro.datasets.generators import community_graph, powerlaw_graph
from repro.graphx.algorithms import (
    attach_neighbor_sets,
    common_neighbor,
    connected_components,
    kcore,
    pagerank,
    triangle_count,
)
from repro.graphx.fast_unfolding import fast_unfolding
from repro.graphx.graph import Graph
from repro.graphx.pregel import pregel
from tests.conftest import make_context, ragged_rows


def small_edges():
    # Two triangles sharing vertex 2, plus a pendant.
    src = np.array([0, 1, 2, 2, 3, 4, 5])
    dst = np.array([1, 2, 0, 3, 4, 2, 0])
    return src, dst


@pytest.fixture
def sc4():
    ctx = make_context(num_executors=4)
    yield ctx
    ctx.stop()


class TestGraphBasics:
    def test_from_edges_counts(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst, num_partitions=3)
        assert sum(len(es) for es, _ed in g.edge_parts) == 7
        assert sum(len(vp.ids) for vp in g.vertex_parts) == 6

    def test_empty_edges_rejected(self, sc4):
        with pytest.raises(GraphLoadError):
            Graph.from_edges(sc4, np.array([]), np.array([]))

    def test_negative_id_rejected(self, sc4):
        with pytest.raises(GraphLoadError):
            Graph.from_edges(sc4, np.array([-1]), np.array([2]))

    def test_resident_memory_charged_and_released(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst)
        used = sum(ex.container.memory.used for ex in sc4.executors)
        assert used > 0
        g.unpersist()
        assert sum(ex.container.memory.used for ex in sc4.executors) == 0

    def test_out_degrees_match_numpy(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst, num_partitions=3)
        msgs = g.out_degrees()
        got = {}
        for ids, vals in msgs:
            got.update(zip(ids.tolist(), vals.tolist()))
        expect = dict(zip(*np.unique(src, return_counts=True)))
        assert got == {k: float(v) for k, v in expect.items()}

    def test_aggregate_messages_shuffles_bytes(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst)
        before = sc4.metrics.get(SHUFFLE_BYTES_WRITTEN)
        g.out_degrees()
        assert sc4.metrics.get(SHUFFLE_BYTES_WRITTEN) > before


def _simple_no_dangling(num_vertices, num_edges, seed):
    """Deduplicated directed edges where every vertex has an out-edge."""
    src, dst = powerlaw_graph(num_vertices, num_edges, seed=seed)
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    src, dst = pairs[:, 0], pairs[:, 1]
    present = np.unique(np.concatenate([src, dst]))
    dangling = np.setdiff1d(present, np.unique(src))
    if len(dangling):
        src = np.concatenate([src, dangling])
        dst = np.concatenate(
            [dst, np.full(len(dangling), int(present[0]))]
        )
    return src, dst


class TestPageRank:
    def test_matches_networkx(self, sc4):
        src, dst = _simple_no_dangling(60, 300, seed=3)
        g = Graph.from_edges(sc4, src, dst, num_partitions=4)
        ids, ranks, _ = pagerank(g, max_iterations=80, tol=1e-12)
        nxg = nx.DiGraph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        expect = nx.pagerank(nxg, alpha=0.85, tol=1e-12, max_iter=500)
        # Our formulation is unnormalized: PR = 0.15 + 0.85*sum; networkx
        # normalizes to sum 1.  Compare after normalization.
        ours = ranks / ranks.sum()
        theirs = np.array([expect[v] for v in ids.tolist()])
        np.testing.assert_allclose(ours, theirs, atol=5e-4)

    def test_matches_reference_power_iteration(self, sc4):
        src, dst = powerlaw_graph(50, 250, seed=33)  # dups + dangling kept
        g = Graph.from_edges(sc4, src, dst, num_partitions=3)
        ids, ranks, iters = pagerank(g, max_iterations=12, tol=1e-15)
        n = int(max(src.max(), dst.max())) + 1
        outdeg = np.maximum(np.bincount(src, minlength=n), 1)
        ref = np.ones(n)
        for _ in range(iters):
            contrib = np.zeros(n)
            np.add.at(contrib, dst, ref[src] / outdeg[src])
            ref = 0.15 + 0.85 * contrib
        np.testing.assert_allclose(ranks, ref[ids], rtol=1e-9)

    def test_converges_early_with_tolerance(self, sc4):
        src, dst = powerlaw_graph(40, 150, seed=4)
        g = Graph.from_edges(sc4, src, dst)
        _ids, _ranks, iters = pagerank(g, max_iterations=100, tol=1e-3)
        assert iters < 100


class TestConnectedComponents:
    def test_two_components(self, sc4):
        src = np.array([0, 1, 5, 6])
        dst = np.array([1, 2, 6, 7])
        g = Graph.from_edges(sc4, src, dst, num_partitions=2)
        ids, comps, _ = connected_components(g)
        by_id = dict(zip(ids.tolist(), comps.tolist()))
        assert by_id[0] == by_id[1] == by_id[2] == 0
        assert by_id[5] == by_id[6] == by_id[7] == 5

    def test_matches_networkx(self, sc4):
        src, dst = powerlaw_graph(50, 120, seed=5)
        g = Graph.from_edges(sc4, src, dst)
        ids, comps, _ = connected_components(g)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        for comp in nx.connected_components(nxg):
            labels = {comps[np.searchsorted(ids, v)] for v in comp}
            assert len(labels) == 1


def _canonical_undirected(src, dst):
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


class TestKCore:
    def test_matches_networkx_core_number(self, sc4):
        raw_src, raw_dst = powerlaw_graph(40, 160, seed=6)
        src, dst = _canonical_undirected(raw_src, raw_dst)
        g = Graph.from_edges(sc4, src, dst)
        ids, cores, _ = kcore(g, max_iterations=60)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        expect = nx.core_number(nxg)
        got = dict(zip(ids.tolist(), cores.tolist()))
        # h-index iteration converges to the core number.
        assert got == {v: expect[v] for v in got}

    def test_kcore_ooms_with_tiny_executors(self):
        ctx = make_context(num_executors=4, executor_mem=120_000)
        try:
            src, dst = powerlaw_graph(200, 3000, seed=7)
            g = Graph.from_edges(ctx, src, dst)
            with pytest.raises(SimulatedOOMError):
                kcore(g, max_iterations=60)
        finally:
            ctx.stop()


class TestTriangles:
    def test_neighbor_sets_are_undirected(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst, num_partitions=2)
        attach_neighbor_sets(g)
        by_id = {v: s.tolist() for vp in g.vertex_parts
                 for v, s in zip(vp.ids.tolist(), ragged_rows(vp.attrs))}
        assert by_id[2] == [0, 1, 3, 4]

    def test_triangle_count_matches_networkx(self, sc4):
        src, dst = powerlaw_graph(40, 200, seed=8)
        g = Graph.from_edges(sc4, src, dst)
        got = triangle_count(g)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        nxg.remove_edges_from(nx.selfloop_edges(nxg))
        expect = sum(nx.triangles(nxg).values()) // 3
        assert got == expect

    def test_common_neighbor_matches_bruteforce(self, sc4):
        src, dst = small_edges()
        g = Graph.from_edges(sc4, src, dst, num_partitions=2)
        got = {(s, d): c for s, d, c in common_neighbor(g, num_chunks=2)}
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        for (s, d), c in got.items():
            expect = len(set(nxg[s]) & set(nxg[d]))
            assert c == expect
        assert len(got) == 7


class TestFastUnfoldingGraphX:
    def test_finds_planted_communities(self, sc4):
        from repro.datasets.generators import community_graph
        from repro.graphx.fast_unfolding import fast_unfolding

        src, dst, truth = community_graph(
            100, 4, avg_degree=12, mixing=0.05, seed=44
        )
        comms, q, rounds = fast_unfolding(
            sc4, src, dst, num_passes=3, max_move_iterations=6
        )
        assert q > 0.5
        assert rounds > 0
        # Same-true-community pairs mostly agree.
        agree = 0
        total = 0
        for c in range(4):
            members = np.flatnonzero(truth == c)
            members = members[np.isin(members,
                                      np.concatenate([src, dst]))]
            if len(members) < 2:
                continue
            vals, counts = np.unique(comms[members], return_counts=True)
            agree += counts.max()
            total += len(members)
        assert agree / total > 0.7

    def test_weighted_two_blobs(self, sc4):
        from repro.graphx.fast_unfolding import fast_unfolding

        src = np.array([0, 1, 2, 3, 4, 5, 2])
        dst = np.array([1, 2, 0, 4, 5, 3, 3])
        w = np.array([5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.1])
        comms, q, _ = fast_unfolding(sc4, src, dst, w, num_passes=2)
        assert comms[0] == comms[1] == comms[2]
        assert comms[3] == comms[4] == comms[5]
        assert q > 0.3


class TestGraphXModularity:
    def test_modularity_matches_networkx(self):
        src, dst, truth = community_graph(
            100, 4, avg_degree=10, mixing=0.1, seed=101
        )
        w = np.ones(len(src))
        q_ours = modularity(truth[src], truth[dst], w)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        comms = [set(np.flatnonzero(truth == c)) & set(nxg.nodes)
                 for c in range(4)]
        comms = [c for c in comms if c]
        q_nx = nx.community.modularity(nxg, comms)
        # Multi-edges make our weighted Q differ slightly from nx's
        # simple-graph Q; they must still agree closely.
        assert q_ours == pytest.approx(q_nx, abs=0.05)

    def test_singleton_partition_has_low_modularity(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        q = modularity(src, dst, np.ones(3))
        assert q < 0.01

    def test_perfect_split_has_high_modularity(self):
        # Two disjoint triangles.
        src = np.array([0, 1, 2, 3, 4, 5])
        dst = np.array([1, 2, 0, 4, 5, 3])
        comms = np.array([0, 0, 0, 1, 1, 1])
        q = modularity(comms[src], comms[dst], np.ones(6))
        assert q == pytest.approx(0.5)

    def test_fast_unfolding_returns_total_mapping(self):
        ctx = SparkContext(ClusterConfig(
            num_executors=3, executor_mem_bytes=1 << 40))
        try:
            src, dst, _ = community_graph(
                60, 3, avg_degree=8, mixing=0.05, seed=102
            )
            comms, q, rounds = fast_unfolding(ctx, src, dst)
            n = int(max(src.max(), dst.max())) + 1
            assert len(comms) == n
            assert q > 0.3
        finally:
            ctx.stop()


class TestPregelCustom:
    def test_max_value_propagation(self):
        ctx = SparkContext(ClusterConfig(
            num_executors=3, executor_mem_bytes=1 << 40))
        try:
            # A path graph; everyone converges to the max id via pregel.
            src = np.arange(0, 9)
            dst = np.arange(1, 10)
            g = Graph.from_edges(ctx, src, dst, num_partitions=3)

            def send(es, ed, sa, da):
                return [(ed, sa), (es, da)]

            def vprog(ids, attrs, mids, mvals):
                new = attrs.copy()
                idx = np.searchsorted(ids, mids)
                new[idx] = np.maximum(new[idx], mvals)
                return new

            ids, attrs, iters = pregel(
                g, lambda ids: ids.astype(np.float64), send, vprog,
                "max", max_iterations=20, tol=0.5,
            )
            assert (attrs == 9).all()
            assert iters <= 11
        finally:
            ctx.stop()
