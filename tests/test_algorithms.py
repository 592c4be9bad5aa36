"""Correctness tests for the PSGraph algorithms (vs references/networkx)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.metrics import (
    PS_PULL_BYTES,
    PS_PUSH_BYTES,
    RPC_CALLS,
)
from repro.common.rng import make_rng
from repro.core.algorithms import (
    CommonNeighbor,
    FastUnfolding,
    KCore,
    LabelPropagation,
    Line,
    PageRank,
    TriangleCount,
    link_prediction_score,
)
from repro.core.blocks import EdgeBlock
from repro.core.ops import edges_from_arrays
from repro.core.runner import GraphRunner
from repro.datasets.generators import community_graph, powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.ps.matrix import PSVector
from tests.conftest import (
    common_neighbor_reference,
    digest,
    make_psg,
    reference_delta_pagerank,
)
from tests.ledger import pin


LINE_CELLS = [(1, True), (1, False), (2, True), (2, False)]


def _awkward_graph(self_loops=True):
    """A clique, a hub whose leaves touch nothing else, duplicate and
    reversed edges, and (optionally) self-loops on clique and hub."""
    clique = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    star = [(10, leaf) for leaf in range(11, 31)]
    edges = clique + star + clique[:4] + [(b, a) for a, b in clique[2:6]]
    edges += [(4, 10), (10, 4)]
    if self_loops:
        edges += [(2, 2), (10, 10), (2, 2)]
    src, dst = np.asarray(edges, dtype=np.int64).T
    return src, dst


def _with_empty_partition(psg, src, dst):
    """Edge blocks with an edgeless partition in the middle."""
    half = len(src) // 2
    empty = np.empty(0, dtype=np.int64)
    return psg.spark.parallelize([
        EdgeBlock(src[:half], dst[:half]), EdgeBlock(empty, empty),
        EdgeBlock(src[half:], dst[half:]),
    ], 3)


class TestPageRank:
    def test_matches_reference_exactly(self, psg):
        src, dst = powerlaw_graph(60, 250, seed=11)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = PageRank(max_iterations=15, tol=0.0).transform(psg, edges)
        got = {r["vertex"]: r["rank"] for r in result.output.collect()}
        ids, ranks = reference_delta_pagerank(src, dst, result.iterations)
        assert set(got) == set(ids.tolist())
        for v, r in zip(ids.tolist(), ranks.tolist()):
            assert got[v] == pytest.approx(r, rel=1e-9)

    def test_converges_under_tolerance(self, psg):
        src, dst = powerlaw_graph(50, 200, seed=12)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = PageRank(max_iterations=100, tol=1e-6).transform(
            psg, edges
        )
        assert result.iterations < 100
        assert result.stats["residual"] <= 1e-6 * 51

    def test_agrees_with_networkx_after_normalization(self, psg):
        # Simple graph without dangling vertices.
        rng = make_rng(13)
        n = 40
        src = np.repeat(np.arange(n), 3)
        dst = rng.integers(0, n, size=3 * n)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        pairs = np.unique(np.stack([src, dst], 1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
        edges = edges_from_arrays(psg.spark, src, dst)
        result = PageRank(max_iterations=100, tol=1e-12).transform(
            psg, edges
        )
        got = {r["vertex"]: r["rank"] for r in result.output.collect()}
        nxg = nx.DiGraph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        expect = nx.pagerank(nxg, alpha=0.85, tol=1e-12, max_iter=500)
        total = sum(got.values())
        for v, r in got.items():
            assert r / total == pytest.approx(expect[v], abs=1e-4)

    def test_delta_pagerank_cheaper_than_full_pull(self, psg):
        # Late iterations pull/push near-zero deltas; the pull volume per
        # iteration must not grow (sanity of the sparsity argument).
        src, dst = powerlaw_graph(80, 400, seed=14)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = PageRank(max_iterations=25, tol=0.0).transform(psg, edges)
        assert result.iterations == 25
        # Residual decays ~ damping^k: far below the initial sum (~0.15*n).
        assert result.stats["residual"] < 0.15 * 80 * 0.85 ** 20


class TestKCore:
    def test_matches_networkx(self, psg):
        raw = powerlaw_graph(50, 220, seed=15)
        lo = np.minimum(raw[0], raw[1])
        hi = np.maximum(raw[0], raw[1])
        keep = lo != hi
        pairs = np.unique(np.stack([lo[keep], hi[keep]], 1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
        edges = edges_from_arrays(psg.spark, src, dst)
        result = KCore(max_iterations=80).transform(psg, edges)
        got = {r["vertex"]: r["coreness"] for r in result.output.collect()}
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        expect = nx.core_number(nxg)
        assert got == expect

    def test_duplicate_edges_do_not_inflate_core(self, psg):
        src = np.array([0, 0, 0, 1])
        dst = np.array([1, 1, 1, 2])
        edges = edges_from_arrays(psg.spark, src, dst)
        result = KCore().transform(psg, edges)
        got = {r["vertex"]: r["coreness"] for r in result.output.collect()}
        assert got == {0: 1, 1: 1, 2: 1}


class TestCommonNeighbor:
    def test_matches_reference(self, psg):
        src, dst = powerlaw_graph(40, 150, seed=16)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = CommonNeighbor(batch_size=32).transform(psg, edges)
        got = {(r["src"], r["dst"]): r["common"]
               for r in result.output.collect()}
        for s, d, c in common_neighbor_reference(src, dst):
            assert got[(s, d)] == c

    @pytest.mark.parametrize("batch_size", [7, 4096])
    def test_awkward_graph_matches_reference(self, psg, batch_size):
        src, dst = _awkward_graph()
        result = CommonNeighbor(batch_size=batch_size).transform(
            psg, _with_empty_partition(psg, src, dst))
        assert sorted(result.output.collect_tuples()) == sorted(
            common_neighbor_reference(src, dst))

    def test_golden_sim_metrics(self):
        pin(common_neighbor_metering)

    def test_pulls_from_ps(self, psg):
        src, dst = powerlaw_graph(30, 80, seed=17)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = CommonNeighbor().transform(psg, edges)
        before = psg.metrics.get(PS_PULL_BYTES)
        result.output.count()
        assert psg.metrics.get(PS_PULL_BYTES) > before


class TestTriangleCount:
    def test_matches_networkx(self, psg):
        src, dst = powerlaw_graph(40, 200, seed=18)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = TriangleCount(batch_size=16).transform(psg, edges)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        nxg.remove_edges_from(nx.selfloop_edges(nxg))
        expect = sum(nx.triangles(nxg).values()) // 3
        assert result.stats["triangles"] == expect

    @pytest.mark.parametrize("batch_size", [5, 4096])
    def test_duplicates_hub_and_empty_partition(self, psg, batch_size):
        src, dst = _awkward_graph(self_loops=False)
        result = TriangleCount(batch_size=batch_size).transform(
            psg, _with_empty_partition(psg, src, dst))
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        assert result.stats["triangles"] == sum(
            nx.triangles(nxg).values()) // 3

    def test_self_loops_count_as_neighbors(self, psg):
        # A self-loop puts v in its own table (the set semantics of
        # common_neighbor_reference), so it closes every incident edge.
        src, dst = _awkward_graph()
        result = TriangleCount(batch_size=5).transform(
            psg, edges_from_arrays(psg.spark, src, dst))
        canonical = {(min(s, d), max(s, d))
                     for s, d in zip(src.tolist(), dst.tolist()) if s != d}
        overlap = {(min(s, d), max(s, d)): c
                   for s, d, c in common_neighbor_reference(src, dst)}
        assert result.stats["closure_sum"] == sum(
            overlap[e] for e in canonical)

    def test_triangle_free_graph(self, psg):
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 4])
        edges = edges_from_arrays(psg.spark, src, dst)
        result = TriangleCount().transform(psg, edges)
        assert result.stats["triangles"] == 0


class TestFastUnfolding:
    def test_finds_planted_communities(self, psg):
        src, dst, truth = community_graph(
            120, 4, avg_degree=12, mixing=0.05, seed=19
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = FastUnfolding(num_passes=3).transform(psg, edges)
        assert result.stats["modularity"] > 0.5
        got = {r["vertex"]: r["community"]
               for r in result.output.collect()}
        # Most pairs in the same true community share a detected one.
        members = {}
        for v, c in got.items():
            members.setdefault(truth[v], []).append(c)
        agree = 0
        total = 0
        for vals in members.values():
            vals = np.asarray(vals)
            _ids, counts = np.unique(vals, return_counts=True)
            agree += counts.max()
            total += len(vals)
        assert agree / total > 0.7

    def test_modularity_at_least_competitive_with_networkx(self, psg):
        src, dst, _ = community_graph(
            80, 3, avg_degree=10, mixing=0.1, seed=20
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = FastUnfolding(num_passes=3).transform(psg, edges)
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        comms = nx.community.louvain_communities(nxg, seed=1)
        q_nx = nx.community.modularity(nxg, comms)
        # Allow some slack: ours is the distributed/stale variant.
        assert result.stats["modularity"] > q_nx - 0.12

    def test_weighted_input(self, psg):
        src = np.array([0, 1, 2, 3, 0])
        dst = np.array([1, 2, 0, 4, 3])
        w = np.array([5.0, 5.0, 5.0, 5.0, 0.1])
        edges = edges_from_arrays(psg.spark, src, dst, weight=w)
        result = FastUnfolding().transform(psg, edges)
        got = {r["vertex"]: r["community"]
               for r in result.output.collect()}
        assert got[0] == got[1] == got[2]
        assert got[3] == got[4]

    def test_weight_deltas_are_pushed_per_move_in_block_order(
            self, psg, monkeypatch):
        """Each block's ``com2weight`` push is ``(own, new)`` key pairs with
        ``(-k, +k)`` deltas, one pair per moved vertex in the order the
        block's ``vertex2com`` write lists them: the server adds float
        deltas in arrival order, so this order is part of the answer."""
        calls = []
        for op in ("push", "set"):
            def record(vec, keys, values, _op=op,
                       _real=getattr(PSVector, op)):
                calls.append((_op, vec.name, keys.copy(), values.copy()))
                _real(vec, keys, values)
            monkeypatch.setattr(PSVector, op, record)
        src, dst, _ = community_graph(80, 3, avg_degree=8, mixing=0.1,
                                      seed=23)
        w = np.random.default_rng(3).uniform(0.25, 4.0, len(src))
        FastUnfolding(num_passes=1, max_move_iterations=2).transform(
            psg, edges_from_arrays(psg.spark, src, dst, weight=w))
        moves = [(a, b) for a, b in zip(calls, calls[1:])
                 if a[:2] == ("set", b[1].replace("com2weight",
                                                  "vertex2com"))
                 and b[0] == "push" and len(b[2]) == 2 * len(a[2])]
        assert len(moves) > 1
        for (_s, _n, _vertices, new), (_p, _m, keys, deltas) in moves:
            assert keys[1::2].tolist() == new.tolist()
            assert np.array_equal(deltas[0::2], -deltas[1::2])
            assert (deltas[1::2] > 0).all()

    @given(st.data())
    def test_aggregate_is_the_dict_left_fold(self, data):
        """Community aggregation keeps each reduce partition's pair keys in
        first-seen order with weights bit-equal to the boxed pipeline's:
        per block a fold in key order, per map task and per reduce task a
        dict left fold in arrival order."""
        from repro.core.algorithms.fast_unfolding import _aggregate
        from tests.conftest import make_context

        n = data.draw(st.integers(1, 6))
        mapping = np.asarray(data.draw(st.lists(
            st.integers(0, data.draw(st.integers(0, n - 1))),
            min_size=n, max_size=n)), dtype=np.int64)
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.floats(0.0, 1e6))
        blocks = [
            EdgeBlock(np.asarray([e[0] for e in edges], dtype=np.int64),
                      np.asarray([e[1] for e in edges], dtype=np.int64),
                      np.asarray([e[2] for e in edges], dtype=np.float64))
            for edges in data.draw(st.lists(st.lists(edge, max_size=8),
                                            max_size=8))]
        p = data.draw(st.integers(1, 4))
        stride = n + 1

        def fold(acc, pairs):
            for key, weight in pairs:
                acc[key] = acc[key] + weight if key in acc else weight
            return acc

        map_outputs = []
        for mp in range(p):  # partition mp holds blocks[mp::p], maybe none
            combined = {}
            for b in blocks[mp::p]:
                keys = (mapping[b.src] * stride + mapping[b.dst]).tolist()
                sums = fold({}, zip(keys, b.weight.tolist()))
                fold(combined, sorted(sums.items()))
            map_outputs.append(combined)
        ctx = make_context(num_executors=2)
        try:
            got = _aggregate(ctx.parallelize(blocks, p), mapping).collect()
        finally:
            ctx.stop()
        assert len(got) == p
        for r, block in enumerate(got):
            want = {}
            for combined in map_outputs:
                fold(want, ((k, w) for k, w in combined.items()
                            if k % p == r))
            assert (block.src * stride + block.dst).tolist() == list(want)
            assert block.weight.tolist() == list(want.values())


class TestLabelPropagation:
    def test_detects_two_cliques(self, psg):
        # Two 5-cliques joined by one edge.
        edges_list = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges_list.append((base + i, base + j))
        edges_list.append((4, 5))
        src = np.array([e[0] for e in edges_list])
        dst = np.array([e[1] for e in edges_list])
        edges = edges_from_arrays(psg.spark, src, dst)
        result = LabelPropagation(max_iterations=20).transform(psg, edges)
        got = {r["vertex"]: r["label"] for r in result.output.collect()}
        assert len({got[v] for v in range(5)}) == 1
        assert len({got[v] for v in range(5, 10)}) == 1


class TestLine:
    def test_loss_decreases(self, psg):
        src, dst, _ = community_graph(
            60, 3, avg_degree=8, mixing=0.05, seed=21
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = Line(dim=8, epochs=4, lr=0.1, negative=3).transform(
            psg, edges
        )
        losses = result.stats["epoch_losses"]
        assert losses[-1] < losses[0]

    def test_embeddings_capture_structure(self, psg):
        src, dst, _ = community_graph(
            60, 3, avg_degree=10, mixing=0.03, seed=22
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = Line(dim=16, epochs=6, lr=0.15, negative=5,
                      order=1).transform(psg, edges)
        emb = result.stats["embedding"]
        n = 60
        vecs = emb.pull_rows(np.arange(n))
        score = link_prediction_score(vecs, src, dst, make_rng(1))
        assert score > 0.7

    def test_output_schema(self, psg):
        src, dst = powerlaw_graph(20, 60, seed=23)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = Line(dim=4, epochs=1).transform(psg, edges)
        assert result.output.columns == ["vertex", "e0", "e1", "e2", "e3"]

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Line(order=3)

    # The ids are the names these cells have always run under (each once
    # asserted the sha256 of the embedding that its ledger line now holds).
    @pytest.mark.parametrize("order,use_psfunc", LINE_CELLS, ids=[
        "1-True-8c2ade36d59f1af1", "1-False-375cc40510f58eda",
        "2-True-54895f666163a25b", "2-False-210e6c49a1ebbd3d"])
    def test_final_embedding_is_pinned(self, order, use_psfunc):
        pin(line_embedding, order, use_psfunc)


class TestRunner:
    def test_end_to_end_pagerank_via_hdfs(self, psg):
        src, dst = powerlaw_graph(30, 90, seed=24)
        write_edges(psg.hdfs, "/in/pr", src, dst, num_files=3)
        runner = GraphRunner(psg)
        result = runner.run(
            PageRank(max_iterations=5), "/in/pr", "/out/pr"
        )
        assert result.iterations == 5
        saved = psg.spark.text_file("/out/pr").collect()
        assert len(saved) == len(result.output.collect())


class TestConnectedComponents:
    def test_matches_networkx(self, psg):
        from repro.core.algorithms import ConnectedComponents

        src, dst = powerlaw_graph(50, 120, seed=61)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = ConnectedComponents().transform(psg, edges)
        got = {r["vertex"]: r["component"]
               for r in result.output.collect()}
        nxg = nx.Graph()
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        for comp in nx.connected_components(nxg):
            labels = {got[v] for v in comp}
            assert len(labels) == 1
            assert min(labels) == min(comp)

    def test_two_islands(self, psg):
        from repro.core.algorithms import ConnectedComponents

        src = np.array([0, 1, 10, 11])
        dst = np.array([1, 2, 11, 12])
        edges = edges_from_arrays(psg.spark, src, dst)
        result = ConnectedComponents().transform(psg, edges)
        assert result.stats["num_components"] == 2


class TestDeepWalk:
    def test_loss_decreases_and_structure_captured(self, psg):
        from repro.core.algorithms import DeepWalk

        src, dst, _ = community_graph(
            60, 3, avg_degree=10, mixing=0.03, seed=62
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = DeepWalk(
            dim=16, walk_length=6, walks_per_vertex=3, window=2,
            epochs=4, lr=0.05,
        ).transform(psg, edges)
        losses = result.stats["epoch_losses"]
        assert losses[-1] < losses[0]
        emb = result.stats["embedding"]
        vecs = emb.pull_rows(np.arange(60))
        score = link_prediction_score(vecs, src, dst, make_rng(2))
        assert score > 0.65

    def test_walks_stay_on_graph(self, psg):
        from repro.core.algorithms.deepwalk import _sample_walks
        from repro.core.ops import (
            push_neighbor_tables,
            to_neighbor_tables,
        )

        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        edges = edges_from_arrays(psg.spark, src, dst)
        adj = psg.ps.create_neighbor_table("walk-adj", 3)
        push_neighbor_tables(
            to_neighbor_tables(edges, symmetric=True, dedupe=True), adj
        )
        walks = _sample_walks(
            adj, np.array([0, 1, 2]), length=5, per_vertex=2,
            rng=np.random.default_rng(0),
        )
        assert walks.shape == (6, 5)
        # Every consecutive pair is an edge of the triangle.
        for row in walks:
            for a, b in zip(row[:-1], row[1:]):
                assert abs(int(a) - int(b)) in (1, 2)

    def test_skipgram_pairs_window(self):
        from repro.core.algorithms.deepwalk import _skipgram_pairs

        walks = np.array([[1, 2, 3]])
        c, t = _skipgram_pairs(walks, window=1)
        pairs = set(zip(c.tolist(), t.tolist()))
        assert pairs == {(1, 2), (2, 1), (2, 3), (3, 2)}


class TestGraphSageAggregators:
    def test_pool_aggregator_trains(self, psg):
        from repro.core.algorithms import GraphSage
        from repro.datasets.generators import vertex_features

        src, dst, comm = community_graph(
            150, 3, avg_degree=10, mixing=0.05, seed=63
        )
        feats, labels = vertex_features(comm, 8, 3, noise=0.8, seed=64)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = GraphSage(
            feats, labels, hidden=16, epochs=3, batch_size=64, lr=0.05,
            aggregator="pool",
        ).transform(psg, edges)
        assert result.stats["accuracy"] > 0.6

    def test_unknown_aggregator_rejected(self):
        from repro.core.algorithms.graphsage import SageNet

        with pytest.raises(ValueError):
            SageNet(4, 4, 2, aggregator="gru")


# ----------------------------------------------------------------------
# ledger-pinned runs
# ----------------------------------------------------------------------

def common_neighbor_metering():
    """The record of a fixed CommonNeighbor run with a checkpoint: rows
    scored, and the sim clock and PS metering after it, to the last bit at
    the values the per-vertex list path charged: the block path moves the
    same bytes in the same calls."""
    psg = make_psg(tracer=Tracer())
    try:
        src, dst = powerlaw_graph(40, 150, seed=16)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = CommonNeighbor(batch_size=32, checkpoint=True).transform(
            psg, edges)
        rows = len(result.output.collect_tuples())
        psg.sync_clocks()
        doc = {"rows": rows, "sim_s": psg.sim_time(),
               "pull_bytes": psg.metrics.get(PS_PULL_BYTES),
               "push_bytes": psg.metrics.get(PS_PUSH_BYTES),
               "rpc_calls": psg.metrics.get(RPC_CALLS),
               # Compacted tables checkpoint as {"csr": (vertices, indptr,
               # indices)}.
               "checkpoint_bytes": psg.metrics.get("ps.checkpoint.bytes")}
    finally:
        psg.stop()
    return run_record(doc, psg.tracer, psg.metrics)


def line_embedding(order, use_psfunc):
    """The record of a LINE run: every bit of the trained embedding (three
    servers, so dim 8 is sharded 3 + 3 + 2).  A change that reorders one
    float add lands here; so can a numpy whose ``exp`` rounds differently
    — check tests/test_batch.py and tests/test_ps_storage.py before
    re-pinning."""
    psg = make_psg(num_servers=3, tracer=Tracer())
    try:
        src, dst, _ = community_graph(
            60, 3, avg_degree=8, mixing=0.05, seed=21
        )
        edges = edges_from_arrays(psg.spark, src, dst)
        result = Line(dim=8, order=order, epochs=2, lr=0.1, negative=3,
                      batch_size=64, use_psfunc=use_psfunc
                      ).transform(psg, edges)
        emb = result.stats["embedding"]
        rows = emb.pull_rows(np.arange(emb.shape[0]))
        doc = {"embedding": digest(rows)}
    finally:
        psg.stop()
    return run_record(doc, psg.tracer, psg.metrics)


PINNED = [(common_neighbor_metering, ())] + [(line_embedding, cell)
                                             for cell in LINE_CELLS]
