"""Tests for the Euler baseline simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig
from repro.core.algorithms.graphsage import make_sage
from repro.core.context import PSGraphContext
from repro.core.ops import load_edges
from repro.datasets.generators import (
    community_graph,
    powerlaw_graph,
    vertex_features,
)
from repro.datasets.tencent import ds3_spec, generate_ds3_gnn, write_edges
from repro.eulersim.euler import EulerSystem, _build_adjacency
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.torchlite.script import ScriptModule
from tests.ledger import pin


def euler_system(num_workers=4):
    cluster = ClusterConfig(
        num_executors=num_workers, executor_mem_bytes=1 << 40
    )
    return EulerSystem(cluster)


def small_task(n=120, classes=3, dim=8, seed=41):
    src, dst, comm = community_graph(
        n, classes, avg_degree=10, mixing=0.05, seed=seed
    )
    feats, labels = vertex_features(comm, dim, classes, noise=0.8,
                                    seed=seed + 1)
    return src, dst, feats, labels


class TestAdjacency:
    def test_build_adjacency_undirected_dedup(self):
        adj = _build_adjacency(np.array([0, 1, 0]), np.array([1, 0, 2]))
        assert adj[0].tolist() == [1, 2]
        assert adj[1].tolist() == [0]
        assert adj[2].tolist() == [0]


    @staticmethod
    def _per_vertex(src, dst):
        """The construction the single sort replaced: np.unique per row."""
        targets = np.concatenate([src, dst])
        others = np.concatenate([dst, src])
        order = np.argsort(targets, kind="stable")
        targets, others = targets[order], others[order]
        uids, starts = np.unique(targets, return_index=True)
        return {int(v): np.unique(c)
                for v, c in zip(uids.tolist(), np.split(others, starts[1:]))}

    def _assert_same(self, src, dst):
        got, expect = _build_adjacency(src, dst), self._per_vertex(src, dst)
        assert list(got) == list(expect)
        assert all(type(v) is int for v in got)
        for v, row in expect.items():
            assert got[v].dtype == np.int64
            assert got[v].tolist() == row.tolist()

    def test_equals_per_vertex_build_on_ds3_smoke(self):
        src, dst, _feats, _labels = generate_ds3_gnn(ds3_spec(5e-4), 32, 5)
        self._assert_same(src, dst)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=40))
    def test_equals_per_vertex_build_with_loops_and_multi_edges(self, edges):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._assert_same(pairs[:, 0], pairs[:, 1])

    def test_rejects_ids_that_would_wrap_a_pair_key(self):
        with pytest.raises(ValueError):
            _build_adjacency(np.array([0]), np.array([2 ** 32]))
        with pytest.raises(ValueError):
            _build_adjacency(np.array([-1]), np.array([3]))


class TestPreprocess:
    def test_passes_are_sequential_and_timed(self):
        sys = euler_system()
        try:
            src, dst, feats, labels = small_task()
            write_edges(sys.hdfs, "/in/euler", src, dst, num_files=4)
            stats = sys.preprocess("/in/euler", feats, labels)
            assert stats["index_mapping_s"] > 0
            assert stats["json_transform_s"] > 0
            assert stats["total_s"] == pytest.approx(
                stats["index_mapping_s"] + stats["json_transform_s"]
                + stats["partition_s"]
            )
        finally:
            sys.stop()

    def test_reads_edge_files_like_psgraph(self):
        # A three-column line keeps its first two columns; a removal
        # marker and a one-column line are skipped, as PSGraph's loader
        # skips them.
        lines = ["0\t1", "1\t2\t0.5", "-e 0 1", "7", "2 3"]
        sys = euler_system()
        try:
            sys.hdfs.write_text("/in/euler/part-0", lines)
            sys.preprocess("/in/euler", np.zeros((4, 2)),
                           np.zeros(4, dtype=np.int64))
            mapped = sys.hdfs.read_pickle("/euler/mapped-edges")
        finally:
            sys.stop()
        with PSGraphContext(ClusterConfig(
                num_executors=2, executor_mem_bytes=1 << 40, num_servers=1,
                server_mem_bytes=1 << 40)) as ctx:
            ctx.hdfs.write_text("/in/e/part-0", lines)
            blocks = load_edges(ctx.spark, "/in/e").collect()
        loaded = sorted((s, d) for b in blocks
                        for s, d in zip(b.src.tolist(), b.dst.tolist()))
        assert loaded == [(0, 1), (1, 2), (2, 3)]
        assert mapped.tolist() == [list(edge) for edge in loaded]

    def test_training_requires_preprocess(self):
        sys = euler_system()
        try:
            blob = ScriptModule.trace(
                make_sage, in_dim=4, hidden=4, num_classes=2
            )
            with pytest.raises(RuntimeError):
                sys.train_graphsage(blob)
        finally:
            sys.stop()


class TestTraining:
    def test_trains_to_reasonable_accuracy(self):
        sys = euler_system()
        try:
            src, dst, feats, labels = small_task()
            write_edges(sys.hdfs, "/in/euler", src, dst, num_files=2)
            sys.preprocess("/in/euler", feats, labels)
            blob = ScriptModule.trace(
                make_sage, in_dim=feats.shape[1], hidden=16,
                num_classes=int(labels.max()) + 1, seed=3,
            )
            stats = sys.train_graphsage(
                blob, epochs=4, batch_size=64, lr=0.05
            )
            assert stats["epoch_losses"][-1] < stats["epoch_losses"][0]
            assert stats["accuracy"] > 0.6
            assert len(stats["epoch_sim_times"]) == 4
            assert all(t > 0 for t in stats["epoch_sim_times"])
        finally:
            sys.stop()


class TestEulerPassBreakdown:
    def test_sequential_pass_proportions(self):
        sys = EulerSystem(ClusterConfig(
            num_executors=4, executor_mem_bytes=1 << 40))
        try:
            src, dst = powerlaw_graph(500, 4000, seed=91)
            write_edges(sys.hdfs, "/in/e", src, dst, num_files=4)
            feats = np.zeros((500, 8), dtype=np.float32)
            labels = np.zeros(500, dtype=np.int64)
            stats = sys.preprocess("/in/e", feats, labels)
            # The paper: ~4h mapping + ~4h JSON + minutes partitioning.
            assert stats["index_mapping_s"] > 10 * stats["partition_s"]
            assert stats["json_transform_s"] > 10 * stats["partition_s"]
            # Same order of magnitude for the two big passes.
            ratio = stats["index_mapping_s"] / stats["json_transform_s"]
            assert 0.2 < ratio < 5
        finally:
            sys.stop()


def pinned_cell(seed):
    """The record of one small preprocess-and-train run: sim time, epoch
    losses and accuracy.  Noisy features and fanouts of 2 keep accuracy
    well below 1, so it moves with the sampled neighbors: the losses and
    accuracy hold every seeded draw of ``train_graphsage`` — the
    train/test split, the epoch order, the batch and the evaluation
    samplers — none of which moves sim time.  An unseeded evaluation
    sampler still lands on the pinned accuracy in about one run in eight,
    hence three cells.  Values held since commit ``ad40a19``.  The Euler
    system takes no tracer, so the record has no spans."""
    sys = euler_system()
    try:
        src, dst, comm = community_graph(600, 3, avg_degree=10,
                                         mixing=0.05, seed=seed)
        feats, labels = vertex_features(comm, 8, 3, noise=4.0, seed=seed)
        write_edges(sys.hdfs, "/in/euler", src, dst, num_files=2)
        sys.preprocess("/in/euler", feats, labels)
        blob = ScriptModule.trace(make_sage, in_dim=8, hidden=8,
                                  num_classes=3, seed=3)
        stats = sys.train_graphsage(blob, epochs=2, batch_size=64, lr=0.05,
                                    fanouts=(2, 2))
        doc = {"sim_s": sys.sim_time(),
               "epoch_losses": stats["epoch_losses"],
               "accuracy": stats["accuracy"]}
    finally:
        sys.stop()
    return run_record(doc, Tracer(), sys.metrics)


PINNED = [(pinned_cell, (seed,)) for seed in (41, 43, 45)]


@pytest.mark.parametrize("seed", [41, 43, 45])
def test_preprocess_and_train_match_pin(seed):
    pin(pinned_cell, seed)
