"""Tests for PSGraph GraphSage (model + distributed training)."""

import numpy as np
import pytest

from repro.core.algorithms.graphsage import GraphSage, SageNet, make_sage
from repro.core.ops import edges_from_arrays
from repro.datasets.generators import community_graph, vertex_features
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.torchlite.script import ScriptModule
from repro.torchlite.tensor import Tensor
from tests.conftest import make_psg
from tests.ledger import pin

LOSS_CELLS = [("mean", None), ("pool", None), ("lstm", (5, 3))]


def small_task(n=150, classes=3, dim=8, seed=31):
    src, dst, comm = community_graph(
        n, classes, avg_degree=10, mixing=0.05, seed=seed
    )
    feats, labels = vertex_features(comm, dim, classes, noise=0.8,
                                    seed=seed + 1)
    return src, dst, feats, labels


class TestSageNet:
    def test_forward_shapes(self):
        model = SageNet(in_dim=4, hidden=8, num_classes=3, seed=0)
        x_b = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        x_n1 = Tensor(np.random.default_rng(1).standard_normal((15, 4)))
        seg1 = np.repeat(np.arange(5), 3)
        x_n2 = Tensor(np.random.default_rng(2).standard_normal((30, 4)))
        seg2 = np.repeat(np.arange(15), 2)
        out = model(x_b, x_n1, seg1, x_n2, seg2)
        assert out.shape == (5, 3)

    def test_gradients_flow_to_both_layers(self):
        model = SageNet(in_dim=3, hidden=4, num_classes=2, seed=1)
        x_b = Tensor(np.ones((2, 3)))
        x_n1 = Tensor(np.ones((4, 3)))
        x_n2 = Tensor(np.ones((8, 3)))
        out = model(x_b, x_n1, np.array([0, 0, 1, 1]),
                    x_n2, np.repeat(np.arange(4), 2))
        out.sum().backward()
        for _name, p in model.named_parameters():
            assert p.grad is not None

    def test_scriptmodule_roundtrip(self):
        blob = ScriptModule.trace(
            make_sage, in_dim=4, hidden=8, num_classes=3, seed=7
        )
        m1 = blob.instantiate()
        m2 = ScriptModule.from_bytes(blob.to_bytes()).instantiate()
        x_b = Tensor(np.ones((2, 4)))
        x_n1 = Tensor(np.ones((4, 4)))
        x_n2 = Tensor(np.ones((8, 4)))
        seg1 = np.array([0, 0, 1, 1])
        seg2 = np.repeat(np.arange(4), 2)
        np.testing.assert_allclose(
            m1(x_b, x_n1, seg1, x_n2, seg2).data,
            m2(x_b, x_n1, seg1, x_n2, seg2).data,
        )


class TestGraphSageTraining:
    def test_accuracy_beats_chance_and_loss_drops(self, psg):
        src, dst, feats, labels = small_task()
        edges = edges_from_arrays(psg.spark, src, dst)
        algo = GraphSage(
            feats, labels, hidden=16, epochs=4, batch_size=64, lr=0.05,
        )
        result = algo.transform(psg, edges)
        losses = result.stats["epoch_losses"]
        assert losses[-1] < losses[0]
        assert result.stats["accuracy"] > 0.6  # chance is ~1/3

    def test_preprocess_time_recorded(self, psg):
        src, dst, feats, labels = small_task(n=80)
        edges = edges_from_arrays(psg.spark, src, dst)
        algo = GraphSage(feats, labels, hidden=8, epochs=1, batch_size=32)
        result = algo.transform(psg, edges)
        assert result.stats["preprocess_sim_time"] > 0
        assert len(result.stats["epoch_sim_times"]) == 1

    def test_output_row(self, psg):
        src, dst, feats, labels = small_task(n=60)
        edges = edges_from_arrays(psg.spark, src, dst)
        algo = GraphSage(feats, labels, hidden=8, epochs=1, batch_size=32,
                         train_fraction=0.5)
        result = algo.transform(psg, edges)
        row = result.output.collect()[0]
        assert row["train_nodes"] + row["test_nodes"] <= 60
        assert 0.0 <= row["accuracy"] <= 1.0


class TestPinnedLosses:
    # The ids are the names these cells have always run under.
    @pytest.mark.parametrize("aggregator,fanouts", LOSS_CELLS, ids=[
        "mean-kwargs0-losses0", "pool-kwargs1-losses1",
        "lstm-kwargs2-losses2"])
    def test_epoch_losses_are_pinned(self, aggregator, fanouts):
        pin(epoch_losses, aggregator, fanouts)


class TestLstmAggregator:
    def test_lstm_aggregator_trains(self, psg):
        from repro.datasets.generators import community_graph, vertex_features
        from repro.core.ops import edges_from_arrays

        src, dst, comm = community_graph(
            120, 3, avg_degree=10, mixing=0.05, seed=65
        )
        feats, labels = vertex_features(comm, 8, 3, noise=0.8, seed=66)
        edges = edges_from_arrays(psg.spark, src, dst)
        result = GraphSage(
            feats, labels, hidden=12, epochs=3, batch_size=64, lr=0.03,
            fanouts=(5, 3), aggregator="lstm",
        ).transform(psg, edges)
        assert result.stats["accuracy"] > 0.55

    def test_lstm_requires_uniform_sequences(self):
        from repro.core.algorithms.graphsage import SageNet
        from repro.torchlite import Tensor

        model = SageNet(4, 4, 2, aggregator="lstm")
        with pytest.raises(ValueError):
            # 5 neighbor rows over 2 segments: not uniform.
            model._agg(Tensor(np.ones((5, 4))),
                       np.array([0, 0, 0, 1, 1]), 2, level=1)


class TestSamplingDraws:
    """GraphSage's and the Euler sim's per-vertex draws are the draws of
    the per-row forms they replaced: same ``rng.choice`` calls, same
    arguments, same order (an empty row draws from ``[v]`` in GraphSage
    and does not draw in Euler)."""

    @staticmethod
    def _rows(rng, n):
        lens = rng.integers(0, 8, n) * (rng.random(n) > 0.2)
        nbrs = [np.sort(rng.choice(50, int(k), replace=False)) for k in lens]
        return {v: row for v, row in zip(range(n), nbrs)}

    @pytest.mark.parametrize("pad", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_graphsage_sample(self, seed, pad):
        from types import SimpleNamespace

        from repro.core.algorithms.graphsage import _sample_and_pull
        from repro.core.blocks import NeighborBlock

        rows = self._rows(np.random.default_rng(seed), 50)

        def get(ids):
            """The table's rows of ``ids``, aligned, repeats repeated."""
            lens = [len(rows[v]) for v in ids.tolist()]
            return NeighborBlock(
                ids, np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
                np.concatenate([rows[v] for v in ids.tolist()]
                               + [np.empty(0)]).astype(np.int64))

        adj = SimpleNamespace(get=get)
        feats = SimpleNamespace(pull=lambda ids: ids[:, None] * 1.0)
        node_ids = np.array([3, 0, 17, 17, 42, 9], dtype=np.int64)

        def old(rng):
            def choose(pool, fallback, size):
                if len(pool) == 0:
                    pool = np.asarray([fallback], dtype=np.int64)
                if pad:
                    return rng.choice(pool, size=size, replace=True)
                return rng.choice(pool, size=min(size, len(pool)),
                                  replace=False)

            def sample(ids, size):
                chosen = [choose(t, v, size)
                          for v, t in adj.get(ids).rows()]
                segment = np.repeat(np.arange(len(chosen)),
                                    [len(c) for c in chosen])
                return np.concatenate(chosen), segment

            n1, seg1 = sample(node_ids, 4)
            n2, seg2 = sample(n1, 3)
            return n1, seg1, n2, seg2

        want = old(np.random.default_rng(seed + 100))
        got = _sample_and_pull(adj, feats, node_ids, (4, 3),
                               np.random.default_rng(seed + 100), pad=pad)
        x_b, x_n1, seg1, x_n2, seg2 = got
        assert x_n1[:, 0].astype(np.int64).tolist() == want[0].tolist()
        assert seg1.tolist() == want[1].tolist()
        assert x_n2[:, 0].astype(np.int64).tolist() == want[2].tolist()
        assert seg2.tolist() == want[3].tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_euler_sample(self, seed):
        from types import SimpleNamespace

        from repro.eulersim.euler import EulerSystem

        rng = np.random.default_rng(seed)
        adj = {v: row for v, row in self._rows(rng, 50).items() if len(row)
               or v % 2}
        system = SimpleNamespace(_adj=adj)
        ids = rng.integers(0, 60, 25)

        def old(ids, fanout, rng):
            out_ids, segs = [], []
            for i, v in enumerate(ids.tolist()):
                nbrs = adj.get(int(v))
                if nbrs is None or len(nbrs) == 0:
                    chosen = np.asarray([v], dtype=np.int64)
                else:
                    chosen = rng.choice(nbrs, size=min(fanout, len(nbrs)),
                                        replace=False)
                out_ids.append(chosen)
                segs.append(np.full(len(chosen), i, dtype=np.int64))
            return np.concatenate(out_ids), np.concatenate(segs)

        for fanout in (1, 3, 10):
            want = old(ids, fanout, np.random.default_rng(seed))
            got = EulerSystem._sample(system, ids, fanout,
                                      np.random.default_rng(seed))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()

    @pytest.mark.parametrize("size", [1, 7, 4096])
    @pytest.mark.parametrize("seed", range(10))
    def test_line_negatives(self, seed, size):
        rng = np.random.default_rng(seed)
        noise = rng.integers(0, 40, 500).astype(np.float64) ** 0.75
        noise_p = noise / noise.sum()
        cdf = (noise / noise.sum()).cumsum()
        cdf /= cdf[-1]
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        assert (cdf.searchsorted(a.random(size), side="right").tolist()
                == b.choice(500, size=size, p=noise_p).tolist())
        assert a.random() == b.random()  # the streams stay in step


def epoch_losses(aggregator, fanouts):
    """The record of a two-epoch run: its exact epoch losses, from before
    ``segment_mean``, ``segment_max`` and the gather backward moved off
    2-D ``ufunc.at``; one aggregator per kernel.  A BLAS that sums in
    another order moves them too — check tests/test_torchlite.py before
    re-pinning."""
    psg = make_psg(tracer=Tracer())
    try:
        src, dst, feats, labels = small_task(n=80)
        edges = edges_from_arrays(psg.spark, src, dst)
        kwargs = {} if fanouts is None else {"fanouts": fanouts}
        result = GraphSage(feats, labels, hidden=8, epochs=2, batch_size=32,
                           aggregator=aggregator, **kwargs
                           ).transform(psg, edges)
        doc = {"epoch_losses": result.stats["epoch_losses"]}
    finally:
        psg.stop()
    return run_record(doc, psg.tracer, psg.metrics)


PINNED = [(epoch_losses, cell) for cell in LOSS_CELLS]
