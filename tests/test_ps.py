"""Unit + property tests for the parameter server."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import VectorSum, block_rows, set_rows, table_block
from repro.common.config import ClusterConfig
from repro.common.errors import (
    CheckpointNotFoundError,
    ConfigError,
    MatrixNotFoundError,
    PSError,
    SimulatedOOMError,
)
from repro.common.metrics import PS_CHECKPOINTS
from repro.core.context import PSGraphContext
from repro.dataflow.context import SparkContext
from repro.ps.context import PSContext
from repro.ps.optimizer import SGD, AdaGrad, Adam, Momentum
from repro.ps.partitioner import (
    HashPSPartitioner,
    HashRangePSPartitioner,
    RangePSPartitioner,
    make_ps_partitioner,
)
from repro.ps.psfunc import RandomInit


def test_every_traced_method_exists_on_its_class():
    """``benchmarks/e2e/trace.py`` wraps layer methods by name through
    ``vars(owner)[name]``: a rename must fail here, not in the benchmark
    run."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "trace.py"
    spec = importlib.util.spec_from_file_location("bench_e2e_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [(target, name)
               for _layer, target, methods in trace.LAYERS
               for name in (methods or [])
               if name not in vars(trace.resolve(target))]
    assert not missing


def make_ps(num_servers=3, server_mem=1 << 40, num_executors=2, **kwargs):
    cluster = ClusterConfig(
        num_executors=num_executors, executor_mem_bytes=1 << 40,
        num_servers=num_servers, server_mem_bytes=server_mem,
    )
    spark = SparkContext(cluster)
    return spark, PSContext(spark, **kwargs)


@pytest.fixture
def ps():
    spark, psctx = make_ps()
    yield psctx
    psctx.stop()
    spark.stop()


class TestPartitioners:
    @pytest.mark.parametrize("kind", ["hash", "range", "hash-range"])
    def test_partition_covers_all_keys(self, kind):
        p = make_ps_partitioner(kind, 100, 7)
        keys = np.arange(100)
        pids = p.partition_array(keys)
        assert ((0 <= pids) & (pids < p.num_partitions)).all()
        # keys_of_partition is the exact inverse image
        seen = np.concatenate(
            [p.keys_of_partition(i) for i in range(p.num_partitions)]
        )
        assert sorted(seen.tolist()) == list(range(100))

    def test_range_is_contiguous(self):
        p = RangePSPartitioner(10, 3)
        assert p.partition_array(np.arange(10)).tolist() == \
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_hash_spreads_adjacent_keys(self):
        p = HashPSPartitioner(100, 4)
        first, second = p.partition_array(np.arange(2))
        assert first != second

    def test_hash_range_balances(self):
        p = HashRangePSPartitioner(1000, 4)
        counts = np.bincount(p.partition_array(np.arange(1000)),
                             minlength=4)
        assert counts.min() > 150

    def test_more_partitions_than_keys_clamped(self):
        p = make_ps_partitioner("range", 3, 10)
        assert p.num_partitions == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_ps_partitioner("zigzag", 10, 2)


class TestVector:
    def test_pull_initial_value(self, ps):
        v = ps.create_vector("v", 100, init=0.0)
        got = v.pull(np.array([0, 50, 99]))
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_push_then_pull(self, ps):
        v = ps.create_vector("v", 100)
        v.push(np.array([3, 7]), np.array([1.5, 2.5]))
        v.push(np.array([3]), np.array([1.0]))
        assert v.pull(np.array([3, 7, 8])).tolist() == [2.5, 2.5, 0.0]

    def test_push_duplicates_accumulate(self, ps):
        v = ps.create_vector("v", 10)
        v.push(np.array([4, 4, 4]), np.array([1.0, 1.0, 1.0]))
        assert v.pull(np.array([4]))[0] == 3.0

    def test_set_overwrites(self, ps):
        v = ps.create_vector("v", 10)
        v.push(np.array([2]), np.array([5.0]))
        v.set(np.array([2]), np.array([1.0]))
        assert v.pull(np.array([2]))[0] == 1.0

    def test_pull_preserves_input_order_with_duplicates(self, ps):
        v = ps.create_vector("v", 10)
        v.set(np.arange(10), np.arange(10, dtype=float))
        got = v.pull(np.array([7, 1, 7, 3]))
        assert got.tolist() == [7.0, 1.0, 7.0, 3.0]

    def test_to_numpy_full(self, ps):
        v = ps.create_vector("v", 20)
        v.push(np.arange(20), np.arange(20, dtype=float))
        assert v.to_numpy().tolist() == list(range(20))

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 49),
                              st.floats(-10, 10)), max_size=40))
    def test_matches_numpy_reference(self, updates):
        spark, psctx = make_ps()
        try:
            v = psctx.create_vector("v", 50, partition="hash")
            ref = np.zeros(50)
            for k, d in updates:
                v.push(np.array([k]), np.array([d]))
                ref[k] += d
            np.testing.assert_allclose(v.to_numpy(), ref, rtol=1e-12)
        finally:
            psctx.stop()
            spark.stop()


class TestMatrix:
    def test_multi_column_pull(self, ps):
        m = ps.create_matrix("m", 10, 3)
        m.push(np.array([2]), np.array([[1.0, 2.0, 3.0]]))
        got = m.pull(np.array([2]))
        assert got.shape == (1, 3)
        assert got[0].tolist() == [1.0, 2.0, 3.0]

    def test_single_column_of_matrix(self, ps):
        m = ps.create_matrix("m", 10, 3)
        m.push(np.array([1]), np.array([[1.0, 2.0, 3.0]]))
        assert m.pull(np.array([1]), col=1)[0] == 2.0
        m.push(np.array([1]), np.array([5.0]), col=2)
        assert m.pull(np.array([1]), col=2)[0] == 8.0

    def test_duplicate_name_rejected(self, ps):
        ps.create_vector("dup", 5)
        with pytest.raises(ConfigError):
            ps.create_vector("dup", 5)

    def test_matrix_lookup_and_drop(self, ps):
        ps.create_vector("x", 5)
        assert ps.matrix("x") is not None
        ps.drop_matrix("x")
        with pytest.raises(MatrixNotFoundError):
            ps.matrix("x")

    def test_sparse_storage(self, ps):
        m = ps.create_matrix("s", 1000000, 2, storage="sparse",
                             partition="hash")
        m.push(np.array([999999]), np.array([[1.0, 2.0]]))
        assert m.pull(np.array([999999, 5]))[0].tolist() == [1.0, 2.0]

    def test_server_memory_charged(self, ps):
        before = sum(s.container.memory.used for s in ps.servers)
        ps.create_matrix("big", 1000, 4)
        after = sum(s.container.memory.used for s in ps.servers)
        assert after - before >= 1000 * 4 * 8

    def test_server_oom_on_oversized_model(self):
        spark, psctx = make_ps(num_servers=2, server_mem=4096)
        try:
            with pytest.raises(SimulatedOOMError):
                psctx.create_matrix("huge", 10000, 10)
        finally:
            psctx.stop()
            spark.stop()


class TestBadKeyLeavesNothingBehind:
    """A key no partition owns fails the operation before anything is
    applied or charged (it used to fail at the owning partition's turn,
    after the partitions before it had been written)."""

    @staticmethod
    def _meters(psctx):
        return (psctx.spark.sim_time(),
                [s.container.clock.now_s for s in psctx.servers],
                sorted(psctx.spark.metrics.snapshot().items()))

    def test_issue_example(self):
        spark, psctx = make_ps(num_servers=2)
        try:
            v = psctx.create_vector("v", 100, partition="hash")
            with pytest.raises(PSError, match="keys not in partition"):
                v.push(np.array([0, 1, 2, 3, 103]), np.ones(5))
            assert v.pull(np.arange(4)).tolist() == [0.0, 0.0, 0.0, 0.0]
        finally:
            psctx.stop()
            spark.stop()

    @pytest.mark.parametrize("kind", ["hash", "range", "hash-range"])
    @pytest.mark.parametrize("bad", [-1, 60, 61, 10 ** 9])
    @pytest.mark.parametrize("op", ["push", "set", "pull"])
    def test_state_counters_and_clocks_unchanged(self, ps, kind, bad, op):
        m = ps.create_matrix("m", 60, 2, partition=kind, num_partitions=5)
        cached = ps.create_matrix("c", 60, 2, partition=kind,
                                  num_partitions=5)
        cache = ps.enable_pull_cache("c", staleness=5)
        keys = np.array([59, 3, bad, 17, 3])
        contents = np.arange(120.0).reshape(60, 2)
        for handle in (m, cached):
            handle.push(np.arange(60), contents)
            handle.pull(np.arange(60))  # fills c's cache
            before = self._meters(ps)
            with pytest.raises(PSError):
                if op == "pull":
                    handle.pull(keys, col=1)
                else:
                    getattr(handle, op)(keys, np.ones((5, 2)))
            after = self._meters(ps)
            assert after[:2] == before[:2]
            # (a cached pull counts its lookup before it fetches)
            assert [c for c in after[2] if not c[0].startswith("ps.cache.")
                    ] == [c for c in before[2]
                          if not c[0].startswith("ps.cache.")]
            assert handle.to_numpy().tolist() == contents.tolist()
        # A failed write invalidated no cached row: all of them still hit.
        hits = cache.stats.hits
        cached.pull(np.arange(60))
        assert cache.stats.hits == hits + 60

    @pytest.mark.parametrize("kind", ["hash", "range", "hash-range"])
    @pytest.mark.parametrize("case", [
        "vector push, 4 values for 5 keys", "vector set, 6 values",
        "width-2 push into 3 columns", "column set, 3 values for 5 keys"])
    def test_malformed_values_leave_nothing_behind(self, kind, case):
        # Each used to raise numpy's ValueError after every touched
        # server's clock had advanced.
        spark, psctx = make_ps(num_servers=2)
        try:
            v = psctx.create_vector("v", 100, partition=kind)
            m = psctx.create_matrix("m", 100, 3, partition=kind)
            keys = np.arange(5)
            v.push(np.arange(100), np.arange(100.0))
            m.push(np.arange(100), np.ones((100, 3)))
            before = self._meters(psctx)
            with pytest.raises(PSError, match="values of shape"):
                if case.startswith("vector push"):
                    v.push(keys, np.ones(4))
                elif case.startswith("vector set"):
                    v.set(keys, np.ones(6))
                elif case.startswith("width-2"):
                    m.push(keys, np.ones((5, 2)))
                else:
                    m.set(keys, np.ones(3), col=1)
            assert self._meters(psctx) == before
            assert v.to_numpy().tolist() == np.arange(100.0).tolist()
            assert m.to_numpy().tolist() == np.ones((100, 3)).tolist()
        finally:
            psctx.stop()
            spark.stop()

    @pytest.mark.parametrize("kind", ["hash", "range"])
    @pytest.mark.parametrize("op", ["push", "set"])
    def test_two_dimensional_keys_are_refused(self, ps, kind, op):
        # Used to fail inside the grouping with a bare numpy ValueError
        # ("truth value ... ambiguous" / "object too deep").
        m = ps.create_matrix("m", 10, 2, partition=kind)
        contents = np.arange(20.0).reshape(10, 2)
        m.push(np.arange(10), contents)
        before = self._meters(ps)
        with pytest.raises(PSError, match=r"keys of shape \(2, 2\)"):
            getattr(m, op)([[0, 1], [2, 3]], np.ones((2, 2)))
        assert self._meters(ps) == before
        assert m.to_numpy().tolist() == contents.tolist()
        # A pull still takes them, flattened.
        assert (m.pull([[0, 1], [2, 3]]).reshape(4, 2).tolist()
                == contents[:4].tolist())

    @pytest.mark.parametrize("kind", ["hash", "range", "hash-range"])
    @pytest.mark.parametrize("bad", [-1, 10, 12, 10 ** 9])
    @pytest.mark.parametrize("op", ["push", "remove", "drop", "get",
                                    "degrees"])
    def test_table_keys_outside_rows(self, ps, kind, bad, op):
        # A hash table used to store vertex 12 of a 10-row table silently.
        t = ps.create_neighbor_table("t", 10, partition=kind,
                                     num_partitions=4)
        t.push(table_block({1: [2, 3], 4: [5], 9: [0]}))
        t.compact()
        before = self._meters(ps)
        with pytest.raises(PSError, match="keys not in partition"):
            if op in ("push", "remove"):
                getattr(t, op)(table_block({4: [6], bad: [3]}))
            else:
                getattr(t, op)(np.array([1, bad]))
        assert self._meters(ps) == before
        assert block_rows(t.get(np.arange(10))) == [
            [], [2, 3], [], [], [5], [], [], [], [], [0]]

    @pytest.mark.parametrize("kind", ["hash", "range", "hash-range"])
    @pytest.mark.parametrize("bad", [-1, 10, 12])
    @pytest.mark.parametrize("op", ["push", "set", "pull"])
    def test_sparse_keys_outside_rows(self, ps, kind, bad, op):
        m = ps.create_matrix("s", 10, 2, storage="sparse", partition=kind,
                             num_partitions=4)
        contents = np.arange(20.0).reshape(10, 2)
        m.push(np.arange(10), contents)
        before = self._meters(ps)
        with pytest.raises(PSError, match="keys not in partition"):
            if op == "pull":
                m.pull(np.array([3, bad]))
            else:
                getattr(m, op)(np.array([3, bad]), np.ones((2, 2)))
        assert self._meters(ps) == before
        assert m.pull(np.arange(10)).tolist() == contents.tolist()


class TestPsFunc:
    def test_vector_sum(self, ps):
        v = ps.create_vector("v", 30)
        v.push(np.arange(30), np.ones(30))
        assert v.psfunc(VectorSum()) == pytest.approx(30.0)

    def test_random_init_deterministic_across_layouts(self):
        spark1, ps1 = make_ps(num_servers=2)
        spark2, ps2 = make_ps(num_servers=3)
        try:
            a = ps1.create_vector("e", 64, partition="range")
            b = ps2.create_vector("e", 64, partition="range")
            a.psfunc(RandomInit(seed=1, scale=0.5))
            b.psfunc(RandomInit(seed=1, scale=0.5))
            assert np.abs(a.to_numpy()).max() <= 0.5
        finally:
            ps1.stop()
            spark1.stop()
            ps2.stop()
            spark2.stop()


class TestEmbedding:
    def test_pull_rows_reassembles_column_shards(self, ps):
        e = ps.create_embedding("emb", rows=20, dim=8)
        vals = np.arange(20 * 8, dtype=np.float32).reshape(20, 8)
        set_rows(e, np.arange(20), vals)
        got = e.pull_rows(np.array([3, 11]))
        np.testing.assert_array_equal(got[0], vals[3])
        np.testing.assert_array_equal(got[1], vals[11])

    def test_push_rows_increments(self, ps):
        e = ps.create_embedding("emb", rows=5, dim=4)
        e.push_rows(np.array([2]), np.ones((1, 4), dtype=np.float32))
        e.push_rows(np.array([2]), np.ones((1, 4), dtype=np.float32))
        np.testing.assert_array_equal(
            e.pull_rows(np.array([2]))[0], np.full(4, 2.0, dtype=np.float32)
        )

    def test_server_side_dot_matches_local(self, ps):
        rng = np.random.default_rng(0)
        e = ps.create_embedding("emb", rows=16, dim=12)
        vals = rng.standard_normal((16, 12)).astype(np.float32)
        set_rows(e, np.arange(16), vals)
        left = np.array([0, 3, 7])
        right = np.array([5, 3, 9])
        got = e.dot(left, right)
        expect = np.einsum("ij,ij->i", vals[left], vals[right])
        np.testing.assert_allclose(got, expect, rtol=1e-5)

    def test_rank_one_update(self, ps):
        e = ps.create_embedding("emb", rows=4, dim=3)
        vals = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                        dtype=np.float32)
        set_rows(e, np.arange(4), vals)
        e.rank_one_update(np.array([0]), np.array([1]), np.array([2.0]))
        got = e.pull_rows(np.arange(4))
        # A[0] += 2*A[1]; A[1] += 2*A[0]_old
        np.testing.assert_allclose(got[0], [1, 2, 0])
        np.testing.assert_allclose(got[1], [2, 1, 0])


class TestNeighborTable:
    def test_push_get_roundtrip(self, ps):
        t = ps.create_neighbor_table("adj", num_vertices=100)
        t.push(table_block({5: [1, 2, 3]}))
        t.push(table_block({5: [3, 4]}))
        got = t.get(np.array([5, 6, 5]))
        assert got.vertices.tolist() == [5, 6, 5]
        assert block_rows(got) == [[1, 2, 3, 4], [], [1, 2, 3, 4]]

    def test_degrees(self, ps):
        t = ps.create_neighbor_table("adj", num_vertices=10)
        t.push(table_block({1: [0], 2: [0, 1, 3]}))
        assert t.degrees(np.array([1, 2, 9])).tolist() == [1, 3, 0]

    def test_negative_neighbor_never_reads_back_as_another_pair(self, ps):
        # The store's fold keyed 5 -> -1 as 4 -> 2 (radix 3).
        t = ps.create_neighbor_table("adj", num_vertices=10)
        t.push(table_block({5: [-1], 3: [2]}))
        with pytest.raises(PSError, match="negative"):
            t.get(np.array([3, 4, 5]))

    def test_compact_preserves_reads(self, ps):
        t = ps.create_neighbor_table("adj", num_vertices=50)
        t.push(table_block({7: [1, 5], 13: [2]}))
        t.compact()
        assert block_rows(t.get(np.array([7, 13, 20]))) == [[1, 5], [2], []]


class TestOptimizers:
    def test_sgd_step(self):
        opt = SGD(lr=0.1)
        p = np.ones(4)
        opt.step(p, np.ones(4), {})
        np.testing.assert_allclose(p, 0.9)

    def test_momentum_accumulates(self):
        opt = Momentum(lr=0.1, momentum=0.5)
        p = np.zeros(2)
        state = opt.init_state(p.shape, p.dtype)
        opt.step(p, np.ones(2), state)
        opt.step(p, np.ones(2), state)
        np.testing.assert_allclose(p, [-0.25, -0.25])

    def test_adagrad_shrinks_steps(self):
        opt = AdaGrad(lr=1.0)
        p = np.zeros(1)
        state = opt.init_state(p.shape, p.dtype)
        opt.step(p, np.array([1.0]), state)
        first = -p[0]
        p0 = p[0]
        opt.step(p, np.array([1.0]), state)
        second = p0 - p[0]
        assert second < first

    def test_adam_bias_correction_first_step(self):
        opt = Adam(lr=0.1)
        p = np.zeros(3)
        state = opt.init_state(p.shape, p.dtype)
        opt.step(p, np.ones(3), state)
        # First Adam step is ~ -lr regardless of gradient scale.
        np.testing.assert_allclose(p, -0.1, rtol=1e-4)

    def test_server_side_adam_on_matrix(self, ps):
        m = ps.create_matrix("w", 6, 4, dtype=np.float64,
                             optimizer=Adam(lr=0.1))
        grad = np.ones((6, 4))
        m.apply_gradients(grad)
        np.testing.assert_allclose(m.to_numpy(), -0.1, rtol=1e-4)

    def test_gradient_without_optimizer_rejected(self, ps):
        m = ps.create_matrix("w", 4, 2)
        with pytest.raises(PSError):
            m.apply_gradients(np.ones((4, 2)))


class TestCheckpointRecovery:
    def test_checkpoint_and_relaxed_recovery(self, ps):
        v = ps.create_vector("v", 100, partition="hash")
        v.push(np.arange(100), np.arange(100, dtype=float))
        ps.checkpoint_matrix("v")
        before = v.to_numpy()
        ps.kill_server(1)
        assert ps.master.health_check() == [1]
        recovered = ps.recover()
        assert recovered == [1]
        np.testing.assert_allclose(v.to_numpy(), before)

    def test_strict_recovery_rolls_everything_back(self, ps):
        v = ps.create_vector("v", 60)
        v.push(np.arange(60), np.ones(60))
        ps.checkpoint_matrix("v")
        # Updates after the checkpoint are lost under strict recovery.
        v.push(np.arange(60), np.ones(60))
        ps.kill_server(0)
        ps.master.recover("strict")
        np.testing.assert_allclose(v.to_numpy(), np.ones(60))

    def test_relaxed_recovery_keeps_live_servers_state(self, ps):
        v = ps.create_vector("v", 60, partition="hash")
        v.push(np.arange(60), np.ones(60))
        ps.checkpoint_matrix("v")
        v.push(np.arange(60), np.ones(60))  # post-checkpoint progress
        ps.kill_server(2)
        ps.recover()
        vals = v.to_numpy()
        # Partitions on live servers keep value 2; the dead server's
        # partitions rolled back to 1.
        assert set(np.unique(vals).tolist()) == {1.0, 2.0}

    def test_recovery_without_checkpoint_raises(self, ps):
        ps.create_vector("v", 10)
        ps.kill_server(0)
        with pytest.raises(CheckpointNotFoundError):
            ps.recover()

    def test_neighbor_table_checkpoint_recovery(self, ps):
        t = ps.create_neighbor_table("adj", num_vertices=40)
        t.push(table_block({i: [i, (i + 1) % 40] for i in range(40)}))
        t.checkpoint()
        ps.kill_server(1)
        ps.recover()
        assert t.get(np.arange(40)).degrees().tolist() == [2] * 40

    def test_recovery_advances_sim_time(self, ps):
        v = ps.create_vector("v", 10)
        ps.checkpoint_matrix("v")
        t0 = ps.spark.sim_time()
        ps.kill_server(0)
        ps.recover()
        assert ps.spark.sim_time() > t0

    def test_restart_counted(self, ps):
        ps.create_vector("v", 10)
        ps.checkpoint_matrix("v")
        ps.kill_server(2)
        ps.recover()
        assert ps.servers[2].container.restarts == 1
        assert ps.master.recoveries == 1

    def test_failed_recover_leaves_cluster_untouched(self, ps):
        # Exception safety: if any needed checkpoint is missing, recover()
        # must verify the full restore plan BEFORE restarting/wiping any
        # server — not leave it revived-but-empty.
        v = ps.create_vector("v", 60, partition="hash")
        v.push(np.arange(60), np.ones(60))
        ps.checkpoint_matrix("v")
        w = ps.create_vector("w", 60, partition="hash")  # no checkpoint
        w.push(np.arange(60), np.full(60, 7.0))
        ps.kill_server(1)
        with pytest.raises(CheckpointNotFoundError):
            ps.recover()
        # The dead server was neither restarted nor revived.
        assert not ps.servers[1].container.alive
        assert ps.servers[1].container.restarts == 0
        assert not ps.spark.rpc.is_alive(ps.servers[1].id)
        assert ps.master.recoveries == 0

    def test_strict_recover_verifies_all_matrices_first(self, ps):
        v = ps.create_vector("v", 60)
        v.push(np.arange(60), np.ones(60))
        ps.checkpoint_matrix("v")
        ps.create_vector("w", 60)  # never checkpointed
        ps.kill_server(0)
        # Strict mode restores every partition of every matrix; the
        # missing "w" checkpoint must abort before any server restart.
        with pytest.raises(CheckpointNotFoundError):
            ps.master.recover("strict")
        assert not ps.servers[0].container.alive
        assert ps.servers[0].container.restarts == 0
        assert ps.master.recoveries == 0


class TestSync:
    def test_bsp_barrier_aligns_clocks(self, ps):
        ps.spark.executors[0].container.clock.advance(10)
        ps.servers[0].container.clock.advance(3)
        t = ps.barrier()
        assert t >= 10
        assert ps.servers[1].container.clock.now_s == t

    def test_asp_barrier_does_not_align(self):
        spark, psctx = make_ps(sync_mode="asp")
        try:
            spark.executors[0].container.clock.advance(10)
            psctx.barrier()
            assert spark.driver_clock.now_s < 10
            assert psctx.sync.epoch == 1
        finally:
            psctx.stop()
            spark.stop()

    def test_invalid_mode_rejected(self):
        cluster = ClusterConfig(
            num_executors=1, executor_mem_bytes=1 << 30,
            num_servers=2, server_mem_bytes=1 << 30,
        )
        spark = SparkContext(cluster)
        with pytest.raises(ConfigError):
            PSContext(spark, sync_mode="chaos")
        spark.stop()


class TestContextConfig:
    def test_requires_servers(self):
        cluster = ClusterConfig(num_executors=1,
                                executor_mem_bytes=1 << 30)
        spark = SparkContext(cluster)
        with pytest.raises(ConfigError):
            PSContext(spark)
        spark.stop()

    def test_pull_inside_task_charges_executor(self, ps):
        v = ps.create_vector("v", 100)
        v.push(np.arange(100), np.ones(100))
        spark = ps.spark

        def work(it):
            keys = np.array([x for x in it], dtype=np.int64)
            return float(v.pull(keys).sum())

        total = sum(
            spark.parallelize(range(100), 2).foreach_partition(work)
        )
        assert total == pytest.approx(100.0)
        assert any(
            ex.container.clock.busy_s > 0 for ex in spark.executors
        )


class TestPeriodicCheckpoint:
    def test_barrier_triggers_checkpoint(self):
        cluster = ClusterConfig(
            num_executors=2, executor_mem_bytes=1 << 40,
            num_servers=2, server_mem_bytes=1 << 40,
        )
        spark = SparkContext(cluster)
        psctx = PSContext(spark, checkpoint_interval=2)
        try:
            v = psctx.create_vector("v", 20)
            v.push(np.arange(20), np.ones(20))
            psctx.barrier()  # epoch 1: no checkpoint
            assert not spark.hdfs.exists(psctx.checkpoint_path("v", 0))
            psctx.barrier()  # epoch 2: periodic checkpoint fires
            assert spark.hdfs.exists(psctx.checkpoint_path("v", 0))
            # Recovery works off the periodic checkpoint.
            psctx.kill_server(0)
            psctx.recover()
            np.testing.assert_allclose(v.to_numpy(), np.ones(20))
        finally:
            psctx.stop()
            spark.stop()

    def test_zero_interval_means_manual_only(self):
        cluster = ClusterConfig(
            num_executors=2, executor_mem_bytes=1 << 40,
            num_servers=2, server_mem_bytes=1 << 40,
        )
        spark = SparkContext(cluster)
        psctx = PSContext(spark)
        try:
            psctx.create_vector("v", 10)
            for _ in range(5):
                psctx.barrier()
            assert not spark.hdfs.exists(psctx.checkpoint_path("v", 0))
        finally:
            psctx.stop()
            spark.stop()


class TestIterationCheckpointPolicy:
    def _make(self, interval=1):
        cluster = ClusterConfig(
            num_executors=2, executor_mem_bytes=1 << 40,
            num_servers=2, server_mem_bytes=1 << 40,
        )
        spark = SparkContext(cluster)
        return spark, PSContext(spark, checkpoint_interval=interval)

    def test_start_iterations_writes_baseline_checkpoint(self):
        spark, psctx = self._make()
        try:
            v = psctx.create_vector("v", 20)
            v.push(np.arange(20), np.ones(20))
            psctx.start_iterations()
            assert spark.hdfs.exists(psctx.checkpoint_path("v", 0))
            assert psctx.progress == 0
        finally:
            psctx.stop()
            spark.stop()

    def test_iteration_driven_disables_epoch_checkpoints(self):
        # Once an algorithm drives checkpoints by iteration, barrier()
        # must not also fire the epoch-based policy (double-writes would
        # move the rollback boundary mid-iteration).
        spark, psctx = self._make(interval=1)
        try:
            v = psctx.create_vector("v", 20)
            psctx.start_iterations()
            v.push(np.arange(20), np.ones(20))
            psctx.barrier()
            psctx.kill_server(0)
            psctx.master.recover("strict")
            # The barrier did NOT checkpoint the post-push state: strict
            # recovery rolls back to the start_iterations() baseline.
            np.testing.assert_allclose(v.to_numpy(), 0.0)
        finally:
            psctx.stop()
            spark.stop()

    def test_complete_iteration_checkpoints_every_nth(self):
        spark, psctx = self._make(interval=2)
        try:
            v = psctx.create_vector("v", 20)
            psctx.start_iterations()
            v.push(np.arange(20), np.ones(20))
            psctx.complete_iteration()  # progress 1: no checkpoint yet
            psctx.kill_server(0)
            psctx.master.recover("strict")
            np.testing.assert_allclose(v.to_numpy(), 0.0)
            assert psctx.progress == 0  # rolled back to the baseline
            v.push(np.arange(20), np.ones(20))
            psctx.complete_iteration()
            v.push(np.arange(20), np.ones(20))
            psctx.complete_iteration()  # progress 2: checkpoint fires
            v.push(np.arange(20), np.ones(20))  # post-checkpoint work
            psctx.kill_server(1)
            psctx.master.recover("strict")
            np.testing.assert_allclose(v.to_numpy(), 2.0)
            assert psctx.progress == 2
        finally:
            psctx.stop()
            spark.stop()

    def test_rollback_restores_checkpoint_state(self):
        spark, psctx = self._make(interval=1)
        try:
            v = psctx.create_vector("v", 20)
            v.push(np.arange(20), np.ones(20))
            psctx.start_iterations()
            v.push(np.arange(20), np.ones(20))  # dirty, post-baseline
            psctx.rollback()
            np.testing.assert_allclose(v.to_numpy(), 1.0)
            assert psctx.progress == 0
        finally:
            psctx.stop()
            spark.stop()

    def test_a_relaxed_checkpoint_is_written_again_after_recovery(self):
        # The iteration checkpoint finds server 0 dead and writes nothing;
        # relaxed recovery reloads only server 0's partitions, and the
        # checkpoint is then written whole: that mix is what a later
        # recovery restores.
        spark, psctx = self._make(interval=1)
        try:
            v = psctx.create_vector("v", 20)
            psctx.start_iterations()
            written = spark.metrics.get(PS_CHECKPOINTS)
            v.push(np.arange(20), np.ones(20))
            psctx.kill_server(0)
            psctx.complete_iteration()
            assert (psctx.recovery_generation,
                    psctx.rollback_generation) == (1, 0)
            assert spark.metrics.get(PS_CHECKPOINTS) == written + 1
            state = v.to_numpy()
            assert set(state.tolist()) == {0.0, 1.0}
            psctx.kill_server(1)
            psctx.recover()
            np.testing.assert_array_equal(v.to_numpy(), state)
        finally:
            psctx.stop()
            spark.stop()

    def test_recovery_generations_distinguish_modes(self):
        spark, psctx = self._make(interval=1)
        try:
            psctx.create_vector("v", 20)
            psctx.start_iterations()
            psctx.kill_server(0)
            psctx.recover()
            assert psctx.recovery_generation == 1
            assert psctx.rollback_generation == 0  # relaxed: no rollback
            psctx.kill_server(0)
            psctx.master.recover("strict")
            assert psctx.recovery_generation == 2
            assert psctx.rollback_generation == 1
        finally:
            psctx.stop()
            spark.stop()


class TestPullCache:
    def test_hits_skip_network(self, ps):
        from repro.common.metrics import RPC_CALLS

        v = ps.create_vector("v", 50)
        v.push(np.arange(50), np.arange(50, dtype=float))
        ps.enable_pull_cache("v", staleness=0)
        keys = np.arange(10)
        first = v.pull(keys)
        calls_after_first = ps.spark.metrics.get(RPC_CALLS)
        second = v.pull(keys)
        np.testing.assert_allclose(first, second)
        # Second pull fully served from cache: no new RPCs.
        assert ps.spark.metrics.get(RPC_CALLS) == calls_after_first
        cache = ps.pull_cache("v")
        assert cache.stats.hits == 10
        assert cache.stats.hit_rate > 0.4

    def test_barrier_expires_with_zero_staleness(self, ps):
        v = ps.create_vector("v", 20)
        ps.enable_pull_cache("v", staleness=0)
        v.pull(np.arange(5))
        ps.barrier()
        cache = ps.pull_cache("v")
        before_misses = cache.stats.misses
        v.pull(np.arange(5))
        assert cache.stats.misses == before_misses + 5

    def test_staleness_window_serves_across_epochs(self, ps):
        v = ps.create_vector("v", 20)
        ps.enable_pull_cache("v", staleness=2)
        v.pull(np.arange(5))
        ps.barrier()
        ps.barrier()
        cache = ps.pull_cache("v")
        v.pull(np.arange(5))
        assert cache.stats.hits == 5

    def test_own_writes_invalidate(self, ps):
        v = ps.create_vector("v", 20)
        ps.enable_pull_cache("v", staleness=10)
        assert v.pull(np.array([3]))[0] == 0.0
        v.push(np.array([3]), np.array([7.0]))
        assert v.pull(np.array([3]))[0] == 7.0  # not the stale 0.0

    def test_partial_hit_merges_fetch(self, ps):
        v = ps.create_vector("v", 20)
        v.set(np.arange(20), np.arange(20, dtype=float))
        ps.enable_pull_cache("v", staleness=5)
        v.pull(np.array([1, 2, 3]))
        got = v.pull(np.array([2, 3, 4, 5]))
        assert got.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_recovery_clears_caches(self, ps):
        v = ps.create_vector("v", 20)
        ps.enable_pull_cache("v", staleness=100)
        v.pull(np.arange(5))
        ps.checkpoint_matrix("v")
        ps.kill_server(0)
        ps.recover()
        assert ps.pull_cache("v")._size == 0

    def test_unknown_matrix_rejected(self, ps):
        with pytest.raises(MatrixNotFoundError):
            ps.enable_pull_cache("ghost")

    def test_drop_matrix_drops_cache(self, ps):
        ps.create_vector("v", 10)
        ps.enable_pull_cache("v")
        ps.drop_matrix("v")
        assert ps.pull_cache("v") is None


class TestAgentTimingSemantics:
    def test_fanout_charges_busiest_server_not_sum(self):
        """The agent issues per-server requests concurrently: pulling the
        same bytes spread over 4 servers must be ~4x faster than from 1."""
        times = {}
        for servers in (1, 4):
            cluster = ClusterConfig(
                num_executors=1, executor_mem_bytes=1 << 40,
                num_servers=servers, server_mem_bytes=1 << 40,
            )
            ctx = PSGraphContext(cluster)
            try:
                v = ctx.ps.create_vector(
                    "v", 400_000, partition="hash",
                    num_partitions=servers,
                )
                t0 = ctx.sim_time()
                v.pull(np.arange(400_000))
                times[servers] = ctx.sim_time() - t0
            finally:
                ctx.stop()
        assert times[4] < times[1] * 0.6

    def test_congestion_scales_with_executor_server_ratio(self):
        """Each task pulls the same bytes; with 8x the executors hitting
        the same two servers, the shared links congest and every pull gets
        slower — the stage does NOT stay at the 2-executor latency."""
        times = {}
        for executors in (2, 16):
            cluster = ClusterConfig(
                num_executors=executors, executor_mem_bytes=1 << 40,
                num_servers=2, server_mem_bytes=1 << 40,
            )
            ctx = PSGraphContext(cluster)
            try:
                v = ctx.ps.create_vector("v", 200_000)
                keys = np.arange(200_000)

                def work(_it, v=v, keys=keys):
                    v.pull(keys)
                    return 0

                t0 = ctx.sim_time()
                ctx.spark.parallelize(
                    range(executors), executors
                ).foreach_partition(work)
                times[executors] = ctx.sim_time() - t0
            finally:
                ctx.stop()
        # Congestion factor goes 1 -> 8; transfer time should grow by
        # several x (latency and CPU dilute the exact 8).
        assert times[16] > times[2] * 3


class TestMergeProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 500), st.integers(1, 20))
    def test_ps_partitioners_total_cover(self, size, parts):
        from repro.ps.partitioner import make_ps_partitioner

        for kind in ("hash", "range", "hash-range"):
            p = make_ps_partitioner(kind, size, parts)
            seen = np.concatenate([
                p.keys_of_partition(i) for i in range(p.num_partitions)
            ])
            assert sorted(seen.tolist()) == list(range(size))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_server_assignment_balanced(self, partitions, servers):
        """server_of spreads any run of consecutive pids evenly."""
        from repro.ps.meta import MatrixMeta
        from repro.ps.partitioner import RangePSPartitioner

        meta = MatrixMeta(
            name="m", rows=10, cols=1, dtype=np.dtype(np.float64),
            axis=0, storage="dense",
            partitioner=RangePSPartitioner(10, 1),
            num_servers=servers,
        )
        counts = np.bincount(
            [meta.server_of(p) for p in range(partitions)],
            minlength=servers,
        )
        # No server holds more than ceil(partitions / servers) + 0 extra.
        assert counts.max() <= -(-partitions // servers)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 19), st.floats(-5, 5)),
                    max_size=30), st.integers(0, 4))
    def test_cached_pull_equals_uncached(self, updates, staleness):
        """The pull cache is transparent: cached reads == server reads."""
        from repro.common.config import ClusterConfig
        from repro.core.context import PSGraphContext

        cluster = ClusterConfig(
            num_executors=2, executor_mem_bytes=1 << 40,
            num_servers=2, server_mem_bytes=1 << 40,
        )
        ctx = PSGraphContext(cluster)
        try:
            v = ctx.ps.create_vector("v", 20, partition="hash")
            ctx.ps.enable_pull_cache("v", staleness=staleness)
            ref = np.zeros(20)
            keys = np.arange(20)
            for k, d in updates:
                v.push(np.array([k]), np.array([d]))
                ref[k] += d
                np.testing.assert_allclose(v.pull(keys), ref, atol=1e-12)
        finally:
            ctx.stop()
