"""Unit + property tests for the RDD engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulatedOOMError
from repro.common.metrics import SHUFFLE_BYTES_WRITTEN, STAGES_RUN
from repro.dataflow.partitioner import HashPartitioner
from tests.conftest import make_context


class TestBasics:
    def test_parallelize_collect_roundtrip(self, sc):
        data = list(range(100))
        assert sorted(sc.parallelize(data).collect()) == data

    def test_count(self, sc):
        assert sc.parallelize(range(37)).count() == 37

    def test_map_filter(self, sc):
        got = sc.parallelize(range(10)).map(lambda x: x * 2).filter(
            lambda x: x > 10).collect()
        assert sorted(got) == [12, 14, 16, 18]

    def test_flat_map(self, sc):
        got = sc.parallelize([1, 2, 3]).flat_map(lambda x: [x] * x).collect()
        assert sorted(got) == [1, 2, 2, 3, 3, 3]

    def test_map_partitions_with_index_covers_all(self, sc):
        got = sc.parallelize(range(8), 4).map_partitions_with_index(
            lambda i, it: [(i, sum(1 for _ in it))]
        ).collect()
        assert sum(n for _i, n in got) == 8
        assert {i for i, _n in got} == {0, 1, 2, 3}

    def test_take(self, sc):
        rdd = sc.parallelize(range(100), 5)
        assert len(rdd.take(7)) == 7

    def test_foreach_partition_results(self, sc):
        out = sc.parallelize(range(10), 4).foreach_partition(
            lambda it: sum(it))
        assert sum(out) == 45


class TestKeyedOps:
    def test_partition_by_places_keys(self, sc):
        p = HashPartitioner(4)
        rdd = sc.parallelize([(i, i) for i in range(16)]).partition_by(p)
        placed = rdd.map_partitions_with_index(
            lambda pid, it: [(pid, k) for k, _v in it]).collect()
        assert len(placed) == 16
        for pid, k in placed:
            assert p.partition(k) == pid

    def test_partitioning_is_identical(self, sc):
        # The record shuffle places a key with the scalar ``partition``, a
        # block shuffle with ``partition_array``: the same reduce partition.
        p = HashPartitioner(4)
        keys = np.random.default_rng(7).integers(0, 80, size=600)
        placed = sc.parallelize([(k, None) for k in keys.tolist()], 4) \
            .partition_by(p).map_partitions_with_index(
                lambda pid, it: [(k, pid) for k, _v in it]).collect()
        assert len(placed) == 600
        assert [pid for _k, pid in placed] == p.partition_array(
            np.array([k for k, _pid in placed])).tolist()

    def test_partition_by_same_partitioner_noop(self, sc):
        p = HashPartitioner(4)
        rdd = sc.parallelize([(i, i) for i in range(8)]).partition_by(p)
        assert rdd.partition_by(p) is rdd



class TestCaching:
    def test_cache_skips_recompute(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(10), 2).map(spy).cache()
        rdd.collect()
        n_first = len(calls)
        rdd.collect()
        assert len(calls) == n_first  # second collect served from cache

    def test_unpersist_frees_memory(self, sc):
        rdd = sc.parallelize(range(1000), 4).cache()
        rdd.collect()
        used = sum(ex.container.memory.used for ex in sc.executors)
        assert used > 0
        rdd.unpersist()
        used_after = sum(ex.container.memory.used for ex in sc.executors)
        assert used_after == 0

    def test_cache_oom_when_executor_too_small(self):
        ctx = make_context(num_executors=2, executor_mem=512)
        try:
            rdd = ctx.parallelize(range(10000), 2).cache()
            with pytest.raises(SimulatedOOMError):
                rdd.collect()
        finally:
            ctx.stop()


class TestTextFiles:
    def test_save_and_read_roundtrip(self, sc):
        rdd = sc.parallelize([f"line-{i}" for i in range(20)], 4)
        rdd.save_as_text_file("/out/data")
        assert len(sc.hdfs.listdir("/out/data")) == 4
        back = sc.text_file("/out/data").collect()
        assert sorted(back) == sorted(f"line-{i}" for i in range(20))

    def test_text_file_single_file_split(self, sc):
        sc.hdfs.write_text("/in/one.txt", [str(i) for i in range(10)])
        rdd = sc.text_file("/in/one.txt", min_partitions=3)
        assert sorted(int(x) for x in rdd.collect()) == list(range(10))


class TestSchedulerAccounting:
    def test_stage_metric_counts(self, sc):
        sc.parallelize(range(10)).map(lambda x: (x % 2, x)) \
            .partition_by(HashPartitioner(2)).collect()
        assert sc.metrics.get(STAGES_RUN) >= 2  # map stage + result stage

    def test_shuffle_reuse_across_actions(self, sc):
        rdd = sc.parallelize([(i % 3, i) for i in range(30)]) \
            .partition_by(HashPartitioner(3))
        rdd.count()
        written = sc.metrics.get(SHUFFLE_BYTES_WRITTEN)
        rdd.count()  # same RDD: shuffle output reused
        assert sc.metrics.get(SHUFFLE_BYTES_WRITTEN) == written

    def test_sim_time_advances_with_work(self, sc):
        t0 = sc.sim_time()
        sc.parallelize(range(2000), 4).map(lambda x: x + 1).count()
        assert sc.sim_time() > t0



class TestFailureRecovery:
    def test_lost_executor_recomputed_from_lineage(self, sc):
        rdd = sc.parallelize([(i % 4, i) for i in range(40)], 4) \
            .partition_by(HashPartitioner(4)).map_partitions(sorted)
        first = rdd.collect()
        sc.kill_executor(1)
        second = rdd.collect()
        assert first == second
        assert sc.executors[1].container.restarts == 1

    def test_cache_lost_on_kill_recomputed(self, sc):
        rdd = sc.parallelize(range(40), 4).map(lambda x: x * 2).cache()
        assert sorted(rdd.collect()) == [x * 2 for x in range(40)]
        sc.kill_executor(0)
        assert sorted(rdd.collect()) == [x * 2 for x in range(40)]

    def test_restart_counts_metric(self, sc):
        rdd = sc.parallelize(range(8), 4)
        rdd.collect()
        sc.kill_executor(2)
        rdd.collect()
        assert sc.executors[2].container.restarts == 1


class TestProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=60),
           st.integers(min_value=1, max_value=6))
    def test_collect_preserves_multiset(self, data, nparts):
        ctx = make_context(num_executors=2)
        try:
            got = ctx.parallelize(data, nparts).collect()
            assert sorted(got) == sorted(data)
        finally:
            ctx.stop()



class TestBroadcast:
    def test_value_accessible_and_memory_charged(self, sc):
        data = {"weights": list(range(1000))}
        b = sc.broadcast(data)
        assert b.value["weights"][5] == 5
        used = sum(ex.container.memory.used for ex in sc.executors)
        assert used >= b.nbytes * len(sc.executors)

    def test_unpersist_releases(self, sc):
        b = sc.broadcast(list(range(1000)))
        b.unpersist()
        assert not b.is_live
        assert sum(ex.container.memory.used for ex in sc.executors) == 0
        b.unpersist()  # idempotent

    def test_broadcast_advances_clocks(self, sc):
        t0 = sc.sim_time()
        sc.broadcast(list(range(100000)))
        assert sc.sim_time() > t0

    def test_usable_inside_tasks(self, sc):
        lookup = sc.broadcast({i: i * i for i in range(50)})
        got = sc.parallelize(range(50)).map(
            lambda x: lookup.value[x]).collect()
        assert sorted(got) == sorted(i * i for i in range(50))


class TestRddCheckpoint:
    def test_checkpoint_roundtrip(self, sc):
        rdd = sc.parallelize(range(20), 4).map(lambda x: x * 3)
        rdd.checkpoint()
        assert sorted(rdd.collect()) == [x * 3 for x in range(20)]

    def test_checkpoint_truncates_lineage(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(10), 2).map(spy)
        rdd.checkpoint()
        n = len(calls)
        rdd.collect()  # served from HDFS, no recompute
        assert len(calls) == n

    def test_checkpoint_survives_executor_death(self, sc):
        rdd = sc.parallelize(range(40), 4).map(lambda x: x + 1)
        rdd.checkpoint()
        for i in range(4):
            sc.kill_executor(i)
        assert sorted(rdd.collect()) == [x + 1 for x in range(40)]

    def test_checkpoint_files_on_hdfs(self, sc):
        rdd = sc.parallelize(range(8), 2)
        rdd.checkpoint("/ck/mine")
        assert len(sc.hdfs.listdir("/ck/mine")) == 2

    def test_downstream_of_checkpoint_computes(self, sc):
        rdd = sc.parallelize(range(10), 2).map(lambda x: x * 2)
        rdd.checkpoint()
        out = rdd.filter(lambda x: x >= 10).count()
        assert out == 5
