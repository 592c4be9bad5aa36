"""Unit + property tests for the RDD engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulatedOOMError
from repro.common.metrics import SHUFFLE_BYTES_WRITTEN, STAGES_RUN
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.rdd import TextFileRDD
from repro.dataflow.taskctx import current_task_context
from tests.conftest import make_context


def _partition() -> int:
    """The partition the running task computes."""
    return current_task_context().partition_id


class TestBasics:
    def test_parallelize_collect_roundtrip(self, sc):
        data = list(range(100))
        assert sorted(sc.parallelize(data).collect()) == data

    def test_count(self, sc):
        assert sc.parallelize(range(37)).count() == 37

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
        placed = rdd.map_partitions(
            lambda it: [(_partition(), k) for k, _v in it]).collect()
        assert len(placed) == 16
        for pid, k in placed:
            assert p.partition(k) == pid

    def test_partitioning_is_identical(self, sc):
        # The record shuffle places a key with the scalar ``partition``, a
        # block shuffle with ``partition_array``: the same reduce partition.
        p = HashPartitioner(4)
        keys = np.random.default_rng(7).integers(0, 80, size=600)
        placed = sc.parallelize([(k, None) for k in keys.tolist()], 4) \
            .partition_by(p).map_partitions(
                lambda it: [(k, _partition()) for k, _v in it]).collect()
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
        sc.hdfs.write_text("/in/one.txt", [str(i) for i in range(10)],
                           overwrite=False)
        rdd = TextFileRDD(sc, "/in/one.txt", 3)
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
