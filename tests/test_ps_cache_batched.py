"""PullCache behaviour under array pulls / pushes / sets of many rows.

Covers the satellite checklist: epoch expiry at the BSP barrier,
write-through invalidation of the writer's own rows, and hit/miss stats
when a batched pull partially overlaps the cached set.
"""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.dataflow.context import SparkContext
from repro.ps.context import PSContext


@pytest.fixture
def ps():
    cluster = ClusterConfig(
        num_executors=2, executor_mem_bytes=1 << 40,
        num_servers=3, server_mem_bytes=1 << 40,
    )
    spark = SparkContext(cluster)
    psctx = PSContext(spark)
    yield psctx
    psctx.stop()
    spark.stop()


def make_cached_matrix(ps, staleness=0, cols=4, rows=64):
    m = ps.create_matrix("m", rows, cols)
    cache = ps.enable_pull_cache("m", staleness=staleness)
    full = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
    m.set(np.arange(rows), full)
    cache.clear()  # set() warms nothing, but start from a clean slate
    cache.stats.hits = cache.stats.misses = 0
    return m, cache, full


class TestBatchedPullCaching:
    def test_repeat_pull_within_epoch_hits(self, ps):
        m, cache, full = make_cached_matrix(ps, staleness=1)
        keys = np.arange(10)
        m.pull(keys)
        assert cache.stats.misses == 10 and cache.stats.hits == 0
        rows = m.pull(keys)
        assert cache.stats.hits == 10 and cache.stats.misses == 10
        np.testing.assert_array_equal(rows, full[keys])

    def test_barrier_expires_entries_under_bsp(self, ps):
        m, cache, _full = make_cached_matrix(ps, staleness=0)
        keys = np.arange(10)
        m.pull(keys)
        m.pull(keys)
        assert cache.stats.hits == 10  # same epoch: served from cache
        ps.barrier()  # BSP barrier ticks the epoch; staleness=0 expires all
        m.pull(keys)
        assert cache.stats.misses == 20
        assert cache.stats.hits == 10

    def test_staleness_survives_one_barrier(self, ps):
        m, cache, _full = make_cached_matrix(ps, staleness=1)
        keys = np.arange(5)
        m.pull(keys)
        ps.barrier()
        m.pull(keys)  # one epoch old <= staleness: still served
        assert cache.stats.hits == 5
        ps.barrier()
        m.pull(keys)  # two epochs old > staleness: expired
        assert cache.stats.misses == 10

    def test_push_batch_invalidates_writers_rows(self, ps):
        m, cache, full = make_cached_matrix(ps, staleness=5)
        keys = np.arange(10)
        m.pull(keys)
        dirty = np.asarray([2, 7])
        m.push(dirty, np.ones((2, 4)))
        # The writer's own rows were dropped; the rest still serve.
        rows = m.pull(keys)
        assert cache.stats.hits == 8
        assert cache.stats.misses == 12  # 10 cold + 2 invalidated
        np.testing.assert_array_equal(rows[dirty], full[dirty] + 1.0)

    def test_set_batch_invalidates_and_overwrites(self, ps):
        m, cache, full = make_cached_matrix(ps, staleness=5)
        keys = np.arange(6)
        m.pull(keys)
        m.set(np.asarray([1, 4]), np.zeros((2, 4)))
        rows = m.pull(keys)
        np.testing.assert_array_equal(rows[1], np.zeros(4))
        np.testing.assert_array_equal(rows[4], np.zeros(4))
        np.testing.assert_array_equal(rows[0], full[0])

    def test_partial_overlap_stats(self, ps):
        m, cache, full = make_cached_matrix(ps, staleness=1)
        m.pull(np.arange(0, 10))
        cache.stats.hits = cache.stats.misses = 0
        rows = m.pull(np.arange(5, 15))
        # keys 5..9 cached, 10..14 cold
        assert cache.stats.hits == 5
        assert cache.stats.misses == 5
        assert cache.stats.hit_rate == 0.5
        np.testing.assert_array_equal(rows, full[5:15])
        assert cache._size == 15

    def test_cached_values_match_to_numpy(self, ps):
        m, _cache, _full = make_cached_matrix(ps, staleness=2)
        keys = np.asarray([0, 13, 27, 13])
        m.pull(keys)
        rows = m.pull(keys)  # served (at least partly) from cache
        np.testing.assert_array_equal(rows, m.to_numpy()[keys])

    def test_vector_pull_batch(self, ps):
        v = ps.create_vector("v", 32)
        ps.enable_pull_cache("v", staleness=1)
        v.set(np.arange(32), np.arange(32, dtype=np.float64))
        rows = v.pull(np.asarray([4, 9]))
        assert rows.tolist() == [4.0, 9.0]
        rows = v.pull(np.asarray([4, 9]))
        assert ps.pull_cache("v").stats.hits == 2
