"""Additional coverage: agent timing semantics, pregel, Euler passes,
memory tags, describe(), and property tests of core helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig
from repro.common.costs import CostModel
from repro.common.memory import MemoryTracker
from repro.common.sizeof import sizeof
from repro.core.context import PSGraphContext
from repro.dataflow.context import SparkContext
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.eulersim.euler import EulerSystem
from repro.graphx.graph import Graph
from repro.graphx.pregel import pregel
from repro.torchlite import Tensor, segment_max, segment_mean


def make_psg(num_executors=4, num_servers=2):
    cluster = ClusterConfig(
        num_executors=num_executors, executor_mem_bytes=1 << 40,
        num_servers=num_servers, server_mem_bytes=1 << 40,
    )
    return PSGraphContext(cluster)


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


class TestDescribe:
    def test_layout_report(self):
        ctx = make_psg()
        try:
            ctx.ps.create_vector("ranks", 100)
            ctx.ps.create_neighbor_table("adj", 100)
            report = ctx.ps.describe()
            assert "ranks" in report
            assert "adj" in report
            assert "ps-server-0" in report
            assert "alive" in report
        finally:
            ctx.stop()


class TestMemoryTags:
    def test_usage_by_tag_tracks_partial_release(self):
        m = MemoryTracker("c", capacity=None)
        m.allocate(100, tag="a")
        m.allocate(50, tag="b")
        m.release(40, tag="a")
        tags = m.usage_by_tag()
        assert tags == {"a": 60, "b": 50}
        m.release(70, tag="a")  # over-release of the tag clamps it away
        assert "a" not in m.usage_by_tag()


class TestPropertyHelpers:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30),
           st.integers(1, 3))
    def test_segment_mean_matches_reference(self, segs, cols):
        segs = np.asarray(segs)
        num = int(segs.max()) + 1
        rng = np.random.default_rng(1)
        x = rng.standard_normal((len(segs), cols))
        got = segment_mean(Tensor(x), segs, num).data
        for s in range(num):
            rows = x[segs == s]
            expect = rows.mean(axis=0) if len(rows) else np.zeros(cols)
            np.testing.assert_allclose(got[s], expect, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_segment_max_matches_reference(self, segs):
        segs = np.asarray(segs)
        num = int(segs.max()) + 1
        rng = np.random.default_rng(2)
        x = rng.standard_normal((len(segs), 2))
        got = segment_max(Tensor(x), segs, num).data
        for s in range(num):
            rows = x[segs == s]
            if len(rows):
                np.testing.assert_allclose(got[s], rows.max(axis=0))

    @settings(deadline=None, max_examples=30)
    @given(st.recursive(
        st.one_of(st.integers(-10, 10), st.floats(-1, 1), st.text(max_size=5)),
        lambda inner: st.lists(inner, max_size=5),
        max_leaves=20,
    ))
    def test_sizeof_total_and_nonnegative(self, obj):
        assert sizeof(obj) >= 0

    @settings(deadline=None, max_examples=20)
    @given(st.floats(1e6, 1e10), st.floats(0, 1e-3))
    def test_network_time_monotone_in_bytes(self, bw, lat):
        cm = CostModel(network_bandwidth_bps=bw, rpc_latency_s=lat)
        assert cm.network_time(1000) <= cm.network_time(2000)


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
