"""Unit tests for repro.common: costs, clocks, memory, metrics, sizeof, rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import GB, ClusterConfig, psgraph_config_ds1
from repro.common.costs import CostModel
from repro.common.errors import ConfigError, SimulatedOOMError
from repro.common.memory import MemoryTracker
from repro.common.metrics import MetricsRegistry
from repro.common.rng import derive_seed, make_rng
from repro.common.simclock import SimClock, TaskCost, barrier
from repro.common.sizeof import sizeof, sizeof_records
from repro.dataflow.context import SparkContext


class TestCostModel:
    def test_network_time_includes_latency(self):
        cm = CostModel(network_bandwidth_bps=1e9, rpc_latency_s=1e-3)
        assert cm.network_time(0) == pytest.approx(1e-3)
        assert cm.network_time(1e9) == pytest.approx(1.001)

    def test_congestion_multiplies_transfer_not_latency(self):
        cm = CostModel(network_bandwidth_bps=1e9, rpc_latency_s=0.0)
        assert cm.network_time(1e9, congestion=4) == pytest.approx(4.0)

    def test_congestion_below_one_clamped(self):
        cm = CostModel(network_bandwidth_bps=1e9, rpc_latency_s=0.0)
        assert cm.network_time(1e9, congestion=0.25) == pytest.approx(1.0)

    def test_disk_times(self):
        cm = CostModel(disk_read_bps=100.0, disk_write_bps=50.0)
        assert cm.disk_read_time(200) == pytest.approx(2.0)
        assert cm.disk_write_time(200) == pytest.approx(4.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(network_bandwidth_bps=0)

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(jvm_object_overhead=0.5)


class TestSimClock:
    def test_advance_accumulates(self):
        c = SimClock()
        c.advance(1.5)
        c.advance(2.5)
        assert c.now_s == pytest.approx(4.0)
        assert c.busy_s == pytest.approx(4.0)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to_only_moves_forward(self):
        c = SimClock()
        c.advance(5)
        c.advance_to(3)
        assert c.now_s == 5
        c.advance_to(8)
        assert c.now_s == 8
        assert c.busy_s == 5  # idle time is not busy time

    def test_barrier_aligns_to_max(self):
        clocks = [SimClock(), SimClock(), SimClock()]
        clocks[0].advance(1)
        clocks[1].advance(7)
        t = barrier(clocks)
        assert t == 7
        assert all(c.now_s == 7 for c in clocks)

    def test_barrier_empty(self):
        assert barrier([]) == 0.0

    def test_task_cost_total(self):
        a = TaskCost()
        a.cpu_s, a.net_s, a.disk_s = 1.5, 2, 3
        assert a.total_s == pytest.approx(6.5)


class TestMemoryTracker:
    def test_allocate_and_release(self):
        m = MemoryTracker("c", capacity=100)
        m.allocate(60, tag="a")
        m.allocate(30, tag="b")
        assert m.used == 90
        m.release(30, tag="b")
        assert m.used == 60

    def test_oom_raised_with_context(self):
        m = MemoryTracker("executor-7", capacity=100)
        m.allocate(90)
        with pytest.raises(SimulatedOOMError) as exc:
            m.allocate(20, tag="join-table")
        assert "executor-7" in str(exc.value)
        assert "join-table" in str(exc.value)
        # Failed allocation does not change usage.
        assert m.used == 90

    def test_peak_tracks_high_water(self):
        m = MemoryTracker("c", capacity=None)
        m.allocate(100)
        m.release(100)
        m.allocate(40)
        assert m.peak == 100

    def test_release_tag_frees_everything(self):
        m = MemoryTracker("c", capacity=1000)
        m.allocate(100, tag="x")
        m.allocate(200, tag="x")
        assert m.release_tag("x") == 300
        assert m.used == 0

    def test_unlimited_capacity(self):
        m = MemoryTracker("c", capacity=None)
        m.allocate(10 ** 15)
        assert m.used == 10 ** 15

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=30))
    def test_usage_never_negative(self, amounts):
        m = MemoryTracker("c", capacity=None)
        for a in amounts:
            m.allocate(a)
            m.release(a + 1)  # over-release is clamped
        assert m.used >= 0


class TestMetrics:
    def test_inc_and_get(self):
        r = MetricsRegistry()
        r.inc("x", 2)
        r.inc("x", 3)
        assert r.get("x") == 5
        assert r.get("missing") == 0

    def test_snapshot_is_copy(self):
        r = MetricsRegistry()
        r.inc("x")
        snap = r.snapshot()
        r.inc("x")
        assert snap["x"] == 1


class TestGaugeWaterMarks:
    def test_low_water_tracks_minimum(self):
        r = MetricsRegistry()
        r.set_gauge("g", 5.0)
        r.set_gauge("g", 2.0)
        r.set_gauge("g", 4.0)
        snap = r.gauge_snapshot()["g"]
        assert snap["value"] == 4.0
        assert snap["high"] == 5.0
        assert snap["low"] == 2.0
        assert snap["updates"] == 3

    def test_negative_initialization_sets_both_marks(self):
        # The first set() seeds high AND low from the observed value —
        # a gauge initialized to -3 must not report high == 0.
        r = MetricsRegistry()
        r.set_gauge("g", -3.0)
        snap = r.gauge_snapshot()["g"]
        assert snap["high"] == -3.0
        assert snap["low"] == -3.0
        r.set_gauge("g", -1.0)
        snap = r.gauge_snapshot()["g"]
        assert snap["high"] == -1.0
        assert snap["low"] == -3.0

    def test_single_update_marks_equal_value(self):
        r = MetricsRegistry()
        r.set_gauge("g", 7.5)
        snap = r.gauge_snapshot()["g"]
        assert snap["value"] == snap["high"] == snap["low"] == 7.5
        assert snap["updates"] == 1


class TestSizeof:
    def test_numpy_exact(self):
        a = np.zeros(10, dtype=np.float64)
        assert sizeof(a) == 80

    def test_scalars(self):
        assert sizeof(3) == 8
        assert sizeof(3.5) == 8
        assert sizeof(None) == 0

    def test_string_utf8(self):
        assert sizeof("abc") == 3

    def test_large_list_sampled_estimate_close(self):
        data = [(i, i + 1) for i in range(10000)]
        est = sizeof(data)
        # each tuple ~ 8 + 2*8 + 8 = 40ish; just check the right ballpark
        assert 200_000 < est < 600_000

    def test_sizeof_records_list_vs_array(self):
        arr = np.arange(100, dtype=np.int64)
        assert sizeof_records(arr) == 800
        assert sizeof_records(list(range(4))) > 0

    @given(st.lists(st.integers(), min_size=0, max_size=200))
    def test_sizeof_monotone_nonnegative(self, xs):
        assert sizeof(xs) >= 0


class TestClusterConfig:
    def test_parallelism_defaults(self):
        ctx = SparkContext(ClusterConfig(num_executors=4))
        try:
            assert ctx.parallelize(range(100)).num_partitions == 4
        finally:
            ctx.stop()

    def test_scaled_preserves_counts(self):
        c = psgraph_config_ds1()
        s = c.scaled(1e-4)
        assert s.num_executors == c.num_executors
        assert s.num_servers == c.num_servers
        assert s.executor_mem_bytes == int(20 * GB * 1e-4)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig().scaled(0)

    def test_invalid_executors_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_executors=0)

    def test_ps_requires_server_memory(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_servers=2, server_mem_bytes=0)


class TestRng:
    def test_reproducible(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert (a == b).all()

    def test_derive_seed_varies_by_stream(self):
        s1 = derive_seed(7, "partition", 0)
        s2 = derive_seed(7, "partition", 1)
        assert s1 != s2

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "x", 3) == derive_seed(7, "x", 3)


class TestMemoryTags:
    def test_tags_track_partial_release(self):
        m = MemoryTracker("c", capacity=None)
        m.allocate(100, tag="a")
        m.allocate(50, tag="b")
        m.release(40, tag="a")
        assert m._by_tag == {"a": 60, "b": 50}
        m.release(70, tag="a")  # over-release of the tag clamps it away
        assert "a" not in m._by_tag


class TestPropertyHelpers:
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
