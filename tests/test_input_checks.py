"""Every check on caller input that no entry point reaches raises its
typed error, and raises it before any sim clock or counter moves."""

import numpy as np
import pytest

from repro.chaos import FaultSchedule
from repro.common.batch import RowBatch
from repro.common.config import ClusterConfig, CostModel
from repro.common.errors import (
    ConfigError,
    GraphLoadError,
    PSError,
    ResourceError,
)
from repro.common.memory import MemoryTracker
from repro.common.sketch import QuantileSketch
from repro.dataflow.partitioner import Partitioner
from repro.dataflow.rdd import ParallelCollectionRDD
from repro.graphx.graph import Graph
from repro.ingest.kafka import KafkaTopic
from repro.obs.slo import SloEngine
from repro.ps.cache import PullCache
from repro.ps.optimizer import SGD
from repro.ps.partitioner import (
    HashPSPartitioner,
    HashRangePSPartitioner,
    RangePSPartitioner,
)
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from repro.serve.limiter import TokenBucket
from repro.serve.workload import zipf_probabilities
from tests.conftest import make_context, make_psg

TENANT = TenantSpec(name="t", model="m")


def _ids(*vs):
    return np.asarray(vs, dtype=np.int64)


# (id, context kind or None, [the target made from the context,] the call
# on the target, the typed error); the target is the context itself when
# none is made.
CASES = [
    # configuration
    ("cluster-servers", None, lambda _: ClusterConfig(
        num_executors=1, executor_mem_bytes=1, num_servers=-1),
     ConfigError),
    ("cluster-executor-mem", None, lambda _: ClusterConfig(
        num_executors=1, executor_mem_bytes=0), ConfigError),
    ("cost-shuffle-buffer", None, lambda _: CostModel(
        shuffle_buffer_overhead=-1.0), ConfigError),
    ("cost-latency", None, lambda _: CostModel(rpc_latency_s=-1.0),
     ConfigError),
    # serving
    ("tenant-deadline", None, lambda _: TenantSpec(
        name="t", model="m", deadline_s=0.0), ConfigError),
    ("tenant-rate-limit", None, lambda _: TenantSpec(
        name="t", model="m", rate_limit=-1.0), ConfigError),
    ("tenant-burst", None, lambda _: TenantSpec(
        name="t", model="m", burst=0), ConfigError),
    ("zipf-exponent", None, lambda _: zipf_probabilities(10, -0.5),
     ConfigError),
    ("generator-rate", None, lambda _: RequestGenerator(
        [TENANT], key_space=10, rate=0.0), ConfigError),
    ("generator-count", None, lambda _: RequestGenerator(
        [TENANT], key_space=10).generate(-1), ConfigError),
    ("bucket-rate", None, lambda _: TokenBucket(rate=-1.0, burst=1.0),
     ConfigError),
    ("bucket-burst", None, lambda _: TokenBucket(rate=1.0, burst=0.5),
     ConfigError),
    ("plane-batch-size", "psg", lambda ctx: ServingPlane(
        ctx.ps, [TENANT], batch_size=0), ConfigError),
    # the parameter server
    ("ps-server-mem", None, lambda _: ClusterConfig(
        num_executors=1, executor_mem_bytes=1, num_servers=1,
        server_mem_bytes=-1), ConfigError),
    ("ps-storage", "psg", lambda ctx: ctx.ps.create_matrix(
        "m", 4, storage="tape"), ConfigError),
    ("ps-axis", "psg", lambda ctx: ctx.ps.create_matrix("m", 4, axis=2),
     ConfigError),
    ("ps-partitioner-size", None, lambda _: RangePSPartitioner(0, 2),
     ConfigError),
    ("ps-partitioner-partitions", None, lambda _: HashPSPartitioner(4, 0),
     ConfigError),
    ("ps-partitioner-buckets", None, lambda _: HashRangePSPartitioner(
        4, 2, buckets_per_partition=0), ConfigError),
    ("partitioner", None, lambda _: Partitioner(0), ConfigError),
    ("rdd-partitions", "spark", lambda ctx: ParallelCollectionRDD(
        ctx, [1, 2], 0), ConfigError),
    ("row-batch-columns", None, lambda _: RowBatch(), ValueError),
    ("agent-slices-shape", "psg", lambda ctx: ctx.ps.create_embedding(
        "e", 4, 3), lambda emb: emb.push_rows(_ids(0, 1), np.ones((2, 2))),
     PSError),
    ("agent-gradient-shape", "psg", lambda ctx: ctx.ps.create_matrix(
        "w", 4, 3, optimizer=SGD(0.1)),
     lambda w: w.apply_gradients(np.ones((4, 2))), PSError),
    ("cache-negative-keys", None, lambda _: PullCache().store(
        _ids(-1, 2), None, np.ones(2), epoch=0), PSError),
    ("recovery-mode", "psg", lambda ctx: ctx.ps.master.recover("eventual"),
     ValueError),
    # graphs and the edge stream
    ("graphx-length", "spark", lambda ctx: Graph.from_edges(
        ctx, _ids(0, 1), _ids(1)), GraphLoadError),
    ("graphx-reduce-op", "spark", lambda ctx: Graph.from_edges(
        ctx, _ids(0, 1), _ids(1, 2)), lambda graph: graph.aggregate_messages(
            lambda *_a: None, reduce_op="median"), ValueError),
    ("kafka-removals-length", None, lambda _: KafkaTopic("t").produce_removals(
        _ids(0, 1), _ids(1)), ConfigError),
    # observability and accounting
    ("sketch-alpha", None, lambda _: QuantileSketch(alpha=1.0), ValueError),
    ("sketch-percentile", None, lambda _: QuantileSketch().percentile(101),
     ValueError),
    ("memory-allocate", None, lambda _: MemoryTracker("c", 10).allocate(-1),
     ValueError),
    ("memory-release", None, lambda _: MemoryTracker("c", 10).release(-1),
     ValueError),
    ("slo-window", None, lambda _: SloEngine([], window_s=0.0), ValueError),
    # fault schedules and Yarn
    ("schedule-faults", None, lambda _: FaultSchedule.from_dict(
        {"faults": {"kind": "kill_server"}}), ConfigError),
    ("yarn-memory", "spark", lambda ctx: ctx.resource_manager.request(
        "executor", 0), ResourceError),
]


def _context(kind):
    if kind == "spark":
        return make_context(num_executors=2)
    return make_psg(num_executors=2, num_servers=2)


def _moved(ctx):
    """Every sim clock and counter of ``ctx``."""
    spark = getattr(ctx, "spark", ctx)
    clocks = [spark.driver_clock.now_s] + [
        c.clock.now_s for c in spark.resource_manager._containers.values()]
    return clocks, sorted(spark.metrics.snapshot().items())


def _param(case_id, kind, *rest):
    make, call, error = rest if len(rest) == 3 else (None, *rest)
    return pytest.param(kind, make, call, error, id=case_id)


@pytest.mark.parametrize("kind, make, call, error",
                         [_param(*case) for case in CASES])
def test_bad_input_raises_its_typed_error_and_moves_nothing(kind, make, call,
                                                            error):
    if kind is None:
        with pytest.raises(error):
            call(None)
        return
    ctx = _context(kind)
    try:
        target = make(ctx) if make is not None else ctx
        before = _moved(ctx)
        with pytest.raises(error):
            call(target)
        assert _moved(ctx) == before
    finally:
        ctx.stop()
