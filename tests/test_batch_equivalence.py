"""Cost-transparency equivalence: batched vs boxed hot paths.

The columnar pipeline is a host-speed representation change only.  These
tests pin the contract from both sides: for a shuffle, a reduceByKey, and
one Pregel-style superstep, the batched and boxed runs must produce

* identical results,
* identical ``dataflow.shuffle.*`` metrics (logical bytes + record counts),
* identical obs span sequences (names, tags, and bit-exact sim times),
* identical total simulated time.

Values are integer-valued floats throughout so every summation order is
exact and result comparison can demand equality, not tolerance.
"""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
    MetricsRegistry,
)
from repro.dataflow.context import SparkContext
from repro.dataflow.partitioner import HashPartitioner
from repro.lint.dynamic import _span_key
from repro.obs.tracer import Tracer

N_RECORDS = 600
N_PARTITIONS = 4


def make_data(seed=7):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 80, size=N_RECORDS).astype(np.int64)
    values = rng.integers(-100, 100, size=N_RECORDS).astype(np.float64)
    return keys, values


def run(pipeline, batched):
    """Run one pipeline on a fresh, fully instrumented context."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    cluster = ClusterConfig(num_executors=4, executor_mem_bytes=1 << 40)
    ctx = SparkContext(cluster, tracer=tracer, metrics=metrics)
    try:
        keys, values = make_data()
        if batched:
            rdd = ctx.parallelize_batches(keys, values, N_PARTITIONS)
        else:
            rdd = ctx.parallelize(
                list(zip(keys.tolist(), values.tolist())), N_PARTITIONS
            )
        result = pipeline(rdd)
        return {
            "result": result,
            "metrics": metrics.snapshot(),
            "spans": [_span_key(s) for s in tracer.spans()],
            "sim_time": ctx.sim_time(),
        }
    finally:
        ctx.stop()


def assert_equivalent(pipeline):
    boxed = run(pipeline, batched=False)
    batched = run(pipeline, batched=True)
    # Results: batched buckets are key-sorted, so compare as multisets.
    assert sorted(boxed["result"]) == sorted(batched["result"])
    # Logical shuffle accounting is bit-identical.
    for name in (SHUFFLE_BYTES_WRITTEN, SHUFFLE_BYTES_READ, SHUFFLE_RECORDS):
        assert boxed["metrics"].get(name) == batched["metrics"].get(name), name
    assert boxed["metrics"] == batched["metrics"]
    # Span sequences match bit-for-bit, including start/end sim times.
    assert boxed["spans"] == batched["spans"]
    assert boxed["sim_time"] == batched["sim_time"]
    return boxed, batched


class TestShuffleEquivalence:
    def test_partition_by(self):
        boxed, _ = assert_equivalent(
            lambda rdd: rdd.partition_by(
                HashPartitioner(N_PARTITIONS)
            ).collect_records()
        )
        assert len(boxed["result"]) == N_RECORDS
        assert boxed["metrics"][SHUFFLE_RECORDS] == N_RECORDS

    def test_partitioning_is_identical(self):
        # Not just the same multiset globally: every record must land in
        # the same reduce partition under both representations.
        def per_partition(rdd):
            parts = rdd.partition_by(
                HashPartitioner(N_PARTITIONS)
            ).as_records().collect_partitions()
            return [sorted(p) for p in parts]

        boxed = run(per_partition, batched=False)
        batched = run(per_partition, batched=True)
        assert boxed["result"] == batched["result"]


class TestReduceByKeyEquivalence:
    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_reduce_by_key(self, op):
        boxed, _ = assert_equivalent(
            lambda rdd: rdd.reduce_by_key(
                op=op, num_partitions=N_PARTITIONS
            ).collect_records()
        )
        keys, values = make_data()
        expect = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            if k not in expect:
                expect[k] = v
            elif op == "add":
                expect[k] += v
            elif op == "min":
                expect[k] = min(expect[k], v)
            else:
                expect[k] = max(expect[k], v)
        assert dict(boxed["result"]) == expect
        # Map-side combine means one record per distinct key per map task
        # reaches the wire — same count either way.
        assert boxed["metrics"][SHUFFLE_RECORDS] < 2 * N_RECORDS


class TestPregelSuperstepEquivalence:
    def test_one_superstep(self):
        """A hand-rolled PageRank superstep: contribs -> combine -> update.

        This is the shuffle shape one Pregel iteration generates
        (aggregateMessages with a sum combiner followed by vprog), run
        through the real shuffle machinery under both representations.
        """
        def superstep(rdd):
            contribs = rdd.reduce_by_key(op="add",
                                         num_partitions=N_PARTITIONS)
            ranks = contribs.as_records().map_values(
                lambda s: 15.0 + 85.0 * s
            )
            return ranks.collect_records()

        boxed, batched = assert_equivalent(superstep)
        assert len(boxed["result"]) == len(set(make_data()[0].tolist()))
        assert boxed["sim_time"] > 0.0
