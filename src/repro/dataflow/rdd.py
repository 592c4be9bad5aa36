"""Resilient Distributed Datasets — the Spark programming abstraction.

"Resilient distributed dataset (RDD), the core programming abstraction of
Spark, is a fault-tolerant collection of elements that can be operated in
parallel" (Sec. III-C).  This module reproduces the RDD model faithfully
enough for GraphX-style workloads:

* transformations are **lazy** and build a lineage DAG;
* wide transformations (``groupByKey``, ``reduceByKey``, ``join``, ...)
  introduce a :class:`ShuffleDependency`, which the DAG scheduler turns into
  a map stage writing through the metered shuffle;
* ``cache()`` persists computed partitions in executor memory (charged
  against the executor's grant — over-caching OOMs, as GraphX does);
* lost partitions are recomputed from lineage, which is the executor-failure
  recovery path of Table II.

Partition placement is deterministic (a multiplicative hash of the
partition id picks the preferred executor), making runs bit-reproducible.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Tuple,
)

from repro.common.batch import (
    COMBINE_FNS,
    COMBINE_UFUNCS,
    RecordBatch,
    accumulate_sequential,
    explode_records,
    iter_records,
    records_nbytes,
    segment_reduce,
)
from repro.common.errors import ConfigError, PSGraphError
from repro.common.rng import derive_seed, make_rng
from repro.common.simclock import TaskCost
from repro.dataflow.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.dataflow.shuffle import ColumnBlock, bucket_map_output
from repro.dataflow.taskctx import TaskContext, metered, task_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.context import SparkContext


class ShuffleDependency:
    """A wide dependency: the child reads bucketed output of the parent.

    Attributes:
        parent: the RDD whose records are shuffled.
        partitioner: maps record keys to reduce partitions.
        shuffle_id: unique id within the SparkContext.
        map_side_combine: optional ``(create, merge)`` pair applied inside
            each map task to pre-aggregate values per key before writing,
            which is how ``reduceByKey`` moves fewer bytes than ``groupByKey``.
        combine_op: optional name ("add"/"min"/"max") declaring that
            ``map_side_combine`` is that numeric op with an identity
            ``create``; columnar partitions then combine as a vectorized
            segment-reduce instead of the per-record fold.
    """

    def __init__(self, parent: "RDD", partitioner: Partitioner,
                 map_side_combine: Tuple[Callable[[Any], Any],
                                         Callable[[Any, Any], Any]] | None = None,
                 combine_op: str | None = None) -> None:
        self.parent = parent
        self.partitioner = partitioner
        self.shuffle_id = parent.ctx.next_shuffle_id()
        self.map_side_combine = map_side_combine
        self.combine_op = combine_op

    def map_output(self, records: Iterator[Any], cost: TaskCost,
                   cpu_record_s: float) -> Any:
        """What a map task writes for one parent partition: its records,
        each charged ``cpu_record_s``, bucketed by reduce partition."""
        return bucket_map_output(
            list(metered(records, cost, cpu_record_s,
                         trace_name="map-input")),
            self.partitioner, self.map_side_combine, self.combine_op,
        )


class BlockShuffleDependency(ShuffleDependency):
    """A wide dependency whose map task writes one column block.

    ``to_block`` turns the parent partition's iterator into the
    :class:`~repro.dataflow.shuffle.ColumnBlock` holding every reduce
    partition's rows; the task is charged ``cpu_record_s`` for each boxed
    record the block stands for, after whatever draining the parent
    charged — as :func:`~repro.dataflow.taskctx.metered` charges records.
    """

    def __init__(self, parent: "RDD", partitioner: Partitioner,
                 to_block: Callable[[Iterator[Any]], ColumnBlock]) -> None:
        super().__init__(parent, partitioner)
        self.to_block = to_block

    def map_output(self, records: Iterator[Any], cost: TaskCost,
                   cpu_record_s: float) -> ColumnBlock:
        with task_span("map-input", cost):
            block = self.to_block(records)
            cost.cpu_s = accumulate_sequential(
                cost.cpu_s, cpu_record_s, int(block.slots.sum()))
        if len(block.lens) != self.partitioner.num_partitions:
            raise PSGraphError(
                f"shuffle {self.shuffle_id}: map output block has "
                f"{len(block.lens)} buckets for "
                f"{self.partitioner.num_partitions} reduce partitions"
            )
        return block


class RDD:
    """Base class; subclasses define :meth:`compute` over one partition."""

    def __init__(self, ctx: "SparkContext", num_partitions: int,
                 narrow_parents: List["RDD"] | None = None,
                 shuffle_deps: List[ShuffleDependency] | None = None,
                 partitioner: Partitioner | None = None) -> None:
        if num_partitions <= 0:
            raise ConfigError("RDD must have at least one partition")
        self.ctx = ctx
        self.id = ctx.next_rdd_id()
        self.num_partitions = num_partitions
        self.narrow_parents = narrow_parents or []
        self.shuffle_deps = shuffle_deps or []
        self.partitioner = partitioner
        self._cached = False
        self._checkpoint_path: str | None = None

    # ------------------------------------------------------------------
    # computation & caching
    # ------------------------------------------------------------------

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        """Produce the records of partition ``split`` (subclass hook)."""
        raise NotImplementedError

    def iterator(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        """Cached-or-computed records of partition ``split``."""
        ckpt = self._checkpoint_path
        if ckpt is not None:
            return iter(self.ctx.hdfs.read_pickle(
                f"{ckpt}/part-{split:05d}", cost=tctx.cost
            ))
        if self._cached:
            hit = tctx.executor.cache_get(self.id, split)
            if hit is not None:
                return iter(hit)
            records = list(self.compute(split, tctx))
            tctx.executor.cache_put(self.id, split, records)
            return iter(records)
        return self.compute(split, tctx)

    def cache(self) -> "RDD":
        """Persist computed partitions in executor memory."""
        self._cached = True
        return self

    def checkpoint(self, path: str | None = None) -> "RDD":
        """Materialize every partition to HDFS and truncate lineage.

        Unlike :meth:`cache` (executor memory, lost with the executor), a
        checkpoint survives container failures: subsequent reads — including
        recovery after an executor death — load the partition back from
        HDFS instead of recomputing ancestors.  Eager, like Spark's
        ``checkpoint()`` + immediate materialization.
        """
        base = path or f"/rdd-checkpoints/rdd-{self.id}"
        hdfs = self.ctx.hdfs

        def write(p: int, tctx: TaskContext) -> None:
            records = list(self.iterator(p, tctx))
            hdfs.write_pickle(
                f"{base}/part-{p:05d}", records, overwrite=True,
                cost=tctx.cost,
            )

        self.ctx.scheduler.run_stage(
            self.num_partitions, write, kind="rdd-checkpoint"
        )
        self._checkpoint_path = base
        return self

    @property
    def is_checkpointed(self) -> bool:
        """Whether :meth:`checkpoint` has materialized this RDD to HDFS."""
        return self._checkpoint_path is not None

    persist = cache

    def unpersist(self) -> "RDD":
        """Drop cached partitions from every executor."""
        self._cached = False
        for ex in self.ctx.executors:
            ex.cache_drop_rdd(self.id)
        return self

    @property
    def is_cached(self) -> bool:
        """Whether :meth:`cache` has been requested."""
        return self._cached

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------

    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to every record."""
        return MapPartitionsRDD(
            self, lambda _i, it: (f(x) for x in it), preserves_partitioning=False
        )

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        """Keep records where ``f`` is true."""
        return MapPartitionsRDD(
            self, lambda _i, it: (x for x in it if f(x)),
            preserves_partitioning=True,
        )

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        """Apply ``f`` and flatten the results."""
        return MapPartitionsRDD(
            self, lambda _i, it: (y for x in it for y in f(x)),
            preserves_partitioning=False,
        )

    def map_partitions(self, f: Callable[[Iterator[Any]], Iterable[Any]],
                       preserves_partitioning: bool = False) -> "RDD":
        """Apply ``f`` to each whole partition iterator."""
        return MapPartitionsRDD(
            self, lambda _i, it: f(it),
            preserves_partitioning=preserves_partitioning,
        )

    def map_partitions_with_index(
            self, f: Callable[[int, Iterator[Any]], Iterable[Any]],
            preserves_partitioning: bool = False) -> "RDD":
        """Like :meth:`map_partitions` but ``f`` also receives the index."""
        return MapPartitionsRDD(
            self, f, preserves_partitioning=preserves_partitioning
        )

    def glom(self) -> "RDD":
        """Collapse each partition into a single list record."""
        return MapPartitionsRDD(self, lambda _i, it: iter([list(it)]))

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        """Turn records into ``(f(x), x)`` pairs."""
        return self.map(lambda x: (f(x), x))

    def keys(self) -> "RDD":
        """First elements of pair records."""
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        """Second elements of pair records."""
        return self.map(lambda kv: kv[1])

    def map_values(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to pair values, preserving keys and partitioning."""
        return MapPartitionsRDD(
            self, lambda _i, it: ((k, f(v)) for k, v in it),
            preserves_partitioning=True,
        )

    def as_records(self) -> "RDD":
        """Explode columnar batches into boxed ``(key, value)`` pairs.

        Record-at-a-time operators (``map``, ``map_values``, ...) do not
        understand :class:`~repro.common.batch.RecordBatch` partition
        elements; call this first when mixing them with a batched
        pipeline.  Downstream metering then charges boxed rates — correct,
        because the data *is* boxed from here on.
        """
        return MapPartitionsRDD(
            self, lambda _i, it: iter_records(it),
            preserves_partitioning=True,
        )

    def to_batches(self) -> "RDD":
        """Collapse each partition's pair records into one columnar batch.

        Partitions whose keys are not numeric or whose values numpy cannot
        hold pass through unchanged (the boxed fallback).
        """
        def collapse(_i: int, it: Iterator[Any]) -> Iterator[Any]:
            items = list(it)
            if not items:
                return iter(())
            try:
                if all(isinstance(x, RecordBatch) for x in items):
                    return iter([RecordBatch.concat(items)])
                return iter([RecordBatch.from_pairs(iter_records(items))])
            except (ValueError, TypeError):
                return iter(items)

        return MapPartitionsRDD(self, collapse, preserves_partitioning=True)

    def flat_map_values(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        """Expand each pair value into several pairs with the same key."""
        return MapPartitionsRDD(
            self, lambda _i, it: ((k, y) for k, v in it for y in f(v)),
            preserves_partitioning=True,
        )

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (partitions are appended)."""
        return UnionRDD(self.ctx, [self, other])

    def sample(self, fraction: float, seed: int = 7) -> "RDD":
        """Bernoulli sample of records with probability ``fraction``.

        Each partition draws from its own seeded stream (derived from
        ``seed`` and the partition id), so a recomputed partition — e.g.
        after an executor failure — resamples the identical subset.
        """
        def sampler(i: int, it: Iterator[Any]) -> Iterator[Any]:
            rng = make_rng(derive_seed(seed, "rdd-sample", i))
            return (x for x in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sampler, preserves_partitioning=True)

    def zip_with_index(self) -> "RDD":
        """Pair each record with a global 0-based index (triggers a count)."""
        counts = self.map_partitions(lambda it: [sum(1 for _ in it)]).collect()
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def indexer(i: int, it: Iterator[Any]) -> Iterator[Any]:
            return ((x, offsets[i] + j) for j, x in enumerate(it))

        return MapPartitionsRDD(self, indexer)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without a shuffle."""
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def repartition(self, num_partitions: int) -> "RDD":
        """Rebalance into ``num_partitions`` via a round-robin shuffle."""
        indexed = self.map_partitions_with_index(
            lambda i, it: (((i + 31 * j) % num_partitions, x)
                           for j, x in enumerate(it))
        )
        return ShuffledRDD(
            indexed, HashPartitioner(num_partitions),
            post=lambda pairs: (v for _k, v in pairs),
        )

    def distinct(self) -> "RDD":
        """Deduplicate records (one shuffle)."""
        paired = self.map(lambda x: (x, None))
        return ShuffledRDD(
            paired, HashPartitioner(self.num_partitions),
            map_side_combine=(lambda v: None, lambda a, _b: a),
            # dict.fromkeys dedups in arrival order; a set here would leak
            # hash order into the output sequence (repro-lint SIM004).
            post=lambda pairs: iter(dict.fromkeys(k for k, _v in pairs)),
        )

    def intersection(self, other: "RDD") -> "RDD":
        """Distinct records present in both RDDs (two shuffles)."""
        left = self.map(lambda x: (x, 1))
        right = other.map(lambda x: (x, 2))
        return left.cogroup(right).flat_map(
            lambda kv: [kv[0]] if kv[1][0] and kv[1][1] else []
        )

    def subtract(self, other: "RDD") -> "RDD":
        """Distinct records of self that do not appear in other."""
        left = self.map(lambda x: (x, 1))
        right = other.map(lambda x: (x, 2))
        return left.cogroup(right).flat_map(
            lambda kv: [kv[0]] if kv[1][0] and not kv[1][1] else []
        )

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs ``(a, b)`` — quadratic; for small RDDs (as in Spark)."""
        return CartesianRDD(self, other)

    def zip_partitions(self, other: "RDD",
                       f: Callable[[Iterator[Any], Iterator[Any]],
                                   Iterable[Any]]) -> "RDD":
        """Combine same-indexed partitions of two equal-width RDDs."""
        if self.num_partitions != other.num_partitions:
            raise ConfigError(
                "zip_partitions needs equal partition counts "
                f"({self.num_partitions} vs {other.num_partitions})"
            )
        return ZippedPartitionsRDD(self, other, f)

    # ------------------------------------------------------------------
    # wide (shuffle) transformations
    # ------------------------------------------------------------------

    def _target_partitioner(self, num_partitions: int | None) -> Partitioner:
        n = num_partitions or self.num_partitions
        return HashPartitioner(n)

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle pairs so each key lands on ``partitioner``'s partition."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def shuffle_blocks(self, partitioner: Partitioner,
                       to_block: Callable[[Iterator[Any]], ColumnBlock]
                       ) -> "RDD":
        """Shuffle each partition as the one column block
        ``to_block(iterator)`` makes of it.  A partition of the result is
        one record: the tuple of columns fetched for it, rows map output
        after map output (views — copy before writing)."""
        return BlockShuffledRDD(self, partitioner, to_block)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """Group pair values by key -> ``(key, list_of_values)``.

        This is the operator PSGraph uses to turn an edge list into neighbor
        tables (Sec. IV-A): ``(src, dst) -> (src, [dst, ...])``.
        """
        p = self._target_partitioner(num_partitions)
        return ShuffledRDD(self, p, post=_group_pairs)

    def group_by(self, f: Callable[[Any], Any],
                 num_partitions: int | None = None) -> "RDD":
        """Group records by ``f(record)``."""
        return self.key_by(f).group_by_key(num_partitions)

    def reduce_by_key(self, f: Callable[[Any, Any], Any] | None = None,
                      num_partitions: int | None = None,
                      op: str | None = None) -> "RDD":
        """Merge values per key with ``f``, combining map-side.

        Passing ``op`` ("add"/"min"/"max") instead of — or alongside —
        ``f`` declares the reduction as a known numeric op: columnar
        partitions then aggregate with a vectorized segment-reduce on both
        sides of the shuffle, while boxed partitions use the equivalent
        scalar fold.  Simulated costs are identical either way.
        """
        if op is not None:
            if op not in COMBINE_FNS:
                raise ConfigError(
                    f"unknown reduce op {op!r}; known: "
                    f"{', '.join(sorted(COMBINE_FNS))}"
                )
            if f is None:
                f = COMBINE_FNS[op]
        elif f is None:
            raise ConfigError("reduce_by_key needs a function or an op name")
        p = self._target_partitioner(num_partitions)
        return ShuffledRDD(
            self, p,
            map_side_combine=(lambda v: v, f),
            post=lambda pairs: iter(_reduce_pairs(pairs, f).items()),
            combine_op=op,
        )

    def fold_by_key(self, zero: Any, f: Callable[[Any, Any], Any],
                    num_partitions: int | None = None) -> "RDD":
        """Like :meth:`reduce_by_key` with an initial value per key."""
        return self.map_values(lambda v: f(zero, v)).reduce_by_key(
            f, num_partitions
        )

    def combine_by_key(self, create: Callable[[Any], Any],
                       merge_value: Callable[[Any, Any], Any],
                       merge_combiners: Callable[[Any, Any], Any],
                       num_partitions: int | None = None) -> "RDD":
        """Generic per-key aggregation with distinct combiner type."""
        p = self._target_partitioner(num_partitions)

        def post(pairs: List[Tuple[Any, Any]]) -> Iterator[Any]:
            acc: Dict[Any, Any] = {}
            for k, c in pairs:
                if k in acc:
                    acc[k] = merge_combiners(acc[k], c)
                else:
                    acc[k] = c
            return iter(acc.items())

        return ShuffledRDD(
            self, p, map_side_combine=(create, merge_value), post=post
        )

    def aggregate_by_key(self, zero: Any,
                         seq: Callable[[Any, Any], Any],
                         comb: Callable[[Any, Any], Any],
                         num_partitions: int | None = None) -> "RDD":
        """Aggregate values per key with a zero value and two merge fns."""
        return self.combine_by_key(
            lambda v: seq(zero, v), seq, comb, num_partitions
        )

    def cogroup(self, other: "RDD",
                num_partitions: int | None = None) -> "RDD":
        """Group both RDDs by key -> ``(key, (values_self, values_other))``."""
        n = num_partitions or max(self.num_partitions, other.num_partitions)
        return CoGroupedRDD(self.ctx, [self, other], HashPartitioner(n))

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join on key -> ``(key, (v_self, v_other))``.

        This (plus :meth:`cogroup`) is the operator "GraphX uses ... to
        implement message passing" and whose temp tables blow executor
        memory at billion scale (Sec. I).
        """
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda vw: ((v, w) for v in vw[0] for w in vw[1])
        )

    def left_outer_join(self, other: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        """Left outer join; missing right values become ``None``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda vw: (
                (v, w) for v in vw[0] for w in (vw[1] or [None])
            )
        )

    def right_outer_join(self, other: "RDD",
                         num_partitions: int | None = None) -> "RDD":
        """Right outer join; missing left values become ``None``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda vw: (
                (v, w) for w in vw[1] for v in (vw[0] or [None])
            )
        )

    def full_outer_join(self, other: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        """Full outer join; missing sides become ``None``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda vw: (
                (v, w)
                for v in (vw[0] or [None])
                for w in (vw[1] or [None])
            )
        )

    def subtract_by_key(self, other: "RDD") -> "RDD":
        """Pairs of self whose key does not appear in other."""
        return self.cogroup(other).flat_map_values(
            lambda vw: iter(vw[0]) if not vw[1] else iter(())
        ).map_values(lambda v: v)

    def sort_by(self, key_fn: Callable[[Any], Any], ascending: bool = True,
                num_partitions: int | None = None) -> "RDD":
        """Globally sort records by ``key_fn`` via range partitioning."""
        n = num_partitions or self.num_partitions
        sample = self.map(key_fn).collect()
        sample.sort()
        if n == 1 or len(sample) == 0:
            bounds: List[Any] = []
            n_eff = 1
        else:
            step = max(1, len(sample) // n)
            bounds = sample[step::step][: n - 1]
            n_eff = len(bounds) + 1
        paired = self.key_by(key_fn)
        shuffled = ShuffledRDD(paired, RangePartitioner(n_eff, bounds))

        def post_sort(_i: int, it: Iterator[Any]) -> Iterator[Any]:
            pairs = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _k, v in pairs)

        sorted_parts = MapPartitionsRDD(shuffled, post_sort)
        if ascending:
            return sorted_parts
        # Range partitions hold ascending key ranges; a descending sort must
        # also emit the partitions themselves in reverse order.
        return ReversePartitionsRDD(sorted_parts)

    def sort_by_key(self, ascending: bool = True,
                    num_partitions: int | None = None) -> "RDD":
        """Sort pair records by key."""
        return self.sort_by(lambda kv: kv[0], ascending, num_partitions).map(
            lambda kv: kv
        )

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def collect(self) -> List[Any]:
        """Materialize every record at the driver."""
        parts = self.ctx.scheduler.run_job(self, lambda _i, it: list(it))
        out: List[Any] = []
        for p in parts:
            out.extend(p)
        self.ctx.charge_driver_result(records_nbytes(out))
        return out

    def collect_records(self) -> List[Any]:
        """Like :meth:`collect` but with batches exploded to boxed pairs."""
        return explode_records(self.collect())

    def collect_partitions(self) -> List[List[Any]]:
        """Materialize records, one list per partition."""
        parts = self.ctx.scheduler.run_job(self, lambda _i, it: list(it))
        self.ctx.charge_driver_result(sum(records_nbytes(p) for p in parts))
        return parts

    def count(self) -> int:
        """Number of records."""
        parts = self.ctx.scheduler.run_job(
            self, lambda _i, it: sum(1 for _ in it)
        )
        return sum(parts)

    def is_empty(self) -> bool:
        """True if the RDD has no records."""
        return self.count() == 0

    def first(self) -> Any:
        """The first record (raises ``ValueError`` when empty)."""
        got = self.take(1)
        if not got:
            raise ValueError("RDD is empty")
        return got[0]

    def take(self, n: int) -> List[Any]:
        """Up to ``n`` records in partition order."""
        parts = self.ctx.scheduler.run_job(
            self, lambda _i, it: list(itertools.islice(it, n))
        )
        out: List[Any] = []
        for p in parts:
            out.extend(p)
            if len(out) >= n:
                break
        return out[:n]

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        """Fold all records with ``f`` (raises ``ValueError`` when empty)."""
        def part_reduce(_i: int, it: Iterator[Any]) -> List[Any]:
            acc = None
            seen = False
            for x in it:
                acc = x if not seen else f(acc, x)
                seen = True
            return [acc] if seen else []

        parts = self.ctx.scheduler.run_job(self, part_reduce)
        flat = [x for p in parts for x in p]
        if not flat:
            raise ValueError("reduce of empty RDD")
        acc = flat[0]
        for x in flat[1:]:
            acc = f(acc, x)
        return acc

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        """Fold with a zero value applied per partition and at the driver."""
        def part_fold(_i: int, it: Iterator[Any]) -> Any:
            acc = zero
            for x in it:
                acc = f(acc, x)
            return acc

        parts = self.ctx.scheduler.run_job(self, part_fold)
        acc = zero
        for p in parts:
            acc = f(acc, p)
        return acc

    def aggregate(self, zero: Any, seq: Callable[[Any, Any], Any],
                  comb: Callable[[Any, Any], Any]) -> Any:
        """Two-function aggregation with distinct accumulator type."""
        def part_agg(_i: int, it: Iterator[Any]) -> Any:
            acc = zero
            for x in it:
                acc = seq(acc, x)
            return acc

        parts = self.ctx.scheduler.run_job(self, part_agg)
        acc = zero
        for p in parts:
            acc = comb(acc, p)
        return acc

    def sum(self) -> Any:
        """Sum of records."""
        return self.fold(0, lambda a, b: a + b)

    def max(self) -> Any:
        """Maximum record."""
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        """Minimum record."""
        return self.reduce(lambda a, b: a if a <= b else b)

    def mean(self) -> float:
        """Arithmetic mean of numeric records."""
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise ValueError("mean of empty RDD")
        return total / count

    def take_ordered(self, n: int,
                     key: Callable[[Any], Any] | None = None) -> List[Any]:
        """The ``n`` smallest records (per-partition heaps, then merged)."""
        import heapq

        def part_smallest(_i: int, it: Iterator[Any]) -> List[Any]:
            return heapq.nsmallest(n, it, key=key)

        parts = self.ctx.scheduler.run_job(self, part_smallest)
        return heapq.nsmallest(n, (x for p in parts for x in p), key=key)

    def top(self, n: int,
            key: Callable[[Any], Any] | None = None) -> List[Any]:
        """The ``n`` largest records, descending."""
        import heapq

        def part_largest(_i: int, it: Iterator[Any]) -> List[Any]:
            return heapq.nlargest(n, it, key=key)

        parts = self.ctx.scheduler.run_job(self, part_largest)
        return heapq.nlargest(n, (x for p in parts for x in p), key=key)

    def stats(self) -> "StatCounter":
        """Count / mean / variance / min / max of numeric records."""
        def part_stats(_i: int, it: Iterator[Any]) -> StatCounter:
            s = StatCounter()
            for x in it:
                s.merge_value(float(x))
            return s

        parts = self.ctx.scheduler.run_job(self, part_stats)
        total = StatCounter()
        for p in parts:
            total.merge_stats(p)
        return total

    def count_by_key(self) -> Dict[Any, int]:
        """Counts per key of pair records (driver-side dict)."""
        return dict(
            self.map_values(lambda _v: 1).reduce_by_key(lambda a, b: a + b)
            .collect()
        )

    def count_by_value(self) -> Dict[Any, int]:
        """Counts per distinct record."""
        return dict(
            self.map(lambda x: (x, 1)).reduce_by_key(lambda a, b: a + b)
            .collect()
        )

    def lookup(self, key: Any) -> List[Any]:
        """Values of pair records with the given key."""
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def foreach(self, f: Callable[[Any], None]) -> None:
        """Run ``f`` for its side effects on every record (on executors)."""
        def runner(_i: int, it: Iterator[Any]) -> None:
            for x in it:
                f(x)

        self.ctx.scheduler.run_job(self, runner)

    def foreach_partition(self, f: Callable[[Iterator[Any]], Any]) -> List[Any]:
        """Run ``f`` on each partition iterator; returns per-partition results.

        Unlike Spark this returns the (small) value ``f`` produced per
        partition, which the PSGraph algorithms use to ship tiny summaries
        (e.g. "number of changed vertices") back to the driver cheaply.
        """
        return self.ctx.scheduler.run_job(self, lambda _i, it: f(it))

    def save_as_text_file(self, path: str) -> None:
        """Write one ``part-NNNNN`` text file per partition to HDFS."""
        hdfs = self.ctx.hdfs

        def writer(i: int, it: Iterator[Any]) -> None:
            from repro.dataflow.taskctx import current_task_context

            tctx = current_task_context()
            lines = [x if isinstance(x, str) else repr(x) for x in it]
            hdfs.write_text(
                f"{path}/part-{i:05d}", lines, overwrite=True,
                cost=tctx.cost if tctx else None,
            )

        self.ctx.scheduler.run_job(
            self, lambda i, it: writer(i, it)
        )


def _group_pairs(pairs: List[Tuple[Any, Any]]) -> Iterator[Tuple[Any, List[Any]]]:
    """groupByKey reduce-side: hash table of key -> values."""
    acc: Dict[Any, List[Any]] = {}
    for k, v in pairs:
        acc.setdefault(k, []).append(v)
    return iter(acc.items())


def _reduce_pairs(pairs: List[Tuple[Any, Any]],
                  f: Callable[[Any, Any], Any]) -> Dict[Any, Any]:
    """reduceByKey reduce-side: hash table of key -> folded value."""
    acc: Dict[Any, Any] = {}
    for k, v in pairs:
        if k in acc:
            acc[k] = f(acc[k], v)
        else:
            acc[k] = v
    return acc


class ParallelCollectionRDD(RDD):
    """An RDD over a driver-side list, split into even slices."""

    def __init__(self, ctx: "SparkContext", data: List[Any],
                 num_partitions: int) -> None:
        super().__init__(ctx, num_partitions)
        self._slices: List[List[Any]] = [
            list(data[i::num_partitions]) for i in range(num_partitions)
        ]

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD):
    """Narrow transformation applying ``f(index, iterator)``."""

    def __init__(self, parent: RDD,
                 f: Callable[[int, Iterator[Any]], Any],
                 preserves_partitioning: bool = False) -> None:
        super().__init__(
            parent.ctx, parent.num_partitions, narrow_parents=[parent],
            partitioner=parent.partitioner if preserves_partitioning else None,
        )
        self._f = f

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        result = self._f(split, self.narrow_parents[0].iterator(split, tctx))
        if result is None:
            return iter(())
        return iter(result) if not hasattr(result, "__next__") else result


class UnionRDD(RDD):
    """Concatenation: partitions of all parents, in order."""

    def __init__(self, ctx: "SparkContext", parents: List[RDD]) -> None:
        super().__init__(
            ctx, sum(p.num_partitions for p in parents),
            narrow_parents=list(parents),
        )

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        for parent in self.narrow_parents:
            if split < parent.num_partitions:
                return parent.iterator(split, tctx)
            split -= parent.num_partitions
        raise IndexError("partition out of range")


class ReversePartitionsRDD(RDD):
    """Narrow RDD emitting the parent's partitions in reverse order."""

    def __init__(self, parent: RDD) -> None:
        super().__init__(parent.ctx, parent.num_partitions,
                         narrow_parents=[parent])

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        parent = self.narrow_parents[0]
        return parent.iterator(parent.num_partitions - 1 - split, tctx)


class CoalescedRDD(RDD):
    """Merge parent partitions into fewer, without shuffling."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(parent.ctx, num_partitions, narrow_parents=[parent])
        self._groups: List[List[int]] = [
            list(range(i, parent.num_partitions, num_partitions))
            for i in range(num_partitions)
        ]

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        parent = self.narrow_parents[0]
        for p in self._groups[split]:
            yield from parent.iterator(p, tctx)


class ShuffledRDD(RDD):
    """Reduce side of one shuffle, with optional post-aggregation.

    ``post`` receives the full list of ``(key, value)`` pairs fetched for the
    partition and returns the records to emit; the transient hash tables it
    builds are charged against executor memory with the JVM-object overhead
    multiplier — these are the paper's "massive temporary data" of table
    joins.
    """

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 map_side_combine: Tuple[Callable[[Any], Any],
                                         Callable[[Any, Any], Any]] | None = None,
                 post: Callable[[List[Tuple[Any, Any]]], Iterator[Any]] | None = None,
                 combine_op: str | None = None) -> None:
        dep = ShuffleDependency(parent, partitioner, map_side_combine,
                                combine_op=combine_op)
        super().__init__(
            parent.ctx, partitioner.num_partitions, shuffle_deps=[dep],
            partitioner=partitioner,
        )
        self._dep = dep
        self._post = post

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        pairs = self.ctx.shuffle_service.read(
            self._dep.shuffle_id, split, self._dep.parent.num_partitions,
            tctx.executor, tctx.cost,
        )
        if self._post is None:
            return iter(pairs)
        cm = self.ctx.cluster.cost_model
        temp_bytes = int(records_nbytes(pairs) * cm.jvm_object_overhead)
        tag = f"shuffle-agg:{self.id}:{split}"
        tctx.executor.container.memory.allocate(temp_bytes, tag=tag)
        try:
            op = self._dep.combine_op
            if (op in COMBINE_UFUNCS and pairs
                    and all(isinstance(b, RecordBatch) and b.is_columnar
                            for b in pairs)):
                # Columnar fast path: the reduce-side fold collapses to one
                # segment-reduce over the fetched batches; emits one batch.
                merged = RecordBatch.concat(pairs)
                keys, values = segment_reduce(merged.keys, merged.values, op)
                out: List[Any] = [RecordBatch(keys, values)]
            else:
                out = list(self._post(explode_records(pairs)))
        finally:
            tctx.executor.container.memory.release_tag(tag)
        return iter(out)


class BlockShuffledRDD(RDD):
    """Reduce side of a block shuffle (:meth:`RDD.shuffle_blocks`)."""

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 to_block: Callable[[Iterator[Any]], ColumnBlock]) -> None:
        dep = BlockShuffleDependency(parent, partitioner, to_block)
        super().__init__(
            parent.ctx, partitioner.num_partitions, shuffle_deps=[dep])
        self._dep = dep

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        return iter([self.ctx.shuffle_service.read(
            self._dep.shuffle_id, split, self._dep.parent.num_partitions,
            tctx.executor, tctx.cost,
        )])


class CoGroupedRDD(RDD):
    """Group several pair-RDDs by key into tuples of value lists.

    Parents already partitioned by the target partitioner are read narrowly
    (no second shuffle) — the co-partitioning optimization GraphX relies on
    for its iterative vertex/message joins.
    """

    def __init__(self, ctx: "SparkContext", parents: List[RDD],
                 partitioner: Partitioner) -> None:
        narrow: List[RDD] = []
        deps: List[ShuffleDependency] = []
        self._sources: List[Tuple[str, Any]] = []
        for parent in parents:
            if (parent.partitioner == partitioner
                    and parent.num_partitions == partitioner.num_partitions):
                narrow.append(parent)
                self._sources.append(("narrow", parent))
            else:
                dep = ShuffleDependency(parent, partitioner)
                deps.append(dep)
                self._sources.append(("shuffle", dep))
        super().__init__(
            ctx, partitioner.num_partitions, narrow_parents=narrow,
            shuffle_deps=deps, partitioner=partitioner,
        )
        self._arity = len(parents)

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        groups: Dict[Any, Tuple[List[Any], ...]] = {}

        def slot(key: Any) -> Tuple[List[Any], ...]:
            got = groups.get(key)
            if got is None:
                got = tuple([] for _ in range(self._arity))
                groups[key] = got
            return got

        fetched: List[List[Tuple[Any, Any]]] = []
        for kind, source in self._sources:
            if kind == "narrow":
                pairs = list(source.iterator(split, tctx))
            else:
                pairs = self.ctx.shuffle_service.read(
                    source.shuffle_id, split, source.parent.num_partitions,
                    tctx.executor, tctx.cost,
                )
            fetched.append(explode_records(pairs))

        cm = self.ctx.cluster.cost_model
        temp_bytes = int(
            sum(records_nbytes(p) for p in fetched) * cm.jvm_object_overhead
        )
        tag = f"cogroup:{self.id}:{split}"
        tctx.executor.container.memory.allocate(temp_bytes, tag=tag)
        try:
            for i, pairs in enumerate(fetched):
                for k, v in pairs:
                    slot(k)[i].append(v)
            out = list(groups.items())
        finally:
            tctx.executor.container.memory.release_tag(tag)
        return iter(out)


class CartesianRDD(RDD):
    """Cross product: partition (i, j) pairs left partition i with right j."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.ctx, left.num_partitions * right.num_partitions,
            narrow_parents=[left, right],
        )
        self._right_width = right.num_partitions

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        left, right = self.narrow_parents
        li, ri = divmod(split, self._right_width)
        left_records = list(left.iterator(li, tctx))
        for b in right.iterator(ri, tctx):
            for a in left_records:
                yield (a, b)


class ZippedPartitionsRDD(RDD):
    """Applies ``f(left_iter, right_iter)`` per same-indexed partition."""

    def __init__(self, left: RDD, right: RDD,
                 f: Callable[[Iterator[Any], Iterator[Any]],
                             Iterable[Any]]) -> None:
        super().__init__(left.ctx, left.num_partitions,
                         narrow_parents=[left, right])
        self._f = f

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        left, right = self.narrow_parents
        return iter(self._f(
            left.iterator(split, tctx), right.iterator(split, tctx)
        ))


class StatCounter:
    """Welford-style running statistics, mergeable across partitions."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def merge_value(self, x: float) -> "StatCounter":
        """Fold one value in."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        return self

    def merge_stats(self, other: "StatCounter") -> "StatCounter":
        """Fold another counter in (parallel-merge form of Welford)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return self.variance ** 0.5

    def __repr__(self) -> str:
        return (f"StatCounter(count={self.count}, mean={self.mean:.6g}, "
                f"stdev={self.stdev:.6g}, min={self.min:.6g}, "
                f"max={self.max:.6g})")


class TextFileRDD(RDD):
    """Lines of an HDFS directory (or single file), split across partitions."""

    def __init__(self, ctx: "SparkContext", path: str,
                 min_partitions: int | None = None) -> None:
        hdfs = ctx.hdfs
        if hdfs.exists(path):
            files = [path]
        else:
            files = hdfs.listdir(path)
        if not files:
            raise FileNotFoundError(f"no HDFS files under {path}")
        super().__init__(
            ctx, max(1, min_partitions or ctx.cluster.parallelism))
        self._files = files
        self._path = path

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        hdfs = self.ctx.hdfs
        # Deterministic assignment: file f's lines are range-split; each
        # partition reads its slice of every file assigned to it.
        for i, f in enumerate(self._files):
            if len(self._files) >= self.num_partitions:
                if i % self.num_partitions != split:
                    continue
                yield from hdfs.read_lines(f, cost=tctx.cost)
            else:
                lines = hdfs.read_lines(f, cost=tctx.cost)
                yield from lines[split::self.num_partitions]
