"""Resilient Distributed Datasets — the Spark programming abstraction.

"Resilient distributed dataset (RDD), the core programming abstraction of
Spark, is a fault-tolerant collection of elements that can be operated in
parallel" (Sec. III-C).  This module carries the operators the paper's
pipelines run — load, per-partition maps against the PS, the groupBy
shuffle, save — on a faithful lineage model:

* transformations are **lazy** and build a lineage DAG;
* a wide transformation introduces a :class:`ShuffleDependency`, which the
  DAG scheduler turns into a map stage writing through the metered
  shuffle: :meth:`RDD.shuffle_blocks` moves one column block per map task
  (what every pipeline uses), :meth:`RDD.partition_by` boxed ``(key,
  value)`` records (the reference the block form is held to);
* ``cache()`` persists computed partitions in executor memory (charged
  against the executor's grant — over-caching OOMs, as GraphX does);
* lost partitions are recomputed from lineage, which is the executor-failure
  recovery path of Table II;
* a record may be a :class:`~repro.common.batch.RowBatch`, many rows held
  as columns: the row-wise operators (``map`` and the actions) see its
  rows, the partition-wise ones (``map_partitions``,
  ``foreach_partition``) the batch itself.

Partition placement is deterministic (a multiplicative hash of the
partition id picks the preferred executor), making runs bit-reproducible.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, List, Tuple

from repro.common.batch import (
    RowBatch,
    accumulate_sequential,
    count_rows,
    gather_rows,
    iter_rows,
)
from repro.common.errors import ConfigError, PSGraphError
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof_records
from repro.dataflow.partitioner import Partitioner
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
    """

    def __init__(self, parent: "RDD", partitioner: Partitioner) -> None:
        self.parent = parent
        self.partitioner = partitioner
        self.shuffle_id = parent.ctx.next_shuffle_id()

    def map_output(self, records: Iterator[Any], cost: TaskCost,
                   cpu_record_s: float) -> Any:
        """What a map task writes for one parent partition: its records,
        each charged ``cpu_record_s``, bucketed by reduce partition."""
        return bucket_map_output(
            metered(records, cost, cpu_record_s, trace_name="map-input"),
            self.partitioner,
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
                 shuffle_deps: List[ShuffleDependency] | None = None
                 ) -> None:
        if num_partitions <= 0:
            raise ConfigError("RDD must have at least one partition")
        self.ctx = ctx
        self.id = ctx.next_rdd_id()
        self.num_partitions = num_partitions
        self.narrow_parents = narrow_parents or []
        self.shuffle_deps = shuffle_deps or []
        #: How keys map to partitions, when a record shuffle made them.
        self.partitioner: Partitioner | None = None
        self._cached = False

    # ------------------------------------------------------------------
    # computation & caching
    # ------------------------------------------------------------------

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        """Produce the records of partition ``split`` (subclass hook)."""
        raise NotImplementedError

    def iterator(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        """Cached-or-computed records of partition ``split``."""
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

    def unpersist(self) -> "RDD":
        """Drop cached partitions from every executor."""
        self._cached = False
        for ex in self.ctx.executors:
            ex.cache_drop_rdd(self.id)
        return self

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------

    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to every row."""
        return MapPartitionsRDD(
            self, lambda _i, it: (f(x) for x in iter_rows(it)))

    def map_partitions(self, f: Callable[[Iterator[Any]], Iterable[Any]]
                       ) -> "RDD":
        """Apply ``f`` to each whole partition iterator."""
        return MapPartitionsRDD(self, lambda _i, it: f(it))

    # ------------------------------------------------------------------
    # wide (shuffle) transformations
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def collect(self) -> Any:
        """Materialize every row at the driver: a list, or one
        :class:`~repro.common.batch.RowBatch` when every record is one."""
        parts = self.ctx.scheduler.run_job(self, lambda _i, it: list(it))
        out: List[Any] = []
        for p in parts:
            out.extend(p)
        out = gather_rows(out)
        self.ctx.charge_driver_result(sizeof_records(out))
        return out

    def count(self) -> int:
        """Number of rows."""
        return sum(self.ctx.scheduler.run_job(
            self, lambda _i, it: count_rows(it)))

    def take(self, n: int) -> List[Any]:
        """Up to ``n`` rows in partition order."""
        parts = self.ctx.scheduler.run_job(
            self, lambda _i, it: list(itertools.islice(it, n)),
            per_row=True,
        )
        out: List[Any] = []
        for p in parts:
            out.extend(p)
            if len(out) >= n:
                break
        return out[:n]

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
            lines = [x if isinstance(x, str) else repr(x)
                     for x in iter_rows(it)]
            hdfs.write_text(
                f"{path}/part-{i:05d}", lines, overwrite=True,
                cost=tctx.cost if tctx else None,
            )

        self.ctx.scheduler.run_job(
            self, lambda i, it: writer(i, it)
        )


class ParallelCollectionRDD(RDD):
    """An RDD over a driver-side list, split into even slices.

    Partition ``i`` holds rows ``i, i + P, i + 2P, ...``.  A
    :class:`~repro.common.batch.RowBatch` keeps its columns: each slice is
    one batch of strided views, and an empty slice holds no record, as an
    empty list slice does.
    """

    def __init__(self, ctx: "SparkContext", data: List[Any] | RowBatch,
                 num_partitions: int) -> None:
        super().__init__(ctx, num_partitions)
        slices = [data[i::num_partitions] for i in range(num_partitions)]
        if type(data) is RowBatch:
            slices = [[s] if len(s) else [] for s in slices]
        self._slices: List[List[Any]] = slices

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD):
    """Narrow transformation applying ``f(index, iterator)``; the result
    has no partitioner."""

    def __init__(self, parent: RDD,
                 f: Callable[[int, Iterator[Any]], Any]) -> None:
        super().__init__(
            parent.ctx, parent.num_partitions, narrow_parents=[parent])
        self._f = f

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        result = self._f(split, self.narrow_parents[0].iterator(split, tctx))
        if result is None:
            return iter(())
        return iter(result) if not hasattr(result, "__next__") else result


class ShuffledRDD(RDD):
    """Reduce side of a record shuffle (:meth:`RDD.partition_by`)."""

    def __init__(self, parent: RDD, partitioner: Partitioner) -> None:
        dep = ShuffleDependency(parent, partitioner)
        super().__init__(
            parent.ctx, partitioner.num_partitions, shuffle_deps=[dep])
        self.partitioner = partitioner
        self._dep = dep

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        return iter(self.ctx.shuffle_service.read(
            self._dep.shuffle_id, split, self._dep.parent.num_partitions,
            tctx.executor, tctx.cost,
        ))


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


def partition_files(files: List[str], num_partitions: int,
                    split: int) -> Tuple[List[str], slice]:
    """The files partition ``split`` of a text input reads, in order, and
    the slice of each file's non-empty lines it keeps.

    With at least as many files as partitions, file ``i`` goes whole to
    partition ``i mod P``; with fewer, every partition reads every file
    and keeps lines ``split, split + P, ...`` of each.
    """
    if len(files) >= num_partitions:
        return files[split::num_partitions], slice(None)
    return files, slice(split, None, num_partitions)


class TextFileRDD(RDD):
    """Lines of an HDFS directory (or single file), split across partitions
    by :func:`partition_files`: ``num_partitions`` of them, or one per
    executor when None."""

    def __init__(self, ctx: "SparkContext", path: str,
                 num_partitions: int | None) -> None:
        files = ctx.hdfs.input_files(path)
        super().__init__(
            ctx, max(1, num_partitions or ctx.cluster.num_executors))
        self._files = files

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        files, rows = partition_files(self._files, self.num_partitions, split)
        for f in files:
            yield from self.ctx.hdfs.read_lines(f, cost=tctx.cost)[rows]


class TextBytesRDD(TextFileRDD):
    """The files of a text input as raw bytes, for a parser that takes a
    whole buffer: partition ``split`` holds a ``(path, payload, rows)``
    record per file it reads, ``rows`` its slice of the file's non-empty
    lines as :class:`TextFileRDD` splits them; reads charge as there."""

    def compute(self, split: int, tctx: TaskContext) -> Iterator[Any]:
        files, rows = partition_files(self._files, self.num_partitions, split)
        for f in files:
            yield f, self.ctx.hdfs.read_bytes(f, cost=tctx.cost), rows
