"""Hash shuffle with disk spill and metering.

This module implements the mechanism the paper blames for GraphX's
performance: "The join operation of Spark ... yields costly shuffle operation
between the map task and the reduce task, which needs to write and read
temporary data via the disk" (Sec. I).

Map tasks bucket their output by reduce partition, paying serialization CPU,
a transient in-memory sort buffer, and a disk write; reduce tasks pay a disk
read plus network time for the remote fraction of the bytes.  Map outputs
live on the executor that produced them, so killing an executor invalidates
its outputs and forces the scheduler to recompute them — the Spark recovery
path exercised by Table II.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.common.batch import (
    RaggedColumn,
    iter_rows,
    partition_order,
    scatter_add_rows,
    segment_index,
    take_rows,
)
from repro.common.costs import CostModel
from repro.common.errors import PSGraphError
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_FETCH_H,
    SHUFFLE_RECORDS,
    SHUFFLE_WRITE_H,
    MetricsRegistry,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import (
    CONTAINER_ENTRY_BYTES,
    sizeof_array_lists,
    sizeof_records,
)
from repro.dataflow.executor import Executor
from repro.dataflow.taskctx import task_span

# Shuffle-id allocation lives on SparkContext (``ctx.next_shuffle_id()``)
# so restarted contexts never drift; no module-global counter here.


def _concat_columns(columns: Sequence[Any]) -> Any:
    if isinstance(columns[0], RaggedColumn):
        return RaggedColumn.concat(columns)
    return np.concatenate(columns)


def _slice_rows(column: Any, start: int, stop: int) -> Any:
    if isinstance(column, RaggedColumn):
        return column.slice(start, stop)
    return column[start:stop]


@dataclass
class ColumnBlock:
    """One map task's whole output as columns — the form of the GraphX
    joins and of PSGraph's groupBy.

    Stands in for a dict of boxed buckets ``{r: [col0[rows_r], col1[rows_r],
    ...]}`` without a Python object per reduce partition.  ``columns`` are
    row-aligned (1-D / 2-D arrays, or a
    :class:`~repro.common.batch.RaggedColumn` boxing to a list of arrays),
    sorted by reduce partition: ``r`` owns the ``lens[r]`` rows after
    those of ``r - 1`` — or, in a ``broadcast`` block, every row.
    ``slots[r]`` is how many objects the boxed bucket would hold — the
    shuffle's ``records`` — and 0 where the bucket would be absent; each
    adds ``slot_nbytes`` to the bucket besides its rows: a list entry
    when a slot is one column array, a record's envelope when it is a
    record around a slice of every column.
    Metering is cost-transparent: :meth:`bucket_nbytes` is what
    ``sizeof_records`` gave the boxed bucket.
    """

    columns: Tuple[Any, ...]
    lens: np.ndarray
    slots: np.ndarray
    broadcast: bool = False
    slot_nbytes: int = CONTAINER_ENTRY_BYTES

    @classmethod
    def presorted(cls, columns: Sequence[Any],
                  offsets: np.ndarray) -> "ColumnBlock":
        """Rows already grouped by reduce partition: ``r`` owns
        ``offsets[r]:offsets[r + 1]``; a bucket without rows is absent."""
        lens = offsets[1:] - offsets[:-1]
        return cls(tuple(columns), lens, len(columns) * (lens > 0))

    @classmethod
    def bucketed(cls, columns: Sequence[Any], pids: np.ndarray,
                 num_reduces: int, groups: Sequence[int],
                 record_nbytes: int = 0) -> "ColumnBlock":
        """Bucket rows by ``pids``, keeping row order within a bucket.

        ``groups`` are the row counts of the outputs that were
        concatenated into ``columns`` (empty for one output): boxed,
        each output present in a bucket added its own arrays to it — or,
        given ``record_nbytes``, one record with an envelope of that many
        bytes around its rows of every column.
        """
        order, offsets = partition_order(pids, num_reduces)
        block = cls.presorted([take_rows(c, order) for c in columns],
                              offsets)
        present = block.lens > 0
        if len(groups) > 1:
            ends = np.cumsum(groups)
            present = sum(
                np.bincount(pids[end - n:end], minlength=num_reduces) > 0
                for n, end in zip(groups, ends))
        block.slots = present * (1 if record_nbytes else len(columns))
        block.slot_nbytes = record_nbytes or CONTAINER_ENTRY_BYTES
        return block

    @classmethod
    def broadcasting(cls, columns: Sequence[Any],
                     num_reduces: int) -> "ColumnBlock":
        """Every reduce partition gets every row — and a bucket, even
        when there are no rows."""
        return cls(tuple(columns), np.full(num_reduces, len(columns[0])),
                   np.full(num_reduces, len(columns)), broadcast=True)

    def starts(self) -> np.ndarray:
        """First row of every reduce partition's bucket."""
        if self.broadcast:
            return np.zeros(len(self.lens), dtype=np.int64)
        return np.cumsum(self.lens) - self.lens

    def bucket_nbytes(self) -> np.ndarray:
        """Logical bytes per reduce partition: ``8 + slot_nbytes * slots``
        for the bucket list plus each column's rows, 0 for an absent
        bucket."""
        row_nbytes = 0
        ragged = 0
        for col in self.columns:
            if isinstance(col, RaggedColumn):
                ragged = ragged + sizeof_array_lists(
                    col.row_nbytes(), self.starts(), self.lens)
            else:
                row_nbytes += col.itemsize * math.prod(col.shape[1:])
        return np.where(
            self.slots > 0,
            CONTAINER_ENTRY_BYTES + self.slot_nbytes * self.slots
            + self.lens * row_nbytes + ragged, 0)


class _MergedBlocks:
    """All map outputs of one block shuffle, regrouped by reduce
    partition: one gather per column when the first reduce task reads, a
    slice for every fetch after — not a walk over the map outputs."""

    def __init__(self, outs: List["MapOutput"]) -> None:
        blocks = [out.buckets for out in outs]
        self.columns = tuple(
            _concat_columns(cols)
            for cols in zip(*(b.columns for b in blocks)))
        #: Row range per reduce partition; None when each one reads all.
        self.offsets: np.ndarray | None = None
        if not blocks[0].broadcast:
            lens = np.stack([b.lens for b in blocks])
            starts = np.cumsum(lens.ravel()) - lens.ravel()
            # [reduces, maps]: a reduce partition's segments, map after map.
            _indptr, flat = segment_index(
                starts.reshape(lens.shape).T.ravel(), lens.T.ravel())
            self.columns = tuple(take_rows(c, flat) for c in self.columns)
            self.offsets = np.concatenate(
                [[0], np.cumsum(lens.sum(axis=0))])
        nbytes = np.stack([out.bucket_bytes for out in outs])
        self.nbytes = nbytes.sum(axis=0)
        #: Every distinct owner with its lowest map partition.
        self.owners: Dict[str, Tuple[Executor, int]] = {}
        for mp, out in enumerate(outs):
            self.owners.setdefault(out.owner.id, (out.owner, mp))
        row = {owner: i for i, owner in enumerate(self.owners)}
        owned = np.zeros((len(row), len(self.nbytes)), dtype=np.int64)
        scatter_add_rows(
            owned, np.asarray([row[out.owner.id] for out in outs]), nbytes)
        #: owner id -> bytes it holds for each reduce partition.
        self.owned = dict(zip(row, owned))

    def fetch(self, reduce_partition: int) -> Tuple[Any, ...]:
        """The reduce partition's rows of every column, map output after
        map output (views: a reader must not write into them)."""
        if self.offsets is None:
            return self.columns
        start, stop = self.offsets[reduce_partition:reduce_partition + 2]
        return tuple(_slice_rows(col, start, stop) for col in self.columns)


def bucket_map_output(records: Iterable[Any],
                      partitioner: Any) -> Dict[int, List[Any]]:
    """Bucket one map task's boxed ``(key, value)`` records (a row
    batch's rows one by one) by reduce partition — the record shuffle the
    block form is held to."""
    buckets: Dict[int, List[Any]] = defaultdict(list)
    for k, v in iter_rows(records):
        buckets[partitioner.partition(k)].append((k, v))
    return dict(buckets)


class ShuffleOutputLostError(PSGraphError):
    """A reduce task needed map output whose owning executor died."""

    def __init__(self, shuffle_id: int, map_partition: int) -> None:
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition
        super().__init__(
            f"shuffle {shuffle_id} lost output of map partition {map_partition}"
        )


@dataclass
class MapOutput:
    """Bucketed output of one map task: a dict of buckets with their
    sizes (a record shuffle), or one :class:`ColumnBlock` with a size
    array (a block shuffle)."""

    owner: Executor  # holds the files; they die with it
    buckets: Any
    bucket_bytes: Any
    records: int


@dataclass
class ShuffleService:
    """Cluster-wide registry of shuffle map outputs."""

    cost_model: CostModel
    metrics: MetricsRegistry | None
    #: shuffle id -> map partition -> output.
    _outputs: Dict[int, Dict[int, MapOutput]] = field(default_factory=dict,
                                                      init=False)
    #: Merged form of block shuffles that are complete and being read.
    _merged: Dict[int, _MergedBlocks] = field(default_factory=dict,
                                              init=False)

    # -- map side ----------------------------------------------------------

    def write(self, shuffle_id: int, map_partition: int, executor: Executor,
              buckets: Any, cost: TaskCost) -> MapOutput:
        """Store one map task's bucketed output — a ``{reduce: bucket}``
        dict or a :class:`ColumnBlock` — charging the writer.

        The writer pays: per-bucket serialization CPU, a transient in-memory
        buffer of ``shuffle_buffer_overhead`` times the logical bytes (this
        is where an undersized executor OOMs), and a disk write.
        """
        if isinstance(buckets, ColumnBlock):
            bucket_bytes: Any = buckets.bucket_nbytes()
            total = int(bucket_bytes.sum())
            records = int(buckets.slots.sum())
        else:
            bucket_bytes = {r: sizeof_records(b) for r, b in buckets.items()}
            total = sum(bucket_bytes.values())
            records = sum(len(b) for b in buckets.values())
        buffer_bytes = int(total * self.cost_model.shuffle_buffer_overhead)
        # Spark's sort buffer spills when execution memory runs out, so the
        # in-memory footprint is bounded; the full bytes still pay disk.
        capacity = executor.container.memory.capacity
        if capacity is not None:
            buffer_bytes = min(buffer_bytes, int(capacity * 0.5))
        tag = f"shuffle-buffer:{shuffle_id}:{map_partition}"
        executor.container.memory.allocate(buffer_bytes, tag=tag)
        try:
            with task_span("shuffle.write", cost,
                           {"shuffle": shuffle_id, "map": map_partition,
                            "bytes": total, "records": records}):
                cost.cpu_s += self.cost_model.serialization_time(total)
                cost.disk_s += self.cost_model.disk_write_time(total)
        finally:
            executor.container.memory.release_tag(tag)
        out = MapOutput(executor, buckets, bucket_bytes, records)
        self._outputs.setdefault(shuffle_id, {})[map_partition] = out
        self._merged.pop(shuffle_id, None)
        if self.metrics is not None:
            self.metrics.inc(SHUFFLE_BYTES_WRITTEN, total)
            self.metrics.inc(SHUFFLE_RECORDS, records)
            self.metrics.observe(SHUFFLE_WRITE_H, total)
        return out

    def has_output(self, shuffle_id: int, map_partition: int,
                   live_executors: Dict[str, bool]) -> bool:
        """True if the map output exists and its owner is still alive."""
        out = self._outputs.get(shuffle_id, {}).get(map_partition)
        return out is not None and live_executors.get(out.owner.id, False)

    # -- reduce side ---------------------------------------------------------

    def _live_outputs(self, shuffle_id: int,
                      num_map_partitions: int) -> List[MapOutput]:
        """Every map output in partition order, or the error naming the
        lowest one that is missing or whose owner died."""
        outputs = self._outputs.get(shuffle_id, {})
        outs = []
        for mp in range(num_map_partitions):
            out = outputs.get(mp)
            if out is None or not out.owner.alive:
                raise ShuffleOutputLostError(shuffle_id, mp)
            outs.append(out)
        return outs

    def read(self, shuffle_id: int, reduce_partition: int,
             num_map_partitions: int, executor: Executor,
             cost: TaskCost) -> Any:
        """Fetch all buckets for ``reduce_partition``, charging the reader.

        Returns the records of a dict shuffle as one list; of a block
        shuffle, one column tuple holding the buckets' rows map output
        after map output.

        Raises:
            ShuffleOutputLostError: if any required map output's owner died
                (checked before anything is charged); the scheduler reacts
                by recomputing the map stage.
        """
        merged = self._merged.get(shuffle_id)
        if merged is None:
            outs = self._live_outputs(shuffle_id, num_map_partitions)
            if isinstance(outs[0].buckets, ColumnBlock):
                merged = self._merged[shuffle_id] = _MergedBlocks(outs)
        else:
            lost = [mp for owner, mp in merged.owners.values()
                    if not owner.alive]
            if lost:
                raise ShuffleOutputLostError(shuffle_id, min(lost))
        if merged is not None:
            records: Any = merged.fetch(reduce_partition)
            total = int(merged.nbytes[reduce_partition])
            owned = merged.owned.get(executor.id)
            local_bytes = (int(owned[reduce_partition])
                           if owned is not None else 0)
            remote_bytes = total - local_bytes
        else:
            records = []
            local_bytes = 0
            remote_bytes = 0
            for out in outs:
                bucket = out.buckets.get(reduce_partition)
                if bucket is None or len(bucket) == 0:
                    continue
                nbytes = out.bucket_bytes.get(reduce_partition, 0)
                if out.owner is executor:
                    local_bytes += nbytes
                else:
                    remote_bytes += nbytes
                records.extend(bucket)
            total = local_bytes + remote_bytes
        with task_span("shuffle.fetch", cost,
                       {"shuffle": shuffle_id, "reduce": reduce_partition,
                        "local_bytes": local_bytes,
                        "remote_bytes": remote_bytes}):
            cost.disk_s += self.cost_model.disk_read_time(total)
            cost.net_s += self.cost_model.network_time(remote_bytes)
            cost.cpu_s += self.cost_model.serialization_time(total)
        if self.metrics is not None:
            self.metrics.inc(SHUFFLE_BYTES_READ, total)
            self.metrics.observe(SHUFFLE_FETCH_H, total)
        return records

    # -- failure handling ---------------------------------------------------

    def invalidate_executor(self, executor_id: str) -> int:
        """Drop every map output owned by a dead executor; returns count."""
        count = 0
        for shuffle_id, outputs in self._outputs.items():
            doomed = [mp for mp, out in outputs.items()
                      if out.owner.id == executor_id]
            for mp in doomed:
                del outputs[mp]
            if doomed:
                self._merged.pop(shuffle_id, None)
                count += len(doomed)
        return count

    def drop_shuffle(self, shuffle_id: int) -> None:
        """Discard all outputs of one shuffle (job cleanup)."""
        self._outputs.pop(shuffle_id, None)
        self._merged.pop(shuffle_id, None)

    def clear(self) -> None:
        """Discard every output (the owning context stopped)."""
        self._outputs.clear()
        self._merged.clear()
