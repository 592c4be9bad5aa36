"""Kafka-style edge ingestion into the PSGraph pipeline.

Fig. 3 places Kafka (and HBase/Hive) in PSGraph's Hadoop ecosystem, and the
introduction's pipeline argument — "data ingest, data preprocessing,
feature engineering, model training ... in a dataflow task, without moving
data in and out of file systems" — is the reason Tencent stays on Spark at
all.  This module provides that ingestion edge of the pipeline:

* :class:`KafkaTopic` — a partitioned, append-only log of typed
  mutation records (edge add/remove, vertex remove), held as
  :class:`~repro.ingest.mutations.MutationBatch` columns, with consumer
  offsets;
* :class:`EdgeStreamConsumer` — drains new records in batches, appends
  them to an HDFS landing directory (so batch jobs see them), and hands
  each poll to a sink — the
  :class:`~repro.streaming.engine.StreamingEngine` that merges it into
  the PS-resident :class:`~repro.streaming.graph.StreamingGraph`, keeping
  an online model fresh without re-running the groupBy over history.

Delivery is **at-least-once**: a poll stages its reads, lands them on
HDFS and hands them to the sink *before* committing offsets, so a crash
mid-poll replays the batch instead of silently dropping it.  Landing
files have deterministic names (overwritten on retry) and the streaming
graph's merge has set semantics, so replays are idempotent end to end —
see docs/streaming.md.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.common.batch import partition_order
from repro.common.errors import ConfigError
from repro.common.metrics import (
    INGEST_POLLS,
    INGEST_POLLS_EMPTY,
    INGEST_RECORDS,
    MetricsRegistry,
)
from repro.hdfs.filesystem import Hdfs
from repro.ingest.mutations import (
    MutationBatch,
    edge_adds,
    edge_dels,
    vertex_dels,
)


@dataclass
class KafkaTopic:
    """A partitioned append-only log of typed mutation records.

    Producers append; consumers read from per-partition offsets.  Records
    are partitioned by ``src mod num_partitions`` (keyed production, as an
    edge stream keyed by source vertex would be) — so all mutations
    touching one source vertex stay ordered within one partition.  A
    partition's log is a list of :class:`MutationBatch` chunks, one per
    produce call that reached it.
    """

    name: str
    num_partitions: int = 4
    _logs: List[List[MutationBatch]] = field(default_factory=list,
                                             init=False)
    #: Per partition, the offset each chunk starts at, then the log's end.
    _starts: List[List[int]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ConfigError("topic needs at least one partition")
        self._logs = [[] for _ in range(self.num_partitions)]
        self._starts = [[0] for _ in range(self.num_partitions)]

    def _append(self, batch: MutationBatch) -> int:
        """Route ``batch`` to its partitions in one stable pass."""
        order, offsets = partition_order(batch.src % self.num_partitions,
                                         self.num_partitions)
        routed = batch.take(order)
        bounds = offsets.tolist()
        for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                self._logs[p].append(routed[lo:hi])
                self._starts[p].append(self._starts[p][-1] + hi - lo)
        return len(batch)

    def produce(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Append a batch of edge *adds*; returns records appended."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ConfigError("src/dst length mismatch")
        return self._append(edge_adds(src, dst))

    def produce_removals(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Append a batch of edge *removes*; returns records appended."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ConfigError("src/dst length mismatch")
        return self._append(edge_dels(src, dst))

    def produce_vertex_removals(self, vertices: np.ndarray) -> int:
        """Append vertex-remove records; returns records appended."""
        return self._append(vertex_dels(vertices))

    def read(self, partition: int, offset: int) -> MutationBatch:
        """Records of ``partition`` from ``offset`` on, across chunk
        boundaries."""
        starts = self._starts[partition]
        first = max(bisect_right(starts, offset) - 1, 0)
        return MutationBatch.concat([
            chunk[max(offset - lo, 0):]
            for chunk, lo in zip(self._logs[partition][first:],
                                 starts[first:])])


class EdgeStreamConsumer:
    """Drains a topic into HDFS and (optionally) a sink.

    Args:
        topic: the source topic.
        hdfs: landing filesystem; each poll writes one file per partition
            under ``landing_dir`` so downstream batch jobs can re-read the
            full history.
        landing_dir: HDFS directory for landed edge files.  The consumer's
            committed position (offsets + file counter) is persisted as a
            *sibling* file ``{landing_dir}.offsets`` so a restarted
            consumer resumes exactly where the last committed poll ended.
        metrics: optional counters (``ingest.records``, ``ingest.polls``
            for consuming polls, ``ingest.polls.empty`` for polls that
            found nothing).
        resume: when True, restore the persisted position from
            ``{landing_dir}.offsets`` (a consumer restart); the default
            starts from offset 0 everywhere.
    """

    def __init__(self, topic: KafkaTopic, hdfs: Hdfs,
                 landing_dir: str = "/ingest",
                 metrics: Optional[MetricsRegistry] = None,
                 resume: bool = False) -> None:
        self.topic = topic
        self.hdfs = hdfs
        self.landing_dir = landing_dir.rstrip("/")
        #: Callback receiving each poll's mutations as one
        #: :class:`~repro.ingest.mutations.MutationBatch` in partition
        #: order during the merge phase (before the offset commit) — the
        #: hook :class:`repro.streaming.engine.StreamingEngine` sets to feed
        #: a :class:`~repro.streaming.graph.StreamingGraph`.
        self.sink: Optional[Callable[[MutationBatch], None]] = None
        self.metrics = metrics
        self.offsets: Dict[int, int] = {
            p: 0 for p in range(topic.num_partitions)
        }
        self._files = 0
        if resume and self.hdfs.exists(self.position_path):
            self._restore_position()

    @property
    def position_path(self) -> str:
        """HDFS path of the persisted committed position."""
        return f"{self.landing_dir}.offsets"

    def poll(self) -> int:
        """Consume one batch: land on HDFS, then hand it to the sink.

        The phases run in recovery-safe order — **stage, land, merge,
        commit**.  Offsets (and the landing-file counter) only advance
        after the landing write and the sink succeed, so an exception
        mid-poll leaves the position untouched and the next poll replays
        the same batch into the same (deterministically named, overwritten)
        landing files.

        Returns:
            Number of records consumed.
        """
        # Phase 1 — stage: read every partition without moving offsets.
        staged: Dict[int, MutationBatch] = {}
        for p in range(self.topic.num_partitions):
            records = self.topic.read(p, self.offsets[p])
            if len(records):
                staged[p] = records
        if not staged:
            if self.metrics is not None:
                self.metrics.inc(INGEST_POLLS_EMPTY)
            return 0
        consumed = sum(len(r) for r in staged.values())

        # Phase 2 — land: one file per partition, deterministic names so
        # a replayed poll overwrites instead of duplicating.
        for p, records in staged.items():
            self.hdfs.write_bytes(
                f"{self.landing_dir}/batch-{self._files:05d}-p{p}",
                records.encode(), overwrite=True,
            )

        # Phase 3 — merge: the sink sees the poll's mutations in partition
        # order (per-source order is preserved because a source's records
        # share one partition).
        if self.sink is not None:
            self.sink(MutationBatch.concat(
                [staged[p] for p in sorted(staged)]))

        # Phase 4 — commit: advance offsets + file counter and persist
        # them so a restarted consumer resumes here.
        for p, records in staged.items():
            self.offsets[p] += len(records)
        self._files += 1
        self._persist_position()
        if self.metrics is not None:
            self.metrics.inc(INGEST_POLLS)
            self.metrics.inc(INGEST_RECORDS, consumed)
        return consumed

    # ------------------------------------------------------------------
    # committed position (crash recovery)
    # ------------------------------------------------------------------

    def _persist_position(self) -> None:
        doc = {"offsets": {str(p): o for p, o in self.offsets.items()},
               "files": self._files}
        self.hdfs.write_text(
            self.position_path, [json.dumps(doc, sort_keys=True)],
            overwrite=True,
        )

    def _restore_position(self) -> None:
        doc = json.loads(
            self.hdfs.read_lines(self.position_path, cost=None)[0])
        for p in self.offsets:
            self.offsets[p] = int(doc["offsets"].get(str(p), 0))
        self._files = int(doc["files"])
