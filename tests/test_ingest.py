"""Tests for the Kafka-style streaming ingestion.

A consumer lands every poll on HDFS and hands it to its sink; here the
sink is :meth:`StreamingGraph.apply`, the merge the streaming engine
runs.  The landing directory is read back by the reference below — one
decoded record at a time onto a Python edge set — which every crash
point must replay to the same edge set as the graph holds.
"""

import hashlib
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    block_rows,
    drain,
    end_offsets,
    lag,
    make_psg,
    mutation_records,
    mutations_from_records,
)
from repro.common.errors import ConfigError, GraphLoadError
from repro.common.metrics import MetricsRegistry
from repro.hdfs.filesystem import Hdfs
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ingest.mutations import (
    EDGE_ADD,
    EDGE_DEL,
    VERTEX_DEL,
    Mutation,
    edge_adds,
    edge_dels,
    vertex_dels,
)
from repro.streaming import StreamingGraph

# ----------------------------------------------------------------------
# the landing-replay reference
# ----------------------------------------------------------------------


def decode_line(line: str) -> Optional[Mutation]:
    """One landing line as a record; ``None`` for a blank or bad line."""
    parts = line.split()
    if not parts:
        return None
    if parts[0] == EDGE_DEL and len(parts) >= 3:
        return Mutation(EDGE_DEL, int(parts[1]), int(parts[2]))
    if parts[0] == VERTEX_DEL and len(parts) >= 2:
        return Mutation(VERTEX_DEL, int(parts[1]), -1)
    if len(parts) >= 2:
        try:
            return Mutation(EDGE_ADD, int(parts[0]), int(parts[1]))
        except ValueError:
            return None
    return None


def apply_to_edge_set(edges: Set[Tuple[int, int]],
                      mutations: Iterable[Mutation]
                      ) -> Set[Tuple[int, int]]:
    """Replay mutations onto a directed edge set.  Presence semantics:
    re-adding an edge and removing an absent one are no-ops, which is
    what makes at-least-once delivery with replayed polls safe."""
    for m in mutations:
        if m.op == EDGE_ADD:
            edges.add((m.src, m.dst))
        elif m.op == EDGE_DEL:
            edges.discard((m.src, m.dst))
        else:
            edges = {(s, d) for s, d in edges
                     if s != m.src and d != m.src}
    return edges


def encode_line(m: Mutation) -> str:
    """One record's landing line, as an f-string: the reference the
    batch encoder is held to."""
    if m.op == EDGE_ADD:
        return f"{m.src}\t{m.dst}"
    if m.op == EDGE_DEL:
        return f"{EDGE_DEL}\t{m.src}\t{m.dst}"
    return f"{VERTEX_DEL}\t{m.src}"


def replay_landing(hdfs, landing_dir: str) -> List[Tuple[int, int]]:
    """The sorted edge list a landing directory describes.  Files are
    named ``batch-{poll:05d}-p{partition}``, so a sorted listing replays
    polls in commit order (a source's records share one partition)."""
    edges: Set[Tuple[int, int]] = set()
    for path in sorted(hdfs.listdir(landing_dir.rstrip("/"))):
        edges = apply_to_edge_set(edges, [
            m for m in map(decode_line, hdfs.read_lines(path, cost=None))
            if m is not None])
    return sorted(edges)


def graph_edges(graph: StreamingGraph) -> List[Tuple[int, int]]:
    """The sorted directed edge list of a streaming graph."""
    out = graph.out.get(np.arange(graph.num_vertices))
    return sorted(zip(out.sources().tolist(), out.neighbors.tolist()))


class TestMutations:
    def test_encode_decode_roundtrip(self):
        ms = [Mutation(EDGE_ADD, 3, 7), Mutation(EDGE_DEL, 3, 7),
              Mutation(VERTEX_DEL, 5, -1), Mutation(EDGE_ADD, 0, 1)]
        lines = mutations_from_records(ms).encode().decode().splitlines()
        assert [decode_line(line) for line in lines] == ms

    def test_add_encoding_is_legacy_edge_line(self):
        # Batch jobs parse landing files as 'src<TAB>dst'; adds must keep
        # that shape so the streamed history feeds them unchanged.
        assert mutations_from_records(
            [Mutation(EDGE_ADD, 3, 7)]).encode() == b"3\t7\n"

    def test_landing_bytes_match_pin(self):
        # Add, -e and -v runs, ids past 2**31; the bytes (and their
        # digest, computed while each line was an f-string) are the
        # per-record lines.
        batch = (edge_adds(np.arange(0, 50), np.arange(50, 100))
                 + edge_dels([1, 2], [51, 52]) + vertex_dels([3, 2**40])
                 + edge_adds([2**33], [7]) + vertex_dels([0]))
        data = batch.encode()
        assert data == "".join(
            encode_line(m) + "\n" for m in mutation_records(batch)).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == "1b6d78c22cc631d9"

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([EDGE_ADD, EDGE_DEL,
                                               VERTEX_DEL]),
                              st.integers(-2**63, 2**63 - 1),
                              st.integers(-2**63, 2**63 - 1)), max_size=20))
    def test_landing_bytes_equal_per_record_lines(self, rows):
        ms = [Mutation(op, s, -1 if op == VERTEX_DEL else d)
              for op, s, d in rows]
        assert mutations_from_records(ms).encode() == "".join(
            encode_line(m) + "\n" for m in ms).encode()

    def test_group_runs_preserves_order(self):
        ms = [Mutation(EDGE_ADD, 1, 2), Mutation(EDGE_ADD, 2, 3),
              Mutation(EDGE_DEL, 1, 2), Mutation(EDGE_ADD, 4, 5)]
        runs = mutations_from_records(ms).runs()
        assert [op for op, _, _ in runs] == [EDGE_ADD, EDGE_DEL, EDGE_ADD]
        assert runs[0][1].tolist() == [1, 2]
        assert runs[2][1].tolist() == [4]


class TestKafkaTopic:
    def test_produce_partitions_by_src(self):
        t = KafkaTopic("edges", num_partitions=2)
        t.produce(np.array([0, 1, 2, 3]), np.array([9, 9, 9, 9]))
        assert end_offsets(t) == [2, 2]
        assert mutation_records(t.read(0, 0)) == [
            Mutation(EDGE_ADD, 0, 9), Mutation(EDGE_ADD, 2, 9)]
        assert mutation_records(t.read(1, 0)) == [
            Mutation(EDGE_ADD, 1, 9), Mutation(EDGE_ADD, 3, 9)]

    def test_read_from_offset(self):
        t = KafkaTopic("edges", num_partitions=1)
        t.produce(np.zeros(3, dtype=int), np.arange(3))
        t.produce(np.ones(2, dtype=int), np.arange(2))
        assert mutation_records(t.read(0, 2)) == [
            Mutation(EDGE_ADD, 0, 2), Mutation(EDGE_ADD, 1, 0),
            Mutation(EDGE_ADD, 1, 1)]

    def test_typed_removals(self):
        t = KafkaTopic("edges", num_partitions=1)
        t.produce_removals(np.array([1]), np.array([2]))
        t.produce_vertex_removals(np.array([4]))
        assert mutation_records(t.read(0, 0)) == [
            Mutation(EDGE_DEL, 1, 2), Mutation(VERTEX_DEL, 4, -1)]

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            KafkaTopic("t", num_partitions=0)
        t = KafkaTopic("t")
        with pytest.raises(ConfigError):
            t.produce(np.array([1]), np.array([1, 2]))


class TestConsumer:
    def test_lands_edges_on_hdfs(self):
        t = KafkaTopic("edges", num_partitions=2)
        fs = Hdfs(metrics=MetricsRegistry())
        consumer = EdgeStreamConsumer(t, fs)
        t.produce(np.array([0, 1]), np.array([2, 3]))
        assert lag(consumer) == 2
        assert consumer.poll() == 2
        assert lag(consumer) == 0
        files = fs.listdir("/ingest")
        lines = [l for f in files for l in fs.read_lines(f, cost=None)]
        assert sorted(lines) == ["0\t2", "1\t3"]

    def test_poll_empty_returns_zero(self):
        t = KafkaTopic("edges")
        fs = Hdfs(metrics=MetricsRegistry())
        consumer = EdgeStreamConsumer(t, fs)
        assert consumer.poll() == 0

    def test_empty_polls_not_counted_as_consuming(self):
        # Regression: empty polls used to inflate ingest.polls, wrecking
        # the records-per-poll ratio downstream dashboards compute.
        t = KafkaTopic("edges")
        fs = Hdfs(metrics=MetricsRegistry())
        m = MetricsRegistry()
        consumer = EdgeStreamConsumer(t, fs, metrics=m)
        consumer.poll()
        consumer.poll()
        assert m.get("ingest.polls") == 0
        assert m.get("ingest.polls.empty") == 2
        t.produce(np.array([1]), np.array([2]))
        consumer.poll()
        assert m.get("ingest.polls") == 1
        assert m.get("ingest.polls.empty") == 2

    def test_drain_consumes_everything(self):
        t = KafkaTopic("edges", num_partitions=3)
        fs = Hdfs(metrics=MetricsRegistry())
        m = MetricsRegistry()
        consumer = EdgeStreamConsumer(t, fs, metrics=m)
        t.produce(np.arange(10), (np.arange(10) + 1) % 10)
        assert drain(consumer) == 10
        assert m.get("ingest.records") == 10

    def test_incremental_ps_table_updates(self):
        ctx = make_psg(2)
        try:
            graph = StreamingGraph(ctx.ps, 100)
            t = KafkaTopic("edges", num_partitions=2)
            consumer = EdgeStreamConsumer(t, ctx.hdfs)
            consumer.sink = graph.apply
            t.produce(np.array([1, 2]), np.array([2, 3]))
            consumer.poll()
            assert block_rows(graph.neighbors(np.array([2]))) == [[1, 3]]
            # A later batch merges, never replaces.
            t.produce(np.array([2]), np.array([7]))
            consumer.poll()
            assert block_rows(graph.neighbors(np.array([2]))) == [[1, 3, 7]]
        finally:
            ctx.stop()

    def test_removals_reach_ps_table(self):
        ctx = make_psg(2)
        try:
            graph = StreamingGraph(ctx.ps, 100)
            t = KafkaTopic("edges", num_partitions=2)
            consumer = EdgeStreamConsumer(t, ctx.hdfs)
            consumer.sink = graph.apply
            t.produce(np.array([1, 2, 3]), np.array([2, 3, 4]))
            consumer.poll()
            t.produce_removals(np.array([2]), np.array([3]))
            consumer.poll()
            assert block_rows(graph.neighbors(np.array([2]))) == [[1]]
            assert block_rows(graph.neighbors(np.array([3]))) == [[4]]
            t.produce_vertex_removals(np.array([4]))
            consumer.poll()
            assert block_rows(graph.neighbors(np.array([3]))) == [[]]
            assert block_rows(graph.neighbors(np.array([4]))) == [[]]
        finally:
            ctx.stop()

    def test_landed_history_feeds_batch_jobs(self):
        """The pipeline story: streamed edges are visible to batch jobs."""
        from repro.core.algorithms import CommonNeighbor
        from repro.core.runner import GraphRunner

        ctx = make_psg(2)
        try:
            t = KafkaTopic("edges", num_partitions=2)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land")
            t.produce(np.array([0, 1, 2]), np.array([1, 2, 0]))
            drain(consumer)
            t.produce(np.array([0]), np.array([3]))
            drain(consumer)
            result = GraphRunner(ctx).run(CommonNeighbor(), "/land")
            assert result.output.count() == 4
        finally:
            ctx.stop()

    def test_batch_read_of_a_removal_names_its_line(self):
        """A landed removal is no edge: the batch reader stops at its
        marker line and names the landing file and line."""
        from repro.core.ops import load_edges

        ctx = make_psg(2)
        try:
            t = KafkaTopic("edges", num_partitions=1)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land")
            t.produce(np.array([0, 1, 2]), np.array([1, 2, 0]))
            t.produce_removals(np.array([1]), np.array([2]))
            drain(consumer)
            (path,) = ctx.hdfs.listdir("/land")
            lines = ctx.hdfs.read_bytes(path).split(b"\n")
            assert lines[3] == b"-e\t1\t2"
            with pytest.raises(GraphLoadError, match=(
                    f"^{path}:4: expected 'src dst' with ids >= 0, "
                    r"got b'-e\\t1\\t2'$")):
                load_edges(ctx.spark, "/land").count()
        finally:
            ctx.stop()

    def test_replay_landing_reconstructs_edge_set(self):
        t = KafkaTopic("edges", num_partitions=2)
        fs = Hdfs(metrics=MetricsRegistry())
        consumer = EdgeStreamConsumer(t, fs, landing_dir="/land")
        t.produce(np.array([0, 1, 2]), np.array([1, 2, 3]))
        drain(consumer)
        t.produce_removals(np.array([1]), np.array([2]))
        t.produce_vertex_removals(np.array([3]))
        drain(consumer)
        assert replay_landing(fs, "/land") == [(0, 1)]


class TestAtLeastOnceDelivery:
    """The offset-commit bugfix: no loss, no duplicates across crashes."""

    def _crashing_hdfs(self, fs, fail_after):
        # Wrap write_bytes so the Nth landing write blows up mid-poll.
        real = fs.write_bytes
        state = {"writes": 0}

        def flaky(path, data, overwrite=False):
            state["writes"] += 1
            if state["writes"] == fail_after:
                raise IOError("datanode lost")
            return real(path, data, overwrite=overwrite)

        fs.write_bytes = flaky
        return state

    def test_crash_mid_poll_commits_nothing(self):
        t = KafkaTopic("edges", num_partitions=2)
        fs = Hdfs(metrics=MetricsRegistry())
        m = MetricsRegistry()
        consumer = EdgeStreamConsumer(t, fs, landing_dir="/land",
                                      metrics=m)
        t.produce(np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7]))
        self._crashing_hdfs(fs, fail_after=2)  # second partition file dies
        with pytest.raises(IOError):
            consumer.poll()
        # Nothing committed: offsets untouched, no records counted.
        assert lag(consumer) == 4
        assert consumer.offsets == {0: 0, 1: 0}
        assert m.get("ingest.records") == 0
        assert not fs.exists(consumer.position_path)

    def test_retry_after_crash_loses_and_duplicates_nothing(self):
        t = KafkaTopic("edges", num_partitions=2)
        fs = Hdfs(metrics=MetricsRegistry())
        consumer = EdgeStreamConsumer(t, fs, landing_dir="/land")
        t.produce(np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7]))
        self._crashing_hdfs(fs, fail_after=2)
        with pytest.raises(IOError):
            consumer.poll()
        # The retry relands deterministically named files: the partial
        # first attempt is overwritten, not duplicated.
        assert consumer.poll() == 4
        files = fs.listdir("/land")
        assert len(files) == 2  # one per partition, single batch
        lines = sorted(l for f in files for l in fs.read_lines(f, cost=None))
        assert lines == ["0\t4", "1\t5", "2\t6", "3\t7"]

    def test_crash_before_merge_keeps_ps_table_consistent(self):
        ctx = make_psg(2)
        try:
            graph = StreamingGraph(ctx.ps, 100)
            t = KafkaTopic("edges", num_partitions=1)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land")
            consumer.sink = graph.apply
            t.produce(np.array([1, 2]), np.array([2, 3]))
            state = self._crashing_hdfs(ctx.hdfs, fail_after=1)
            with pytest.raises(IOError):
                consumer.poll()
            # Crash hit before the merge: the graph saw nothing.
            assert graph.num_edges == 0
            state["writes"] = -10**9  # heal the filesystem
            assert consumer.poll() == 2
            # Replayed merge is idempotent set-union: no duplicates.
            assert consumer.poll() == 0
            assert block_rows(graph.neighbors(np.array([2]))) == [[1, 3]]
            assert graph_edges(graph) == replay_landing(ctx.hdfs, "/land")
        finally:
            ctx.stop()


class TestConsumerRecovery:
    """Chaos: kill the consumer mid-stream; a restarted one catches up."""

    def _run_stream(self, ctx, *, crash_after_polls=None):
        graph = StreamingGraph(ctx.ps, 200)
        t = KafkaTopic("edges", num_partitions=2)
        consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land")
        consumer.sink = graph.apply
        rng = np.random.default_rng(11)
        polls = 0
        for _ in range(6):
            src = rng.integers(0, 200, size=10)
            dst = (src + 1 + rng.integers(0, 199, size=10)) % 200
            t.produce(src, dst)
            t.produce_removals(src[:2], dst[:2])
            if crash_after_polls is not None and polls >= crash_after_polls:
                # The process dies here; its in-memory offsets are lost.
                consumer = EdgeStreamConsumer(
                    t, ctx.hdfs, landing_dir="/land", resume=True)
                consumer.sink = graph.apply
                crash_after_polls = None
            consumer.poll()
            polls += 1
        drain(consumer)
        return graph_edges(graph), sorted(ctx.hdfs.listdir("/land"))

    def _replayed(self, crash_after_polls=None):
        """A run's graph edges, its landing replayed, its landing files."""
        ctx = make_psg(2)
        try:
            edges, names = self._run_stream(
                ctx, crash_after_polls=crash_after_polls)
            return edges, replay_landing(ctx.hdfs, "/land"), names
        finally:
            ctx.stop()

    def test_restart_from_persisted_offsets_matches_clean_run(self):
        edges, replayed, names = self._replayed()
        assert edges == replayed
        for crash in range(6):
            # Every crash point: the graph and the landing history replay
            # to the clean run's edge set, with no gap and no duplicate
            # batch among the landing files.
            assert self._replayed(crash) == (edges, replayed, names), crash
        assert len(names) == len(set(names))
