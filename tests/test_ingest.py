"""Tests for the Kafka-style streaming ingestion."""

import numpy as np
import pytest

from tests.conftest import block_rows, make_psg
from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry
from repro.hdfs.filesystem import Hdfs
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ingest.mutations import (
    EDGE_ADD,
    EDGE_DEL,
    VERTEX_DEL,
    Mutation,
    decode_line,
    encode_line,
    group_runs,
    replay_landing,
)


class TestMutations:
    def test_encode_decode_roundtrip(self):
        for m in [Mutation(EDGE_ADD, 3, 7), Mutation(EDGE_DEL, 3, 7),
                  Mutation(VERTEX_DEL, 5, -1)]:
            assert decode_line(encode_line(m)) == m

    def test_add_encoding_is_legacy_edge_line(self):
        # Batch jobs parse landing files as 'src<TAB>dst'; adds must keep
        # that shape so the streamed history feeds them unchanged.
        assert encode_line(Mutation(EDGE_ADD, 3, 7)) == "3\t7"

    def test_group_runs_preserves_order(self):
        ms = [Mutation(EDGE_ADD, 1, 2), Mutation(EDGE_ADD, 2, 3),
              Mutation(EDGE_DEL, 1, 2), Mutation(EDGE_ADD, 4, 5)]
        runs = group_runs(ms)
        assert [op for op, _, _ in runs] == [EDGE_ADD, EDGE_DEL, EDGE_ADD]
        assert runs[0][1].tolist() == [1, 2]
        assert runs[2][1].tolist() == [4]


class TestKafkaTopic:
    def test_produce_partitions_by_src(self):
        t = KafkaTopic("edges", num_partitions=2)
        t.produce(np.array([0, 1, 2, 3]), np.array([9, 9, 9, 9]))
        assert t.end_offsets() == [2, 2]
        assert t.read(0, 0) == [Mutation(EDGE_ADD, 0, 9),
                                Mutation(EDGE_ADD, 2, 9)]
        assert t.read(1, 0) == [Mutation(EDGE_ADD, 1, 9),
                                Mutation(EDGE_ADD, 3, 9)]

    def test_read_from_offset_with_limit(self):
        t = KafkaTopic("edges", num_partitions=1)
        t.produce(np.zeros(5, dtype=int), np.arange(5))
        assert t.read(0, 2, max_records=2) == [Mutation(EDGE_ADD, 0, 2),
                                               Mutation(EDGE_ADD, 0, 3)]

    def test_typed_removals(self):
        t = KafkaTopic("edges", num_partitions=1)
        t.produce_removals(np.array([1]), np.array([2]))
        t.produce_vertex_removals(np.array([4]))
        assert t.read(0, 0) == [Mutation(EDGE_DEL, 1, 2),
                                Mutation(VERTEX_DEL, 4, -1)]

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
        assert consumer.lag == 2
        assert consumer.poll() == 2
        assert consumer.lag == 0
        files = fs.listdir("/ingest")
        lines = [l for f in files for l in fs.read_lines(f)]
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
        assert consumer.drain() == 10
        assert m.get("ingest.records") == 10

    def test_incremental_ps_table_updates(self):
        ctx = make_psg(2)
        try:
            table = ctx.ps.create_neighbor_table("stream-adj", 100)
            t = KafkaTopic("edges", num_partitions=2)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, table=table)
            t.produce(np.array([1, 2]), np.array([2, 3]))
            consumer.poll()
            assert block_rows(table.get(np.array([2]))) == [[1, 3]]
            # A later batch merges, never replaces.
            t.produce(np.array([2]), np.array([7]))
            consumer.poll()
            assert block_rows(table.get(np.array([2]))) == [[1, 3, 7]]
        finally:
            ctx.stop()

    def test_removals_reach_ps_table(self):
        ctx = make_psg(2)
        try:
            table = ctx.ps.create_neighbor_table("stream-adj", 100)
            t = KafkaTopic("edges", num_partitions=2)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, table=table)
            t.produce(np.array([1, 2, 3]), np.array([2, 3, 4]))
            consumer.poll()
            t.produce_removals(np.array([2]), np.array([3]))
            consumer.poll()
            assert block_rows(table.get(np.array([2]))) == [[1]]
            assert block_rows(table.get(np.array([3]))) == [[4]]
            t.produce_vertex_removals(np.array([4]))
            consumer.poll()
            assert block_rows(table.get(np.array([3]))) == [[]]
            assert block_rows(table.get(np.array([4]))) == [[]]
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
            consumer.drain()
            t.produce(np.array([0]), np.array([3]))
            consumer.drain()
            result = GraphRunner(ctx).run(CommonNeighbor(), "/land")
            assert result.output.count() == 4
        finally:
            ctx.stop()

    def test_replay_landing_reconstructs_edge_set(self):
        t = KafkaTopic("edges", num_partitions=2)
        fs = Hdfs(metrics=MetricsRegistry())
        consumer = EdgeStreamConsumer(t, fs, landing_dir="/land")
        t.produce(np.array([0, 1, 2]), np.array([1, 2, 3]))
        consumer.drain()
        t.produce_removals(np.array([1]), np.array([2]))
        t.produce_vertex_removals(np.array([3]))
        consumer.drain()
        src, dst = replay_landing(fs, "/land")
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 1)]


class TestAtLeastOnceDelivery:
    """The offset-commit bugfix: no loss, no duplicates across crashes."""

    def _crashing_hdfs(self, fs, fail_after):
        # Wrap write_text so the Nth landing write blows up mid-poll.
        real = fs.write_text
        state = {"writes": 0}

        def flaky(path, lines, overwrite=False):
            state["writes"] += 1
            if state["writes"] == fail_after:
                raise IOError("datanode lost")
            return real(path, lines, overwrite=overwrite)

        fs.write_text = flaky
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
        assert consumer.lag == 4
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
        lines = sorted(l for f in files for l in fs.read_lines(f))
        assert lines == ["0\t4", "1\t5", "2\t6", "3\t7"]

    def test_crash_before_merge_keeps_ps_table_consistent(self):
        ctx = make_psg(2)
        try:
            table = ctx.ps.create_neighbor_table("stream-adj", 100)
            t = KafkaTopic("edges", num_partitions=1)
            consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land",
                                          table=table)
            t.produce(np.array([1, 2]), np.array([2, 3]))
            state = self._crashing_hdfs(ctx.hdfs, fail_after=1)
            with pytest.raises(IOError):
                consumer.poll()
            # Crash hit before the merge: the table saw nothing.
            assert block_rows(table.get(np.array([2]))) == [[]]
            state["writes"] = -10**9  # heal the filesystem
            assert consumer.poll() == 2
            # Replayed merge is idempotent set-union: no duplicates.
            assert consumer.poll() == 0
            assert block_rows(table.get(np.array([2]))) == [[1, 3]]
        finally:
            ctx.stop()


class TestConsumerRecovery:
    """Chaos: kill the consumer mid-stream; a restarted one catches up."""

    def _run_stream(self, ctx, *, crash_after_polls=None):
        table = ctx.ps.create_neighbor_table("stream-adj", 200)
        t = KafkaTopic("edges", num_partitions=2)
        consumer = EdgeStreamConsumer(t, ctx.hdfs, landing_dir="/land",
                                      table=table)
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
                    t, ctx.hdfs, landing_dir="/land", table=table,
                    resume=True,
                )
                crash_after_polls = None
            consumer.poll()
            polls += 1
        consumer.drain()
        return table, t

    def test_restart_from_persisted_offsets_matches_clean_run(self):
        clean = make_psg(2)
        chaos = make_psg(2)
        try:
            table_a, topic_a = self._run_stream(clean)
            table_b, topic_b = self._run_stream(chaos,
                                                crash_after_polls=3)
            vs = np.arange(200)
            assert block_rows(table_a.get(vs)) == block_rows(table_b.get(vs))
            # The landing history has no gaps and no duplicate batches.
            names_a = sorted(clean.hdfs.listdir("/land"))
            names_b = sorted(chaos.hdfs.listdir("/land"))
            assert names_a == names_b
            assert len(names_b) == len(set(names_b))
        finally:
            clean.stop()
            chaos.stop()
