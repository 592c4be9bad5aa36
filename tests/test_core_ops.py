"""Tests for PSGraph blocks, GraphOps and GraphIO."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PSGraphError
from repro.common.metrics import (
    HDFS_BYTES_READ,
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
)
from repro.common.sizeof import sizeof_records
from repro.common.textcodec import parse_int_pairs
from repro.core.blocks import (
    EdgeBlock,
    NeighborBlock,
    build_neighbor_block,
    intersect_counts,
)
from repro.core.graphio import GraphIO
from repro.core.ops import (
    count_edges,
    edges_from_arrays,
    load_edges,
    max_vertex_id,
    parse_edge_bytes,
    parse_edge_lines,
    to_neighbor_tables,
)
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.rdd import TextFileRDD
from repro.dataflow.shuffle import bucket_map_output
from repro.dataflow.taskctx import current_task_context
from repro.datasets.tencent import write_edges
from tests.conftest import make_context, make_psg, split_indices


class TestBlocks:
    def test_edge_block_batches(self):
        b = EdgeBlock(np.arange(10), np.arange(10) + 1)
        batches = list(b.batches(4))
        assert [x.num_edges for x in batches] == [4, 4, 2]

    def test_edge_block_nbytes_includes_weight(self):
        b1 = EdgeBlock(np.arange(4), np.arange(4))
        b2 = EdgeBlock(np.arange(4), np.arange(4), np.ones(4))
        assert b2.logical_nbytes == b1.logical_nbytes + 32

    def test_build_neighbor_block_groups(self):
        t = np.array([2, 1, 2, 1, 3])
        o = np.array([5, 4, 6, 4, 7])
        block = build_neighbor_block(t, o)
        rows = dict((v, n.tolist()) for v, n in block.rows())
        assert rows == {1: [4, 4], 2: [5, 6], 3: [7]}

    def test_build_neighbor_block_dedupe(self):
        t = np.array([1, 1, 1])
        o = np.array([4, 4, 5])
        block = build_neighbor_block(t, o, dedupe=True)
        assert dict((v, n.tolist()) for v, n in block.rows()) == {1: [4, 5]}

    def test_build_neighbor_block_empty(self):
        block = build_neighbor_block(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert block.num_vertices == 0
        assert block.num_edges == 0

    def test_degrees(self):
        block = build_neighbor_block(
            np.array([1, 1, 2]), np.array([3, 4, 5])
        )
        assert block.degrees().tolist() == [2, 1]

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=50))
    def test_neighbor_block_preserves_edges(self, pairs):
        t = np.array([p[0] for p in pairs], dtype=np.int64)
        o = np.array([p[1] for p in pairs], dtype=np.int64)
        block = build_neighbor_block(t, o)
        rebuilt = sorted(
            (v, int(n)) for v, nbrs in block.rows() for n in nbrs
        )
        assert rebuilt == sorted(zip(t.tolist(), o.tolist()))


    def test_take_and_sources(self):
        block = build_neighbor_block(
            np.array([1, 1, 2, 5]), np.array([3, 4, 5, 6]),
            np.array([.1, .2, .3, .4]),
        )
        assert block.sources().tolist() == [1, 1, 2, 5]
        taken = block.take(np.array([2, 0, 2]))
        assert taken.vertices.tolist() == [5, 1, 5]
        assert [n.tolist() for _v, n in taken.rows()] == [[6], [3, 4], [6]]
        assert taken.weights.tolist() == [.4, .1, .2, .4]
        assert block.take(np.empty(0, dtype=np.int64)).num_edges == 0

    @given(st.lists(st.sets(st.integers(0, 30), max_size=8),
                    min_size=1, max_size=8),
           st.data())
    def test_intersect_counts_equals_set_overlap(self, rows, data):
        """Sorted duplicate-free rows (empty ones too) against Python sets,
        on arbitrary position pairs including a row with itself — cut
        into 1, 2 and 3 chunks and into more chunks than pairs, so cuts
        fall on empty chunks and zero-probe pairs too."""
        position = st.integers(0, len(rows) - 1)
        pairs = data.draw(st.lists(st.tuples(position, position),
                                   max_size=12))
        _assert_intersect_counts(rows, pairs)

    def test_intersect_counts_edge_cases(self):
        """No pairs, one pair, a row with itself, empty rows, and a cut
        on a zero-probe pair, at every chunking."""
        rows = [{1, 2, 3}, set(), {2, 3, 4, 5}, {3}, set()]
        for pairs in ([], [(0, 2)], [(2, 2)], [(1, 4)], [(1, 0), (4, 2)],
                      # probes 1, 0, 0, 3: the 2-way cut falls right
                      # after the zero-probe pairs; a 3-way chunk is empty
                      [(3, 0), (1, 2), (0, 4), (0, 2)]):
            _assert_intersect_counts(rows, pairs)
        _assert_intersect_counts([set(), set()], [(0, 1), (1, 1)])


def _assert_intersect_counts(rows, pairs):
    """``intersect_counts`` over a block of the sorted ``rows`` equals the
    set overlaps of ``pairs`` and the galloping charge at one chunk, 2, 3
    and more chunks than pairs (the worker count and break-even patched;
    one probe suffices for a chunk)."""
    lens = [len(r) for r in rows]
    block = NeighborBlock(
        np.arange(len(rows), dtype=np.int64),
        np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        np.asarray([n for r in rows for n in sorted(r)], dtype=np.int64),
    )
    left = np.asarray([a for a, _b in pairs], dtype=np.int64)
    right = np.asarray([b for _a, b in pairs], dtype=np.int64)
    expected = [len(rows[a] & rows[b]) for a, b in pairs]
    work = 2 * sum(min(lens[a], lens[b]) for a, b in pairs)
    with patch("repro.common.parallel.WORKERS", 1):
        one, one_work = intersect_counts(block, left, right)
    assert one.tolist() == expected and one_work == work
    for workers in (2, 3, len(pairs) + 2):
        with patch("repro.common.parallel.WORKERS", workers), \
                patch("repro.core.blocks.BREAK_EVEN", 1):
            counts, chunk_work = intersect_counts(block, left, right)
        assert counts.dtype == one.dtype
        assert counts.tolist() == expected and chunk_work == work


#: An edge-list line the array parse takes: ``int<TAB or SPACE>int``.
_PAIR_LINE = st.tuples(
    st.integers(-10 ** 12, 10 ** 12), st.sampled_from(["\t", " "]),
    st.integers(0, 10 ** 12)).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
#: Any line: pairs, blank and whitespace lines, CRs, ``-e`` / ``-v``
#: markers, 3-column lines and malformed ones.
_ANY_LINE = st.one_of(_PAIR_LINE, st.sampled_from([
    "", "", " ", "\t", "\r", "1\t2\r", "-e\t1\t2", "-v\t3", "-e 1 2",
    "-v 3", "7", "1 2 3", "4\t5\t0.5", " 1 2", "1  2", "1 2 ", "x y",
    "1.5 2", "1 2x", "+3 4", "1_0 2", "1\t\t2", "1-2\t3", "+-1 2", "- 1",
    "3 -", "١ 2", "0x10 2",
]))


class TestOps:
    def test_parse_edge_lines(self):
        block = parse_edge_lines(iter(["1\t2", "3\t4", "", "bad"]), False)
        assert block.src.tolist() == [1, 3]
        assert block.dst.tolist() == [2, 4]

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.lists(_PAIR_LINE, max_size=12),
                                        st.lists(_ANY_LINE, max_size=12)),
                              st.booleans()),
                    min_size=1, max_size=5),
           st.integers(1, 7))
    def test_array_parse_equals_line_loop(self, files, partitions):
        """``load_edges`` parses each file's bytes; its blocks, HDFS
        charges and sim clock are the line loop's over ``read_lines``
        under the file split ``TextFileRDD`` made, for any split of files
        against partitions (fewer files than partitions included)."""
        def load(build):
            ctx = make_context(num_executors=2)
            try:
                for i, (lines, newline) in enumerate(files):
                    text = "\n".join(lines) + ("\n" if newline and lines
                                               else "")
                    ctx.hdfs.write_bytes(f"/in/part-{i:05d}", text.encode())
                blocks = build(ctx).foreach_partition(list)
                return ctx.hdfs, blocks, ctx.sim_time(), ctx.metrics.get(
                    HDFS_BYTES_READ)
            finally:
                ctx.stop()

        hdfs, blocks, sim_s, read = load(
            lambda ctx: load_edges(ctx, "/in", num_partitions=partitions))
        paths = hdfs.listdir("/in")
        want_read = 0
        for split, part in enumerate(blocks):
            (block,) = part
            lines = []
            for i, path in enumerate(paths):
                if len(paths) >= partitions:
                    if i % partitions == split:
                        lines += hdfs.read_lines(path, cost=None)
                        want_read += len(hdfs.read_bytes(path))
                else:
                    lines += hdfs.read_lines(
                        path, cost=None)[split::partitions]
                    want_read += len(hdfs.read_bytes(path))
            expect = []
            for line in lines:
                parts = line.split()
                try:
                    expect.append((int(parts[0]), int(parts[1])))
                except (IndexError, ValueError):
                    continue
            assert block.src.dtype == block.dst.dtype == np.int64
            assert list(zip(block.src.tolist(), block.dst.tolist())) == expect
            assert block.weight is None
        assert read == want_read
        # The same partitions read as lines charge the same.
        _hdfs, line_blocks, line_sim_s, line_read = load(
            lambda ctx: TextFileRDD(ctx, "/in", partitions).map_partitions(
                lambda it: [parse_edge_lines(it, False)]))
        assert (sim_s, read) == (line_sim_s, line_read)
        for part, line_part in zip(blocks, line_blocks):
            assert part[0].src.tolist() == line_part[0].src.tolist()
            assert part[0].dst.tolist() == line_part[0].dst.tolist()

    def test_markers_and_trailing_blank_take_the_loop(self):
        data = b"1\t2\n-e 1 2\n3 4\n-v 3\n5\t6\n\n"
        assert parse_int_pairs(data) is None
        block = parse_edge_bytes(data)
        assert block.src.tolist() == [1, 3, 5]
        assert block.dst.tolist() == [2, 4, 6]
        # The same edges without the marker lines go through the array
        # parse; blank lines and a missing last newline do not stop it.
        clean = b"1\t2\n\n3 4\n5\t6"
        assert parse_int_pairs(clean).tolist() == [[1, 2], [3, 4], [5, 6]]
        block = parse_edge_bytes(clean, rows=slice(1, None, 2))
        assert (block.src.tolist(), block.dst.tolist()) == ([3], [4])

    def test_short_line_cannot_borrow_from_long_line(self):
        # Four tokens on two lines, but neither line is an edge pair.
        assert parse_int_pairs(b"3\n4 5 6\n") is None
        block = parse_edge_bytes(b"3\n4 5 6\n")
        assert (block.src.tolist(), block.dst.tolist()) == ([4], [5])
        # One tab or space per line, yet numpy reads two pairs, (5, 1)
        # and (2, 3): "\r" and "\x0b" are blanks to it.  The line loop
        # reads (1, 2) only.
        data = b"\r\t5\n1\x0b2\t3\n"
        assert parse_int_pairs(data) is None
        block = parse_edge_bytes(data)
        assert (block.src.tolist(), block.dst.tolist()) == ([1], [2])
        # A sign inside a token: numpy would read "2-3" as two numbers.
        assert parse_int_pairs(b"1\t2-3\n") is None
        block = parse_edge_bytes(b"1\t2-3\n4\t5\n")
        assert (block.src.tolist(), block.dst.tolist()) == ([4], [5])

    def test_id_past_int64_is_not_clamped(self):
        # numpy's parse would read it as 2**63 - 1; the loop raises.
        data = b"1\t2\n99999999999999999999\t1\n"
        assert parse_int_pairs(data) is None
        with pytest.raises(OverflowError):
            parse_edge_bytes(data)
        assert parse_int_pairs(b"-99999999999999999\t1\n").tolist() == \
            [[-99999999999999999, 1]]

    def test_parse_weighted(self):
        block = parse_edge_lines(iter(["1\t2\t0.5", "3\t4"]), weighted=True)
        assert block.weight.tolist() == [0.5, 1.0]
        # A malformed token skips the line, wherever it sits.
        block = parse_edge_lines(iter(["1 x 3", "1 2 x", "5 6 2.5"]),
                                 weighted=True)
        assert block.src.tolist() == [5]
        assert block.dst.tolist() == [6]
        assert block.weight.tolist() == [2.5]

    def test_load_edges_roundtrip(self, psg):
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 0])
        write_edges(psg.hdfs, "/in/e", src, dst, num_files=2)
        edges = load_edges(psg.spark, "/in/e")
        assert count_edges(edges) == 4
        assert max_vertex_id(edges) == 3

    def test_edges_from_arrays(self, psg):
        edges = edges_from_arrays(
            psg.spark, np.array([5, 6]), np.array([6, 7])
        )
        assert count_edges(edges) == 2
        assert max_vertex_id(edges) == 7

    def test_to_neighbor_tables_directed(self, psg):
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 2, 2, 0])
        edges = edges_from_arrays(psg.spark, src, dst, num_partitions=2)
        tables = to_neighbor_tables(edges, num_partitions=2)
        rows = {}
        for part in tables.foreach_partition(
                lambda it: [list(b.rows()) for b in it]):
            for rowlist in part:
                for v, nbrs in rowlist:
                    rows[int(v)] = sorted(nbrs.tolist())
        assert rows == {0: [1, 2], 1: [2], 2: [0]}

    def test_to_neighbor_tables_symmetric_dedupe(self, psg):
        src = np.array([0, 1, 0])
        dst = np.array([1, 0, 1])
        edges = edges_from_arrays(psg.spark, src, dst)
        tables = to_neighbor_tables(edges, symmetric=True, dedupe=True)
        rows = {}
        for part in tables.foreach_partition(
                lambda it: [list(b.rows()) for b in it]):
            for rowlist in part:
                for v, nbrs in rowlist:
                    rows[int(v)] = sorted(nbrs.tolist())
        assert rows == {0: [1], 1: [0]}

    def test_vertex_partitioning_owner(self, psg):
        src = np.arange(20)
        dst = (np.arange(20) + 1) % 20
        edges = edges_from_arrays(psg.spark, src, dst, num_partitions=3)
        tables = to_neighbor_tables(edges, num_partitions=4)
        placements = tables.map_partitions(lambda it: [
            (current_task_context().partition_id, b.vertices) for b in it]
        ).collect()
        for pid, vertices in placements:
            assert (vertices % 4 == pid).all()


def _boxed_emit(blocks, p, symmetric, weighted):
    """The groupBy's map side as it ran at caf00dd — one boxed
    ``(pid, EdgeBlock)`` record per block x direction x reduce partition —
    kept as the reference the block shuffle is held to."""
    for block in blocks:
        w = block.weight if weighted else None
        directions = [(block.src, block.dst, w)]
        if symmetric:
            directions.append((block.dst, block.src, w))
        for targets, others, ws in directions:
            pids = (targets % p).astype(np.int64)
            for pid, idx in split_indices(pids):
                yield (pid, EdgeBlock(targets[idx], others[idx],
                                      ws[idx] if ws is not None else None))


def _boxed_neighbor_tables(edges, p, symmetric, dedupe, weighted):
    """caf00dd's ``to_neighbor_tables``, through the record shuffle."""
    def merge(it):
        chunks = [payload for _pid, payload in it]
        if not chunks:
            yield build_neighbor_block(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            return
        targets = np.concatenate([c.src for c in chunks])
        others = np.concatenate([c.dst for c in chunks])
        weights = (np.concatenate([c.weight for c in chunks])
                   if weighted else None)
        block = build_neighbor_block(targets, others, weights, dedupe)
        cm = edges.ctx.cluster.cost_model
        current_task_context().cost.cpu_s += cm.primitive_compute_time(
            len(targets))
        yield block

    return edges.map_partitions(
        lambda it: _boxed_emit(it, p, symmetric, weighted)
    ).partition_by(HashPartitioner(p)).map_partitions(merge)


_edge_lists = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                       max_size=12)


class TestGroupByBlockShuffle:
    """``to_neighbor_tables`` moves one column block per map task; it
    must charge, meter and order rows as the boxed records did."""

    @staticmethod
    def _partitions(partition_edges, weighted):
        rng = np.random.default_rng(3)
        parts = []
        for blocks in partition_edges:
            parts.append([])
            for pairs in blocks:
                ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
                parts[-1].append(EdgeBlock(
                    ends[:, 0].copy(), ends[:, 1].copy(),
                    rng.uniform(0.5, 2.0, len(ends)) if weighted else None))
        return parts

    @staticmethod
    def _run(parts, build):
        """``(tables, sim_time, shuffle counters)`` on a fresh context."""
        psg = make_psg()
        try:
            edges = psg.spark.parallelize(parts, len(parts)).map_partitions(
                lambda it: [b for blocks in it for b in blocks])
            tables = build(edges).collect()
            return tables, psg.sim_time(), [
                psg.metrics.get(m) for m in (
                    SHUFFLE_RECORDS, SHUFFLE_BYTES_WRITTEN,
                    SHUFFLE_BYTES_READ)]
        finally:
            psg.stop()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_edge_lists, max_size=3), min_size=1,
                    max_size=4),
           st.integers(1, 9), st.booleans(), st.booleans(), st.booleans())
    def test_charges_meters_and_rows_equal_the_boxed_path(
            self, partition_edges, p, symmetric, dedupe, weighted):
        """Several blocks per partition, partitions without a block,
        empty blocks, fewer edges than reduce partitions."""
        parts = self._partitions(partition_edges, weighted)
        form = dict(symmetric=symmetric, dedupe=dedupe, weighted=weighted)
        got, got_sim, got_counters = self._run(
            parts, lambda e: to_neighbor_tables(e, p, **form))
        want, want_sim, want_counters = self._run(
            parts, lambda e: _boxed_neighbor_tables(e, p, **form))
        assert got_sim == want_sim
        assert got_counters == want_counters
        assert len(got) == len(want) == p
        for a, b in zip(got, want):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.neighbors, b.neighbors)
            if weighted:
                assert a.weights.dtype == np.float64
                assert a.num_edges == 0 or np.array_equal(a.weights,
                                                          b.weights)
            else:
                assert a.weights is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_edge_lists, max_size=4), st.integers(1, 9),
           st.booleans(), st.booleans())
    def test_block_meters_as_the_boxed_buckets(self, blocks, p, symmetric,
                                               weighted):
        """Per bucket: bytes == ``sizeof_records`` of the boxed record
        list (``8 + 40 k + 16 rows``, ``+ 8 rows`` weighted), records ==
        its length, rows == its arrays, record after record."""
        [blocks] = self._partitions([blocks], weighted)
        psg = make_psg()
        try:
            tables = to_neighbor_tables(
                psg.spark.parallelize(blocks, 1), p, symmetric=symmetric,
                weighted=weighted)
            [dep] = tables.narrow_parents[0].shuffle_deps
            block = dep.to_block(iter(blocks))
        finally:
            psg.stop()
        buckets = bucket_map_output(
            list(_boxed_emit(blocks, p, symmetric, weighted)),
            HashPartitioner(p))
        nbytes, starts = block.bucket_nbytes(), block.starts()
        assert len(block.lens) == p
        for r in range(p):
            records = buckets.get(r, [])
            rows = sum(rec.num_edges for _pid, rec in records)
            assert block.slots[r] == len(records)
            assert nbytes[r] == (sizeof_records(records) if records else 0)
            assert nbytes[r] == bool(records) * (
                8 + 40 * len(records) + (24 if weighted else 16) * rows)
            fields = ("src", "dst", "weight")[:len(block.columns)]
            for col, name in zip(block.columns, fields):
                want = [getattr(rec, name) for _pid, rec in records]
                assert np.array_equal(
                    col[starts[r]:starts[r] + block.lens[r]],
                    np.concatenate(want) if want else [])

    def test_weighted_empty_partition_carries_an_empty_weight_array(
            self, psg):
        edges = psg.spark.parallelize(
            [EdgeBlock(np.array([0, 4]), np.array([4, 0]),
                       np.array([1.5, 2.5]))], 1)
        blocks = to_neighbor_tables(edges, 4, weighted=True).collect()
        assert [b.num_edges for b in blocks] == [2, 0, 0, 0]
        for b in blocks:
            assert b.weights is not None and len(b.weights) == b.num_edges

    def test_weighted_tables_of_unweighted_edges_is_a_typed_error(self, psg):
        edges = edges_from_arrays(psg.spark, np.array([0, 1]),
                                  np.array([1, 2]))
        with pytest.raises(PSGraphError, match="weights"):
            to_neighbor_tables(edges, weighted=True).collect()


class TestGraphIO:
    def test_save_dataframe(self, psg):
        df = psg.create_dataframe([(1, 2.0), (3, 4.0)], ["v", "x"])
        GraphIO.save(df, "/out/df")
        lines = sorted(psg.spark.text_file("/out/df").collect())
        assert lines == ["1\t2.0", "3\t4.0"]
