"""Tests for PSGraph blocks, GraphOps and GraphIO."""

import re
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig
from repro.common.errors import GraphLoadError, PSGraphError
from repro.common.metrics import (
    HDFS_BYTES_READ,
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
)
from repro.common.sizeof import sizeof_records
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
    to_neighbor_tables,
)
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.rdd import TextFileRDD
from repro.dataflow.shuffle import bucket_map_output
from repro.dataflow.taskctx import current_task_context
from repro.datasets.tencent import write_edges
from repro.eulersim.euler import KEYABLE_IDS, EulerSystem
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


def parse_edge_lines(lines, weighted):
    """The line loop ``parse_edge_bytes`` ran before the reader was strict:
    ``src<TAB>dst[<TAB>weight]`` lines into one EdgeBlock, line by line;
    a line without two integer tokens, or (weighted) with a weight token
    that is no float, is skipped.  The golden the reader is held to on
    well-formed files."""
    srcs, dsts, weights = [], [], []
    for line in lines:
        parts = line.split()
        if len(parts) < 2:
            continue
        try:
            src = int(parts[0])
            dst = int(parts[1])
            if weighted:
                weight = float(parts[2]) if len(parts) > 2 else 1.0
        except ValueError:
            continue
        srcs.append(src)
        dsts.append(dst)
        if weighted:
            weights.append(weight)
    return EdgeBlock(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(weights) if weighted else None,
    )


#: The edge grammar as a regex, the oracle a corrupted line is checked
#: against (ids must also fit an int64).
_BLANK = " \t\x0b\x0c\r"
_WEIGHT = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_GRAMMAR = {w: re.compile(
    rb"[ \t\x0b\x0c\r]*(?:(\+?[0-9]+)[ \t\x0b\x0c\r]+(\+?[0-9]+)"
    + (rb"[ \t\x0b\x0c\r]+" + _WEIGHT.encode() if w else b"")
    + rb"[ \t\x0b\x0c\r]*)?") for w in (False, True)}


def _grammar_takes(line: bytes, weighted: bool) -> bool:
    match = _GRAMMAR[weighted].fullmatch(line)
    return match is not None and all(
        int(i) < 2 ** 63 for i in match.groups() if i is not None)


#: An id as the grammar takes it: up to 18 digits, some with a '+' or
#: leading zeros.
_ID = st.tuples(st.sampled_from(["", "+"]),
                st.one_of(st.integers(0, 99), st.integers(0, 10 ** 18 - 1)),
                st.integers(0, 18)).map(
                    lambda t: t[0] + str(t[1]).zfill(t[2]))
#: A weight: the grammar's own strings, Python's float reprs, and
#: ``write_edges``' ``%.6f``.
_WEIGHT_TOKEN = st.one_of(
    st.from_regex(_WEIGHT, fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10, 10).map(lambda w: f"{w:.6f}"))
_BLANKS = st.text(_BLANK, max_size=3)


@st.composite
def _edge_line(draw, weighted):
    """A line the grammar takes that holds an edge."""
    tokens = [draw(_ID), draw(_ID)] + [draw(_WEIGHT_TOKEN)] * weighted
    seps = [draw(st.text(_BLANK, min_size=1, max_size=3))
            for _ in tokens[1:]]
    return draw(_BLANKS) + "".join(
        t + s for t, s in zip(tokens, [*seps, ""])) + draw(_BLANKS)


@st.composite
def _edge_file(draw, weighted, min_lines=0):
    """A well-formed file as its lines: edges, and empty and blank-only
    lines; LF or CRLF endings, with or without the last one."""
    lines = draw(st.lists(st.one_of(_edge_line(weighted), _BLANKS),
                          min_size=min_lines, max_size=12))
    return (lines, draw(st.sampled_from(["\n", "\r\n"])),
            draw(st.booleans()))


def _file_bytes(lines, ending, last):
    return (ending.join(lines) + (ending if last and lines else "")).encode(
        "latin-1")


#: A line's corruptions: a marker, a token too few or too many, a bad
#: token in any place, or a byte no line may hold.
_BAD_ID = st.sampled_from(["-1", "1_0", "١", "0x10", "-e", "-v", "+",
                           "1+", "x", "1.5", "1e3", "99999999999999999999",
                           "9223372036854775808"])
_BAD_WEIGHT = st.sampled_from(["x", "1e", ".", "1.2.3", "nan", "inf", "0x1p3",
                               "1e5.5", "--1", "1_0", "١", "+-1", "e5"])
_BAD_BYTE = st.sampled_from([b"\xff", b"\x00", b"\x1c", b"\x85", b"\xa0",
                             b"x", b"_", b",", b"#", "١".encode()])


@st.composite
def _corrupt(draw, line):
    """``line`` (a line that holds an edge) broken in one way."""
    tokens = line.split()
    how = draw(st.sampled_from(["marker", "drop", "add", "token", "byte"]))
    if how == "byte":
        at = draw(st.integers(0, len(line)))
        return line[:at].encode() + draw(_BAD_BYTE) + line[at:].encode()
    if how == "marker":
        tokens = [draw(st.sampled_from(["-e", "-v"]))] + tokens
    elif how == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif how == "add":
        tokens.append(draw(st.one_of(_ID, _WEIGHT_TOKEN)))
    else:
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(_BAD_WEIGHT if k == 2 else _BAD_ID)
    return draw(st.sampled_from(["\t", " "])).join(tokens).encode()


def _load_files(files, build):
    """Write ``files`` (bytes) under ``/in`` and run ``build(ctx)``: its
    partitions' blocks, the sim clock and the HDFS bytes read."""
    ctx = make_context(num_executors=2)
    try:
        for i, data in enumerate(files):
            ctx.hdfs.write_bytes(f"/in/part-{i:05d}", data)
        blocks = build(ctx).foreach_partition(list)
        return blocks, ctx.sim_time(), ctx.metrics.get(HDFS_BYTES_READ)
    finally:
        ctx.stop()


def _unkeyable(data):
    """Whether a well-formed unweighted file holds an id Euler's pair keys
    cannot (``preprocess`` refuses it by name)."""
    block = parse_edge_lines(data.decode().split("\n"), False)
    return bool(len(block.src)) and max(block.src.max(), block.dst.max()) \
        >= KEYABLE_IDS


def _euler_mapped(files):
    """The edges ``EulerSystem.preprocess`` maps from ``files``."""
    system = EulerSystem(ClusterConfig(num_executors=2,
                                       executor_mem_bytes=1 << 30))
    try:
        for i, data in enumerate(files):
            system.hdfs.write_bytes(f"/in/part-{i:05d}", data)
        system.preprocess("/in", np.zeros((1, 1)), np.zeros(1))
        return system.hdfs.read_pickle("/euler/mapped-edges", cost=None)
    finally:
        system.stop()


_FILES = st.booleans().flatmap(lambda weighted: st.tuples(
    st.just(weighted), st.lists(_edge_file(weighted), min_size=1,
                                max_size=5)))


class TestOps:
    def test_parse_edge_lines(self):
        block = parse_edge_lines(iter(["1\t2", "3\t4", "", "bad"]), False)
        assert block.src.tolist() == [1, 3]
        assert block.dst.tolist() == [2, 4]

    @settings(deadline=None)
    @given(_FILES, st.integers(1, 7))
    def test_array_parse_equals_line_loop(self, weighted_files, partitions):
        """On well-formed files (weighted or not, CRLF, runs of blanks,
        blank-only lines, '+' signs, 18-digit ids, no last newline, fewer
        files than partitions) ``load_edges`` gives the parent's line loop
        over ``TextFileRDD`` lines block for block, bit for bit, with the
        same HDFS bytes read and sim clock; ``EulerSystem.preprocess``
        maps the loop's edges."""
        weighted, files = weighted_files
        files = [_file_bytes(*f) for f in files]
        blocks, sim_s, read = _load_files(
            files, lambda ctx: load_edges(
                ctx, "/in", weighted=weighted, num_partitions=partitions))
        loop_blocks, loop_sim_s, loop_read = _load_files(
            files, lambda ctx: TextFileRDD(
                ctx, "/in", partitions).map_partitions(
                    lambda it: [parse_edge_lines(it, weighted)]))
        assert (sim_s, read) == (loop_sim_s, loop_read)
        assert len(blocks) == len(loop_blocks) == partitions
        for (block,), (want,) in zip(blocks, loop_blocks):
            for column in ("src", "dst", "weight"):
                got, expect = getattr(block, column), getattr(want, column)
                assert (got is None) == (expect is None)
                if got is not None:
                    assert got.dtype == expect.dtype
                    assert got.tobytes() == expect.tobytes()
        if not weighted:
            wide = [i for i, data in enumerate(files) if _unkeyable(data)]
            if wide:  # the first file with an id past the pair keys
                with pytest.raises(GraphLoadError, match=(
                        f"^/in/part-{wide[0]:05d}: vertex id ")):
                    _euler_mapped(files)
                return
            whole = EdgeBlock.concat([parse_edge_lines(
                data.decode().split("\n"), False) for data in files])
            assert _euler_mapped(files).tolist() == np.stack(
                [whole.src, whole.dst], axis=1).tolist()

    @settings(deadline=None)
    @given(_FILES, st.integers(1, 7), st.data())
    def test_a_corrupted_line_names_its_file_and_line(
            self, weighted_files, partitions, data):
        """One corrupted line in one well-formed file is a GraphLoadError
        naming that file and the line's number, through ``load_edges``
        and ``EulerSystem.preprocess``."""
        weighted, files = weighted_files
        at = data.draw(st.integers(0, len(files) - 1))
        lines, ending, last = data.draw(_edge_file(weighted, min_lines=1))
        k = data.draw(st.integers(0, len(lines) - 1))
        bad = data.draw(_corrupt(data.draw(_edge_line(weighted))))
        assert not _grammar_takes(bad, weighted)
        files = [_file_bytes(*f) for f in files]
        files[at] = ending.encode().join(
            [*(ln.encode() for ln in lines[:k]), bad,
             *(ln.encode() for ln in lines[k + 1:])]) + (
                 ending.encode() if last else b"")
        where = f"/in/part-{at:05d}:{k + 1}: expected 'src dst"
        with pytest.raises(GraphLoadError) as err:
            _load_files(files, lambda ctx: load_edges(
                ctx, "/in", weighted=weighted, num_partitions=partitions))
        assert str(err.value).startswith(where)
        if weighted:  # Euler reads unweighted files: every line is bad
            return
        # Euler refuses a file before the corrupted one whose ids its pair
        # keys cannot hold, naming it.
        wide = [i for i in range(at) if _unkeyable(files[i])]
        if wide:
            where = f"/in/part-{wide[0]:05d}: vertex id "
        with pytest.raises(GraphLoadError) as err:
            _euler_mapped(files)
        assert str(err.value).startswith(where)

    def test_markers_are_an_error_and_blank_lines_count(self):
        data = b"1\t2\n-e 1 2\n3 4\n"
        with pytest.raises(GraphLoadError, match=r"^f:2: .*got b'-e 1 2'$"):
            parse_edge_bytes(data, "f")
        with pytest.raises(GraphLoadError, match="^f:1: "):
            parse_edge_bytes(b"-v\t3\n", "f")
        # A blank-only line holds no edge but counts toward the stride
        # (rows 1 and 3 are " \t" and "5\t6"); an empty line does not, and
        # a missing last newline does not matter.
        block = parse_edge_bytes(b"1\t2\n\n \t\n3 4\n5\t6", "f",
                                 rows=slice(1, None, 2))
        assert (block.src.tolist(), block.dst.tolist()) == ([5], [6])

    def test_short_line_cannot_borrow_from_long_line(self):
        # Four tokens on two lines, but neither line is an edge pair.
        with pytest.raises(GraphLoadError, match="^f:1: "):
            parse_edge_bytes(b"3\n4 5 6\n", "f")
        # "\r" and "\x0b" are blanks: the second line has three tokens.
        with pytest.raises(GraphLoadError, match="^f:2: "):
            parse_edge_bytes(b"\r\t5 6\n1\x0b2\t3\n", "f")
        # A sign inside a token: numpy would read "2-3" as two numbers.
        with pytest.raises(GraphLoadError, match="^f:1: "):
            parse_edge_bytes(b"1\t2-3\n4\t5\n", "f")

    def test_id_past_int64_is_not_clamped(self):
        # numpy's parse would read it as 2**63 - 1.
        for bad in (b"99999999999999999999", b"9223372036854775808",
                    b"+00009223372036854775808"):
            with pytest.raises(GraphLoadError, match="^f:2: "):
                parse_edge_bytes(b"1\t2\n" + bad + b"\t1\n", "f")
        block = parse_edge_bytes(b"+0009223372036854775807\t1\n", "f")
        assert block.src.tolist() == [2 ** 63 - 1]
        with pytest.raises(GraphLoadError, match="^f:1: "):
            parse_edge_bytes(b"-99999999999999999\t1\n", "f")

    def test_parse_weighted(self):
        block = parse_edge_bytes(b"1\t2\t0.5\n3 4 -1e-3\n", "f", weighted=True)
        assert block.weight.tolist() == [0.5, -1e-3]
        # A missing weight, a malformed token, wherever it sits, and a
        # weight on an unweighted read are errors, not skipped lines.
        for data, line in ((b"1\t2\t0.5\n3\t4\n", 2), (b"1 x 3\n", 1),
                           (b"5 6 2.5\n1 2 x\n", 2), (b"1 2 3 4\n", 1)):
            with pytest.raises(GraphLoadError, match=f"^f:{line}: "):
                parse_edge_bytes(data, "f", weighted=True)
        with pytest.raises(GraphLoadError, match="^f:1: expected 'src dst' "):
            parse_edge_bytes(b"1\t2\t0.5\n", "f")

    def test_weight_grammar_is_the_regex(self):
        """Every token of up to five bytes over the grammar's marks is an
        id or a weight exactly when the regex takes it."""
        for size in range(1, 6):
            for token in map("".join, product("1+-.eE", repeat=size)):
                for weighted, regex in ((False, r"\+?[0-9]+"),
                                        (True, _WEIGHT)):
                    line = f"1 2 {token}" if weighted else f"{token} 2"
                    try:
                        parse_edge_bytes(line.encode(), "f", weighted)
                        taken = True
                    except GraphLoadError:
                        taken = False
                    assert taken == bool(re.fullmatch(regex, token)), token

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
