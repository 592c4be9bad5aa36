"""Per-edge outputs as columns: ``RowBatch`` is a record that stands for
its rows.

CommonNeighbor and TriangleCount score one ``(src, dst, common)`` row
batch per PS round trip.  A batch must meter, size, count, take, save and
collect exactly as the boxed tuples it replaces: the ledger
(``tests/ledger.py``) holds what a CommonNeighbor frame's actions returned
and the sim clock after each, as computed at commit ``4168082``, while
``score`` still yielded one tuple per edge.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.batch import RowBatch, gather_rows
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof, sizeof_records
from repro.core.algorithms import CommonNeighbor, TriangleCount
from repro.core.ops import edges_from_arrays
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.taskctx import metered
from repro.datasets.generators import powerlaw_graph
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from tests.conftest import digest, make_context, make_psg
from tests.ledger import pin
from tests.test_psgraph_pins import CELLS, GRAPHS


def _rows_are_ints(rows) -> bool:
    return all(type(v) is int for row in rows for v in row)


# ----------------------------------------------------------------------
# row semantics of a CommonNeighbor frame, pinned before the change
# ----------------------------------------------------------------------

def frame_actions(graph: str, p: int):
    """The record of every action on one lazy CommonNeighbor frame, in
    order (each re-scores): a digest of its result and the sim time after
    it."""
    ctx = make_psg(4, tracer=Tracer())
    try:
        frame = CommonNeighbor(checkpoint=True).transform(
            ctx, GRAPHS[graph](ctx.spark, p)).output
        out = {}
        for name, act in [("count", frame.count),
                          ("take", lambda: frame.rdd.take(5)),
                          ("show", frame.show),
                          ("collect_tuples", frame.collect_tuples),
                          ("collect", frame.collect)]:
            with contextlib.redirect_stdout(io.StringIO()):
                got = act()
            if name in ("take", "collect_tuples"):
                assert _rows_are_ints(got)
                got = list(got)
            elif name == "collect":
                assert _rows_are_ints(r.values() for r in got)
            out[name] = {"result": digest(got), "sim_s": ctx.sim_time()}
    finally:
        ctx.stop()
    return run_record(out, ctx.tracer, ctx.metrics)


def triangle_stats(graph: str, p: int):
    """The record of TriangleCount's stats and the sim clock after it."""
    ctx = make_psg(4, tracer=Tracer())
    try:
        result = TriangleCount().transform(ctx, GRAPHS[graph](ctx.spark, p))
        assert all(type(v) is int for v in result.stats.values())
        doc = {"stats": result.stats, "sim_s": ctx.sim_time()}
    finally:
        ctx.stop()
    return run_record(doc, ctx.tracer, ctx.metrics)


PINNED = [(fn, cell) for fn in (frame_actions, triangle_stats)
          for cell in CELLS]


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_common_neighbor_frame_matches_parent_pin(cell):
    pin(frame_actions, *cell)


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_triangle_stats_match_parent_pin(cell):
    pin(triangle_stats, *cell)


def test_collected_overlaps_are_columns():
    """The memory guard: E scored edges come back as three int64 columns
    of their own, not a list of E tuples."""
    src, dst = powerlaw_graph(2000, 20000, seed=3)
    ctx = make_psg(4, tracer=Tracer())
    try:
        rows = CommonNeighbor(batch_size=512).transform(
            ctx, edges_from_arrays(ctx.spark, src, dst)).output.rdd.collect()
    finally:
        ctx.stop()
    assert not isinstance(rows, list)
    assert len(rows) == len(src)
    assert sum(c.nbytes for c in rows.columns) <= 3 * 8 * len(src) + 1024
    # No column is a view that keeps a larger input buffer alive.
    assert all(c.base is None for c in rows.columns)


# ----------------------------------------------------------------------
# the meters: a batch is charged as its rows
# ----------------------------------------------------------------------

_SEED = st.integers(0, 2 ** 32 - 1)
_ROWS = st.sampled_from([0, 1, 32, 33]) | st.integers(0, 200)


def _int64_batch(seed: int, n: int, width: int) -> RowBatch:
    rng = np.random.default_rng(seed)
    return RowBatch(*(rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64,
                                   endpoint=True) for _ in range(width)))


@given(_SEED, _ROWS, st.integers(1, 5))
@example(seed=1, n=100_000, width=3)
@example(seed=2, n=100_001, width=1)
def test_batch_is_sized_as_its_boxed_rows(seed, n, width):
    batch = _int64_batch(seed, n, width)
    boxed = sizeof_records(list(batch))
    assert batch.logical_nbytes() == boxed
    assert sizeof(batch) == boxed
    assert sizeof_records(batch) == boxed


@given(_SEED, _ROWS, st.floats(0.0, 1e3), st.floats(1e-12, 1e-2))
@example(seed=1, n=100_000, start=0.1, step=3e-7)
@example(seed=2, n=1, start=0.0, step=1e-9)
def test_batch_meters_bit_identical_to_its_rows(seed, n, start, step):
    """One n-row batch through ``metered`` leaves the same bits as n
    single-record charges."""
    batch = _int64_batch(seed, n, 3)
    batched, boxed = TaskCost(cpu_s=start), TaskCost(cpu_s=start)
    assert list(metered(iter([batch]), batched, step)) == [batch]
    for _ in metered(iter(range(n)), boxed, step):
        pass
    assert batched.cpu_s.hex() == boxed.cpu_s.hex()


@given(st.lists(st.integers(0, 40), min_size=1, max_size=6),
       st.integers(1, 4))
def test_list_of_batches_is_sized_as_one_flat_list(lens, width):
    rng = np.random.default_rng(len(lens) * 10 + width)
    batches = [RowBatch(*(rng.integers(0, 99, n) for _ in range(width)))
               for n in lens]
    flat = [row for b in batches for row in b]
    assert sizeof_records(batches) == sizeof_records(flat)
    assert sizeof(batches) == sizeof(flat)


# ----------------------------------------------------------------------
# the dataflow: every row-wise operator sees a batch as its rows
# ----------------------------------------------------------------------

def _run_actions(partitions, batched: bool):
    """Every row-wise action over a cached RDD whose partitions hold
    ``partitions`` (lists of column tuples) as row batches or as boxed
    tuples: results, executor memory peaks and the sim clock after all."""
    ctx = make_context()
    try:
        def build(i, _it):
            batches = [RowBatch(*cols) for cols in partitions[i]]
            return batches if batched else [r for b in batches for r in b]

        rdd = ctx.parallelize(range(len(partitions)), len(partitions)) \
            .map_partitions_with_index(build).cache()
        out = [rdd.count(), rdd.take(3), rdd.take(40), list(rdd.collect()),
               rdd.map(lambda r: r[0] * 2).collect(),
               rdd.filter(lambda r: r[-1] % 2 == 0).collect(),
               rdd.flat_map(lambda r: r[:2]).collect()]
        if len(partitions[0][0]) == 2:
            out.append(rdd.partition_by(HashPartitioner(3)).collect())
        rdd.save_as_text_file("/out")
        out.append(ctx.text_file("/out").collect())
        out.append([ex.container.memory.peak for ex in ctx.executors])
        out.append(ctx.sim_time())
        return out
    finally:
        ctx.stop()


@given(st.integers(2, 3),
       st.lists(st.lists(st.integers(0, 35), min_size=1, max_size=3),
                min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_row_wise_operators_see_a_batch_as_its_rows(width, lens, seed):
    rng = np.random.default_rng(seed)
    partitions = [[tuple(rng.integers(-50, 50, n) for _ in range(width))
                   for n in part] for part in lens]
    assert _run_actions(partitions, True) == _run_actions(partitions, False)


def test_gather_rows_keeps_boxed_records_and_expands_mixed_ones():
    batch = RowBatch(np.array([1, 2]), np.array([3, 4]))
    assert gather_rows([(0, 0), (5, 6)]) == [(0, 0), (5, 6)]
    assert gather_rows([batch, (5, 6)]) == [(1, 3), (2, 4), (5, 6)]
    joined = gather_rows([batch, batch[1:]])
    assert type(joined) is RowBatch and joined == [(1, 3), (2, 4), (2, 4)]


def test_row_batch_reads_as_a_tuple_sequence():
    batch = RowBatch(np.array([7, 8, 9]), np.array([1.5, 2.5, 3.5]))
    assert len(batch) == 3
    assert batch[0] == (7, 1.5) and batch[-1] == (9, 3.5)
    assert type(batch[1][0]) is int and type(batch[1][1]) is float
    assert list(batch) == [(7, 1.5), (8, 2.5), (9, 3.5)]
    assert batch[1:] == RowBatch(np.array([8, 9]), np.array([2.5, 3.5]))
    assert batch != [(7, 1.5)]
    assert sorted(batch, reverse=True)[0] == (9, 3.5)
    with pytest.raises(ValueError):
        RowBatch(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError):
        RowBatch(np.array(["a"]))
    with pytest.raises(ValueError):
        RowBatch.concat([batch, RowBatch(np.array([1]))])
