"""The GraphX join pipeline against the code it replaced.

Every kernel and every meter on the plan-once / column-block path is held
to the boxed, per-partition-pair implementation it stands in for — kept
here as the reference — and the pipeline's failure behaviour to the
parent's.  (``tests/test_graphx_pins.py`` pins the end-to-end numbers.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.batch import (
    RaggedColumn,
    partition_order,
    split_indices,
)
from repro.common.config import graphx_config_ds1
from repro.common.errors import StageFailedError
from repro.common.sizeof import sizeof, sizeof_array_lists, sizeof_records
from repro.dataflow.context import SparkContext
from repro.dataflow.shuffle import ColumnBlock
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import ds1_spec, generate_edges
from repro.graphx import algorithms as gx
from repro.graphx.fast_unfolding import _move_vertices
from repro.graphx.graph import Graph, _JoinPlan, split_vertices
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from tests.conftest import digest, make_context
from tests.ledger import pin

ids_lists = st.lists(st.integers(0, 60), max_size=120)


def _ragged(rows) -> RaggedColumn:
    lens = [len(r) for r in rows]
    return RaggedColumn(
        np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        np.asarray([x for r in rows for x in r], dtype=np.int64))


# ----------------------------------------------------------------------
# metering: a block is sized as the boxed buckets it stands for
# ----------------------------------------------------------------------


@given(st.lists(st.integers(0, 9), max_size=150),
       st.lists(st.tuples(st.integers(0, 150), st.integers(0, 150)),
                max_size=6))
def test_sizeof_array_lists_is_sizeof_of_the_lists(lens, cuts):
    """Same sample positions, same float arithmetic as ``sizeof`` — below
    and above its 32-entry sample."""
    arrays = [np.zeros(n, dtype=np.int64) for n in lens]
    spans = [(min(a, b, len(lens)), min(max(a, b), len(lens)))
             for a, b in cuts] + [(0, len(lens))]
    starts = np.asarray([a for a, _b in spans], dtype=np.int64)
    counts = np.asarray([b - a for a, b in spans], dtype=np.int64)
    got = sizeof_array_lists(
        np.asarray([a.nbytes for a in arrays], dtype=np.int64),
        starts, counts)
    assert got.tolist() == [sizeof(arrays[a:b]) for a, b in spans]


def _assert_block_meters_as(block: ColumnBlock, buckets: dict) -> None:
    nbytes = block.bucket_nbytes()
    for r in range(len(block.lens)):
        if r in buckets:
            assert nbytes[r] == sizeof_records(buckets[r]), r
            assert block.slots[r] == len(buckets[r]), r
        else:
            assert nbytes[r] == 0 and block.slots[r] == 0, r


def _boxed_outputs(outputs, p):
    """The parent's compute-side bucketing: two (or k) list slots per
    output present in a bucket."""
    buckets = {}
    for columns in outputs:
        for pid, idx in split_indices(columns[0].astype(np.int64) % p):
            buckets.setdefault(pid, []).extend(c[idx] for c in columns)
    return buckets


@given(st.lists(st.tuples(ids_lists, st.integers(1, 3)), min_size=1,
                max_size=3),
       st.integers(1, 9), st.booleans())
def test_bucketed_block_meters_as_boxed_buckets(outs, p, two_d):
    """1-3 columns, 2-D value rows, several outputs (some empty), empty
    and absent buckets; rows come out in bucket order."""
    k = outs[0][1]
    outputs = []
    for n, (ids, _k) in enumerate(outs):
        ids = np.asarray(ids, dtype=np.int64)
        extra = [np.arange(len(ids), dtype=np.float64) + 100 * n + c
                 for c in range(k - 1)]
        if two_d and extra:
            extra[0] = np.stack([extra[0], -extra[0]], axis=1)
        outputs.append((ids, *extra))
    columns = (outputs[0] if len(outputs) == 1
               else [np.concatenate(cols) for cols in zip(*outputs)])
    block = ColumnBlock.bucketed(columns, columns[0] % p, p,
                                 [len(o[0]) for o in outputs])
    buckets = _boxed_outputs(outputs, p)
    _assert_block_meters_as(block, buckets)
    for r, bucket in buckets.items():
        rows = slice(block.starts()[r], block.starts()[r] + block.lens[r])
        for c, col in enumerate(block.columns):
            want = np.concatenate(bucket[c::len(columns)])
            assert np.array_equal(col[rows], want)


@given(st.lists(st.lists(st.integers(0, 40), max_size=70), min_size=1,
                max_size=5),
       st.sampled_from(["scalar", "rows", "sets"]))
def test_ship_block_meters_as_boxed_buckets(needed_per_ep, kind):
    """The ship side: rows pre-grouped by the plan, attrs a 1-D array, a
    2-D array or neighbor sets (sampled past 32 rows per bucket)."""
    n = 41
    rng = np.random.default_rng(n + len(needed_per_ep))
    if kind == "sets":
        rows = [list(range(int(d))) for d in rng.integers(0, 12, n)]
        attrs, boxed_attrs = _ragged(rows), [
            np.asarray(r, dtype=np.int64) for r in rows]
    else:
        attrs = rng.random(n) if kind == "scalar" else rng.random((n, 2))
        boxed_attrs = attrs
    needed = [np.unique(np.asarray(ep, dtype=np.int64))
              for ep in needed_per_ep]
    buckets = {}
    for ep, ids in enumerate(needed):
        if len(ids):
            buckets[ep] = [ids, [boxed_attrs[i] for i in ids]
                           if kind == "sets" else boxed_attrs[ids]]
    shipped = np.concatenate(needed)
    offsets = np.concatenate([[0], np.cumsum([len(x) for x in needed])])
    block = ColumnBlock.presorted((shipped, attrs.take(shipped, axis=0)
                                   if kind != "sets"
                                   else attrs.take(shipped)), offsets)
    _assert_block_meters_as(block, buckets)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_broadcast_block_has_a_bucket_everywhere_even_when_empty(n):
    ids = np.arange(n, dtype=np.int64)
    com = ids.astype(np.float64)
    block = ColumnBlock.broadcasting((ids, com), 4)
    _assert_block_meters_as(block, {ep: [ids, com] for ep in range(4)})
    assert int(block.bucket_nbytes()[0]) == 24 + 16 * n


# ----------------------------------------------------------------------
# plan-once tables against the per-pair comprehensions
# ----------------------------------------------------------------------


@given(ids_lists, st.integers(1, 70))
def test_split_helpers_equal_the_mask_comprehension(ids, p):
    """One stable argsort per array — also for fewer rows than partitions."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    parts = split_vertices(ids, p)
    assert len(parts) == p
    for vp in range(p):
        assert np.array_equal(parts[vp], ids[ids % p == vp])
    rows = np.asarray(ids[::-1] * 7 % 11, dtype=np.int64)
    order, offsets = partition_order(rows % p, p)
    for r in range(p):
        assert np.array_equal(order[offsets[r]:offsets[r + 1]],
                              np.flatnonzero(rows % p == r))


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=80),
       st.integers(1, 6), st.integers(1, 6))
def test_join_plan_equals_the_routing_lists(edges, p_e, p_v):
    src = np.asarray([a for a, _b in edges], dtype=np.int64)
    dst = np.asarray([b for _a, b in edges], dtype=np.int64)
    edge_parts = [(src[i::p_e], dst[i::p_e]) for i in range(p_e)]
    all_ids = np.unique(np.concatenate([src, dst]))
    vertex_ids = [all_ids[all_ids % p_v == vp] for vp in range(p_v)]
    plan = _JoinPlan(edge_parts, vertex_ids, broadcast=False)
    # The parent's routing[ep][vp], one array per partition pair.
    routing = []
    for es, ed in edge_parts:
        refs = np.unique(np.concatenate([es, ed]))
        routing.append([refs[refs % p_v == vp] for vp in range(p_v)])
    for vp in range(p_v):
        offsets = plan.ship_offsets[vp]
        for ep in range(p_e):
            rows = slice(offsets[ep], offsets[ep + 1])
            assert np.array_equal(plan.ship_ids[vp][rows], routing[ep][vp])
            assert np.array_equal(
                vertex_ids[vp][plan.ship_pos[vp][rows]], routing[ep][vp])
    for ep, (es, ed) in enumerate(edge_parts):
        received = np.concatenate(routing[ep])
        assert np.array_equal(received[plan.src_pos[ep]], es)
        assert np.array_equal(received[plan.dst_pos[ep]], ed)
        # ... and the rank that reads the received table in id order.
        assert np.array_equal(received[plan.id_rank[ep]], np.sort(received))


# ----------------------------------------------------------------------
# segment kernels against the per-vertex loops
# ----------------------------------------------------------------------


def _h_index(values: np.ndarray) -> int:
    """The parent's per-vertex loop: largest h with h values >= h."""
    values = np.sort(values)[::-1]
    h = 0
    for i, v in enumerate(values, start=1):
        if v >= i:
            h = i
        else:
            break
    return h


@given(st.lists(st.lists(st.integers(0, 12), max_size=14), max_size=12),
       st.randoms(use_true_random=False))
def test_h_index_kernel_equals_the_loop(rows, random):
    """Messages ``(target, value)`` in any arrival order, targets with
    gaps; a target without messages has no row."""
    pairs = [(3 * t + 1, float(v)) for t, r in enumerate(rows) for v in r]
    random.shuffle(pairs)
    targets = np.asarray([t for t, _v in pairs], dtype=np.int64)
    values = np.asarray([v for _t, v in pairs], dtype=np.float64)
    uids, h = gx.h_index(targets, values)
    want = {3 * t + 1: _h_index(np.asarray(r, dtype=np.float64))
            for t, r in enumerate(rows) if r}
    assert dict(zip(uids.tolist(), h.tolist())) == want
    assert uids.tolist() == sorted(want)


def _move_loop(ids, com, k, targets, mcom, mw, com_tot, two_m, parity):
    """The parent's reduce body, verbatim: one vertex at a time, with
    ``com_tot`` the dict the driver used to broadcast."""
    order = np.argsort(targets, kind="stable")
    targets, mcom, mw = targets[order], mcom[order], mw[order]
    uids, starts = np.unique(targets, return_index=True)
    bounds = np.append(starts, len(targets))
    moves = 0
    pos = np.searchsorted(ids, uids)
    for j, v in enumerate(uids.tolist()):
        if v % 2 != parity:
            continue
        i = pos[j]
        coms = mcom[bounds[j]:bounds[j + 1]]
        ws = mw[bounds[j]:bounds[j + 1]]
        cand, inverse = np.unique(coms, return_inverse=True)
        wsum = np.zeros(len(cand))
        np.add.at(wsum, inverse, ws)
        own = com[i]
        kv = k[i]
        gains = np.empty(len(cand))
        for c_idx, c in enumerate(cand.tolist()):
            tot = com_tot.get(c, 0.0)
            if c == own:
                tot -= kv
            gains[c_idx] = wsum[c_idx] - tot * kv / two_m
        own_pos = np.flatnonzero(cand == own)
        own_gain = (
            gains[own_pos[0]] if len(own_pos)
            else -(com_tot.get(own, kv) - kv) * kv / two_m
        )
        best = int(np.argmax(gains))
        if gains[best] > own_gain + 1e-12 and cand[best] != own:
            com[i] = cand[best]
            moves += 1
    return moves


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 40), st.integers(1, 300),
       st.integers(0, 1))
def test_vectorised_louvain_round_equals_the_loop(seed, n, m, parity):
    """Random float-weighted multigraphs: communities and move count are
    bitwise those of the per-vertex loop (sums add in arrival order)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.uniform(0.05, 3.0, m)
    k = np.zeros(n)
    np.add.at(k, src, w)
    np.add.at(k, dst, w)
    ids = np.flatnonzero(k > 0)
    # A state some rounds in: vertices already share communities.
    com = rng.choice(ids, len(ids)).astype(np.float64)
    full = np.zeros(n)
    full[ids] = com
    totals = np.zeros(n)
    np.add.at(totals, com.astype(np.int64), k[ids])
    as_dict = {float(c): float(totals[int(c)]) for c in np.unique(com)}
    targets = np.concatenate([dst, src])
    mcom = np.concatenate([full[src], full[dst]])
    mw = np.concatenate([w, w])
    shuffled = rng.permutation(len(targets))
    targets, mcom, mw = targets[shuffled], mcom[shuffled], mw[shuffled]
    two_m = float(w.sum()) * 2.0
    want = com.copy()
    want_moves = _move_loop(ids, want, k[ids], targets, mcom, mw, as_dict,
                            two_m, parity)
    got = com.copy()
    got_moves = _move_vertices(ids, got, k[ids], targets, mcom, mw, totals,
                               two_m, parity)
    assert got_moves == want_moves
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------


def _leaked_tags(ctx):
    return [tag for ex in ctx.executors
            for tag in ex.container.memory.usage_by_tag()
            if tag.startswith(("graphx-repmap", "shuffle-buffer",
                               "graphx-msgtable"))]


def _kill_after(ctx, kind, victim):
    """Kill ``victim`` once, right after the last task of the first stage
    of ``kind`` — i.e. between that stage and the next."""
    state = {"left": ctx.cluster.parallelism, "done": False}

    def hook(_stage, _partition, task_kind):
        if task_kind == kind and not state["done"]:
            state["left"] -= 1
            if state["left"] == 0:
                state["done"] = True
                ctx.kill_executor(victim)

    ctx.add_task_hook(hook)
    return hook


class TestExecutorLossMidJoin:
    def test_kill_between_ship_and_compute_fails_like_the_parent(self):
        ctx = make_context(num_executors=4)
        try:
            src, dst = powerlaw_graph(120, 900, seed=3)
            p = ctx.cluster.parallelism
            graph = Graph.from_edges(ctx, src, dst, num_partitions=p)
            want = graph.out_degrees()
            plan = graph.plan
            hook = _kill_after(ctx, "graphx-ship", victim=1)
            with pytest.raises(StageFailedError,
                               match="lost but its lineage is unknown"):
                graph.out_degrees()
            ctx.remove_task_hook(hook)
            assert _leaked_tags(ctx) == []
            assert graph.plan is plan
            ctx.restart_executor(1)
            again = graph.out_degrees()
            for (ids_a, vals_a), (ids_b, vals_b) in zip(want, again):
                assert np.array_equal(ids_a, ids_b)
                assert np.array_equal(vals_a, vals_b)
        finally:
            ctx.stop()

    def test_failed_chunk_restores_the_edge_tables_and_their_plan(self):
        ctx = make_context(num_executors=4)
        try:
            src, dst = powerlaw_graph(120, 900, seed=4)
            graph = Graph.from_edges(ctx, src, dst,
                                     num_partitions=ctx.cluster.parallelism)
            edge_parts, plan = graph.edge_parts, graph.plan
            hook = _kill_after(ctx, "graphx-ship", victim=2)
            with pytest.raises(StageFailedError):
                gx.common_neighbor(graph, num_chunks=3)
            ctx.remove_task_hook(hook)
            assert graph.edge_parts is edge_parts and graph.plan is plan
            assert _leaked_tags(ctx) == []
            graph.unpersist()
            assert graph._plan is None
        finally:
            ctx.stop()


# ----------------------------------------------------------------------
# the cut Figure 6 cell: host time moved, nothing else
# ----------------------------------------------------------------------


def common_neighbor_ds1():
    """GraphX CommonNeighbor on DS1 at 1e-5, seed 7: 11-14 s of host time
    at commit 03d9a46 (2 P^2 ``np.unique`` calls per chunk), ~2 s now; the
    record holds rows, sim seconds and shuffle bytes as they were, and
    every metric.  It runs untraced: its 32,698 spans would double the
    run's host time."""
    spec = ds1_spec(1e-5)
    src, dst = generate_edges(spec, 7)
    ctx = SparkContext(graphx_config_ds1().scaled(spec.scale))
    try:
        graph = Graph.from_edges(ctx, src, dst)
        rows = np.asarray(gx.common_neighbor(graph, num_chunks=32),
                          dtype=np.int64)
        doc = {"shape": rows.shape, "rows": digest(rows),
               "sim_s": ctx.sim_time(),
               **{key: ctx.metrics.get(f"dataflow.shuffle.{key}")
                  for key in ("bytes_written", "bytes_read", "records")}}
    finally:
        ctx.stop()
    return run_record(doc, Tracer(), ctx.metrics)


PINNED = [(common_neighbor_ds1, ())]


def test_common_neighbor_ds1_output_and_sim_clock_are_the_parents():
    pin(common_neighbor_ds1)
