"""Shared fixtures for the test suite."""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.common.config import ClusterConfig
from repro.core.blocks import NeighborBlock
from repro.core.context import PSGraphContext
from repro.dataflow.context import SparkContext
from repro.ingest.mutations import EDGE_ADD, OPS, Mutation, MutationBatch
from repro.obs.tracer import NOOP_TRACER
from repro.ps.psfunc import PsFunc
from repro.serve.admission import DROP_REASONS
from repro.serve.workload import RequestBatch


# Example counts for property tests that do not pin their own: ``default``
# keeps tier-1 under a minute, ``--hypothesis-profile deep`` is what the
# ``smoke`` CI matrix runs (and asserts the example count of).
settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
# (registering under the loaded name applies it; load_profile here would
# override a --hypothesis-profile given on the command line)


def make_context(num_executors: int = 4, executor_mem: int | None = None,
                 tracer=NOOP_TRACER, **kwargs) -> SparkContext:
    """A small SparkContext for tests; unlimited memory unless given."""
    cluster = ClusterConfig(
        num_executors=num_executors,
        executor_mem_bytes=executor_mem if executor_mem else 1 << 40,
        **kwargs,
    )
    return SparkContext(cluster, tracer=tracer)


def make_psg(num_executors: int = 3, num_servers: int = 2,
             tracer=NOOP_TRACER) -> PSGraphContext:
    """A small PSGraphContext for tests; memory never binds."""
    return PSGraphContext(ClusterConfig(
        num_executors=num_executors, executor_mem_bytes=1 << 40,
        num_servers=num_servers, server_mem_bytes=1 << 40,
    ), tracer=tracer)


def table_block(rows: dict) -> NeighborBlock:
    """A neighbor block with ``{vertex: neighbors}`` rows, in dict order and
    exactly as given (unsorted or repeated neighbors stay that way)."""
    lens = [len(ns) for ns in rows.values()]
    return NeighborBlock(
        np.asarray(list(rows), dtype=np.int64),
        np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        np.asarray([n for ns in rows.values() for n in ns], dtype=np.int64),
    )


class VectorSum(PsFunc):
    """Sum of one column over the whole matrix: an example psFunc."""

    def __init__(self, col: int = 0) -> None:
        self.col = col

    def apply(self, store) -> float:
        return float(store.array[:, self.col].sum())

    def merge(self, partials) -> float:
        return float(sum(p for p in partials if p is not None))


def set_rows(embedding, keys, values) -> None:
    """Overwrite full rows of a column-sharded matrix, the agent call
    GraphSage writes its output with."""
    embedding.psctx.agent.set_rows_full(embedding.meta, keys, values)


def request_batch(rows) -> RequestBatch:
    """A request stream built by hand: one ``(seq, tenant, model, key,
    arrival_s, deadline_s, priority)`` tuple per request.  Tenant and
    model codes number the names in first-seen order."""
    seq, tenant, model, key, arrival, deadline, priority = (
        zip(*rows) if rows else ((),) * 7)
    tenants, models = tuple(dict.fromkeys(tenant)), tuple(dict.fromkeys(model))

    def ints(values):
        return np.array(values, dtype=np.int64)

    return RequestBatch(
        ints(seq), ints([tenants.index(t) for t in tenant]),
        ints([models.index(m) for m in model]), ints(key),
        np.array(arrival, dtype=np.float64),
        np.array(deadline, dtype=np.float64), ints(priority),
        tenants, models)


def digest(obj) -> str:
    """Short hash of nested tuples / lists of arrays and plain values
    (arrays by dtype, shape and bytes; anything else by ``repr``): what
    the ledger's result documents hold an array or an output to."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()[:16]


def block_rows(block: NeighborBlock) -> list:
    """The block's rows as lists, aligned with ``block.vertices``."""
    return [nbrs.tolist() for _v, nbrs in block.rows()]


@pytest.fixture
def sc():
    ctx = make_context()
    yield ctx
    ctx.stop()


@pytest.fixture
def psg():
    ctx = make_psg()
    yield ctx
    ctx.stop()


def histogram_state(hist) -> tuple:
    """What a ``Histogram`` reports: scalars, percentiles, a count above.
    (A query folds any buffered samples in first.)"""
    percentiles = [hist.percentile(q) for q in (0.0, 50.0, 99.0, 100.0)]
    return (hist.count, hist.sum, hist.min, hist.max,
            hist._sketch is not None, percentiles, hist.count_above(0.25))


def sketch_state(sketch) -> dict:
    """Everything a ``QuantileSketch`` holds, buckets sorted by key."""
    return {"alpha": sketch.alpha, "count": sketch._count,
            "zero": sketch._zero, "min": sketch._min, "max": sketch._max,
            "buckets": sorted(sketch._buckets.items())}


def ragged_rows(column) -> list:
    """The rows of a ``RaggedColumn`` as a list of arrays (views)."""
    ptr = column.indptr.tolist()
    return [column.values[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def split_indices(pids: np.ndarray) -> list:
    """Row indices grouped by partition id: ``[(pid, indices), ...]``,
    pids ascending and indices in row order — what a per-pid boolean-mask
    loop yields, from one stable argsort.  The reference the per-partition
    oracles split rows with."""
    n = len(pids)
    if n == 0:
        return []
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    cuts = np.flatnonzero(sorted_pids[1:] != sorted_pids[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n]])
    return [(int(sorted_pids[s]), order[s:e]) for s, e in zip(starts, ends)]


def reference_delta_pagerank(src: np.ndarray, dst: np.ndarray,
                             iterations: int, damping: float = 0.85):
    """Single-machine numpy reference of PSGraph's delta-PageRank
    recurrence.

    Returns:
        ``(ids_present, ranks_present)``.
    """
    n = int(max(src.max(), dst.max())) + 1
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    present = np.zeros(n, dtype=bool)
    present[src] = True
    present[dst] = True
    base = 1.0 - damping
    rank = np.where(present, base, 0.0)
    delta = rank.copy()
    for _ in range(iterations):
        coef = damping * np.where(outdeg > 0, delta / np.maximum(outdeg, 1),
                                  0.0)
        nxt = np.zeros(n)
        np.add.at(nxt, dst, coef[src])
        rank += nxt
        delta = nxt
    ids = np.flatnonzero(present)
    return ids, rank[ids]


def common_neighbor_reference(src: np.ndarray, dst: np.ndarray) -> list:
    """Plain-python reference: ``(src, dst, common)`` per edge, the
    undirected neighbor overlap of its two ends."""
    adj: dict = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    return [(s, d, len(adj[s] & adj[d]))
            for s, d in zip(src.tolist(), dst.tolist())]


@contextmanager
def attached(engine):
    """``engine`` (a ``ChaosEngine``) attached for the block's duration."""
    engine.attach()
    try:
        yield engine
    finally:
        engine.detach()


def drop_rows(log) -> list:
    """A serving plane's drops as ``(seq, tenant, reason, sim_time_s)``
    rows, in drop order.  A list (the per-request reference plane's rows)
    passes as it is."""
    if isinstance(log, list):
        return log
    return list(zip(log.seq.tolist(),
                    [log.tenants[t] for t in log.tenant.tolist()],
                    [DROP_REASONS[r] for r in log.reason.tolist()],
                    log.time.tolist()))


def mutations_from_records(records) -> MutationBatch:
    """The ``MutationBatch`` of ``Mutation`` records, in order: the
    reference the record-stream oracles build batches with."""
    rows = list(records)
    if not rows:
        return MutationBatch.of(EDGE_ADD, (), ())
    ops, src, dst = zip(*rows)
    return MutationBatch(np.asarray([OPS.index(op) for op in ops], np.int8),
                         np.asarray(src, dtype=np.int64),
                         np.asarray(dst, dtype=np.int64))


def end_offsets(topic) -> list:
    """A ``KafkaTopic``'s log length per partition."""
    return [starts[-1] for starts in topic._starts]


def lag(consumer) -> int:
    """Records of its topic an ``EdgeStreamConsumer`` has not consumed."""
    return sum(end - consumer.offsets[p]
               for p, end in enumerate(end_offsets(consumer.topic)))


def drain(consumer) -> int:
    """Poll until the topic is consumed; records consumed."""
    total = 0
    while got := consumer.poll():
        total += got
    return total


def embedding_vectors(refresh):
    """``(ids, rows)`` of an ``OnlineEmbeddingRefresh``'s present
    vertices, pulled from the PS."""
    vertices = refresh.graph.present_vertices()
    if len(vertices) == 0:
        return vertices, np.empty((0, refresh.dim))
    return vertices, refresh.emb.pull_rows(vertices)


def mutation_records(batch: MutationBatch) -> list:
    """The rows of a ``MutationBatch`` as ``Mutation`` records, in order."""
    return [Mutation(OPS[op], src, dst) for op, src, dst in zip(
        batch.op.tolist(), batch.src.tolist(), batch.dst.tolist())]
