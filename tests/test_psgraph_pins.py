"""Golden pins for PSGraph's groupBy, its PS operations and small PS runs.

Every PSGraph algorithm but LINE starts with ``to_neighbor_tables`` (the
Sec. IV-A groupBy), so a change to how that shuffle runs on the host must
move nothing here: every cell's run record (the exact ``ctx.sim_time()``,
the shuffle byte / record counters, a digest of the output, every span
and every metric) is a line of the ledger (``tests/ledger.py``).  The
groupBy cells held these values since commit ``caf00dd`` (one boxed
``(pid, EdgeBlock)`` record per map partition x direction x reduce
partition).
"""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
)
from repro.core.algorithms import (
    CommonNeighbor,
    ConnectedComponents,
    FastUnfolding,
    KCore,
    LabelPropagation,
    PageRank,
    TriangleCount,
)
from repro.core.blocks import EdgeBlock, NeighborBlock
from repro.core.ops import edges_from_arrays, to_neighbor_tables
from repro.dataflow.context import SparkContext
from repro.datasets.generators import powerlaw_graph
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.ps.context import PSContext
from tests.conftest import VectorSum, digest, make_psg, set_rows, table_block
from tests.ledger import assert_every_cell_pinned, pin


def _powerlaw400(spark, p):
    src, dst = powerlaw_graph(400, 3000, seed=11)
    weight = np.random.default_rng(5).uniform(0.25, 4.0, len(src))
    return edges_from_arrays(spark, src, dst, weight, num_partitions=p)


def _tiny6(spark, p):
    # 6 vertices, 9 edges (one repeated, with another weight, and one
    # reversed) in 6 blocks over 8 partitions: two blocks are empty, map
    # partitions 6 and 7 hold no block at all, and at P = 8 reduce
    # partitions 6 and 7 receive nothing.
    src = np.array([0, 1, 2, 3, 4, 5, 0, 1, 0], dtype=np.int64)
    dst = np.array([1, 2, 0, 4, 5, 3, 3, 0, 1], dtype=np.int64)
    weight = np.array([1.5, 2.0, 0.5, 3.0, 1.0, 2.5, 0.75, 1.25, 4.0])
    cuts = [(0, 3), (3, 3), (3, 5), (5, 8), (8, 8), (8, 9)]
    return spark.parallelize(
        [EdgeBlock(src[a:b], dst[a:b], weight[a:b]) for a, b in cuts], p)


GRAPHS = {"powerlaw400": _powerlaw400, "tiny6": _tiny6}


def _tables(**form):
    """The groupBy alone: every partition's CSR arrays, in order."""
    def run(ctx, edges):
        blocks = to_neighbor_tables(edges, **form).collect()
        # An empty partition's weights are not part of the pin (None at
        # caf00dd, an empty array since): the rows are what is held.
        return [(b.vertices, b.indptr, b.neighbors,
                 b.weights if b.num_edges else None) for b in blocks]
    return run


def _algo(algorithm):
    def run(ctx, edges):
        result = algorithm.transform(ctx, edges)
        return (result.output.collect(), result.iterations,
                sorted(result.stats.items()))
    return run


ALGOS = {
    "tables_directed": _tables(),
    "tables_symmetric_dedupe": _tables(symmetric=True, dedupe=True),
    "tables_weighted": _tables(symmetric=True, weighted=True),
    "tables_weighted_dedupe": _tables(weighted=True, dedupe=True),
    "pagerank": _algo(PageRank(max_iterations=4, tol=0.0)),
    "common_neighbor": _algo(CommonNeighbor(checkpoint=True)),
    "triangle_count": _algo(TriangleCount()),
    "kcore": _algo(KCore(max_iterations=6)),
    "connected_components": _algo(ConnectedComponents()),
    "label_propagation": _algo(LabelPropagation(max_iterations=3)),
    "fast_unfolding": _algo(FastUnfolding(num_passes=2,
                                          max_move_iterations=3)),
}

CELLS = [("powerlaw400", 4), ("powerlaw400", 16), ("tiny6", 8)]


def run_cell(algo: str, graph: str, p: int):
    """One run's record: sim time, shuffle bytes / records, output."""
    ctx = make_psg(4, tracer=Tracer())
    try:
        out = ALGOS[algo](ctx, GRAPHS[graph](ctx.spark, p))
        doc = {"sim_s": ctx.sim_time(),
               "bytes_written": int(ctx.metrics.get(SHUFFLE_BYTES_WRITTEN)),
               "bytes_read": int(ctx.metrics.get(SHUFFLE_BYTES_READ)),
               "records": int(ctx.metrics.get(SHUFFLE_RECORDS)),
               "output": digest(out)}
    finally:
        ctx.stop()
    return run_record(doc, ctx.tracer, ctx.metrics)


def _multiblock(spark, p):
    # Three weighted blocks in every partition (slices of uneven length):
    # the aggregation's map side sees several blocks per task, with the
    # same community pair in more than one of them.
    src, dst = powerlaw_graph(400, 3000, seed=11)
    weight = np.random.default_rng(5).uniform(0.25, 4.0, len(src))
    cuts = np.linspace(0, len(src), 3 * p + 1).astype(int) ** 2 // len(src)
    return spark.parallelize(
        [EdgeBlock(src[a:b], dst[a:b], weight[a:b])
         for a, b in zip(cuts[:-1], cuts[1:])], p)


def run_fast_unfolding_cell(p: int):
    """Three passes (two community aggregations, the second over the
    first's output): sim time, every ``dataflow.shuffle.*`` counter, peak
    bytes per executor and the output.  Held since commit ``25f8957``
    (``_aggregate`` as boxed ``(pair key, weight)`` records through
    ``reduce_by_key``)."""
    ctx = make_psg(4, tracer=Tracer())
    try:
        out = _algo(FastUnfolding(num_passes=3, max_move_iterations=3))(
            ctx, _multiblock(ctx.spark, p))
        assert out[1] == 3
        doc = {"sim_s": ctx.sim_time(),
               "shuffle": {name: int(value) for name, value
                           in sorted(ctx.metrics.snapshot().items())
                           if name.startswith("dataflow.shuffle.")},
               "peaks": [ex.container.memory.peak
                         for ex in ctx.spark.executors],
               "output": digest(out)}
    finally:
        ctx.stop()
    return run_record(doc, ctx.tracer, ctx.metrics)


# ----------------------------------------------------------------------
# PS operations: one scripted sequence per partitioner x partition count
# ----------------------------------------------------------------------


def _flat(items):
    for item in items:
        if isinstance(item, tuple):
            yield from _flat(item)
        else:
            yield item


def _observed(spark, ps, out):
    """The record every PS pin holds: a digest of the results, sim time,
    server clocks and memory peaks, every span and every metric."""
    doc = {"results": digest([(b.vertices, b.indptr, b.neighbors)
                              if isinstance(b, NeighborBlock) else b
                              for b in _flat(out)]),
           "sim_s": spark.sim_time(),
           "server_clocks": [s.container.clock.now_s for s in ps.servers],
           "server_peaks": [s.container.memory.peak for s in ps.servers]}
    return run_record(doc, spark.tracer, spark.metrics)


def table_size(table) -> int:
    """Vertices stored across a neighbor table: one ``table_size``
    request per partition through the agent's metering loop, 24 bytes
    each — a step of the pinned scripts below."""
    meta, sizes = table.meta, []

    def request(_pid: int, store) -> tuple:
        sizes.append(store.num_vertices())
        return 24, None

    table.psctx.agent._fan_out(meta, "table_size",
                               range(meta.num_partitions), request)
    return int(sum(sizes))


def run_ps_ops_cell(kind: str, p: int):
    """A scripted sequence of row and neighbor-table operations on three
    servers — unsorted and repeated keys, ``col=`` and whole rows, float32
    beside float64, empty key sets, from the driver and from inside tasks,
    table reads between table writes.  Held since commit ``b921050``
    (every operation split per partition and executed by ``PSServer.pull /
    push / set / get_neighbors / degrees``)."""
    spark = SparkContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=3, server_mem_bytes=1 << 40,
    ), tracer=Tracer())
    ps = PSContext(spark)
    try:
        rng = np.random.default_rng(17)
        m = ps.create_matrix("m", 61, 3, partition=kind, num_partitions=p)
        f = ps.create_matrix("f", 40, 2, np.float32, partition=kind,
                             num_partitions=p, init=0.25)
        v = ps.create_vector("v", 61, partition=kind, num_partitions=p,
                             init=0.5)
        t = ps.create_neighbor_table("t", 61, partition=kind,
                                     num_partitions=p)
        out = []
        keys = rng.integers(0, 61, 40)
        m.push(keys, rng.standard_normal((40, 3)))
        m.push(keys[:12], rng.standard_normal(12), col=1)
        m.set(keys[5:25], rng.standard_normal((20, 3)))
        m.set(keys[30:], rng.standard_normal(10), col=-1)
        out += [m.pull(keys), m.pull(keys[::-1], col=2),
                m.pull(np.sort(keys)), m.pull(np.empty(0, dtype=np.int64))]
        m.push(np.empty(0, dtype=np.int64), np.empty((0, 3)))
        fkeys = rng.integers(0, 40, 25)
        f.push(fkeys, rng.standard_normal((25, 2)))
        f.push(fkeys, rng.standard_normal(25), col=0)
        f.set(fkeys[:7], rng.standard_normal((7, 2)))
        out += [f.pull(fkeys), f.pull(np.array([39, 0, 39])), f.to_numpy()]
        v.push(keys, rng.standard_normal(40))
        v.set(keys[:9], rng.standard_normal(9))
        out += [v.pull(keys), v.pull(np.array([60])), v.to_numpy(),
                m.to_numpy()]

        half = table_block({int(u): sorted(set(rng.integers(0, 61, 4)))
                            for u in rng.permutation(61)[:30]})
        rest = table_block({int(u): sorted(set(rng.integers(0, 61, 6)))
                            for u in rng.permutation(61)[:45]})
        probe = rng.integers(0, 61, 50)
        t.push(half)
        out += [t.get(probe), t.degrees(probe)]
        t.push(rest)
        out += [t.get(probe[:20]), t.get(np.empty(0, dtype=np.int64))]
        t.remove(half)
        out += [t.degrees(np.arange(61)), t.get(np.arange(61))]
        t.drop(np.arange(0, 61, 5))
        out.append(t.get(probe))
        t.compact()
        out += [t.get(probe[::-1]), table_size(t)]

        def work(it):
            ids = np.array(list(it), dtype=np.int64)
            mixed = np.concatenate([ids[::-1], ids[:3]])
            rows = m.pull(mixed)
            m.push(mixed, rows * 0.5)
            v.set(ids, v.pull(ids) + 1.0)
            f.push(ids % 40, np.ones((len(ids), 2)), col=None)
            block = t.get(mixed)
            m.set(ids, np.full(len(ids), block.num_edges), col=0)
            return rows, v.pull(mixed), block, t.degrees(ids)

        out += spark.parallelize(range(61), 4).foreach_partition(work)
        t.push(half)
        out += [t.get(probe), m.to_numpy(), f.to_numpy(), v.to_numpy()]
        return _observed(spark, ps, out)
    finally:
        ps.stop()
        spark.stop()


PS_OPS_CELLS = [(kind, p) for kind in ("hash", "range", "hash-range")
                for p in (1, 3, 8)]


# ----------------------------------------------------------------------
# column-sharded matrices, server-side optimizers, psFuncs, table writes
# ----------------------------------------------------------------------


def run_column_cell(servers: int, p: int):
    """A scripted sequence on range-partitioned column matrices (shards of
    widths 1 and 2, float32 beside float64) with SGD / Momentum / AdaGrad /
    Adam on the servers, dense matrices with optimizers, psFuncs and
    neighbor-table writes between reads — from the driver and from inside
    tasks, across a checkpoint, a relaxed recovery between operations and
    (with three or more partitions) one in the middle of an Adam step.
    Held since commit ``a4f296a`` (every column shard, optimizer step,
    psFunc and table write executed by its ``PSServer`` handler)."""
    from repro.ps.optimizer import SGD, AdaGrad, Adam, Momentum
    from repro.ps.psfunc import RandomInit

    spark = SparkContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=servers, server_mem_bytes=1 << 40,
    ), tracer=Tracer())
    ps = PSContext(spark)
    try:
        rng = np.random.default_rng(29)
        rows, cols = 20, p + (p + 1) // 2
        e = ps.create_embedding("e", rows, cols, num_partitions=p)
        d = ps.create_matrix("d", rows, cols, np.float64, axis=1,
                             storage="column", num_partitions=p)
        opts = [SGD(lr=0.1), Momentum(lr=0.05), AdaGrad(lr=0.2),
                Adam(lr=0.01)]
        w = [ps.create_matrix(f"w{i}", 6, cols,
                              np.float64 if i % 2 else np.float32,
                              axis=1, storage="column", optimizer=opt,
                              num_partitions=p)
             for i, opt in enumerate(opts)]
        dense = [ps.create_matrix("da", 13, 3, partition="hash",
                                  optimizer=Adam(lr=0.02),
                                  num_partitions=min(p, 13)),
                 ps.create_matrix("dg", 11, 2, np.float32,
                                  optimizer=AdaGrad(lr=0.1),
                                  num_partitions=min(p, 11))]
        t = ps.create_neighbor_table("t", 40, num_partitions=min(p, 40))
        out = []
        keys = rng.integers(0, rows, 15)
        e.psfunc(RandomInit(5, scale=0.3))
        set_rows(d, np.arange(rows), rng.standard_normal((rows, cols)))
        set_rows(d, keys[:6], rng.standard_normal((6, cols)))
        d.push_rows(keys, rng.standard_normal((15, cols)))
        e.push_rows(keys[::-1], rng.standard_normal((15, cols)))
        out += [e.pull_rows(keys), d.pull_rows(keys[::-1]),
                d.pull_rows(np.empty(0, dtype=np.int64)), e.to_numpy(),
                d.to_numpy(), e.dot(keys, keys[::-1]),
                d.dot(keys[:5], keys[5:10])]
        e.rank_one_update(keys, rng.integers(0, rows, 15),
                          rng.standard_normal(15))
        d.rank_one_update(keys[:4], keys[4:8], rng.standard_normal(4))
        out += [e.to_numpy(), d.to_numpy(), d.psfunc(VectorSum(0))]
        for m in w:
            set_rows(m, np.arange(6), rng.standard_normal((6, cols)))

        def step_all():
            for m in w:
                m.apply_gradients(rng.standard_normal((6, cols)))
            for m in dense:
                m.apply_gradients(rng.standard_normal(m.shape))

        step_all()
        t.push(table_block({int(u): sorted(set(rng.integers(0, 40, 5)))
                            for u in rng.permutation(40)[:25]}))
        probe = rng.integers(0, 40, 30)
        out += [t.get(probe), t.degrees(probe)]
        ps.checkpoint_all()
        step_all()
        step_all()
        t.remove(table_block({int(u): [int(u) % 7, 3] for u in probe[:9]}))
        out += [t.get(probe), table_size(t)]
        ps.kill_server(1 % servers)
        ps.recover()
        # The recovered server's shards are a checkpoint behind: their
        # Adam step counts are 1 where the others' are 3.
        step_all()
        if p >= 3:
            seen = [0]

            def injector(endpoint, method):
                if seen[0] == 2 and ps.servers[2].container.alive:
                    ps.kill_server(2)
                seen[0] += 1
                return 0.0

            spark.rpc.fault_injector = injector
            w[3].apply_gradients(rng.standard_normal((6, cols)))
            spark.rpc.fault_injector = None
        step_all()
        t.drop(probe[::3])
        t.compact()
        out += [m.to_numpy() for m in w + dense]
        out += [t.get(np.arange(40)), table_size(t)]

        def work(it):
            ids = np.array(list(it), dtype=np.int64)
            mixed = np.concatenate([ids[::-1], ids[:2]])
            got = e.pull_rows(mixed)
            e.push_rows(mixed, got * 0.25)
            dots = e.dot(mixed, ids[:1].repeat(len(mixed)))
            e.rank_one_update(ids, ids[::-1], np.full(len(ids), 0.01))
            w[3].apply_gradients(np.ones((6, cols)) * float(ids[0]))
            w[0].apply_gradients(np.full((6, cols), 0.5))
            dense[0].apply_gradients(np.ones((13, 3)))
            t.push(table_block({int(u): [int(u) + 1] for u in ids}))
            return got, dots, w[2].to_numpy(), t.get(mixed)

        out += spark.parallelize(range(rows), 4).foreach_partition(work)
        out += [e.to_numpy(), d.to_numpy()]
        out += [m.to_numpy() for m in w + dense]
        return _observed(spark, ps, out)
    finally:
        ps.stop()
        spark.stop()


COLUMN_CELLS = [(3, 1), (3, 3), (3, 5), (3, 30), (30, 5), (30, 30)]


def run_graphsage_cell(servers: int):
    """A small GraphSage run (Adam on column-sharded weights): its stats,
    with the sim-time, memory and span observables of the PS cells.  Held
    since commit ``a4f296a``."""
    from repro.core.algorithms.graphsage import GraphSage
    from repro.datasets.generators import community_graph, vertex_features

    ctx = make_psg(3, servers, Tracer())
    try:
        src, dst, comm = community_graph(120, 3, avg_degree=8, mixing=0.05,
                                         seed=31)
        feats, labels = vertex_features(comm, 6, 3, noise=0.8, seed=32)
        edges = edges_from_arrays(ctx.spark, src, dst, num_partitions=3)
        result = GraphSage(feats, labels, hidden=8, fanouts=(4, 3),
                           epochs=2, batch_size=16, seed=3).transform(
                               ctx, edges)
        out = [sorted((k, v) for k, v in result.stats.items())]
        return _observed(ctx.spark, ctx.ps, out)
    finally:
        ctx.stop()


def run_line_cell(order: int, servers: int):
    """A small LINE run: server-side dots and rank-one updates on column
    shards of widths 3 and 4 (or 2 and 3), degree^0.75 negatives.  Held
    since commit ``a4f296a`` (negatives from ``rng.choice(n, size,
    p=noise_p)`` per batch)."""
    from repro.core.algorithms.line import Line

    ctx = make_psg(3, servers, Tracer())
    try:
        src, dst = powerlaw_graph(300, 1500, seed=13)
        edges = edges_from_arrays(ctx.spark, src, dst, num_partitions=3)
        result = Line(dim=10, order=order, negative=3, epochs=2,
                      batch_size=128, seed=5).transform(ctx, edges)
        out = [result.output.collect(), result.stats["epoch_losses"],
               result.stats["epoch_sim_times"]]
        return _observed(ctx.spark, ctx.ps, out)
    finally:
        ctx.stop()


FAST_UNFOLDING_CELLS = [1, 4, 16]
GRAPHSAGE_CELLS = [2, 5]
LINE_CELLS = [(1, 3), (2, 4)]
PINNED = [(run_cell, (a, g, p)) for a in ALGOS for g, p in CELLS] \
    + [(run_fast_unfolding_cell, (p,)) for p in FAST_UNFOLDING_CELLS] \
    + [(run_ps_ops_cell, cell) for cell in PS_OPS_CELLS] \
    + [(run_column_cell, cell) for cell in COLUMN_CELLS] \
    + [(run_graphsage_cell, (s,)) for s in GRAPHSAGE_CELLS] \
    + [(run_line_cell, cell) for cell in LINE_CELLS]


@pytest.mark.parametrize("key", [(a, g, p) for a in ALGOS for g, p in CELLS],
                         ids=str)
def test_cell_matches_parent_pin(key):
    pin(run_cell, *key)


@pytest.mark.parametrize("p", FAST_UNFOLDING_CELLS)
def test_fast_unfolding_aggregation_matches_parent_pin(p):
    pin(run_fast_unfolding_cell, p)


@pytest.mark.parametrize("cell", PS_OPS_CELLS, ids=str)
def test_ps_ops_match_parent_pin(cell):
    pin(run_ps_ops_cell, *cell)


@pytest.mark.parametrize("cell", COLUMN_CELLS, ids=str)
def test_column_ops_match_parent_pin(cell):
    pin(run_column_cell, *cell)


@pytest.mark.parametrize("servers", GRAPHSAGE_CELLS)
def test_graphsage_matches_parent_pin(servers):
    pin(run_graphsage_cell, servers)


@pytest.mark.parametrize("cell", LINE_CELLS, ids=str)
def test_line_matches_parent_pin(cell):
    pin(run_line_cell, *cell)


def test_every_cell_is_pinned():
    assert_every_cell_pinned(PINNED)
