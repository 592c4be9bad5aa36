"""Golden pins for PSGraph's groupBy: sim clock, shuffle meters, outputs.

Every PSGraph algorithm but LINE starts with ``to_neighbor_tables`` (the
Sec. IV-A groupBy), so a change to how that shuffle runs on the host must
move nothing here: every cell pins the exact ``ctx.sim_time()``, the
shuffle byte / record counters and a digest of the output.  The values
were computed at commit ``caf00dd`` (one boxed ``(pid, EdgeBlock)`` record
per map partition x direction x reduce partition);
``python tests/test_psgraph_pins.py`` prints the table again.
"""

import json

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
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays, to_neighbor_tables
from repro.dataflow.context import SparkContext
from repro.datasets.generators import powerlaw_graph
from repro.obs.determinism import span_event
from repro.obs.export import metrics_to_dict
from repro.obs.tracer import Tracer
from repro.ps.context import PSContext
from tests.conftest import digest, table_block


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
    """``(sim_s, bytes_written, bytes_read, records, digest)`` of one run."""
    ctx = PSGraphContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=2, server_mem_bytes=1 << 40,
    ))
    try:
        out = ALGOS[algo](ctx, GRAPHS[graph](ctx.spark, p))
        return (ctx.sim_time(),
                int(ctx.metrics.get(SHUFFLE_BYTES_WRITTEN)),
                int(ctx.metrics.get(SHUFFLE_BYTES_READ)),
                int(ctx.metrics.get(SHUFFLE_RECORDS)),
                digest(out))
    finally:
        ctx.stop()


PINS = {
    ('tables_directed', 'powerlaw400', 4):
        (0.0004499864, 48768, 48768, 16, 'a50b5dc5a8b7acea'),
    ('tables_directed', 'powerlaw400', 16):
        (0.000732848, 60288, 60288, 256, '3614a4571db47039'),
    ('tables_directed', 'tiny6', 8):
        (0.00016148079999999998, 576, 576, 9, '23e76e5532c07b05'),
    ('tables_symmetric_dedupe', 'powerlaw400', 4):
        (0.0007898498666666667, 97408, 97408, 32, '633742baa5df1c2c'),
    ('tables_symmetric_dedupe', 'powerlaw400', 16):
        (0.0011945514666666665, 118528, 118528, 512, '70049cd21594a3b6'),
    ('tables_symmetric_dedupe', 'tiny6', 8):
        (0.0001688304, 1064, 1064, 17, '9e8da9704be83e84'),
    ('tables_weighted', 'powerlaw400', 4):
        (0.0009899874666666666, 145408, 145408, 32, 'c2911f38862ffab6'),
    ('tables_weighted', 'powerlaw400', 16):
        (0.0013946890666666667, 166528, 166528, 512, 'b40bdb9c1bac6e90'),
    ('tables_weighted', 'tiny6', 8):
        (0.00016965520000000002, 1208, 1208, 17, '89b187ddc83211c9'),
    ('tables_weighted_dedupe', 'powerlaw400', 4):
        (0.0005495472, 72768, 72768, 16, '7208e0d405c5cf1d'),
    ('tables_weighted_dedupe', 'powerlaw400', 16):
        (0.0008324088, 84288, 84288, 256, '683ca396be04f829'),
    ('tables_weighted_dedupe', 'tiny6', 8):
        (0.00016189280000000002, 648, 648, 9, 'aeb892af7c0950e6'),
    ('pagerank', 'powerlaw400', 4):
        (0.0018187792, 48768, 48768, 16, 'e4480bb27a206d07'),
    ('pagerank', 'powerlaw400', 16):
        (0.0038115008, 60288, 60288, 256, 'ff90ca39df31f5d7'),
    ('pagerank', 'tiny6', 8):
        (0.0013808184000000004, 576, 576, 9, 'a0ada697f142a17f'),
    ('common_neighbor', 'powerlaw400', 4):
        (0.006391306666666657, 97408, 97408, 32, 'eb82e4ab317e4f81'),
    ('common_neighbor', 'powerlaw400', 16):
        (0.0072137602666666675, 118528, 118528, 512, '1cd8cdf2df7dd494'),
    ('common_neighbor', 'tiny6', 8):
        (0.00038268160000000005, 1064, 1064, 17, '10f6813a6028ba8e'),
    ('triangle_count', 'powerlaw400', 4):
        (0.005635201066666663, 97408, 97408, 32, 'e68777a7eadd24e0'),
    ('triangle_count', 'powerlaw400', 16):
        (0.006401372266666667, 118528, 118528, 512, 'e68777a7eadd24e0'),
    ('triangle_count', 'tiny6', 8):
        (0.00043157039999999996, 1064, 1064, 17, 'e77697b130f284fa'),
    ('kcore', 'powerlaw400', 4):
        (0.0037851170666666667, 97408, 97408, 32, '2cdd230a7eb83e88'),
    ('kcore', 'powerlaw400', 16):
        (0.006980473066666666, 118528, 118528, 512, '0624efeaa9665656'),
    ('kcore', 'tiny6', 8):
        (0.0008363792, 1064, 1064, 17, '11eb3a3f77ca6f6e'),
    ('connected_components', 'powerlaw400', 4):
        (0.0023613882666666665, 97408, 97408, 32, 'e4a337a9f009b725'),
    ('connected_components', 'powerlaw400', 16):
        (0.004268351466666666, 118528, 118528, 512, '15c5d5771a7bcd83'),
    ('connected_components', 'tiny6', 8):
        (0.0008861536000000001, 1064, 1064, 17, 'a5218f04704fbd26'),
    ('label_propagation', 'powerlaw400', 4):
        (0.0024208378666666667, 97408, 97408, 32, '4219735bd388d816'),
    ('label_propagation', 'powerlaw400', 16):
        (0.004364076266666666, 118528, 118528, 512, '6d0d0ddcf8e02295'),
    ('label_propagation', 'tiny6', 8):
        (0.0008864128, 1064, 1064, 17, '9c9c8caa3d32a385'),
    ('fast_unfolding', 'powerlaw400', 4):
        (0.011970378666666656, 389584, 518304, 2935, '1d08dcbf300da706'),
    ('fast_unfolding', 'powerlaw400', 16):
        (0.026966542666666662, 532104, 671816, 6136, '51a277bb99ae4378'),
    ('fast_unfolding', 'tiny6', 8):
        (0.0024122509333333337, 1952, 2280, 29, '4d98fd294b7fea2f'),
}


@pytest.mark.parametrize("key", list(PINS), ids=str)
def test_cell_matches_parent_pin(key):
    assert run_cell(*key) == PINS[key]


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
    first's output): ``(sim_s, {dataflow.shuffle.* counter: value},
    peak bytes per executor, digest)``."""
    ctx = PSGraphContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=2, server_mem_bytes=1 << 40,
    ))
    try:
        out = _algo(FastUnfolding(num_passes=3, max_move_iterations=3))(
            ctx, _multiblock(ctx.spark, p))
        assert out[1] == 3
        return (ctx.sim_time(),
                {name: int(value) for name, value in ctx.metrics
                 if name.startswith("dataflow.shuffle.")},
                tuple(ex.container.memory.peak for ex in ctx.spark.executors),
                digest(out))
    finally:
        ctx.stop()


#: Computed at commit ``25f8957`` (``_aggregate`` as boxed ``(pair key,
#: weight)`` records through ``reduce_by_key``).
FAST_UNFOLDING_PINS = {
    1: (0.021185942133333666,
        {'dataflow.shuffle.bytes_read': 843848,
         'dataflow.shuffle.bytes_written': 542864,
         'dataflow.shuffle.records': 4177},
        (26296, 255980, 25640, 26200), 'b92914c9f0510d8c'),
    4: (0.018689495733333315,
        {'dataflow.shuffle.bytes_read': 975776,
         'dataflow.shuffle.bytes_written': 613232,
         'dataflow.shuffle.records': 5452},
        (73560, 87140, 80180, 91580), 'ece7d90bbf52e5f6'),
    16: (0.035617125866666655,
         {'dataflow.shuffle.bytes_read': 1219968,
          'dataflow.shuffle.bytes_written': 835736,
          'dataflow.shuffle.records': 10539},
         (34536, 31800, 33024, 33120), 'f850892d6f09cb66'),
}


@pytest.mark.parametrize("p", [1, 4, 16])
def test_fast_unfolding_aggregation_matches_parent_pin(p):
    assert run_fast_unfolding_cell(p) == FAST_UNFOLDING_PINS[p]


# ----------------------------------------------------------------------
# PS operations: one scripted sequence per partitioner x partition count
# ----------------------------------------------------------------------


def run_ps_ops_cell(kind: str, p: int):
    """A scripted sequence of row and neighbor-table operations on three
    servers — unsorted and repeated keys, ``col=`` and whole rows, float32
    beside float64, empty key sets, from the driver and from inside tasks,
    table reads between table writes — as ``(results digest, sim_s,
    server clocks, digest of every counter / gauge / histogram, server
    memory peaks, digest of every span)``."""
    tracer = Tracer()
    spark = SparkContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=3, server_mem_bytes=1 << 40,
    ), tracer=tracer)
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
        out += [t.get(probe[::-1]), t.num_vertices()]

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
        return (digest([(b.vertices, b.indptr, b.neighbors)
                        if isinstance(b, NeighborBlock) else b
                        for b in _flat(out)]),
                spark.sim_time(),
                tuple(s.container.clock.now_s for s in ps.servers),
                digest(json.dumps(metrics_to_dict(spark.metrics),
                                  sort_keys=True)),
                tuple(s.container.memory.peak for s in ps.servers),
                digest([span_event(s) for s in tracer.spans()]))
    finally:
        ps.stop()
        spark.stop()


def _flat(items):
    for item in items:
        if isinstance(item, tuple):
            yield from _flat(item)
        else:
            yield item


PS_OPS_CELLS = [(kind, p) for kind in ("hash", "range", "hash-range")
                for p in (1, 3, 8)]

#: Computed at commit ``b921050`` (every operation split per partition and
#: executed by ``PSServer.pull / push / set / get_neighbors / degrees``).
PS_OPS_PINS = {
    ('hash', 1):
        ('92afebf87a93e959', 0.0018928012,
         (8.248000000000005e-07, 0.0, 0.0),
         '8efe4ef33c3978d8', (7392, 0, 0),
         'ba66afa55b6a6f3a'),
    ('hash', 3):
        ('92afebf87a93e959', 0.0018764060000000002,
         (2.827999999999999e-07, 2.751999999999999e-07, 2.667999999999999e-07),
         '2e401b1e6946c61b', (2520, 2464, 2424),
         'dde1ed05dda4d728'),
    ('hash', 8):
        ('92afebf87a93e959', 0.0018776324,
         (3.2319999999999993e-07, 3.079999999999998e-07, 1.9359999999999988e-07),
         '1204d92ff7753678', (2824, 2808, 1816),
         '1c656ac714cec1d5'),
    ('range', 1):
        ('92afebf87a93e959', 0.0018928012,
         (8.248000000000005e-07, 0.0, 0.0),
         '8efe4ef33c3978d8', (7392, 0, 0),
         'ba66afa55b6a6f3a'),
    ('range', 3):
        ('92afebf87a93e959', 0.0018767196000000004,
         (2.761999999999999e-07, 2.981999999999999e-07, 2.503999999999998e-07),
         'b1b1efbd6086b0a5', (2328, 2688, 2392),
         'a758b75a196e40a0'),
    ('range', 8):
        ('92afebf87a93e959', 0.0018779524,
         (3.2699999999999974e-07, 3.065999999999998e-07, 1.9120000000000012e-07),
         '73b8df01f3778ec4', (2680, 3000, 1768),
         '96c9ae06d687ffcd'),
    ('hash-range', 1):
        ('92afebf87a93e959', 0.0018928012,
         (8.248000000000005e-07, 0.0, 0.0),
         '8efe4ef33c3978d8', (7392, 0, 0),
         'ba66afa55b6a6f3a'),
    ('hash-range', 3):
        ('92afebf87a93e959', 0.001877014,
         (3.0480000000000003e-07, 2.914e-07, 2.2860000000000002e-07),
         '8f0b74bfbfeb8ca4', (2616, 2680, 2112),
         '68865034426dedc1'),
    ('hash-range', 8):
        ('92afebf87a93e959', 0.0018776324,
         (3.2319999999999993e-07, 3.079999999999998e-07, 1.9359999999999988e-07),
         '1204d92ff7753678', (2824, 2808, 1816),
         '1c656ac714cec1d5'),
}


@pytest.mark.parametrize("cell", PS_OPS_CELLS, ids=str)
def test_ps_ops_match_parent_pin(cell):
    assert run_ps_ops_cell(*cell) == PS_OPS_PINS[cell]


# ----------------------------------------------------------------------
# column-sharded matrices, server-side optimizers, psFuncs, table writes
# ----------------------------------------------------------------------


def _observed(spark, ps, tracer, out):
    """The tuple every PS pin holds: results digest, sim time, server
    clocks, digest of every counter / gauge / histogram, server memory
    peaks, digest of every span."""
    return (digest([(b.vertices, b.indptr, b.neighbors)
                    if isinstance(b, NeighborBlock) else b
                    for b in _flat(out)]),
            spark.sim_time(),
            tuple(s.container.clock.now_s for s in ps.servers),
            digest(json.dumps(metrics_to_dict(spark.metrics),
                              sort_keys=True)),
            tuple(s.container.memory.peak for s in ps.servers),
            digest([span_event(s) for s in tracer.spans()]))


def run_column_cell(servers: int, p: int):
    """A scripted sequence on range-partitioned column matrices (shards of
    widths 1 and 2, float32 beside float64) with SGD / Momentum / AdaGrad /
    Adam on the servers, dense matrices with optimizers, psFuncs and
    neighbor-table writes between reads — from the driver and from inside
    tasks, across a checkpoint, a relaxed recovery between operations and
    (with three or more partitions) one in the middle of an Adam step."""
    from repro.ps.optimizer import SGD, AdaGrad, Adam, Momentum
    from repro.ps.psfunc import RandomInit, VectorSum

    tracer = Tracer()
    spark = SparkContext(ClusterConfig(
        num_executors=4, executor_mem_bytes=1 << 40,
        num_servers=servers, server_mem_bytes=1 << 40,
    ), tracer=tracer)
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
        d.set_rows(np.arange(rows), rng.standard_normal((rows, cols)))
        d.set_rows(keys[:6], rng.standard_normal((6, cols)))
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
            m.set_rows(np.arange(6), rng.standard_normal((6, cols)))

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
        out += [t.get(probe), t.num_vertices()]
        ps.kill_server(1 % servers)
        ps.recover("relaxed")
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
        out += [t.get(np.arange(40)), t.num_vertices()]

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
        return _observed(spark, ps, tracer, out)
    finally:
        ps.stop()
        spark.stop()


COLUMN_CELLS = [(3, 1), (3, 3), (3, 5), (3, 30), (30, 5), (30, 30)]

#: Computed at commit ``a4f296a`` (every column shard, optimizer step,
#: psFunc and table write executed by its ``PSServer`` handler).
COLUMN_PINS = {
    (3, 1):
        ('b2004e0ef827ef50', 30.003921372000004, (30.002415280800005, 30.002414352, 30.002414352), '9e9732009fd54007', (2800, 0, 0), '471feaed131a43a6'),
    (3, 3):
        ('f457119ff29e21de', 60.00417042139999, (60.002914118600025, 60.00291408500003, 60.00291395059998), 'a91face81280a74c', (1536, 1512, 1080), '237cfd27f5a331d4'),
    (3, 5):
        ('a626ecfbaf017840', 60.004202755300014, (60.00294339649996, 60.00294339989998, 60.0029431871), '61509d20eb15ef62', (2040, 2208, 1280), 'b1b6f0be2add73b1'),
    (3, 30):
        ('14b6e56d642d8246', 60.004603819399975, (60.00331210759996, 60.00331206859995, 60.00331208599998), '91220911ead058ef', (7432, 7144, 7104), '21fe3399487b97e9'),
    (30, 5):
        ('4179168304cd26b0', 60.00687699580003, (60.005618949800045, 60.005618947600055, 60.00561897400005, 60.00561878540001, 60.00561879060002, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005, 60.00561855180005), 'e1ade96b8fa30176', (1184, 1248, 1280, 864, 952, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), '8696ce8c782b79e0'),
    (30, 30):
        ('330d664099ceb057', 60.00695901340003, (60.005678666800065, 60.00567866600006, 60.00567868720007, 60.005678689800064, 60.00567869000006, 60.005678687800064, 60.00567869000006, 60.005678687000064, 60.00567868960007, 60.00567868960007, 60.00567868660006, 60.00567868340006, 60.00567868500006, 60.00567865420007, 60.00567865220007, 60.005678495400026, 60.005678495400026, 60.00567849740003, 60.00567849700003, 60.005678495400026, 60.00567849500003, 60.00567849520003, 60.00567849600003, 60.00567849540003, 60.00567849580003, 60.00567849500003, 60.00567849600003, 60.00567849600003, 60.00567849600003, 60.00567849500003), 'aaedef366b8bac5a', (1048, 1032, 936, 992, 992, 1024, 1016, 960, 1048, 1048, 936, 920, 968, 944, 888, 456, 456, 512, 504, 456, 440, 488, 496, 440, 488, 440, 496, 496, 496, 440), '5cf52a1b6bc1b9a7'),
}


@pytest.mark.parametrize("cell", COLUMN_CELLS, ids=str)
def test_column_ops_match_parent_pin(cell):
    assert run_column_cell(*cell) == COLUMN_PINS[cell]


def run_graphsage_cell(servers: int):
    """A small GraphSage run (Adam on column-sharded weights): its stats,
    with the sim-time, memory and span observables of the PS cells."""
    from repro.core.algorithms.graphsage import GraphSage
    from repro.datasets.generators import community_graph, vertex_features

    tracer = Tracer()
    ctx = PSGraphContext(ClusterConfig(
        num_executors=3, executor_mem_bytes=1 << 40,
        num_servers=servers, server_mem_bytes=1 << 40,
    ), tracer=tracer)
    try:
        src, dst, comm = community_graph(120, 3, avg_degree=8, mixing=0.05,
                                         seed=31)
        feats, labels = vertex_features(comm, 6, 3, noise=0.8, seed=32)
        edges = edges_from_arrays(ctx.spark, src, dst, num_partitions=3)
        result = GraphSage(feats, labels, hidden=8, fanouts=(4, 3),
                           epochs=2, batch_size=16, seed=3).transform(
                               ctx, edges)
        out = [sorted((k, v) for k, v in result.stats.items())]
        return _observed(ctx.spark, ctx.ps, tracer, out)
    finally:
        ctx.stop()


#: Computed at commit ``a4f296a``.
GRAPHSAGE_PINS = {
    2:
        ('699a8df025b92517', 0.007032306466666668, (0.006184109666666669, 0.00618411326666667), 'acdbf2bd68c9b169', (7912, 8064), 'd6b3652e0d868b4c'),
    5:
        ('d01dc04e4974a692', 0.006984735266666667, (0.0061432310666666694, 0.00614322026666667, 0.006143238866666667, 0.006143183666666667, 0.006143210466666668), '0b0421bde8d42153', (3312, 3400, 3400, 2960, 2952), '7d74595554e4b47a'),
}


@pytest.mark.parametrize("servers", [2, 5])
def test_graphsage_matches_parent_pin(servers):
    assert run_graphsage_cell(servers) == GRAPHSAGE_PINS[servers]


def run_line_cell(order: int, servers: int):
    """A small LINE run: server-side dots and rank-one updates on column
    shards of widths 3 and 4 (or 2 and 3), degree^0.75 negatives."""
    from repro.core.algorithms.line import Line

    tracer = Tracer()
    ctx = PSGraphContext(ClusterConfig(
        num_executors=3, executor_mem_bytes=1 << 40,
        num_servers=servers, server_mem_bytes=1 << 40,
    ), tracer=tracer)
    try:
        src, dst = powerlaw_graph(300, 1500, seed=13)
        edges = edges_from_arrays(ctx.spark, src, dst, num_partitions=3)
        result = Line(dim=10, order=order, negative=3, epochs=2,
                      batch_size=128, seed=5).transform(ctx, edges)
        out = [result.output.collect(), result.stats["epoch_losses"],
               result.stats["epoch_sim_times"]]
        return _observed(ctx.spark, ctx.ps, tracer, out)
    finally:
        ctx.stop()


#: Computed at commit ``a4f296a`` (negatives from ``rng.choice(n, size,
#: p=noise_p)`` per batch).
LINE_PINS = {
    (1, 3):
        ('f69b4ad9dbb11d19', 0.004538930399999999, (0.004143084, 0.0041430239999999995, 0.0041430239999999995), '5c5f2d0c444d947f', (9632, 7224, 7224), '5a545ee50382a5dd'),
    (2, 4):
        ('696bc6e4454700fd', 0.0047310704, (0.004335164, 0.004335164, 0.004335104, 0.004335104), '154cee8d7b407ead', (7224, 7224, 4816, 4816), '082e25e5e96bce1f'),
}


@pytest.mark.parametrize("cell", [(1, 3), (2, 4)], ids=str)
def test_line_matches_parent_pin(cell):
    assert run_line_cell(*cell) == LINE_PINS[cell]


def test_every_cell_is_pinned():
    assert set(PINS) == {(a, g, p) for a in ALGOS for g, p in CELLS}


if __name__ == "__main__":
    for a in ALGOS:
        for g, p in CELLS:
            print(f"    {(a, g, p)!r}:\n        {run_cell(a, g, p)!r},")
    for p in (1, 4, 16):
        print(f"    {p}: {run_fast_unfolding_cell(p)!r},")
    for cell in PS_OPS_CELLS:
        print(f"    {cell!r}:\n        {run_ps_ops_cell(*cell)!r},")
    for cell in COLUMN_CELLS:
        print(f"    {cell!r}:\n        {run_column_cell(*cell)!r},")
    for servers in (2, 5):
        print(f"    {servers}:\n        {run_graphsage_cell(servers)!r},")
    for cell in [(1, 3), (2, 4)]:
        print(f"    {cell!r}:\n        {run_line_cell(*cell)!r},")
