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
from repro.lint.dynamic import _span_key
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
                digest([_span_key(s) for s in tracer.spans()]))
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
