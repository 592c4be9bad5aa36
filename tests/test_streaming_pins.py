"""Golden pins for the streaming plane: sim clock, counters, window
reports and every algorithm's state across three mutation windows.

One seeded run drives a :class:`StreamingEngine` with incremental
PageRank, components and the online embedding registered, and
``measure_full=True`` so each window also runs every from-scratch
yardstick.  The graph is a power-law core (vertices 0-59) plus a small
gadget (60-69) that makes each window exercise a named case:

* window 1 re-adds a present edge, removes an absent one and cuts the
  path 60-61-62-63 in two (a component split);
* window 2 drops a vertex of the core and removes 64's only out-edge
  while 67 -> 64 stays (a source left dangling);
* window 3 removes and re-adds an edge inside one window, drops the
  split-off 62 and attaches the untouched vertex 69.

Per window the pin holds ``sim_time()``, every ``ps.*`` / ``streaming.*``
counter, ``report.to_dict()`` and digests of the ranks, the component
labels and the embedding rows.  The values were computed at commit
``1309c35``; ``python tests/test_streaming_pins.py`` (with
``PYTHONPATH=src:.``) prints the table again.
"""

import pprint
import textwrap

import numpy as np

from repro.common.config import MB, ClusterConfig
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.mutations import edge_adds, edge_dels, vertex_dels
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    OnlineEmbeddingRefresh,
    StreamingEngine,
    StreamingGraph,
)
from tests.conftest import digest

N = 70


def _ids(*vs):
    return np.asarray(vs, dtype=np.int64)


def windows(src, dst):
    """The three mutation windows (see the module docstring)."""
    rng = np.random.default_rng(17)
    churn = rng.choice(len(src), size=12, replace=False)

    def adds(k):
        a_s = rng.integers(0, 60, k)
        return edge_adds(a_s, (a_s + 1 + rng.integers(0, 59, k)) % 60)

    return [
        adds(6) + edge_adds(src[:1], dst[:1])
        + edge_dels(src[churn[:4]], dst[churn[:4]])
        + edge_dels(_ids(69), _ids(68)) + edge_dels(_ids(61), _ids(62)),
        adds(5) + vertex_dels(_ids(3))
        + edge_dels(src[churn[4:8]], dst[churn[4:8]])
        + edge_dels(_ids(64), _ids(65)),
        edge_dels(src[churn[8:]], dst[churn[8:]])
        + edge_adds(src[churn[8:10]], dst[churn[8:10]]) + adds(4)
        + vertex_dels(_ids(62)) + edge_adds(_ids(69, 5), _ids(0, 69)),
    ]


def run():
    """One row per window: ``(sim_s, counters, report, ranks digest,
    labels digest, embedding digest)``."""
    cluster = ClusterConfig(num_executors=4, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    rows = []
    with PSGraphContext(cluster, app_name="streaming-pins") as ctx:
        src, dst = powerlaw_graph(60, 240, seed=5)
        g = StreamingGraph(ctx.ps, N, metrics=ctx.metrics)
        engine = StreamingEngine(g, measure_full=True)
        engine.run_window(
            edge_adds(src, dst)
            + edge_adds(_ids(60, 61, 62, 64, 66, 67, 68),
                        _ids(61, 62, 63, 65, 65, 64, 66)))
        pagerank = engine.register("pagerank",
                                   IncrementalPageRank(g, tol=1e-10))
        components = engine.register("components", IncrementalComponents(g))
        embedding = engine.register("embedding",
                                    OnlineEmbeddingRefresh(g, dim=4))
        engine.bootstrap()
        for muts in windows(src, dst):
            report = engine.run_window(muts)
            sim_s = ctx.sim_time()
            counters = {k: v for k, v in sorted(ctx.metrics.snapshot().items())
                        if k.startswith(("ps.", "streaming."))}
            rows.append((sim_s, counters, report.to_dict(),
                         digest(pagerank.ranks()),
                         digest(components.assignments()),
                         digest(embedding.vectors())))
    return rows


PINS = [
    (0.01678828853333333,
     {'ps.psfunc.calls': 116.0,
      'ps.pull.bytes': 152648.0,
      'ps.pull.calls': 467.0,
      'ps.push.bytes': 289792.0,
      'ps.push.calls': 444.0,
      'streaming.dirty_vertices': 88.0,
      'streaming.edges.added': 240.0,
      'streaming.edges.removed': 5.0,
      'streaming.vertices.dropped': 0.0,
      'streaming.windows': 2.0},
     {'window': 2,
      'records': 13,
      'edges_added': 6,
      'edges_removed': 5,
      'vertices_dropped': 0,
      'dirty_vertices': 19,
      'cost_incremental_s': 0.0019783887999999996,
      'cost_full_s': 0.013372378933333331,
      'cost_ratio': 0.14794591223170242,
      'algos': {'components': {'rounds': 1.0, 'repairs': 1.0},
                'embedding': {'pairs': 210.0, 'trained': 19.0},
                'pagerank': {'rounds': 4.0,
                             'pushes': 10964.0,
                             'frontier': 31.0}}},
     '55d0312f491f4727',
     '88a0af344e752844',
     'b8fac912e7a9ae77'),
    (0.032717754133333214,
     {'ps.psfunc.calls': 224.0,
      'ps.pull.bytes': 286792.0,
      'ps.pull.calls': 919.0,
      'ps.push.bytes': 555048.0,
      'ps.push.calls': 875.0,
      'streaming.dirty_vertices': 109.0,
      'streaming.edges.added': 244.0,
      'streaming.edges.removed': 17.0,
      'streaming.vertices.dropped': 1.0,
      'streaming.windows': 3.0},
     {'window': 3,
      'records': 11,
      'edges_added': 4,
      'edges_removed': 12,
      'vertices_dropped': 1,
      'dirty_vertices': 21,
      'cost_incremental_s': 0.002734124800000022,
      'cost_full_s': 0.013041353599999864,
      'cost_ratio': 0.20965038475761064,
      'algos': {'components': {'rounds': 1.0, 'repairs': 1.0},
                'embedding': {'pairs': 224.0, 'trained': 20.0},
                'pagerank': {'rounds': 3.0,
                             'pushes': 8906.0,
                             'frontier': 41.0}}},
     '21a7c0a9e2b3cd9c',
     'd210fe0774d9fc30',
     '5ee36afc99de7052'),
    (0.048610717599999555,
     {'ps.psfunc.calls': 335.0,
      'ps.pull.bytes': 419840.0,
      'ps.pull.calls': 1375.0,
      'ps.push.bytes': 831208.0,
      'ps.push.calls': 1319.0,
      'streaming.dirty_vertices': 130.0,
      'streaming.edges.added': 252.0,
      'streaming.edges.removed': 22.0,
      'streaming.vertices.dropped': 2.0,
      'streaming.windows': 4.0},
     {'window': 4,
      'records': 13,
      'edges_added': 8,
      'edges_removed': 5,
      'vertices_dropped': 1,
      'dirty_vertices': 21,
      'cost_incremental_s': 0.0023781336000000264,
      'cost_full_s': 0.013360913066666306,
      'cost_ratio': 0.17799184742344834,
      'algos': {'components': {'rounds': 2.0, 'repairs': 0.0},
                'embedding': {'pairs': 203.0, 'trained': 19.0},
                'pagerank': {'rounds': 4.0,
                             'pushes': 12068.0,
                             'frontier': 32.0}}},
     '3b946f8b85786760',
     'fd0f2ae90f4910b3',
     '185c29e4f8875b3f'),
]


def test_streaming_windows_match_parent_pins():
    got = run()
    assert len(got) == len(PINS)
    for window, (row, pin) in enumerate(zip(got, PINS), start=1):
        for name, value, want in zip(
                ("sim_s", "counters", "report", "ranks", "labels",
                 "embedding"), row, pin):
            assert value == want, f"window {window}: {name}"


if __name__ == "__main__":
    for row in run():
        text = pprint.pformat(row, width=74, sort_dicts=False)
        print(textwrap.indent(text, "    ") + ",")
