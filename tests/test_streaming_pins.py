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

Per window the run record holds ``sim_time()``, every ``ps.*`` /
``streaming.*`` counter, ``report.to_dict()`` and digests of the ranks,
the component labels and the embedding rows; with every span and every
metric it is a line of the ledger (``tests/ledger.py``).  The values have
held since commit ``1309c35``.
"""

import numpy as np

from repro.common.config import MB, ClusterConfig
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.mutations import edge_adds, edge_dels, vertex_dels
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    OnlineEmbeddingRefresh,
    StreamingEngine,
    StreamingGraph,
)
from tests.conftest import digest
from tests.ledger import pin

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
    """The run's record: per window, its sim time, counters, report and
    the ranks, labels and embedding it leaves."""
    cluster = ClusterConfig(num_executors=4, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    doc = {}
    with PSGraphContext(cluster, app_name="streaming-pins",
                        tracer=Tracer()) as ctx:
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
        for window, muts in enumerate(windows(src, dst), start=1):
            report = engine.run_window(muts)
            doc[f"window {window}"] = {
                "sim_s": ctx.sim_time(),
                "counters": {k: v for k, v in ctx.metrics.snapshot().items()
                             if k.startswith(("ps.", "streaming."))},
                "report": report.to_dict(),
                "ranks": digest(pagerank.ranks()),
                "labels": digest(components.assignments()),
                "embedding": digest(embedding.vectors())}
    return run_record(doc, ctx.tracer, ctx.metrics)


PINNED = [(run, ())]


def test_streaming_windows_match_parent_pins():
    pin(run)
