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

``run_wide`` pins one 1 %-churn window over a 100k-edge graph the same
way: the 70-vertex windows never send the embedding a rank-one update
past ``SCATTER_BLOCK``, nor cascade over thousands of vertices.
"""

from unittest import mock

import numpy as np

from repro.common.batch import SCATTER_BLOCK
from repro.common.config import MB, ClusterConfig
from repro.core.context import PSGraphContext
from repro.datasets.generators import powerlaw_graph
from repro.ingest.mutations import edge_adds, edge_dels, vertex_dels
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from repro.ps.psfunc import RankOneUpdate
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    OnlineEmbeddingRefresh,
    StreamingEngine,
    StreamingGraph,
)
from tests.conftest import digest, embedding_vectors
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
            doc[f"window {window}"] = _window_doc(
                ctx, engine.run_window(muts), pagerank, components,
                embedding)
    return run_record(doc, ctx.tracer, ctx.metrics)


def _window_doc(ctx, report, pagerank, components, embedding):
    """What a window leaves: its sim time, counters, report and the ranks,
    labels and embedding."""
    return {"sim_s": ctx.sim_time(),
            "counters": {k: v for k, v in ctx.metrics.snapshot().items()
                         if k.startswith(("ps.", "streaming."))},
            "report": report.to_dict(),
            "ranks": digest(pagerank.ranks()),
            "labels": digest(components.assignments()),
            "embedding": digest(embedding_vectors(embedding))}


def test_streaming_windows_match_parent_pins():
    pin(run)


def run_wide(num_vertices, num_edges):
    """One 1 %-churn window over a graph large enough that every kernel of
    the streaming plane works at scale: the embedding's whole-window
    rank-one updates take :class:`RankOneUpdate`'s out-of-bound branch
    (checked here), and the PageRank cascades and component floods span
    thousands of vertices."""
    cluster = ClusterConfig(num_executors=4, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    src, dst = powerlaw_graph(num_vertices, num_edges, seed=11)
    rng = np.random.default_rng(23)
    half = num_edges // 200
    gone = rng.choice(num_edges, size=half, replace=False)
    a_s = rng.integers(0, num_vertices, half)
    a_d = (a_s + 1 + rng.integers(0, num_vertices - 1, half)) % num_vertices
    widths = []
    apply = RankOneUpdate.apply

    def spy(self, store):
        widths.append(2 * len(self.left) * store.array.shape[1])
        apply(self, store)

    with PSGraphContext(cluster, app_name="streaming-pins-wide",
                        tracer=Tracer()) as ctx:
        g = StreamingGraph(ctx.ps, num_vertices, metrics=ctx.metrics)
        engine = StreamingEngine(g, measure_full=True)
        engine.run_window(edge_adds(src, dst))
        pagerank = engine.register("pagerank",
                                   IncrementalPageRank(g, tol=1e-8))
        components = engine.register("components", IncrementalComponents(g))
        embedding = engine.register("embedding",
                                    OnlineEmbeddingRefresh(g, dim=8))
        engine.bootstrap()
        with mock.patch.object(RankOneUpdate, "apply", spy):
            report = engine.run_window(edge_adds(a_s, a_d)
                                       + edge_dels(src[gone], dst[gone]))
        assert max(widths) > SCATTER_BLOCK
        doc = _window_doc(ctx, report, pagerank, components, embedding)
    return run_record(doc, ctx.tracer, ctx.metrics)


PINNED = [(run, ()), (run_wide, (4000, 100_000))]


def test_a_wide_window_matches_parent_pins():
    pin(run_wide, 4000, 100_000)
