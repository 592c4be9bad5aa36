"""Golden pins for the GraphX baseline: sim clock, shuffle meters, outputs.

The baseline exists to lose Figure 6 on the *simulated* clock, so a change
to how its joins run on the host must move nothing here: every cell's run
record (the exact ``ctx.sim_time()``, the shuffle byte / record counters,
a digest of the algorithm's output, every span and every metric) is a
line of the ledger (``tests/ledger.py``).  The values have held since
commit ``03d9a46`` (boxed list-of-arrays shuffle buckets, per-pair
routing lists).
"""

import numpy as np
import pytest

from repro.common.errors import SimulatedOOMError
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
)
from repro.datasets.generators import powerlaw_graph
from repro.graphx import algorithms as gx
from repro.graphx.fast_unfolding import fast_unfolding
from repro.graphx.graph import Graph
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from tests.conftest import digest, make_context
from tests.ledger import LEDGER, assert_every_cell_pinned, pin, runner_key


def _powerlaw400():
    src, dst = powerlaw_graph(400, 3000, seed=11)
    weight = np.random.default_rng(5).uniform(0.25, 4.0, len(src))
    return src, dst, weight


def _tiny6():
    # 6 vertices, 9 edges: at P = 8 two vertex partitions stay empty.
    src = np.array([0, 1, 2, 3, 4, 5, 0, 2, 1], dtype=np.int64)
    dst = np.array([1, 2, 0, 4, 5, 3, 3, 5, 4], dtype=np.int64)
    weight = np.array([1.5, 2.0, 0.5, 3.0, 1.0, 2.5, 0.75, 1.25, 4.0])
    return src, dst, weight


GRAPHS = {"powerlaw400": _powerlaw400, "tiny6": _tiny6}

ALGOS = {
    "pagerank": lambda g: gx.pagerank(g, max_iterations=4, tol=0.0),
    "connected_components": gx.connected_components,
    "kcore": lambda g: gx.kcore(g, max_iterations=6),
    "triangle_count": gx.triangle_count,
    "common_neighbor": lambda g: np.asarray(
        gx.common_neighbor(g, num_chunks=3), dtype=np.int64),
}

CELLS = [("powerlaw400", 4), ("powerlaw400", 16), ("tiny6", 8)]


def run_cell(algo: str, graph: str, p: int, executor_mem=None):
    """One run's record: sim time, shuffle bytes / records and the output,
    for which an OOM's message stands in."""
    src, dst, weight = GRAPHS[graph]()
    ctx = make_context(num_executors=4, executor_mem=executor_mem,
                       tracer=Tracer())
    try:
        try:
            if algo == "fast_unfolding":
                out = fast_unfolding(ctx, src, dst, weight, num_passes=2,
                                     max_move_iterations=3,
                                     num_partitions=p)
            else:
                out = ALGOS[algo](
                    Graph.from_edges(ctx, src, dst, num_partitions=p))
        except SimulatedOOMError as oom:
            out = str(oom)
        doc = {"sim_s": ctx.sim_time(),
               "bytes_written": int(ctx.metrics.get(SHUFFLE_BYTES_WRITTEN)),
               "bytes_read": int(ctx.metrics.get(SHUFFLE_BYTES_READ)),
               "records": int(ctx.metrics.get(SHUFFLE_RECORDS)),
               "output": digest(out)}
    finally:
        ctx.stop()
    return run_record(doc, ctx.tracer, ctx.metrics)


#: Memory grants small enough that the run dies mid-algorithm: the OOM
#: message pins the failing grant's tag, size and the bytes in use.
OOM_CELLS = [
    ("kcore", "powerlaw400", 4, 300_000),
    ("triangle_count", "powerlaw400", 4, 150_000),
    ("triangle_count", "powerlaw400", 4, 200_000),
    ("pagerank", "powerlaw400", 16, 60_000),
]

PINNED = [(run_cell, (a, g, p, None)) for a in [*ALGOS, "fast_unfolding"]
          for g, p in CELLS] + [(run_cell, cell) for cell in OOM_CELLS]


@pytest.mark.parametrize("key", [args for _fn, args in PINNED], ids=str)
def test_cell_matches_parent_pin(key):
    pin(run_cell, *key)


def test_every_cell_is_pinned():
    assert_every_cell_pinned(PINNED)


def test_oom_cells_really_oom():
    """An OOM cell's output (the OOM message) is not its full run's: the
    ``output`` segments of their ledger lines differ."""
    output = -4  # bytes_read, bytes_written, output, records, sim_s, metrics
    for key in OOM_CELLS:
        assert LEDGER[runner_key(run_cell, *key)][output] \
            != LEDGER[runner_key(run_cell, *key[:3], None)][output]
