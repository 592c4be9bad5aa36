"""Golden pins for the GraphX baseline: sim clock, shuffle meters, outputs.

The baseline exists to lose Figure 6 on the *simulated* clock, so a change
to how its joins run on the host must move nothing here: every cell pins
the exact ``ctx.sim_time()``, the shuffle byte / record counters and a
digest of the algorithm's output.  The values were computed at commit
``03d9a46`` (boxed list-of-arrays shuffle buckets, per-pair routing
lists); ``python tests/test_graphx_pins.py`` prints the table again.
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
from tests.conftest import digest, make_context


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
    """``(sim_s, bytes_written, bytes_read, records, digest)`` of one run;
    an OOM's message stands in for the output."""
    src, dst, weight = GRAPHS[graph]()
    ctx = make_context(num_executors=4, executor_mem=executor_mem)
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
        return (ctx.sim_time(),
                int(ctx.metrics.get(SHUFFLE_BYTES_WRITTEN)),
                int(ctx.metrics.get(SHUFFLE_BYTES_READ)),
                int(ctx.metrics.get(SHUFFLE_RECORDS)),
                digest(out))
    finally:
        ctx.stop()


#: Memory grants small enough that the run dies mid-algorithm: the OOM
#: message pins the failing grant's tag, size and the bytes in use.
OOM_CELLS = [
    ("kcore", "powerlaw400", 4, 300_000),
    ("triangle_count", "powerlaw400", 4, 150_000),
    ("triangle_count", "powerlaw400", 4, 200_000),
    ("pagerank", "powerlaw400", 16, 60_000),
]

PINS = {
    ('pagerank', 'powerlaw400', 4, None):
        (0.014748684, 418000, 418000, 320, '9aea16d7c52ed26d'),
    ('pagerank', 'powerlaw400', 16, None):
        (0.017337799733333336, 737456, 737456, 5120, '03d7a78fd17259c6'),
    ('pagerank', 'tiny6', 8, None):
        (0.0011468583999999999, 5744, 5744, 260, 'eb1f63574b9c5e0d'),
    ('connected_components', 'powerlaw400', 4, None):
        (0.017154986666666667, 487616, 487616, 384, '9bf487f59cd076c8'),
    ('connected_components', 'powerlaw400', 16, None):
        (0.019071948800000002, 698688, 698688, 6144, '9bf487f59cd076c8'),
    ('connected_components', 'tiny6', 8, None):
        (0.0007294648, 4176, 4176, 210, '7283f3bafb4df52b'),
    ('kcore', 'powerlaw400', 4, None):
        (0.02791229226666666, 851792, 851792, 480, 'a68d6e83c3cd3afb'),
    ('kcore', 'powerlaw400', 16, None):
        (0.031190560000000006, 1198128, 1198128, 7680, 'a68d6e83c3cd3afb'),
    ('kcore', 'tiny6', 8, None):
        (0.0004948874666666667, 2768, 2768, 138, 'fb9117ddc9e635ae'),
    ('triangle_count', 'powerlaw400', 4, None):
        (0.0094261034, 396338, 396338, 128, 'd40fbd13d527595c'),
    ('triangle_count', 'powerlaw400', 16, None):
        (0.0114792432, 823976, 823976, 2048, 'd40fbd13d527595c'),
    ('triangle_count', 'tiny6', 8, None):
        (0.000490848, 2736, 2736, 108, 'd4735e3a265e16ee'),
    ('common_neighbor', 'powerlaw400', 4, None):
        (0.006954695299999999, 572264, 572264, 128, '5b051a8e6513b4a1'),
    ('common_neighbor', 'powerlaw400', 16, None):
        (0.009017198933333335, 872440, 872440, 2046, '622dc1f6c81b34f7'),
    ('common_neighbor', 'tiny6', 8, None):
        (0.0008763232000000001, 1992, 1992, 70, 'f14150617f81b31c'),
    ('fast_unfolding', 'powerlaw400', 4, None):
        (0.056669875733333305, 1838352, 1838352, 1244, '63fc63b7e36efe29'),
    ('fast_unfolding', 'powerlaw400', 16, None):
        (0.06469864693333337, 2643552, 2643552, 17464, '63fc63b7e36efe29'),
    ('fast_unfolding', 'tiny6', 8, None):
        (0.002818498400000001, 22896, 22896, 1238, '0757a08b14de6cc3'),
    ('kcore', 'powerlaw400', 4, 300000):
        (0.023966306666666663, 755408, 736448, 448, 'c075d72cfc75a20f'),
    ('triangle_count', 'powerlaw400', 4, 150000):
        (0.006227109066666667, 142624, 142624, 64, '2c8435fb4ae8296e'),
    ('triangle_count', 'powerlaw400', 4, 200000):
        (0.006618674233333333, 349026, 194097, 96, '2958770a11485da8'),
    ('pagerank', 'powerlaw400', 16, 60000):
        (0.00012544533333333334, 68432, 4240, 512, '49eda29c0f2af8e7'),
}


@pytest.mark.parametrize("key", list(PINS), ids=str)
def test_cell_matches_parent_pin(key):
    algo, graph, p, mem = key
    assert run_cell(algo, graph, p, mem) == PINS[key]


def test_every_cell_is_pinned():
    want = {(a, g, p, None)
            for a in [*ALGOS, "fast_unfolding"] for g, p in CELLS}
    want |= set(OOM_CELLS)
    assert set(PINS) == want


def test_oom_cells_really_oom():
    for key in OOM_CELLS:
        *_counters, digest = PINS[key]
        assert digest != run_cell(*key[:3])[-1]


if __name__ == "__main__":
    for a in [*ALGOS, "fast_unfolding"]:
        for g, p in CELLS:
            print(f"    {(a, g, p, None)!r}:\n        "
                  f"{run_cell(a, g, p)!r},")
    for key in OOM_CELLS:
        print(f"    {key!r}:\n        {run_cell(*key)!r},")
