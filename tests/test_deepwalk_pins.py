"""Golden pins for DeepWalk: sim clock, PS byte meters, embedding.

Every path through ``train_partition`` that samples walks must charge the
cost model, including the one where a partition's walks yield no skip-gram
pair and the loop ``continue``s.  At ``walk_length=1`` every partition
takes that path; at ``walk_length=6`` none does.  Each cell pins the exact
``ctx.sim_time()``, ``ps.pull.bytes`` / ``ps.push.bytes`` and a digest of
the whole embedding matrix (center and context rows).  The values were
computed at commit ``4381b53``; ``python tests/test_deepwalk_pins.py``
prints the table again.
"""

import pytest

from repro.common.config import ClusterConfig
from repro.common.metrics import PS_PULL_BYTES, PS_PUSH_BYTES
from repro.core.algorithms import DeepWalk
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays
from repro.datasets.generators import community_graph
from tests.conftest import digest


def run_cell(walk_length: int):
    """``(sim_s, pull_bytes, push_bytes, embedding digest)`` of one run."""
    ctx = PSGraphContext(ClusterConfig(
        num_executors=3, executor_mem_bytes=1 << 40,
        num_servers=2, server_mem_bytes=1 << 40,
    ))
    try:
        src, dst, _ = community_graph(60, 3, avg_degree=10, mixing=0.03,
                                      seed=62)
        edges = edges_from_arrays(ctx.spark, src, dst)
        result = DeepWalk(dim=8, walk_length=walk_length, walks_per_vertex=2,
                          window=2, epochs=2).transform(ctx, edges)
        observed = (ctx.sim_time(),
                    int(ctx.metrics.get(PS_PULL_BYTES)),
                    int(ctx.metrics.get(PS_PUSH_BYTES)))
        return observed + (digest(result.stats["embedding"].to_numpy()),)
    finally:
        ctx.stop()


PINS = {
    1:
        (0.0007888111999999999, 2400, 4000, '2b5d813857a2d071'),
    6:
        (0.0042175304, 58008, 4000, '97e2eab31f476a13'),
}


@pytest.mark.parametrize("walk_length", [1, 6])
def test_deepwalk_matches_parent_pin(walk_length):
    assert run_cell(walk_length) == PINS[walk_length]


if __name__ == "__main__":
    for walk_length in (1, 6):
        print(f"    {walk_length}:\n        {run_cell(walk_length)!r},")
