"""Golden pins for DeepWalk: sim clock, PS byte meters, embedding.

Every path through ``train_partition`` that samples walks must charge the
cost model, including the one where a partition's walks yield no skip-gram
pair and the loop ``continue``s.  At ``walk_length=1`` every partition
takes that path; at ``walk_length=6`` none does.  Each cell's run record
(the exact ``ctx.sim_time()``, ``ps.pull.bytes`` / ``ps.push.bytes``, a
digest of the whole embedding matrix — center and context rows — every
span and every metric) is a line of the ledger (``tests/ledger.py``).  The
values have held since commit ``4381b53``.
"""

import pytest

from repro.common.metrics import PS_PULL_BYTES, PS_PUSH_BYTES
from repro.core.algorithms import DeepWalk
from repro.core.ops import edges_from_arrays
from repro.datasets.generators import community_graph
from repro.obs.determinism import run_record
from repro.obs.tracer import Tracer
from tests.conftest import digest, make_psg
from tests.ledger import pin


def run_cell(walk_length: int):
    """One run's record: sim time, PS pull / push bytes, the embedding."""
    ctx = make_psg(tracer=Tracer())
    try:
        src, dst, _ = community_graph(60, 3, avg_degree=10, mixing=0.03,
                                      seed=62)
        edges = edges_from_arrays(ctx.spark, src, dst)
        result = DeepWalk(dim=8, walk_length=walk_length, walks_per_vertex=2,
                          window=2, epochs=2).transform(ctx, edges)
        doc = {"sim_s": ctx.sim_time(),
               "pull_bytes": int(ctx.metrics.get(PS_PULL_BYTES)),
               "push_bytes": int(ctx.metrics.get(PS_PUSH_BYTES)),
               "embedding": digest(result.stats["embedding"].to_numpy())}
    finally:
        ctx.stop()
    return run_record(doc, ctx.tracer, ctx.metrics)


PINNED = [(run_cell, (walk_length,)) for walk_length in (1, 6)]


@pytest.mark.parametrize("walk_length", [1, 6])
def test_deepwalk_matches_parent_pin(walk_length):
    pin(run_cell, walk_length)
