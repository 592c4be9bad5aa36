"""Ablation experiments for the design choices DESIGN.md calls out.

Not part of the paper's evaluation — these isolate *why* PSGraph's design
decisions matter, using the same metered substrate:

* delta vs full PageRank (Sec. IV-A's increment optimization);
* psFunc server-side dots/updates vs pulling embeddings for LINE
  (Sec. IV-D);
* BSP vs ASP synchronization (Sec. III-A) under a straggling server;
* hash vs range vs hash-range partitioning load balance (Sec. III-A).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.rng import DEFAULT_SEED
from repro.experiments.cells import Cell
from repro.experiments.harness import ExperimentRow
from repro.ps.partitioner import make_ps_partitioner

#: Delta vs thresholded-delta vs full PageRank: PS traffic + sim time.
DELTA_CELLS: List[Cell] = [
    Cell("ablation-delta", "PSGraph", "PL4000x40000", "PageRank",
         variant=variant, output="ranks", unit="seconds",
         knobs={"max_iterations": 40, "tol": 0.0, **knobs})
    for variant, knobs in (
        ("full-ranks", {"use_delta": False}),
        ("delta", {"use_delta": True}),
        ("delta-threshold", {"use_delta": True, "delta_threshold": 1e-3}),
    )
]

#: Server-side dots/updates vs pulling whole embedding rows.  Few
#: servers, many executors: the congestion regime where moving embedding
#: rows hurts (Sec. IV-D's motivation).
PSFUNC_CELLS: List[Cell] = [
    Cell("ablation-psfunc", "PSGraph", "PL1000x8000", "Line",
         variant=variant, unit="seconds",
         knobs={"dim": 128, "epochs": 1, "batch_size": 1024,
                "seed": DEFAULT_SEED, "use_psfunc": use_psfunc},
         cluster={"num_executors": 16, "num_servers": 2})
    for variant, use_psfunc in (("psfunc-on-ps", True),
                                ("pull-embeddings", False))
]

#: BSP vs ASP when PS server 0 straggles: it delays every BSP barrier
#: (executors wait for the slowest participant); under ASP the workers
#: proceed and the job time ignores the server's lag.
SYNC_CELLS: List[Cell] = [
    Cell("ablation-sync", "PSGraph", "PL2000x20000", "PageRank",
         variant=mode, unit="seconds", cluster={"sync_mode": mode},
         knobs={"max_iterations": 10, "tol": 0.0, "server_drag_s": 0.005})
    for mode in ("bsp", "asp")
]


#: Id space and partition count of :func:`ablation_partitioners`.
PARTITIONER_VERTICES = 100_000
PARTITIONER_PARTITIONS = 16


def ablation_partitioners(seed: int = DEFAULT_SEED) -> List[ExperimentRow]:
    """Load balance of hash / range / hash-range for a skewed key pattern.

    Keys are drawn with a power-law over the id space *without* the id
    scatter (ids correlate with hotness, as they do for time-ordered user
    ids) — range partitioning then concentrates hot ranges while hash and
    hash-range spread them.  No cluster runs, so rows carry no sim time.
    """
    num_vertices = PARTITIONER_VERTICES
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    probs = ranks ** -0.8
    probs /= probs.sum()
    keys = rng.choice(num_vertices, size=200_000, p=probs)
    out: List[ExperimentRow] = []
    for kind in ("hash", "range", "hash-range"):
        partitioner = make_ps_partitioner(kind, num_vertices,
                                          PARTITIONER_PARTITIONS)
        counts = np.bincount(partitioner.partition_array(keys),
                             minlength=partitioner.num_partitions)
        out.append(ExperimentRow(
            "ablation-partitioners", "PSGraph", f"skewed-ids{num_vertices}",
            kind, "ok", None, 1.0, unit="-", extra={
                "max_load": int(counts.max()),
                "mean_load": float(counts.mean()),
                "imbalance": float(counts.max() / counts.mean()),
            },
        ))
    return out
