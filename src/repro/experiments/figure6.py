"""Figure 6 — PSGraph vs GraphX on traditional graph algorithms.

Paper cells (runtime in hours; "OOM" = out of memory at 55 GB/executor):

=====================  =====  ========  =======
cell                    DS     PSGraph   GraphX
=====================  =====  ========  =======
PageRank               DS1    0.5       4
PageRank               DS2    7         OOM
Common Neighbor        DS1    0.5       1.5
Common Neighbor        DS2    3.5       OOM
Fast Unfolding         DS1    3.5       10.3
K-Core                 DS1    2         OOM
Triangle Count         DS1    0.7       OOM
=====================  =====  ========  =======

Resources follow Sec. V-B1, scaled with the datasets: PSGraph gets 100
executors (20 GB) + 20 PS (15 GB) on DS1 and 300 executors (30 GB) + 200 PS
(30 GB) on DS2; GraphX gets 100x55 GB (DS1) and 500x55 GB (DS2).

The resource-efficiency cells ("PSGraph only needs half of the
resources", Sec. V-B1) are Figure 6's PageRank-DS1 cells with GraphX's
executor grant swept: GraphX OOMs below PSGraph's total memory and is
slower wherever it completes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.common.config import GB
from repro.experiments.cells import Cell

#: Paper-reported hours per (algorithm, dataset, system); None = OOM.
PAPER_FIG6: Dict[Tuple[str, str, str], Optional[float]] = {
    ("PageRank", "DS1", "PSGraph"): 0.5,
    ("PageRank", "DS1", "GraphX"): 4.0,
    ("PageRank", "DS2", "PSGraph"): 7.0,
    ("PageRank", "DS2", "GraphX"): None,
    ("CommonNeighbor", "DS1", "PSGraph"): 0.5,
    ("CommonNeighbor", "DS1", "GraphX"): 1.5,
    ("CommonNeighbor", "DS2", "PSGraph"): 3.5,
    ("CommonNeighbor", "DS2", "GraphX"): None,
    ("FastUnfolding", "DS1", "PSGraph"): 3.5,
    ("FastUnfolding", "DS1", "GraphX"): 10.3,
    ("KCore", "DS1", "PSGraph"): 2.0,
    ("KCore", "DS1", "GraphX"): None,
    ("TriangleCount", "DS1", "PSGraph"): 0.7,
    ("TriangleCount", "DS1", "GraphX"): None,
}

#: Dataset scale factors.
SCALES = {"DS1": 1e-5, "DS2": 2e-6}

#: Iteration budgets are equal for both systems.  That is not yet identical
#: work for FastUnfolding: both call one move kernel, but PSGraph moves
#: every vertex of a block against the PS's latest writes, while GraphX
#: moves one id parity per synchronous half-round.  GraphX survives CN by
#: processing edges in chunks (many repeated ship rounds — slow but
#: memory-bounded, as in the paper's 1.5 h).
KNOBS: Dict[Tuple[str, str], Dict[str, object]] = {
    ("PageRank", "PSGraph"): {"max_iterations": 20, "tol": 0.0},
    ("PageRank", "GraphX"): {"max_iterations": 20, "tol": 0.0},
    ("CommonNeighbor", "PSGraph"): {"batch_size": 8192},
    ("CommonNeighbor", "GraphX"): {"num_chunks": 32},
    ("FastUnfolding", "PSGraph"): {"num_passes": 2,
                                   "max_move_iterations": 4},
    ("FastUnfolding", "GraphX"): {"num_passes": 2,
                                  "max_move_iterations": 4},
    ("KCore", "PSGraph"): {"max_iterations": 40},
    ("KCore", "GraphX"): {"max_iterations": 40},
    ("TriangleCount", "PSGraph"): {"batch_size": 8192},
    ("TriangleCount", "GraphX"): {},
}

#: One cell per bar, in the paper's order.
CELLS: List[Cell] = [
    Cell("figure6", system, ds, algo, SCALES[ds],
         knobs=KNOBS[(algo, system)], paper=paper)
    for (algo, ds, system), paper in PAPER_FIG6.items()
]

_PAGERANK_DS1 = {c.system: c for c in CELLS
                 if (c.algorithm, c.dataset) == ("PageRank", "DS1")}
#: GraphX's executor grants (GB) in the resource sweep.
RESOURCE_GBS = (15.0, 25.0, 40.0, 55.0)
RESOURCE_CELLS: List[Cell] = [
    replace(_PAGERANK_DS1["GraphX"], experiment="resources",
            variant=f"{gb:g}GB", cluster={"executor_mem_bytes": int(gb * GB)})
    for gb in RESOURCE_GBS
] + [replace(_PAGERANK_DS1["PSGraph"], experiment="resources",
             variant="20GB")]
