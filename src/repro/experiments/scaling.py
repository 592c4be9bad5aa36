"""Scaling experiments (extension): runtime vs resource allocation.

The paper reports fixed allocations per dataset; these sweeps expose the
*why* behind them on the same metered substrate:

* :data:`SERVER_CELLS` — PSGraph PageRank runtime as the PS fleet grows
  with executors fixed.  The agents' congestion factor
  (``executors / servers``) shrinks, so pull/push time falls until compute
  dominates — the knee tells you how many servers a workload deserves
  (the paper gives DS1 20 servers for 100 executors, DS2 200 for 300).
* :data:`EXECUTOR_CELLS` — runtime as executors grow with servers fixed:
  near-linear at first, then the shared servers congest.
"""

from __future__ import annotations

from typing import List

from repro.common.config import GB
from repro.experiments.cells import Cell


def _pagerank(experiment: str, executors: int, servers: int) -> Cell:
    return Cell(experiment, "PSGraph", "PL4000x60000", "PageRank",
                variant=f"{executors}x{servers}", unit="seconds",
                knobs={"max_iterations": 10, "tol": 0.0},
                cluster={"num_executors": executors,
                         "executor_mem_bytes": 4 * GB,
                         "num_servers": servers, "server_mem_bytes": 4 * GB})


#: PageRank sim time vs PS fleet size (32 executors).
SERVER_CELLS: List[Cell] = [_pagerank("scaling-servers", 32, s)
                            for s in (1, 2, 4, 8, 16)]
#: PageRank sim time vs executor count (4 servers).
EXECUTOR_CELLS: List[Cell] = [_pagerank("scaling-executors", e, 4)
                              for e in (4, 8, 16, 32)]
