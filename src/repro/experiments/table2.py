"""Table II — failure recovery on common neighbor + DS1.

Paper::

    Algorithm        Without failure   Executor failure   PS failure
    Common neighbor  30 minutes        35 minutes         36 minutes

"We manually kill an executor and a parameter server.  The killed server
will restart and pull the checkpoint of model, i.e., neighbor tables, from
HDFS; and the killed executor will restart and pull the checkpoint of edges
from HDFS."

A :class:`ChaosEngine` kills the container mid-scoring, 30 result tasks
after the neighbor tables are built: the executor path exercises Spark's
restart + lineage-reload (edge blocks are re-read from HDFS), the server
path the PS master's health-check + checkpoint-reload protocol (the
agents' RPCs fail, the master restarts the server via Yarn and restores
the neighbor-table partitions).

The recovery cells extend the table along the fault-handling axis of
Ammar & Özsu's comparison methodology: one PageRank job loses its model
state at iteration 5, clean and faulted, on each system.  PSGraph
(per-iteration checkpoints, strict recovery) restores the last checkpoint
and redoes at most one iteration; GraphX keeps no model checkpoint, so
lineage recomputes every completed superstep.  The faulted row's
``recovery_sim_s`` is the pure recovery cost.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos import FaultSchedule, FaultSpec
from repro.common.rng import DEFAULT_SEED
from repro.experiments.cells import Cell
from repro.experiments.harness import ExperimentRow

#: Paper minutes per scenario.
PAPER_TABLE2: Dict[str, float] = {
    "none": 30.0,
    "executor": 35.0,
    "server": 36.0,
}

#: The container each scenario kills: (fault kind, index).
KILLS = {"none": [], "executor": [("kill_executor", 3)],
         "server": [("kill_server", 1)]}

CELLS: List[Cell] = [
    Cell("table2", "PSGraph", "DS1", "CommonNeighbor", 1e-5,
         variant=scenario,
         knobs={"batch_size": 8192, "checkpoint": True},
         faults=FaultSchedule([
             FaultSpec(kind, index=index, after_tasks=30, task_kind="result")
             for kind, index in KILLS[scenario]
         ]),
         output="score", paper=minutes / 60.0)
    for scenario, minutes in PAPER_TABLE2.items()
]

FAIL_ITERATION = 5
_PAGERANK = {"max_iterations": 10, "tol": 0.0}
RECOVERY_CELLS: List[Cell] = [
    Cell("table2-recovery", "PSGraph", "DS1", "PageRank", 1e-5,
         variant=variant, knobs=_PAGERANK,
         cluster={"checkpoint_interval": 1},
         faults=FaultSchedule(kills, seed=DEFAULT_SEED),
         output="ranks", unit="seconds")
    for variant, kills in (
        ("clean", []),
        ("recovery", [FaultSpec("kill_server", index=1,
                                at_epoch=FAIL_ITERATION)]),
    )
] + [
    Cell("table2-recovery", "GraphX", "DS1", "PageRank", 1e-5,
         variant=variant, knobs={**_PAGERANK, "lost_supersteps": lost},
         output="ranks", unit="seconds")
    for variant, lost in (("clean", 0), ("recovery", FAIL_ITERATION))
]


def with_recovery_cost(rows: List[ExperimentRow]) -> List[ExperimentRow]:
    """Give each recovery row ``recovery_sim_s``: its sim time minus that
    of the same system's clean row."""
    clean = {r.system: r.sim_seconds for r in rows
             if r.algorithm.endswith("/clean")}
    for r in rows:
        if r.algorithm.endswith("/recovery"):
            r.extra["recovery_sim_s"] = r.sim_seconds - clean[r.system]
    return rows
