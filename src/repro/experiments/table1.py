"""Table I — GraphSage: PSGraph vs Euler on DS3.

Paper numbers::

    System   Preprocessing time   Training time      Accuracy
    Euler    8 hours              200 seconds/epoch  91.5%
    PSGraph  12 minutes           7 seconds/epoch    91.6%

Euler's 8 hours split into "4 hours for index mapping, 4 hours for
data-to-JSON transformation, and several minutes for JSON partitioning";
PSGraph preprocesses in-pipeline with Spark.  Resources per Sec. V-B3:
Euler 90 executors, PSGraph 30 executors + 30 PS.  Both train the same
two-layer GraphSage with k=2-hop sampling on the DS3 stand-in, so the
accuracy comparison is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.common.rng import DEFAULT_SEED
from repro.datasets.tencent import DEFAULT_SCALE_DS3
from repro.experiments.cells import Cell
from repro.experiments.harness import ExperimentRow

#: Paper values: (preprocess, per-epoch seconds, accuracy %).
PAPER_TABLE1: Dict[str, Dict[str, float]] = {
    "Euler": {"preprocess_hours": 8.0, "epoch_seconds": 200.0,
              "accuracy": 91.5},
    "PSGraph": {"preprocess_hours": 0.2, "epoch_seconds": 7.0,
                "accuracy": 91.6},
}

#: ``labeled_fraction``: the paper's WeChat Pay label count is unreported;
#: 2% of DS3 (~600k labeled vertices at paper scale) puts PSGraph's
#: projected epoch time at the paper's ~7 s.
KNOBS = {"hidden": 32, "fanouts": (10, 5), "epochs": 3, "batch_size": 512,
         "lr": 0.02, "labeled_fraction": 0.02, "seed": DEFAULT_SEED}

#: Default scale is DS3/1000 (30k vertices / 100k edges).  Euler trains
#: with smaller per-worker minibatches (its trainer applies one
#: synchronous step per batch; more, smaller steps close the gap with
#: PSGraph's per-executor pushes).
CELLS: List[Cell] = [
    Cell("table1", "PSGraph", "DS3", "GraphSage", DEFAULT_SCALE_DS3,
         knobs=KNOBS),
    Cell("table1", "Euler", "DS3", "GraphSage", DEFAULT_SCALE_DS3,
         knobs={**KNOBS, "batch_size": 64}),
]


def phase_rows(row: ExperimentRow) -> List[ExperimentRow]:
    """Table I's three rows of one GraphSage run: preprocessing time,
    mean epoch time and test accuracy, each beside the paper's value."""
    paper = PAPER_TABLE1[row.system]
    epochs = row.extra["epoch_sim_times"]
    return [
        replace(row, algorithm="graphsage-preprocess", extra={},
                sim_seconds=row.extra["preprocess_sim_time"],
                paper_value=paper["preprocess_hours"], unit="hours"),
        replace(row, algorithm="graphsage-epoch", extra={},
                sim_seconds=sum(epochs) / len(epochs),
                paper_value=paper["epoch_seconds"], unit="seconds"),
        replace(row, algorithm="graphsage-accuracy", sim_seconds=None,
                paper_value=paper["accuracy"], unit="%",
                extra={"accuracy_pct": row.extra["accuracy"] * 100.0}),
    ]
