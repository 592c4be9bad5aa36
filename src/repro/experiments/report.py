"""Run every experiment and print a consolidated report.

Usage::

    repro experiments            # everything
    repro experiments figure6    # one experiment
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.experiments import (
    ablations,
    figure6,
    line_epochs,
    scaling,
    table1,
    table2,
)
from repro.experiments.cells import run_cells
from repro.experiments.harness import ExperimentRow, format_rows, speedup

#: (``repro experiments`` choice, table title, rows), in print order.
SECTIONS: List[Tuple[str, str, Callable[[], List[ExperimentRow]]]] = [
    ("figure6", "Figure 6: PSGraph vs GraphX",
     lambda: run_cells(figure6.CELLS)),
    ("table1", "Table I: GraphSage PSGraph vs Euler",
     lambda: [r for row in run_cells(table1.CELLS)
              for r in table1.phase_rows(row)]),
    ("table2", "Table II: failure recovery",
     lambda: run_cells(table2.CELLS)),
    ("table2", "Table II extension: checkpoint recovery vs lineage",
     lambda: table2.with_recovery_cost(run_cells(table2.RECOVERY_CELLS))),
    ("line", "Sec. V-B2: LINE epochs",
     lambda: [r for row in run_cells(line_epochs.CELLS)
              for r in line_epochs.epoch_rows(row)]),
    ("ablations", "Ablation: delta vs full PageRank",
     lambda: run_cells(ablations.DELTA_CELLS)),
    ("ablations", "Ablation: LINE psFunc vs pull",
     lambda: run_cells(ablations.PSFUNC_CELLS)),
    ("ablations", "Ablation: BSP vs ASP",
     lambda: run_cells(ablations.SYNC_CELLS)),
    ("ablations", "Ablation: partitioner balance",
     ablations.ablation_partitioners),
    ("resources", "Resource efficiency: PageRank DS1 memory sweep",
     lambda: run_cells(figure6.RESOURCE_CELLS)),
    ("scaling", "Scaling: PS servers (executors fixed)",
     lambda: run_cells(scaling.SERVER_CELLS)),
    ("scaling", "Scaling: executors (servers fixed)",
     lambda: run_cells(scaling.EXECUTOR_CELLS)),
]


#: Characters in the longest bar of :func:`ascii_bars`.
BAR_WIDTH = 40


def ascii_bars(rows: List[ExperimentRow]) -> str:
    """Figure-6-style horizontal bar chart of projected hours."""
    values = [r.projected for r in rows if r.projected is not None]
    if not values:
        return "(no completed runs)"
    top = max(values)
    lines = []
    for r in rows:
        label = f"{r.algorithm} ({r.dataset}) {r.system:8s}"
        if r.projected is None:
            lines.append(f"{label:42s} OOM")
        else:
            n = max(1, int(BAR_WIDTH * r.projected / top))
            lines.append(
                f"{label:42s} {'#' * n} {r.projected:.2f}h"
            )
    return "\n".join(lines)


def run_all(which: str = "all") -> None:
    """Run the selected experiments and print their reports."""
    for name, title, rows_of in SECTIONS:
        if which not in ("all", name):
            continue
        rows = rows_of()
        print(format_rows(rows, f"== {title} =="))
        if name == "figure6":
            print()
            print(ascii_bars(rows))
            for algo in ("PageRank", "CommonNeighbor", "FastUnfolding"):
                s = speedup(rows, "DS1", algo)
                if s:
                    print(f"speedup {algo} DS1: {s:.1f}x")
        for r in rows:
            if name == "table1" and "accuracy_pct" in r.extra:
                print(f"  {r.system} accuracy: "
                      f"{r.extra['accuracy_pct']:.1f}% "
                      f"(paper {r.paper_value:g}%)")
        print()
