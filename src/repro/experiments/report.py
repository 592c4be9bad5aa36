"""Run every experiment and print a consolidated report.

Usage::

    repro experiments            # everything
    repro experiments figure6    # one experiment
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.ablations import (
    ablation_delta_pagerank,
    ablation_line_psfunc,
    ablation_partitioners,
    ablation_sync_modes,
)
from repro.experiments.figure6 import run_figure6
from repro.experiments.harness import ExperimentRow, format_rows, speedup
from repro.experiments.line_epochs import run_line_epochs
from repro.experiments.table1 import run_table1
from repro.experiments.resources import run_resource_efficiency
from repro.experiments.scaling import scaling_executors, scaling_servers
from repro.experiments.table2 import run_table2


def ascii_bars(rows: List[ExperimentRow], width: int = 40) -> str:
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
            n = max(1, int(width * r.projected / top))
            lines.append(
                f"{label:42s} {'#' * n} {r.projected:.2f}h"
            )
    return "\n".join(lines)


def format_dicts(rows: List[Dict], title: str) -> str:
    """Small aligned table for ablation dict rows."""
    if not rows:
        return title
    keys = list(rows[0])
    table = [keys] + [
        [f"{r[k]:.4g}" if isinstance(r[k], float) else str(r[k])
         for k in keys]
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(keys))]
    out = [title]
    for j, row in enumerate(table):
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if j == 0:
            out.append("-+-".join("-" * w for w in widths))
    return "\n".join(out)


def run_all(which: str = "all") -> None:
    """Run the selected experiments and print their reports."""
    if which in ("all", "figure6"):
        rows = run_figure6()
        print(format_rows(rows, "== Figure 6: PSGraph vs GraphX =="))
        print()
        print(ascii_bars(rows))
        for cell in [("PageRank", "DS1"), ("CommonNeighbor", "DS1"),
                     ("FastUnfolding", "DS1")]:
            s = speedup(rows, cell[1], cell[0])
            if s:
                print(f"speedup {cell[0]} {cell[1]}: {s:.1f}x")
        print()
    if which in ("all", "table1"):
        rows = run_table1()
        print(format_rows(rows, "== Table I: GraphSage PSGraph vs Euler =="))
        for r in rows:
            if "accuracy_pct" in r.extra:
                print(f"  {r.system} accuracy: "
                      f"{r.extra['accuracy_pct']:.1f}% "
                      f"(paper {r.paper_value:g}%)")
        print()
    if which in ("all", "table2"):
        rows = run_table2()
        print(format_rows(rows, "== Table II: failure recovery =="))
        print()
    if which in ("all", "line"):
        rows = run_line_epochs()
        print(format_rows(rows, "== Sec. V-B2: LINE epochs =="))
        print()
    if which in ("all", "ablations"):
        print(format_dicts(ablation_delta_pagerank(),
                           "== Ablation: delta vs full PageRank =="))
        print()
        print(format_dicts(ablation_line_psfunc(),
                           "== Ablation: LINE psFunc vs pull =="))
        print()
        print(format_dicts(ablation_sync_modes(),
                           "== Ablation: BSP vs ASP =="))
        print()
        print(format_dicts(ablation_partitioners(),
                           "== Ablation: partitioner balance =="))
        print()
    if which in ("all", "resources"):
        rows = run_resource_efficiency()
        rows = [{k: (v if v is not None else "OOM") for k, v in r.items()}
                for r in rows]
        print(format_dicts(
            rows, "== Resource efficiency: PageRank DS1 memory sweep =="
        ))
        print()
    if which in ("all", "scaling"):
        print(format_dicts(scaling_servers(),
                           "== Scaling: PS servers (executors fixed) =="))
        print()
        print(format_dicts(scaling_executors(),
                           "== Scaling: executors (servers fixed) =="))
        print()
