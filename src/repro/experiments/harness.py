"""Experiment rows: projection to paper scale and pretty printing.

Every experiment cell produces an :class:`ExperimentRow` carrying
both clocks — measured **sim-time** at mini scale and its linear
**projection to paper scale** (``paper = sim / scale``) — plus the paper's
reported number for side-by-side comparison.  An ``OOM`` status mirrors the
"OOM" cells of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentRow:
    """One measured cell of a table/figure reproduction.

    Attributes:
        experiment: e.g. "figure6".
        system: "PSGraph" / "GraphX" / "Euler".
        dataset: "DS1" / "DS2" / "DS3", or a power-law graph "PL<v>x<e>".
        algorithm: algorithm label.
        status: "ok" or "OOM".
        sim_seconds: simulated runtime at mini scale (None on OOM).
        scale: dataset scale factor used.
        paper_value: the paper's reported value (hours unless noted).
        unit: unit of paper_value / projected value ("hours", "seconds", "%").
        wall_seconds: wall-clock of the mini run (for pytest-benchmark
            cross-checks).
        extra: free-form extras (iterations, residuals, accuracy, ...).
    """

    experiment: str
    system: str
    dataset: str
    algorithm: str
    status: str
    sim_seconds: Optional[float]
    scale: float
    paper_value: Optional[float] = None
    unit: str = "hours"
    wall_seconds: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def projected(self) -> Optional[float]:
        """Linear projection of sim-time to paper scale, in ``unit``."""
        if self.sim_seconds is None:
            return None
        scaled = self.sim_seconds / self.scale
        if self.unit == "hours":
            return scaled / 3600.0
        return scaled

    def display_value(self) -> str:
        """Projected value or OOM, formatted."""
        if self.status == "OOM":
            return "OOM"
        value = self.projected
        if value is None:
            return "-"
        return f"{value:.2f}"


def format_rows(rows: List[ExperimentRow], title: str = "") -> str:
    """Format experiment rows as an aligned comparison table; each scalar
    ``extra`` value gets a column."""
    keys = list(dict.fromkeys(
        k for r in rows for k, v in r.extra.items()
        if not isinstance(v, list)
    ))
    table: List[List[str]] = [[
        "experiment", "dataset", "algorithm", "system", "status",
        "projected", "paper", "unit", "sim_s", "wall_s", *keys,
    ]]
    for r in rows:
        table.append([
            r.experiment, r.dataset, r.algorithm, r.system, r.status,
            r.display_value(),
            "-" if r.paper_value is None else f"{r.paper_value:g}",
            r.unit,
            "-" if r.sim_seconds is None else f"{r.sim_seconds:.4g}",
            f"{r.wall_seconds:.2f}",
            *(_cell_text(r.extra.get(k, "-")) for k in keys),
        ])
    widths = [max(len(row[i]) for row in table)
              for i in range(len(table[0]))]
    lines = [title] if title else []
    for j, row in enumerate(table):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def _cell_text(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def speedup(rows: List[ExperimentRow], dataset: str, algorithm: str
            ) -> Optional[float]:
    """Ratio GraphX / PSGraph of projected runtimes for one cell (None on
    OOM)."""
    by_system = {
        r.system: r for r in rows
        if r.dataset == dataset and r.algorithm == algorithm
    }
    a = by_system.get("PSGraph")
    b = by_system.get("GraphX")
    if not a or not b or a.projected is None or b.projected is None:
        return None
    if a.projected == 0:
        return None
    return b.projected / a.projected
