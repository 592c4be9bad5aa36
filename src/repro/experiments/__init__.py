"""Experiment harness: regenerate every table and figure of the paper.

Each experiment module is a list of :class:`Cell` records plus the
paper's values (``figure6.CELLS``, ``table1.CELLS``, ...);
:func:`run_cell` runs one cell and reports one :class:`ExperimentRow`.
"""

from repro.experiments.cells import Cell, run_cell, run_cells
from repro.experiments.figure6 import PAPER_FIG6
from repro.experiments.harness import ExperimentRow, format_rows, speedup
from repro.experiments.table1 import PAPER_TABLE1
from repro.experiments.table2 import PAPER_TABLE2

__all__ = [
    "Cell",
    "ExperimentRow",
    "PAPER_FIG6",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "format_rows",
    "run_cell",
    "run_cells",
    "speedup",
]
