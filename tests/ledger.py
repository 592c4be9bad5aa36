"""The one ledger: every pinned run is a line of ``determinism_ledger.json``.

A pinned run builds a run record (:func:`repro.obs.determinism.run_record`:
its result document, every span and the metrics dump) and is checked
through the same ``segments`` -> ``digests`` path as the registered
determinism workloads.  Its line is keyed

* for a runner in ``tests/``, by the runner's qualified name and arguments
  (:func:`runner_key`), so renaming a test moves no pin;
* for an experiment row, by the row's identity and a token of its frozen
  :class:`~repro.experiments.cells.Cell` (:func:`cell_key`), so changing a
  knob does.

A mismatch names the first segment that moved and prints the replacement
line, which is pasted in by hand only for an intended change, with the
reason in CHANGES.md.  Arrays enter a result document only through
:func:`tests.conftest.digest`; floats enter as they are.
"""

import importlib
import json
import sys
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.common.metrics import MetricsRegistry
from repro.experiments import (
    ablations,
    figure6,
    line_epochs,
    scaling,
    table1,
    table2,
)
from repro.experiments.cells import Cell
from repro.experiments.harness import ExperimentRow
from repro.obs.determinism import digests, ledger_diff, run_record, segments
from repro.obs.tracer import Tracer

LEDGER_PATH = Path(__file__).resolve().parent / "determinism_ledger.json"
LEDGER: Dict[str, List[str]] = json.loads(LEDGER_PATH.read_text())

#: The test files whose ``PINNED`` lists of ``(runner, args)`` have lines.
PIN_FILES = ("test_algorithms", "test_deepwalk_pins", "test_eulersim",
             "test_graphsage", "test_graphx_pins", "test_graphx_pipeline",
             "test_psgraph_pins", "test_row_batch", "test_serve_pins",
             "test_streaming_pins")

#: Every cell the paper-verdict benchmarks run, one ledger line each.
EXPERIMENT_CELLS: List[Cell] = [
    *figure6.CELLS, *figure6.RESOURCE_CELLS, *table1.CELLS, *table2.CELLS,
    *table2.RECOVERY_CELLS, *line_epochs.CELLS, *ablations.DELTA_CELLS,
    *ablations.PSFUNC_CELLS, *ablations.SYNC_CELLS, *scaling.SERVER_CELLS,
    *scaling.EXECUTOR_CELLS,
]


def runner_key(fn: Callable, *args) -> str:
    """``module.qualname(arg, ...)`` of one call of a pinned runner."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__}({', '.join(map(repr, args))})"


def cell_text(cell: Cell) -> str:
    """The cell's repr with the run-irrelevant ``paper`` / ``unit``
    cleared: every knob, fault and cluster override is in it."""
    return repr(replace(cell, paper=None, unit=Cell.unit))


def cell_key(cell: Cell) -> str:
    """A row's identity and 8 hex digits of its :func:`cell_text`."""
    token = zlib.crc32(cell_text(cell).encode())
    return f"{cell.experiment} {cell.system} {cell.dataset} {cell.label} " \
        f"#{token:08x}"


def check(key: str, record: Dict[str, object],
          label: Optional[str] = None) -> None:
    """Fail unless ``record``'s segment digests are ``key``'s line.  With
    ``label`` (a result key), only that segment counts: result keys and
    ``metrics`` end a record in a fixed order, so it is found from the end
    whatever the stages before it did, and the spans need not be cut."""
    pinned = LEDGER.get(key)
    if label is not None and pinned is not None:
        segs = segments({**record, "spans": []})
        i = [name for name, _ in segs].index(label) - len(segs)
        if digests([segs[i]]) == pinned[i:][:1]:
            return
    diff = ledger_diff(key, record, pinned)
    if diff is not None:
        pytest.fail(f"{diff}\n(from {LEDGER_PATH.name})", pytrace=False)


def pin(fn: Callable, *args) -> Dict[str, object]:
    """Run ``fn(*args)`` (a runner that returns a run record), check it
    against its line and hand the record back."""
    record = fn(*args)
    check(runner_key(fn, *args), record)
    return record


def pin_keys(pinned: Sequence) -> List[str]:
    """The keys of a pin file's ``PINNED`` list of ``(runner, args)``."""
    return [runner_key(fn, *args) for fn, args in pinned]


def assert_every_cell_pinned(pinned: Sequence) -> None:
    """The ledger's lines for a pin file's runners are its cells, exactly."""
    keys = pin_keys(pinned)
    modules = {key.split(".", 1)[0] for key in keys}
    assert sorted(key for key in LEDGER
                  if key.split(".", 1)[0] in modules) == sorted(keys)


def row_doc(row: ExperimentRow) -> Dict[str, object]:
    """An experiment row as a result document: every field but the
    identity (in the key), the paper's value and the host time."""
    return {"status": row.status, "sim_seconds": row.sim_seconds,
            "extra": row.extra}


def rows_doc(rows: Sequence[ExperimentRow]) -> List[object]:
    """Rows with no cell of their own (derived rows, the partitioner
    sweep), in order, each with its identity."""
    return [[r.experiment, r.system, r.dataset, r.algorithm, row_doc(r)]
            for r in rows]


def doc_record(doc: Dict[str, object]) -> Dict[str, object]:
    """The record of a result document whose runner takes no tracer or
    registry (the experiment cells build their own contexts)."""
    return run_record(doc, Tracer(), MetricsRegistry())


def pin_rows(cells: Sequence[Cell], rows: Sequence[ExperimentRow],
             derive: Optional[Callable] = None) -> None:
    """Check each row ``run_cells(cells)`` returned against its cell's
    line: the full row, no tolerance, and with ``derive`` (Table I's
    phases, LINE's epochs) every row the benchmark derives from it."""
    assert len(cells) == len(rows)
    for cell, row in zip(cells, rows):
        assert (row.experiment, row.system, row.dataset, row.algorithm) \
            == (cell.experiment, cell.system, cell.dataset, cell.label)
        doc = row_doc(row)
        if derive is not None:
            doc["derived"] = rows_doc(derive(row))
        check(cell_key(cell), doc_record(doc))


def registered_keys() -> List[str]:
    """Every key a test or a paper-verdict benchmark checks."""
    keys = [cell_key(c) for c in EXPERIMENT_CELLS] \
        + [runner_key(ablations.ablation_partitioners)]
    for name in PIN_FILES:  # as pytest imported it, or afresh
        module = sys.modules.get(name)
        if module is None or Path(module.__file__).parent != LEDGER_PATH.parent:
            module = importlib.import_module(f"tests.{name}")
        keys += pin_keys(module.PINNED)
    return keys
