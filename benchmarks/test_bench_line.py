"""Sec. V-B2 benchmark: LINE epochs on DS1 (PSGraph only, as in the paper)."""

from experiment_pins import assert_pinned

from repro.experiments.cells import run_cells
from repro.experiments.harness import format_rows
from repro.experiments.line_epochs import CELLS, PAPER_EPOCH_HOURS, epoch_rows


def test_bench_line_epochs(once, capsys):
    rows = [r for row in once(lambda: run_cells(CELLS))
            for r in epoch_rows(row)]
    with capsys.disabled():
        print()
        print(format_rows(rows))
    mean_row = [r for r in rows if r.algorithm == "line-mean-epoch"][0]
    # Projected per-epoch hours within ~5x of the paper's 40 minutes.
    assert mean_row.projected is not None
    assert PAPER_EPOCH_HOURS / 5 < mean_row.projected < PAPER_EPOCH_HOURS * 5
    # Training makes progress.
    assert mean_row.extra["loss_decreased"]
    assert_pinned("line", rows)
