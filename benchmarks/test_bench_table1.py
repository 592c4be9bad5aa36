"""Table I benchmark: GraphSage — PSGraph vs Euler on DS3.

Asserts the paper's shape: Euler's preprocessing is hours where PSGraph's
is minutes; Euler's epochs are an order of magnitude slower; the two
systems reach comparable accuracy.  Every cell also holds its ledger
line.
"""

from repro.experiments.cells import run_cells
from repro.experiments.harness import format_rows
from repro.experiments.table1 import CELLS, phase_rows
from tests.ledger import pin_rows


def test_bench_table1(once, capsys):
    cell_rows = once(lambda: run_cells(CELLS))
    pin_rows(CELLS, cell_rows, derive=phase_rows)
    rows = [r for row in cell_rows for r in phase_rows(row)]
    with capsys.disabled():
        print()
        print(format_rows(rows))
    by_key = {(r.system, r.algorithm): r for r in rows}
    prep_euler = by_key[("Euler", "graphsage-preprocess")].projected
    prep_ps = by_key[("PSGraph", "graphsage-preprocess")].projected
    epoch_euler = by_key[("Euler", "graphsage-epoch")].projected
    epoch_ps = by_key[("PSGraph", "graphsage-epoch")].projected
    acc_euler = by_key[("Euler", "graphsage-accuracy")].extra["accuracy_pct"]
    acc_ps = by_key[("PSGraph", "graphsage-accuracy")].extra["accuracy_pct"]
    # Preprocessing: hours (Euler) vs minutes (PSGraph); paper 8 h vs 12 min.
    assert prep_euler > 10 * prep_ps
    assert prep_euler > 1.0  # hours
    # Epochs: ~30x in the paper; accept an order of magnitude either way.
    assert epoch_euler > 10 * epoch_ps
    # Comparable accuracy, both well above the 20% chance level.
    assert abs(acc_euler - acc_ps) < 10.0
    assert min(acc_euler, acc_ps) > 60.0
