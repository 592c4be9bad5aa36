"""Figure 6 benchmark: PSGraph vs GraphX on traditional graph algorithms.

Regenerates every bar of Fig. 6 and asserts the paper's *shape*: PSGraph
completes everywhere, GraphX completes only where the paper says it does,
and where both complete PSGraph wins by a material factor.  Every row
also holds its ledger line.
"""

import pytest

from repro.experiments.cells import run_cells
from repro.experiments.figure6 import CELLS, PAPER_FIG6
from repro.experiments.harness import format_rows, speedup
from tests.ledger import pin_rows

BARS = list(dict.fromkeys((c.algorithm, c.dataset) for c in CELLS))


@pytest.mark.parametrize("algo,ds", BARS, ids=[f"{a}-{d}" for a, d in BARS])
def test_bench_figure6_cell(once, algo, ds, capsys):
    cells = [c for c in CELLS if (c.algorithm, c.dataset) == (algo, ds)]
    rows = once(lambda: run_cells(cells))
    with capsys.disabled():
        print()
        print(format_rows(rows))
    by_system = {r.system: r for r in rows}
    # PSGraph always completes.
    assert by_system["PSGraph"].status == "ok"
    # GraphX's OOM pattern matches the paper exactly.
    paper_gx = PAPER_FIG6[(algo, ds, "GraphX")]
    if paper_gx is None:
        assert by_system["GraphX"].status == "OOM"
    else:
        assert by_system["GraphX"].status == "ok"
        s = speedup(rows, ds, algo)
        assert s is not None and s > 2.0  # PSGraph wins decisively
    pin_rows(cells, rows)

