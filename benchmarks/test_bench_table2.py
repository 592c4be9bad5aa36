"""Table II benchmark: failure recovery on common neighbor + DS1.

Asserts the paper's shape: both failure runs finish correctly with a
modest overhead over the failure-free run, and the PS-server failure costs
at least as much as the executor failure (36 vs 35 minutes in the paper).
The recovery extension: PSGraph's checkpoint recovery costs less sim
time than GraphX's lineage recompute, and neither changes the answer.
Every row also holds its pin.
"""

import pytest
from experiment_pins import assert_pinned

from repro.experiments.cells import run_cells
from repro.experiments.harness import format_rows
from repro.experiments.table2 import CELLS, RECOVERY_CELLS, with_recovery_cost


def test_bench_table2(once, capsys):
    rows = once(lambda: run_cells(CELLS))
    with capsys.disabled():
        print()
        print(format_rows(rows))
    by_scenario = {r.algorithm.split("/")[-1]: r for r in rows}
    base = by_scenario["none"].projected
    t_exec = by_scenario["executor"].projected
    t_server = by_scenario["server"].projected
    # All runs produced the full result set.
    counts = {r.extra["edges_scored"] for r in rows}
    assert len(counts) == 1
    # Failures recovered (containers actually restarted).
    assert by_scenario["executor"].extra["recoveries"] == 1
    assert by_scenario["server"].extra["recoveries"] == 1
    # Modest overhead, ordered as in the paper.
    assert base < t_exec <= t_server
    assert t_server < base * 1.6  # recovery is quick, not a rerun
    assert_pinned("table2", rows)


def test_bench_table2_recovery(once, capsys):
    rows = once(lambda: with_recovery_cost(run_cells(RECOVERY_CELLS)))
    with capsys.disabled():
        print()
        print(format_rows(rows))
    by_key = {(r.system, r.algorithm.split("/")[-1]): r for r in rows}
    ps_cost = by_key[("PSGraph", "recovery")].extra["recovery_sim_s"]
    gx_cost = by_key[("GraphX", "recovery")].extra["recovery_sim_s"]
    assert 0.0 < ps_cost < gx_cost
    for system in ("PSGraph", "GraphX"):
        assert by_key[(system, "recovery")].extra["ranks_checksum"] \
            == pytest.approx(by_key[(system, "clean")].extra["ranks_checksum"])
    assert_pinned("table2-recovery", rows)
