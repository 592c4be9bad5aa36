"""Tests for the experiment harness and (tiny-scale) experiment cells."""

from dataclasses import replace

import pytest

from repro.experiments import figure6, line_epochs, table1, table2
from repro.experiments.ablations import ablation_partitioners
from repro.experiments.cells import PL_CLUSTER, Cell, run_cell, run_cells
from repro.experiments.figure6 import PAPER_FIG6
from repro.experiments.harness import ExperimentRow, format_rows, speedup
from repro.experiments.report import ascii_bars


def _fig6(algo, ds, system):
    return next(c for c in figure6.CELLS
                if (c.algorithm, c.dataset, c.system) == (algo, ds, system))


class TestHarness:
    def test_projection_hours(self):
        r = ExperimentRow("x", "S", "D", "a", "ok", sim_seconds=3.6,
                          scale=1e-3)
        assert r.projected == pytest.approx(1.0)

    def test_projection_seconds_unit(self):
        r = ExperimentRow("x", "S", "D", "a", "ok", sim_seconds=0.002,
                          scale=1e-3, unit="seconds")
        assert r.projected == pytest.approx(2.0)

    def test_oom_row_display(self):
        r = ExperimentRow("x", "S", "D", "a", "OOM", sim_seconds=None,
                          scale=1e-3)
        assert r.projected is None
        assert r.display_value() == "OOM"

    def test_run_cell_captures_oom(self):
        cell = replace(_fig6("PageRank", "DS2", "GraphX"), scale=5e-7)
        row = run_cell(cell)
        assert row.status == "OOM"
        assert row.sim_seconds is None
        assert row.display_value() == "OOM"

    def test_run_cell_measures_sim_delta(self):
        """A cell's sim time is the driver clock's advance over the run."""
        from repro.core.algorithms import PageRank
        from repro.core.context import PSGraphContext
        from repro.core.ops import edges_from_arrays
        from repro.experiments.cells import dataset

        cell = Cell("x", "PSGraph", "PL300x1500", "PageRank",
                    knobs={"max_iterations": 3, "tol": 0.0})
        row = run_cell(cell)
        src, dst = dataset("PL300x1500", 1.0)
        with PSGraphContext(PL_CLUSTER) as ctx:
            t0 = ctx.sim_time()
            PageRank(max_iterations=3, tol=0.0).transform(
                ctx, edges_from_arrays(ctx.spark, src, dst))
            assert row.sim_seconds == ctx.sim_time() - t0
        assert row.status == "ok"
        assert row.extra["iterations"] == 3

    def test_speedup(self):
        rows = [
            ExperimentRow("x", "PSGraph", "D", "a", "ok", 1.0, 1.0),
            ExperimentRow("x", "GraphX", "D", "a", "ok", 8.0, 1.0),
        ]
        assert speedup(rows, "D", "a") == pytest.approx(8.0)

    def test_speedup_none_on_oom(self):
        rows = [
            ExperimentRow("x", "PSGraph", "D", "a", "ok", 1.0, 1.0),
            ExperimentRow("x", "GraphX", "D", "a", "OOM", None, 1.0),
        ]
        assert speedup(rows, "D", "a") is None

    def test_format_rows_contains_cells(self):
        rows = [ExperimentRow("x", "S", "D", "algo", "ok", 1.0, 1.0,
                              paper_value=2.0)]
        text = format_rows(rows, "TITLE")
        assert "TITLE" in text
        assert "algo" in text
        assert "2" in text

    def test_format_rows_prints_extras(self):
        rows = [ExperimentRow("x", "S", "D", "a", "ok", 1.0, 1.0,
                              extra={"variant_bytes": 1.5, "runs": [1]}),
                ExperimentRow("x", "S", "D", "b", "ok", 1.0, 1.0)]
        header, _sep, first, second = format_rows(rows).splitlines()
        assert header.split(" | ")[-1].strip() == "variant_bytes"
        assert first.split(" | ")[-1].strip() == "1.5"
        assert second.split(" | ")[-1].strip() == "-"
        assert "runs" not in header  # lists are not columns

    def test_ascii_bars(self):
        rows = [
            ExperimentRow("x", "A", "D", "a", "ok", 3600.0, 1.0),
            ExperimentRow("x", "B", "D", "a", "OOM", None, 1.0),
        ]
        chart = ascii_bars(rows)
        assert "#" in chart
        assert "OOM" in chart


class TestCellLists:
    def test_cell_lists_cover_paper_tables(self):
        """One cell per paper value, and no cell without one."""
        fig6 = [(c.algorithm, c.dataset, c.system) for c in figure6.CELLS]
        assert sorted(fig6) == sorted(PAPER_FIG6)
        assert all(c.paper == PAPER_FIG6[k]
                   for c, k in zip(figure6.CELLS, fig6))
        assert sorted(c.system for c in table1.CELLS) \
            == sorted(table1.PAPER_TABLE1)
        assert sorted(c.variant for c in table2.CELLS) \
            == sorted(table2.PAPER_TABLE2)
        assert all(c.paper == table2.PAPER_TABLE2[c.variant] / 60.0
                   for c in table2.CELLS)
        assert [c.paper for c in line_epochs.CELLS] \
            == [line_epochs.PAPER_EPOCH_HOURS]


class TestTinyExperiments:
    """Each paper experiment runs end-to-end at a throwaway scale."""

    def test_figure6_single_cell_tiny(self):
        rows = run_cells([replace(_fig6("PageRank", "DS1", system),
                                  scale=5e-7)
                          for system in ("PSGraph", "GraphX")])
        assert {r.system for r in rows} == {"PSGraph", "GraphX"}
        ps = [r for r in rows if r.system == "PSGraph"][0]
        assert ps.status == "ok"
        assert ps.paper_value == PAPER_FIG6[("PageRank", "DS1", "PSGraph")]
        assert ps.projected is not None and ps.projected > 0

    def test_figure6_psgraph_only_subset(self):
        row = run_cell(replace(_fig6("KCore", "DS1", "PSGraph"),
                               scale=5e-7))
        assert row.status == "ok"
        assert row.extra.get("iterations", 0) >= 1

    def test_table1_tiny_scale(self):
        rows = [r for c in table1.CELLS
                for r in table1.phase_rows(run_cell(replace(c, scale=3e-5)))]
        systems = {r.system for r in rows}
        assert systems == {"PSGraph", "Euler"}
        prep = {r.system: r for r in rows
                if r.algorithm == "graphsage-preprocess"}
        # Euler's disk-through preprocessing is the slow one.
        assert prep["Euler"].projected > prep["PSGraph"].projected

    def test_line_tiny_scale(self):
        row = run_cell(replace(line_epochs.CELLS[0], scale=5e-7,
                               knobs={**line_epochs.CELLS[0].knobs,
                                      "dim": 8, "epochs": 2}))
        rows = line_epochs.epoch_rows(row)
        assert [r.algorithm for r in rows] == [
            "line-epoch-0", "line-epoch-1", "line-mean-epoch"]
        assert rows[-1].sim_seconds == pytest.approx(
            (rows[0].sim_seconds + rows[1].sim_seconds) / 2)

    def test_table2_tiny_scale(self):
        rows = run_cells([replace(c, scale=3e-6) for c in table2.CELLS])
        assert len({r.extra["edges_scored"] for r in rows}) == 1
        assert [r.extra["recoveries"] for r in rows] == [0, 1, 1]

    def test_partitioner_ablation_is_deterministic(self):
        a = ablation_partitioners()
        b = ablation_partitioners()
        assert a == b


class TestResourceEfficiency:
    def test_tiny_sweep_shape(self):
        cells = [replace(c, scale=2e-6) for c in figure6.RESOURCE_CELLS
                 if c.variant in ("55GB", "20GB")]
        rows = run_cells(cells)
        assert [r.extra["total_memory_gb"] for r in rows] == [5500, 2300]
        systems = {r.system for r in rows}
        assert systems == {"GraphX", "PSGraph"}
        ps = [r for r in rows if r.system == "PSGraph"][0]
        assert ps.status == "ok"
