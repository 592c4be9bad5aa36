"""Ablation benchmarks: the design choices DESIGN.md calls out, the
scaling sweeps and the resource-efficiency claim.  Every row also holds
its ledger line."""

from repro.experiments.ablations import (
    DELTA_CELLS,
    PSFUNC_CELLS,
    SYNC_CELLS,
    ablation_partitioners,
)
from repro.experiments.cells import run_cells
from repro.experiments.harness import format_rows
from tests.ledger import check, doc_record, pin_rows, rows_doc, runner_key


def _run(once, capsys, cells, title):
    rows = once(lambda: run_cells(cells))
    with capsys.disabled():
        print()
        print(format_rows(rows, title))
    pin_rows(cells, rows)
    return rows


def _by_variant(rows):
    return {r.algorithm.split("/")[-1]: r.extra | {"sim": r.sim_seconds}
            for r in rows}


def test_bench_ablation_delta_pagerank(once, capsys):
    by = _by_variant(_run(once, capsys, DELTA_CELLS,
                          "delta vs full PageRank"))
    # Thresholded deltas move materially fewer bytes...
    assert (by["delta-threshold"]["push_bytes"]
            < 0.9 * by["delta"]["push_bytes"])
    # ...at a bounded accuracy cost.
    ref = by["delta"]["ranks_checksum"]
    assert abs(by["delta-threshold"]["ranks_checksum"] - ref) < 0.05 * ref


def test_bench_ablation_line_psfunc(once, capsys):
    by = _by_variant(_run(once, capsys, PSFUNC_CELLS,
                          "LINE: psFunc on PS vs pull embeddings"))
    # Server-side dots/updates slash the network volume (Sec. IV-D).
    assert (by["psfunc-on-ps"]["pull_bytes"]
            < 0.2 * by["pull-embeddings"]["pull_bytes"])
    assert by["psfunc-on-ps"]["push_bytes"] == 0


def test_bench_ablation_sync(once, capsys):
    by = _by_variant(_run(once, capsys, SYNC_CELLS,
                          "BSP vs ASP with a straggling server"))
    assert by["asp"]["sim"] < by["bsp"]["sim"]


def test_bench_ablation_partitioners(once, capsys):
    rows = once(ablation_partitioners)
    with capsys.disabled():
        print()
        print(format_rows(rows, "partitioner load balance"))
    by = _by_variant(rows)
    # Hash balances best; hash-range beats plain range on skewed ids.
    assert by["hash"]["imbalance"] < by["hash-range"]["imbalance"]
    assert by["hash-range"]["imbalance"] < by["range"]["imbalance"]
    check(runner_key(ablation_partitioners),
          doc_record({"rows": rows_doc(rows)}))


def test_bench_scaling_servers(once, capsys):
    from repro.experiments.scaling import SERVER_CELLS

    rows = _run(once, capsys, SERVER_CELLS, "runtime vs PS servers")
    # More servers -> less congestion -> monotonically faster (or equal).
    times = [r.sim_seconds for r in rows]
    assert times[0] > times[-1]
    assert all(a >= b * 0.95 for a, b in zip(times, times[1:]))


def test_bench_scaling_executors(once, capsys):
    from repro.experiments.scaling import EXECUTOR_CELLS

    rows = _run(once, capsys, EXECUTOR_CELLS, "runtime vs executors")
    times = [r.sim_seconds for r in rows]
    # Near-linear early: 2x executors between the first two points should
    # cut the time materially.
    assert times[1] < times[0] * 0.7


def test_bench_resource_efficiency(once, capsys):
    """Sec. V-B1: 'PSGraph only needs half of the resources consumed by
    GraphX' — GraphX's OOM frontier sits above PSGraph's allocation."""
    from repro.experiments.figure6 import RESOURCE_CELLS

    rows = _run(once, capsys, RESOURCE_CELLS,
                "resource efficiency (PageRank DS1)")
    memory = "total_memory_gb"
    ps = [r for r in rows if r.system == "PSGraph"][0]
    gx = [r for r in rows if r.system == "GraphX"]
    assert ps.status == "ok"
    # GraphX OOMs at some grant at or above PSGraph's total memory...
    oom_totals = [r.extra[memory] for r in gx if r.status == "OOM"]
    assert oom_totals and max(oom_totals) >= ps.extra[memory]
    # ...and even where GraphX completes, PSGraph is faster on less memory.
    ok_gx = [r for r in gx if r.status == "ok"]
    assert ok_gx
    assert all(r.extra[memory] > ps.extra[memory] for r in ok_gx)
    assert all(r.projected > ps.projected for r in ok_gx)
