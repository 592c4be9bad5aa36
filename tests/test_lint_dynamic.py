"""Dynamic determinism harness: double-run diffing and the built-in
workloads (the PageRank strict check here is the repo's own proof that
two seeded runs are indistinguishable)."""

import numpy as np
import pytest

import repro.cli
from repro.cli import execute
from repro.common.metrics import MetricsRegistry
from repro.lint.dynamic import (
    CLI_WORKLOADS,
    WORKLOADS,
    DeterminismReport,
    _drifts,
    _flatten,
    _span_diffs,
    check_determinism,
    cli_argv,
    run_workload,
)
from repro.obs import NOOP_TRACER
from repro.ps.matrix import PSMatrix
from repro.serve import ServingPlane
from repro.streaming import IncrementalComponents, IncrementalPageRank


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def test_flatten_nested_structures():
    out = {}
    _flatten("", {"a": {"b": 1, "c": [1.5, 2.5]}, "s": "skip"}, out)
    assert out == {"a.b": 1.0, "a.c[0]": 1.5, "a.c[1]": 2.5}


def test_drifts_respects_rtol():
    a = {"x": 1.0}
    b = {"x": 1.0 + 1e-12}
    assert _drifts(a, b, rtol=1e-9) == []
    assert len(_drifts(a, b, rtol=0.0)) == 1


def test_drifts_reports_missing_keys():
    diffs = _drifts({"x": 1.0}, {"y": 2.0}, rtol=0.0)
    assert any("missing in run 2" in d for d in diffs)
    assert any("missing in run 1" in d for d in diffs)


def test_span_diffs_reports_count_and_first_mismatch():
    a = [("s", 1), ("s", 2)]
    b = [("s", 1), ("s", 3), ("s", 4)]
    diffs = _span_diffs(a, b)
    assert diffs[0] == "span count: 2 != 3"
    assert "span[1]" in diffs[1]


def test_report_verdict():
    clean = DeterminismReport(
        workload="w", seed=1, strict=True, metric_diffs=[],
        span_diffs=[], stat_diffs=[], sim_times=(1.0, 1.0), races=[],
    )
    assert clean.ok and clean.deterministic
    assert "PASS" in clean.describe()
    dirty = DeterminismReport(
        workload="w", seed=1, strict=True, metric_diffs=["x: 1 != 2"],
        span_diffs=[], stat_diffs=[], sim_times=(1.0, 1.0), races=[],
    )
    assert not dirty.ok
    assert "FAIL" in dirty.describe()


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_workload("no-such-workload")


# ----------------------------------------------------------------------
# built-in workloads
# ----------------------------------------------------------------------

def test_builtin_workloads_registered():
    assert {"pagerank", "graphsage", "psgraph-tables"} <= set(WORKLOADS)
    assert set(CLI_WORKLOADS) <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(CLI_WORKLOADS))
def test_cli_workload_runs_the_cli_pipeline(name):
    """A command-line workload is the ``repro`` pipeline itself: its traced
    snapshot ends at the sim time of the same argv run in process with
    tracing off — which also holds tracing off the sim clock."""
    snap = run_workload(name, seed=7)
    doc = execute(cli_argv(name, 7), NOOP_TRACER, MetricsRegistry())
    assert doc["sim_time_s"] == snap.sim_time_s > 0
    if "--chaos" in CLI_WORKLOADS[name]:
        assert doc["chaos"]["fired"], "the chaos workload fired no fault"


def _ulp_up(values):
    """``values`` with every positive entry one ulp higher."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values > 0, np.nextafter(values, np.inf), values)


def _drift_drops(report):
    report.drop_records.time = _ulp_up(report.drop_records.time)
    return report


def _drift_label(assigned):
    ids, labels = assigned
    labels = labels.copy()
    labels[0] += 1
    return ids, labels


@pytest.mark.parametrize("name, owner, method, drift, digest", [
    ("pagerank", PSMatrix, "to_numpy", _ulp_up, "output_crc"),
    ("chaos-pagerank", PSMatrix, "to_numpy", _ulp_up, "output_crc"),
    ("telemetry-chaos-pagerank", PSMatrix, "to_numpy", _ulp_up,
     "output_crc"),
    ("serve-chaos", ServingPlane, "run", _drift_drops, "drops_crc"),
    ("streaming-window", IncrementalPageRank, "ranks",
     lambda r: (r[0], _ulp_up(r[1])), "state.ranks_crc"),
    ("streaming-window", IncrementalComponents, "assignments",
     _drift_label, "state.labels_crc"),
])
def test_strict_gate_sees_output_drift(monkeypatch, name, owner, method,
                                       drift, digest):
    """One value of a CLI workload's output drifting in the second run —
    a saved rank, a drop record's sim time, a streaming rank or label —
    fails the strict check through the result document's digest."""
    runs = []
    real_execute, real_method = repro.cli.execute, getattr(owner, method)

    def counted(argv, tracer, metrics):
        runs.append(argv)
        return real_execute(argv, tracer, metrics)

    def drifting(self, *args, **kwargs):
        out = real_method(self, *args, **kwargs)
        return drift(out) if len(runs) == 2 else out

    monkeypatch.setattr(repro.cli, "execute", counted)
    monkeypatch.setattr(owner, method, drifting)
    report = check_determinism(name, seed=7, strict=True)
    assert not report.ok
    assert any(d.startswith(f"{digest}:") for d in report.stat_diffs), \
        report.describe()


def test_psgraph_tables_loses_and_rewrites_a_map_output():
    """The workload is only worth its CI slot while the kill lands
    between the groupBy's map and reduce stage: shuffle 0 is found lost
    by the first reduce task and some — not all — of its eight blocks
    are written a second time."""
    snap = run_workload("psgraph-tables")
    assert snap.stats["faults_fired"] == snap.stats["tasks_failed"] == 1
    [failed] = [s for s in snap.raw_spans if s.name == "task-failed"]
    assert failed.tags["reason"] == "shuffle-0-lost"
    writes = [s.tags["map"] for s in snap.raw_spans
              if s.name == "shuffle.write" and s.tags["shuffle"] == 0]
    assert writes[:8] == list(range(8)) and 8 < len(writes) < 16
    assert sorted(set(writes[8:])) == writes[8:]
    fetches = [s for s in snap.raw_spans if s.name == "shuffle.fetch"
               and s.tags["shuffle"] == 0]
    assert len(fetches) == 8  # the failed read charged and traced nothing


def test_pagerank_snapshot_contents():
    snap = run_workload("pagerank", seed=7)
    assert snap.sim_time_s > 0
    assert snap.stats["iterations"] >= 1
    assert snap.spans, "workload must record obs spans"
    assert snap.metrics, "workload must record metrics"


def test_pagerank_strict_determinism():
    """Two seeded PageRank runs must be bit-for-bit identical."""
    report = check_determinism("pagerank", seed=123, strict=True)
    assert report.ok, report.describe()
    assert report.sim_times[0] == report.sim_times[1]
    assert report.metric_diffs == []
    assert report.span_diffs == []


def test_different_seeds_actually_differ():
    one = run_workload("pagerank", seed=1)
    two = run_workload("pagerank", seed=2)
    assert one.spans != two.spans or one.metrics != two.metrics


def test_report_round_trips_to_dict():
    report = check_determinism("pagerank", seed=5, strict=True)
    d = report.to_dict()
    assert d["ok"] is True
    assert d["workload"] == "pagerank"
    assert isinstance(d["races"], list)
