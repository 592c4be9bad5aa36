"""Dynamic determinism harness: double-run diffing and the built-in
workloads (the PageRank strict check here is the repo's own proof that
two seeded runs are indistinguishable)."""

import pytest

from repro.lint.dynamic import (
    WORKLOADS,
    DeterminismReport,
    _drifts,
    _flatten,
    _span_diffs,
    check_determinism,
    run_workload,
)


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
