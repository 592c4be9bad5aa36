"""Smoke tests for the micro-benchmark harness.

These verify structure and the regression-gate logic, not performance —
wall-clock assertions do not belong in a test suite.  Run explicitly with
``pytest benchmarks/micro`` (the tier-1 suite only collects ``tests/``).
"""

import json

from benchmarks.micro.cases import CASES, case_graphsage_minibatch
from benchmarks.micro.runner import check_regression, main

RESULT_KEYS = {"name", "records", "boxed_s", "batched_s", "speedup",
               "records_per_s", "metrics"}


def test_cases_report_structure():
    result = case_graphsage_minibatch(500)
    assert set(result) == RESULT_KEYS
    assert result["records"] == 500
    assert result["boxed_s"] > 0 and result["batched_s"] > 0


def test_registry_names_match_results():
    for name, (fn, quick_n, full_n) in CASES.items():
        assert quick_n <= full_n


def test_check_regression_gate(tmp_path):
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps({
        "cases": [{"name": "shuffle", "speedup": 10.0}]
    }))
    ok = [{"name": "shuffle", "speedup": 8.0}]
    bad = [{"name": "shuffle", "speedup": 6.0}]
    unknown = [{"name": "novel", "speedup": 0.1}]
    assert check_regression(ok, baseline, 0.30) == []
    assert len(check_regression(bad, baseline, 0.30)) == 1
    # Cases absent from the baseline never fail the gate.
    assert check_regression(unknown, baseline, 0.30) == []


def test_runner_end_to_end(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(["--quick", "--case", "graphsage_minibatch", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "quick"
    assert [c["name"] for c in payload["cases"]] == ["graphsage_minibatch"]
    # A second run checked against the first passes the gate (rc 0) and a
    # tightened impossible threshold fails it (rc 1).
    rc = main(["--quick", "--case", "graphsage_minibatch",
               "--out", str(tmp_path / "again.json"),
               "--check", str(out), "--max-regression", "0.99"])
    assert rc == 0
