"""Exact determinism (``repro.obs.determinism``): stage segments, the
double run that names the first diverging event, the built-in workloads
and the committed ledger that pins the segments of every workload and of
every pinned cell."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import execute, main
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED
from repro.core.algorithms.graphsage import GraphSage
from repro.obs import NOOP_TRACER, spans_from_json, spans_to_json
from repro.obs.determinism import (
    CLI_WORKLOADS,
    END,
    WORKLOADS,
    DeterminismReport,
    Divergence,
    _leaves,
    check_determinism,
    cli_argv,
    digests,
    first_divergence,
    ledger_diff,
    ledger_line,
    run_workload,
    segments,
)
from repro.obs.tracer import Tracer
from repro.ps.matrix import PSMatrix
from repro.serve import ServingPlane
from repro.streaming import IncrementalComponents, IncrementalPageRank
from tests.ledger import (
    EXPERIMENT_CELLS,
    LEDGER,
    LEDGER_PATH,
    cell_text,
    check,
    registered_keys,
)


# ----------------------------------------------------------------------
# the canonical form and the differ
# ----------------------------------------------------------------------

def test_flatten_nested_structures():
    out = _leaves("doc", {"a": {"b": 1, "c": [1.5, float("nan")]},
                          "s": "kept", "e": [], "n": None}, [])
    assert out == ["doc.a.b = 1", "doc.a.c[0] = 1.5", "doc.a.c[1] = nan",
                   "doc.e = []", "doc.n = None", "doc.s = 'kept'"]


def _record(stage_names, **doc):
    tracer = Tracer()
    for i, name in enumerate(stage_names):
        tracer.add("executor-0", "tasks", "task", i, i + 0.5)
        tracer.add("driver", "stages", name, i, i + 1.0)
    tracer.add("driver", "ps", "ps.checkpoint", 9.0, 9.5)
    record = {"schema": "repro.record/v1", **doc,
              "spans": spans_to_json(tracer),
              "metrics": {"counters": {"x": 1}}}
    return json.loads(json.dumps(record))


def test_segments_end_after_each_stage_then_doc_keys_then_metrics():
    segs = segments(_record(["stage 0 (result)", "stage 1 (shuffle-0)"],
                            sim_time_s=2.0, lines=["a"]))
    assert [label for label, _ in segs] == [
        "stage 0 (result)", "stage 1 (shuffle-0)", "after the last stage",
        "lines", "sim_time_s", "metrics"]
    assert [len(events) for _, events in segs] == [2, 2, 1, 1, 1, 1]
    assert segs[-1][1] == ["metrics.counters.x = 1"]
    assert len(digests(segs)) == 6
    assert all(len(d) == 8 for d in digests(segs))


def test_drifts_reports_missing_keys():
    one = segments(_record([], sim_time_s=1.0, extra=3))
    two = segments(_record([], sim_time_s=1.0))
    d = first_divergence(one, two)
    assert d.labels == ("extra", "sim_time_s")
    assert d.events == ("extra = 3", "sim_time_s = 1.0")
    d = first_divergence(one[:-1], one)
    assert d.events == (END, "metrics.counters.x = 1")


def test_span_diffs_reports_count_and_first_mismatch():
    one = segments(_record(["stage 0 (result)", "stage 1 (result)"]))
    two = segments(_record(["stage 0 (result)", "stage 1 (shuffle-0)",
                            "stage 2 (result)"]))
    d = first_divergence(one, two)
    assert d.index == 3
    assert d.labels == ("stage 1 (result)", "stage 1 (shuffle-0)")
    assert "'stage 1 (shuffle-0)'" in d.events[1]
    assert [e.split("]")[0] for e in d.before] == [
        "[stage 0 (result)", "[stage 0 (result)", "[stage 1 (result)"]


@pytest.mark.parametrize("value", [1.0 + 1e-12, float("nan"), float("inf"),
                                   "1.0"])
def test_any_change_of_a_leaf_diverges(value):
    one = segments(_record([], stat=1.0))
    two = segments(_record([], stat=value))
    assert first_divergence(one, two).events == (
        "stat = 1.0", f"stat = {value!r}")
    assert digests(one)[1] != digests(two)[1]  # [0]: the spans
    assert first_divergence(two, segments(_record([], stat=value))) is None


def test_report_verdict():
    clean = DeterminismReport(workload="w", seed=1, digests=["00000000"],
                              divergence=None, races=[])
    assert clean.ok
    assert "PASS" in clean.describe()
    dirty = DeterminismReport(
        workload="w", seed=1, digests=["00000000"],
        divergence=Divergence(4, ("x", "x"), ("x = 1", "x = 2"), []),
        races=[])
    assert not dirty.ok
    text = dirty.describe()
    assert "FAIL" in text and "run 2 [x] x = 2" in text
    assert dirty.to_dict()["divergence"]["events"] == ("x = 1", "x = 2")


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
    record ends at the sim time of the same argv run in process with
    tracing off — which also holds tracing off the sim clock."""
    record = run_workload(name, seed=7)
    doc = execute(cli_argv(name, 7), NOOP_TRACER, MetricsRegistry())
    assert doc["sim_time_s"] == record["sim_time_s"] > 0
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


def _accuracy_to(value):
    def drift(result):
        result.stats["accuracy"] = value
        return result
    drift.__name__ = f"_accuracy_to_{value}"
    return drift


@pytest.mark.parametrize("name, owner, method, drift, event", [
    ("pagerank", PSMatrix, "to_numpy", _ulp_up, "output/part-00000'"),
    ("chaos-pagerank", PSMatrix, "to_numpy", _ulp_up, "output/part-00000'"),
    ("telemetry-chaos-pagerank", PSMatrix, "to_numpy", _ulp_up,
     "output/part-00000'"),
    ("serve-chaos", ServingPlane, "run", _drift_drops, "drops_crc = "),
    ("streaming-window", IncrementalPageRank, "ranks",
     lambda r: (r[0], _ulp_up(r[1])), "state.ranks_crc = "),
    ("streaming-window", IncrementalComponents, "assignments",
     _drift_label, "state.labels_crc = "),
    ("graphsage", GraphSage, "transform", _accuracy_to(float("nan")),
     "accuracy = nan"),
    ("graphsage", GraphSage, "transform", _accuracy_to(float("inf")),
     "accuracy = inf"),
])
def test_strict_gate_sees_output_drift(monkeypatch, name, owner, method,
                                       drift, event):
    """One value drifting in the second run only fails the double run,
    which names the first event it moved: a saved rank moves the bytes of
    the save stage's HDFS write; a drop record's sim time, a streaming
    rank or label, a statistic turned NaN or infinite move that leaf."""
    runs = []
    real_run, real_method = WORKLOADS[name], getattr(owner, method)

    def counted(seed, tracer, metrics):
        runs.append(seed)
        return real_run(seed, tracer, metrics)

    def drifting(self, *args, **kwargs):
        out = real_method(self, *args, **kwargs)
        return drift(out) if len(runs) == 2 else out

    monkeypatch.setitem(WORKLOADS, name, counted)
    monkeypatch.setattr(owner, method, drifting)
    report = check_determinism(name, seed=7)
    d = report.divergence
    assert d is not None and event in d.events[1], report.describe()
    assert d.events[0] != d.events[1] and d.labels[0] == d.labels[1]
    if " = " in event:  # a leaf of the result document
        leaf = event.split(" = ")[0]
        assert d.labels[0] == leaf.split(".")[0]
        assert d.events[0].startswith(f"{leaf} = ")
    else:  # a span of the stage that saves the output
        assert d.labels[0].startswith("stage ") and "'hdfs.write'" in \
            d.events[0] and event in d.events[0]


def test_psgraph_tables_loses_and_rewrites_a_map_output():
    """The workload is only worth its CI slot while the kill lands
    between the groupBy's map and reduce stage: shuffle 0 is found lost
    by the first reduce task and some — not all — of its eight blocks
    are written a second time."""
    record = run_workload("psgraph-tables")
    assert record["faults_fired"] == record["tasks_failed"] == 1
    spans = spans_from_json(record["spans"])
    [failed] = [s for s in spans if s.name == "task-failed"]
    assert failed.tags["reason"] == "shuffle-0-lost"
    writes = [s.tags["map"] for s in spans
              if s.name == "shuffle.write" and s.tags["shuffle"] == 0]
    assert writes[:8] == list(range(8)) and 8 < len(writes) < 16
    assert sorted(set(writes[8:])) == writes[8:]
    fetches = [s for s in spans if s.name == "shuffle.fetch"
               and s.tags["shuffle"] == 0]
    assert len(fetches) == 8  # the failed read charged and traced nothing


def test_pagerank_snapshot_contents():
    record = run_workload("pagerank", seed=7)
    assert record["sim_time_s"] > 0
    assert record["iterations"] >= 1
    assert record["spans"], "workload must record obs spans"
    assert record["metrics"], "workload must record metrics"
    labels = [label for label, _ in segments(record)]
    assert labels[0].startswith("stage 0 (")
    assert labels[-1] == "metrics" and "output_crc" in labels


def test_different_seeds_actually_differ():
    one = segments(run_workload("pagerank", seed=1))
    two = segments(run_workload("pagerank", seed=2))
    assert first_divergence(one, two) is not None


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------

def test_ledger_pins_every_workload():
    """One line per key, sorted; no stale line and no unpinned cell."""
    keys = registered_keys()
    assert len(keys) == len(set(keys))
    assert sorted(LEDGER) == sorted(set(WORKLOADS) | set(keys))
    assert LEDGER_PATH.read_text() == "{\n" + ",\n".join(
        ledger_line(key, LEDGER[key]) for key in sorted(LEDGER)) + "\n}\n"


def test_keys_and_cell_tokens_are_stable_across_processes():
    """A key that varied between processes would make the ledger flaky:
    no key or tokenized cell text holds an object address, and both are
    the same under two hash seeds as here."""
    code = ("import sys; sys.path[:0] = ['src', '.']; from tests import "
            "ledger as L; print(*L.registered_keys(), *map(L.cell_text, "
            "L.EXPERIMENT_CELLS), sep='\\n')")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code], cwd=LEDGER_PATH.parent.parent,
        text=True, stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": seed}) for seed in ("0", "1")]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    here = "\n".join(registered_keys() + [cell_text(c)
                                          for c in EXPERIMENT_CELLS]) + "\n"
    assert outs == [here, here]
    assert not re.search(r"\b0x[0-9a-f]+", here)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_ledger(name):
    """One run at ``DEFAULT_SEED`` reproduces the committed digest of every
    segment."""
    check(name, run_workload(name, DEFAULT_SEED))


def test_ledger_diff_names_the_moved_segment_and_the_new_line():
    record = _record(["stage 0 (result)"], sim_time_s=2.0, lines=["a"])
    pinned = digests(segments(record))
    assert ledger_diff("k", record, pinned) is None
    moved = _record(["stage 0 (result)"], sim_time_s=2.5, lines=["a"])
    text = ledger_diff("k", moved, pinned)
    assert text.splitlines()[:2] == [
        "k: segment 3 (sim_time_s) moved; its first events now:",
        "    sim_time_s = 2.5"]
    assert text.splitlines()[-1] == ledger_line(
        "k", digests(segments(moved)))
    assert ledger_diff("k", record, None).startswith("k: no ledger line")
    assert "segment 5 (<end of run>)" in ledger_diff(
        "k", record, pinned + ["00000000"])


def test_lint_dynamic_json_prints_run_one_digests(capsys):
    assert main(["lint", "--dynamic", "graphsage", "--seed",
                 str(DEFAULT_SEED), "--json"]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["divergence"] is None
    assert report["digests"] == LEDGER["graphsage"]
