"""Tests for repro.obs (tracing, exporters) and the metrics extensions."""

import json

import pytest

from repro.common.config import ClusterConfig, MB
from repro.common.metrics import MetricsRegistry
from repro.common.simclock import SimClock, TaskCost
from repro.core.algorithms import PageRank
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs import (
    INSTANT,
    NOOP_TRACER,
    Tracer,
    chrome_trace,
    metrics_to_dict,
    spans_from_json,
    spans_to_json,
    timeline_report,
    validate_chrome_trace,
    write_chrome_trace,
)


# ----------------------------------------------------------------------
# metrics: histograms, gauges, timer, scoped
# ----------------------------------------------------------------------

class TestHistogram:
    def test_empty(self):
        r = MetricsRegistry()
        h = r.histogram("h")
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0
        s = h.summary()
        assert s["count"] == 0 and s["p95"] == 0.0

    def test_single_sample(self):
        r = MetricsRegistry()
        r.observe("h", 7.0)
        h = r.histogram("h")
        assert h.percentile(0) == 7.0
        assert h.percentile(50) == 7.0
        assert h.percentile(100) == 7.0
        assert h.min == 7.0 and h.max == 7.0

    def test_percentile_interpolation(self):
        r = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            r.observe("h", v)
        h = r.histogram("h")
        assert h.percentile(50) == 3.0
        assert h.percentile(25) == 2.0
        assert h.percentile(95) == pytest.approx(4.8)
        assert h.max == 5.0 and h.mean == 3.0

    def test_percentile_out_of_range(self):
        r = MetricsRegistry()
        r.observe("h", 1.0)
        with pytest.raises(ValueError):
            r.histogram("h").percentile(101)

    def test_snapshot_stays_counters_only(self):
        # Benchmarks compare snapshot() dicts; histograms and gauges must
        # not leak into them.
        r = MetricsRegistry()
        r.inc("c", 2)
        r.observe("h", 1.0)
        r.set_gauge("g", 3.0)
        assert r.snapshot() == {"c": 2.0}


class TestGauge:
    def test_high_water_and_updates(self):
        r = MetricsRegistry()
        r.set_gauge("g", 5.0)
        r.set_gauge("g", 2.0)
        snap = r.gauge_snapshot()
        assert snap["g"]["value"] == 2.0
        assert snap["g"]["high"] == 5.0
        assert snap["g"]["updates"] == 2


class TestTimerAndScoped:
    def test_timer_with_sim_clock(self):
        r = MetricsRegistry()
        clock = SimClock()
        with r.timer("t", clock=clock):
            clock.advance(2.5)
        h = r.histogram("t")
        assert h.count == 1
        assert h.max == pytest.approx(2.5)


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------

class TestTracer:
    def test_add_and_spans(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 1.0, 3.0, {"k": 1})
        [s] = t.spans()
        assert s.duration_s == 2.0
        assert s.tags == {"k": 1}

    def test_instant(self):
        t = Tracer()
        t.instant("driver", "iterations", "iteration", 2.0, {"epoch": 1})
        [s] = t.spans()
        assert s.kind == INSTANT
        assert s.start_s == s.end_s == 2.0

    def test_clock_span_reads_clock_boundaries(self):
        t = Tracer()
        clock = SimClock()
        clock.advance(1.0)
        with t.clock_span("ps-server-0", "ops", "ps.pull", clock, None):
            clock.advance(0.5)
        [s] = t.spans()
        assert s.start_s == pytest.approx(1.0)
        assert s.end_s == pytest.approx(1.5)

    def test_cost_span_places_on_serial_timeline(self):
        t = Tracer()
        cost = TaskCost()
        cost.cpu_s = 2.0
        with t.cost_span("executor-0", "s0.p1", "shuffle.write", cost, 10.0):
            cost.disk_s += 3.0
        [s] = t.spans()
        assert s.start_s == pytest.approx(12.0)
        assert s.end_s == pytest.approx(15.0)

    def test_nested_cost_spans_contained(self):
        t = Tracer()
        cost = TaskCost()
        with t.cost_span("e", "r", "outer", cost, 0.0):
            cost.cpu_s += 1.0
            with t.cost_span("e", "r", "inner", cost, 0.0):
                cost.net_s += 2.0
            cost.disk_s += 1.0
        inner, outer = t.spans()
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_noop_tracer_records_nothing(self):
        clock = SimClock()
        with NOOP_TRACER.clock_span("c", "t", "n", clock, None):
            clock.advance(1.0)
        NOOP_TRACER.add("c", "t", "n", 0.0, 1.0)
        NOOP_TRACER.instant("c", "t", "n", 0.0, None)
        assert NOOP_TRACER.spans() == []
        assert NOOP_TRACER.enabled is False


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

class TestChromeTrace:
    def test_schema(self, tmp_path):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 0.0, 1.5, {"tasks": 4})
        t.add("executor-0", "tasks", "task s0.p0", 0.0, 1.0)
        t.instant("driver", "iterations", "iteration", 1.5, {"epoch": 1})
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), t)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert n == len(events)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for e in xs:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in e
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
        # sim seconds exported as microseconds
        stage = next(e for e in xs if e["name"] == "stage 0")
        assert stage["ts"] == 0.0 and stage["dur"] == pytest.approx(1.5e6)
        assert stage["args"] == {"tasks": 4}
        [inst] = [e for e in events if e["ph"] == "i"]
        assert inst["s"] == "t"

    def test_metadata_names_processes_and_threads(self):
        t = Tracer()
        t.add("executor-0", "tasks", "task", 0.0, 1.0)
        doc = chrome_trace(t)
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in metas}
        assert ("process_name", "executor-0") in names
        assert ("thread_name", "tasks") in names

    def test_components_get_distinct_pids(self):
        t = Tracer()
        t.add("a", "x", "s1", 0.0, 1.0)
        t.add("b", "x", "s2", 0.0, 1.0)
        doc = chrome_trace(t)
        xs = {e["name"]: e["pid"] for e in doc["traceEvents"]
              if e["ph"] == "X"}
        assert xs["s1"] != xs["s2"]


class TestChromeTraceValidation:
    def test_valid_document_has_no_problems(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 0.0, 2.0, {"tasks": 4})
        t.add("executor-0", "s0.p0", "task", 0.0, 1.0)
        t.add("executor-0", "s0.p0", "ps.pull", 0.2, 0.5)  # nested
        t.instant("driver", "iterations", "iteration", 2.0, None)
        assert validate_chrome_trace(chrome_trace(t)) == []

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"]

    def test_flags_missing_phase_and_bad_fields(self):
        doc = {"traceEvents": [
            {"name": "x"},
            {"ph": "X", "pid": "a", "tid": 1, "ts": 0.0, "dur": 1.0},
            {"ph": "X", "pid": 1, "tid": 1, "ts": -5.0, "dur": 1.0},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1.0},
            {"ph": "q", "pid": 1, "tid": 1, "ts": 0.0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("missing ph" in p for p in problems)
        assert any("non-integer pid" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)
        assert any("unsupported phase" in p for p in problems)

    def test_flags_partial_overlap_on_one_thread(self):
        # Two X spans that overlap without nesting: a corrupted serial
        # timeline the viewer would silently mis-render.
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": 10.0},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1,
             "ts": 5.0, "dur": 10.0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("partially overlaps" in p for p in problems)

    def test_flags_unclosed_begin(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0.0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("unclosed B" in p for p in problems)

    def test_real_run_trace_validates(self):
        tracer = Tracer()
        _run_pagerank(tracer)
        assert validate_chrome_trace(chrome_trace(tracer)) == []


class TestSpanRoundTrip:
    def test_spans_round_trip_losslessly(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 0.0, 1.5,
              {"tasks": 4, "kind": "shuffle-0"})
        t.add("executor-1", "s0.p1", "task", 0.25, 1.0)
        t.instant("driver", "chaos", "chaos.kill_executor", 0.5,
                  {"target": "executor-1"})
        docs = spans_to_json(t)
        text = json.dumps(docs)  # survives actual JSON encoding
        rebuilt = spans_from_json(json.loads(text))
        assert len(rebuilt) == len(t.spans())
        for a, b in zip(t.spans(), rebuilt):
            assert (a.component, a.track, a.name, a.kind) == \
                   (b.component, b.track, b.name, b.kind)
            assert a.start_s == b.start_s and a.end_s == b.end_s
            assert (a.tags or None) == (b.tags or None)

    def test_instant_kind_preserved(self):
        t = Tracer()
        t.instant("driver", "alerts", "alert x", 3.0, None)
        [span] = spans_from_json(spans_to_json(t))
        assert span.kind == INSTANT
        assert span.start_s == span.end_s == 3.0


class TestTimelineReport:
    def test_empty(self):
        assert "(no stage spans recorded)" in timeline_report(Tracer())

    def test_stages_and_iterations(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0 (result)", 0.0, 1.0,
              {"stage": 0, "kind": "result", "tasks": 4})
        t.instant("driver", "iterations", "iteration", 1.0, {"epoch": 1})
        report = timeline_report(t, sim_time_s=2.0)
        assert "result" in report
        assert "per-iteration" in report
        assert "run sim-time" in report
        assert "50.0%" in report  # 1.0 of 2.0 covered


class TestMetricsDump:
    def test_round_trip(self, tmp_path):
        r = MetricsRegistry()
        r.inc("c", 2)
        r.observe("h", 1.0)
        r.set_gauge("g", 3.0)
        doc = json.loads(json.dumps(metrics_to_dict(r)))
        assert doc == metrics_to_dict(r)
        assert doc["counters"]["c"] == 2.0
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["gauges"]["g"]["value"] == 3.0


# ----------------------------------------------------------------------
# end to end: tracing a real run
# ----------------------------------------------------------------------

def _run_pagerank(tracer):
    cluster = ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )
    with PSGraphContext(cluster, app_name="obs-test",
                        tracer=tracer) as ctx:
        src, dst = powerlaw_graph(200, 900, seed=3)
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        result = GraphRunner(ctx).run(
            PageRank(max_iterations=4), "/input/edges"
        )
        return result, ctx.sim_time(), dict(ctx.metrics.snapshot())


class TestEndToEnd:
    def test_traced_run_produces_expected_spans(self):
        tracer = Tracer()
        _, sim_time, _ = _run_pagerank(tracer)
        spans = tracer.spans()
        names = {s.name for s in spans}
        tracks = {(s.component, s.track) for s in spans}
        # driver stage spans + phase spans + iteration instants
        assert any(n.startswith("stage ") for n in names)
        assert {"load", "transform"} <= names
        assert ("driver", "iterations") in tracks
        # executor task rows and per-task detail rows
        assert any(t == "tasks" for _, t in tracks)
        assert any(t.startswith("s") and ".p" in t for _, t in tracks)
        # PS server compute and agent-side request spans
        assert any(n.startswith("ps.") for n in names)
        # every span lies within the run and is well-formed
        for s in spans:
            assert s.end_s >= s.start_s
            assert s.end_s <= sim_time + 1e-9
        # stage spans tile the driver timeline without exceeding run time
        stage_total = sum(
            s.duration_s for s in spans
            if s.component == "driver" and s.track == "stages"
        )
        assert stage_total <= sim_time + 1e-9

    def test_timeline_report_consistent_with_run(self):
        tracer = Tracer()
        _, sim_time, _ = _run_pagerank(tracer)
        report = timeline_report(tracer, sim_time_s=sim_time)
        assert f"run sim-time     : {sim_time:.4f} s" in report

    def test_noop_run_identical_to_traced_run(self):
        # Tracing must be observation-only: counters and sim-time agree
        # between a no-op run and a recording run.
        _, time_noop, counters_noop = _run_pagerank(NOOP_TRACER)
        _, time_traced, counters_traced = _run_pagerank(Tracer())
        assert time_noop == time_traced
        assert counters_noop == counters_traced

    def test_chrome_export_of_real_run_is_valid_json(self, tmp_path):
        tracer = Tracer()
        _run_pagerank(tracer)
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), tracer)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n > 0


class TestCliFlags:
    def test_trace_metrics_timeline_flags(self, tmp_path, capsys):
        from repro.cli import main

        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n2\t0\n")
        record = tmp_path / "record.json"
        rc = main([
            "run", "pagerank", "--input", str(edges), "--iterations", "2",
            "--executors", "2", "--servers", "1", "--record", str(record),
        ])
        assert rc == 0
        assert "per-stage timeline" not in capsys.readouterr().out
        views = tmp_path / "views"
        assert main(["report", str(record), "--out", str(views)]) == 0
        assert "per-stage timeline" in (views / "timeline.txt").read_text()
        doc = json.loads((views / "trace.json").read_text())
        assert doc["traceEvents"] and validate_chrome_trace(doc) == []
        mdoc = json.loads((views / "metrics.json").read_text())
        assert "dataflow.task.duration_s" in mdoc["histograms"]

    def test_views_equal_the_live_run(self, tmp_path):
        """``repro report``'s trace, metrics and timeline of a recorded
        ``run --chaos`` are what the live tracer and registry export."""
        from repro.cli import execute, main

        argv = ["run", "pagerank", "--vertices", "200", "--edges", "1000",
                "--iterations", "6", "--executors", "4", "--servers", "2",
                "--chaos", "--record", str(tmp_path / "record.json")]
        assert main(argv) == 0
        views = tmp_path / "views"
        assert main(["report", argv[-1], "--out", str(views)]) == 0
        tracer, metrics = Tracer(), MetricsRegistry()
        doc = execute(argv, tracer, metrics)
        assert (views / "trace.json").read_text() == \
            json.dumps(chrome_trace(tracer))
        assert json.loads((views / "metrics.json").read_text()) == \
            metrics_to_dict(metrics)
        assert (views / "timeline.txt").read_text() == timeline_report(
            tracer, sim_time_s=doc["sim_time_s"]) + "\n"
