"""Tests for the telemetry pipeline: sketch, windowed series, SLO
burn-rate alerting, critical-path attribution, dashboard and CLIs."""

import json

import pytest

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.common.metrics import (
    EXECUTORS_ALIVE_G,
    MetricsRegistry,
    PS_SERVERS_ALIVE_G,
    PS_SERVERS_TOTAL_G,
)
from repro.common.sketch import QuantileSketch, merge
from repro.core.algorithms import PageRank
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs import (
    SloEngine,
    SloSpec,
    TelemetryCollector,
    TimeSeriesStore,
    Tracer,
    build_record,
    critical_path,
    metrics_to_dict,
    spans_from_json,
    telemetry_doc,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.telemetry import component_of


# ----------------------------------------------------------------------
# quantile sketch
# ----------------------------------------------------------------------

class TestQuantileSketch:
    def test_relative_accuracy(self):
        sk = QuantileSketch(alpha=0.01)
        values = [1.0 + (i % 997) * 0.37 for i in range(5000)]
        for v in values:
            sk.add(v)
        ordered = sorted(values)
        for q in (50, 90, 95, 99):
            exact = ordered[int(q / 100.0 * (len(ordered) - 1))]
            assert sk.percentile(q) == pytest.approx(exact, rel=0.03)

    def test_exact_extremes(self):
        sk = QuantileSketch()
        for v in (3.0, 9.0, 1.0, 7.0):
            sk.add(v)
        assert sk.percentile(0) == 1.0
        assert sk.percentile(100) == 9.0

    def test_deterministic_across_instances(self):
        a, b = QuantileSketch(), QuantileSketch()
        for i in range(1000):
            v = 0.001 * (i * 7 % 913 + 1)
            a.add(v)
            b.add(v)
        for q in (50, 95, 99):
            assert a.percentile(q) == b.percentile(q)
        assert a.to_dict() == b.to_dict()

    def test_bounded_memory_collapses(self):
        sk = QuantileSketch(alpha=0.01, max_buckets=32)
        for i in range(1, 20000):
            sk.add(float(i))
        assert len(sk.to_dict()["buckets"]) <= 32
        assert sk.count == 19999
        # Upper percentiles survive the collapse of the low buckets.
        assert sk.percentile(99) == pytest.approx(19800, rel=0.05)

    def test_count_above(self):
        sk = QuantileSketch(alpha=0.01)
        for v in (0.1, 0.2, 1.5, 2.0, 5.0):
            sk.add(v)
        assert sk.count_above(1.0) == 3
        assert sk.count_above(100.0) == 0

    def test_zero_and_negative_go_to_zero_bucket(self):
        sk = QuantileSketch()
        sk.add(0.0)
        sk.add(-1.0)
        sk.add(2.0)
        assert sk.count == 3
        assert sk.count_above(-0.5) == 3
        assert sk.percentile(0) == -1.0

    def test_merge(self):
        a, b = QuantileSketch(), QuantileSketch()
        for i in range(1, 100):
            a.add(float(i))
        for i in range(100, 200):
            b.add(float(i))
        m = merge(a, b)
        assert m.count == a.count + b.count
        assert m.percentile(100) == 199.0


# ----------------------------------------------------------------------
# time-series store
# ----------------------------------------------------------------------

class TestTimeSeriesStore:
    def test_counter_deltas_land_in_windows(self):
        r = MetricsRegistry()
        store = TimeSeriesStore(window_s=5.0)
        r.inc("dataflow.tasks.launched", 4)
        store.sample(1.0, r)
        r.inc("dataflow.tasks.launched", 6)
        store.sample(7.0, r)
        pts = store.series["dataflow.tasks.launched"].points
        assert list(pts) == [[0.0, 4.0], [1.0, 6.0]]

    def test_same_window_accumulates(self):
        r = MetricsRegistry()
        store = TimeSeriesStore(window_s=10.0)
        r.inc("c", 1)
        store.sample(1.0, r)
        r.inc("c", 2)
        store.sample(2.0, r)
        assert list(store.series["c"].points) == [[0.0, 3.0]]

    def test_gauge_keeps_last_value(self):
        r = MetricsRegistry()
        store = TimeSeriesStore(window_s=10.0)
        r.set_gauge("g", 5.0)
        store.sample(1.0, r)
        r.set_gauge("g", 2.0)
        store.sample(2.0, r)
        assert list(store.series["g"].points) == [[0.0, 2.0]]

    def test_histogram_rate_and_p99(self):
        r = MetricsRegistry()
        store = TimeSeriesStore(window_s=5.0)
        r.observe("h", 1.0)
        r.observe("h", 3.0)
        store.sample(1.0, r)
        assert list(store.series["h.rate"].points) == [[0.0, 2.0]]
        assert store.series["h.p99"].points[-1][1] == pytest.approx(
            r.histogram("h").percentile(99))

    def test_ring_buffer_retention(self):
        r = MetricsRegistry()
        store = TimeSeriesStore(window_s=1.0, max_windows=3)
        for w in range(10):
            r.inc("c")
            store.sample(float(w), r)
        pts = list(store.series["c"].points)
        assert len(pts) == 3
        assert pts[0][0] == 7.0 and pts[-1][0] == 9.0

    def test_component_mapping(self):
        assert component_of("dataflow.shuffle.records") == "shuffle"
        assert component_of("dataflow.tasks.launched") == "scheduler"
        assert component_of("ps.pull.calls") == "ps"
        assert component_of("net.rpc.bytes") == "rpc"
        assert component_of("mystery.metric") == "other"

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(window_s=0.0)
        with pytest.raises(ValueError):
            TimeSeriesStore(max_windows=0)


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------

def _availability_slo(**kw):
    defaults = dict(
        name="avail", description="gauge at full strength",
        kind="availability", objective=0.999,
        alive_gauge=PS_SERVERS_ALIVE_G, expected_gauge=PS_SERVERS_TOTAL_G,
        short_windows=1, long_windows=6, burn_threshold=10.0,
    )
    defaults.update(kw)
    return SloSpec(**defaults)


class TestSloEngine:
    def test_fires_and_resolves_on_availability(self):
        r = MetricsRegistry()
        r.set_gauge(PS_SERVERS_TOTAL_G, 2.0)
        r.set_gauge(PS_SERVERS_ALIVE_G, 2.0)
        engine = SloEngine([_availability_slo()], window_s=5.0)
        assert engine.evaluate(1.0, r) == []
        r.set_gauge(PS_SERVERS_ALIVE_G, 1.0)  # degraded
        changed = engine.evaluate(2.0, r)
        assert len(changed) == 1 and changed[0].active
        assert changed[0].fired_at_s == 2.0
        r.set_gauge(PS_SERVERS_ALIVE_G, 2.0)  # recovered
        # Advance past the short window so the bad probe ages out.
        changed = engine.evaluate(12.0, r)
        changed = engine.evaluate(17.0, r) or changed
        resolved = [a for a in changed if not a.active]
        assert resolved and resolved[0].resolved_at_s is not None

    def test_ratio_kind(self):
        r = MetricsRegistry()
        spec = SloSpec(
            name="success", description="", kind="ratio", objective=0.9,
            bad_counter="bad", total_counter="total",
            short_windows=1, long_windows=2, burn_threshold=5.0,
        )
        engine = SloEngine([spec], window_s=1.0)
        r.inc("total", 10)
        assert engine.evaluate(0.5, r) == []
        r.inc("total", 100)
        r.inc("bad", 80)
        # short burn: (80/100)/0.1 = 8.0; long burn: (80/110)/0.1 = 7.3
        changed = engine.evaluate(1.5, r)
        assert len(changed) == 1

    def test_latency_kind(self):
        r = MetricsRegistry()
        spec = SloSpec(
            name="lat", description="", kind="latency", objective=0.9,
            histogram="h", threshold_s=1.0,
            short_windows=1, long_windows=2, burn_threshold=5.0,
        )
        engine = SloEngine([spec], window_s=1.0)
        for _ in range(10):
            r.observe("h", 0.5)
        assert engine.evaluate(0.5, r) == []
        for _ in range(10):
            r.observe("h", 2.0)  # all above threshold
        assert len(engine.evaluate(1.5, r)) == 1

    def test_high_water_expectation_when_no_expected_gauge(self):
        r = MetricsRegistry()
        spec = _availability_slo(
            alive_gauge=EXECUTORS_ALIVE_G, expected_gauge=None)
        engine = SloEngine([spec], window_s=5.0)
        r.set_gauge(EXECUTORS_ALIVE_G, 4.0)
        assert engine.evaluate(1.0, r) == []
        r.set_gauge(EXECUTORS_ALIVE_G, 3.0)  # below its own high-water
        assert len(engine.evaluate(2.0, r)) == 1

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", description="", kind="nope", objective=0.9)
        with pytest.raises(ValueError):
            SloSpec(name="x", description="", kind="ratio", objective=1.5)
        with pytest.raises(ValueError):
            _availability_slo(short_windows=4, long_windows=2)
        with pytest.raises(ValueError):
            SloEngine([_availability_slo(), _availability_slo()],
                      window_s=5.0)

    def test_status_rows(self):
        engine = SloEngine([_availability_slo()], window_s=5.0)
        [row] = engine.status()
        assert row["name"] == "avail"
        assert row["state"] == "ok"
        assert "objective_label" in row


# ----------------------------------------------------------------------
# end to end: chaos run with the collector attached
# ----------------------------------------------------------------------

def _chaos_telemetry_run(seed=11):
    cluster = ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    with PSGraphContext(cluster, app_name="telemetry-test",
                        metrics=metrics, tracer=tracer,
                        checkpoint_interval=1) as ctx:
        src, dst = powerlaw_graph(300, 2000, seed=seed)
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=4)
        collector = TelemetryCollector(metrics, tracer).attach(ctx.spark)
        schedule = FaultSchedule([
            FaultSpec("kill_server", index=0, at_epoch=3),
        ])
        engine = ChaosEngine(schedule, ctx.spark, ctx.ps).attach()
        engine.bind_telemetry(collector)
        try:
            GraphRunner(ctx).run(
                PageRank(max_iterations=6, tol=1e-9), "/input/edges")
        finally:
            engine.detach()
            collector.finalize(ctx.sim_time())
            collector.detach()
        record = build_record({
            "lines": [], "errors": [], "sim_time_s": ctx.sim_time(),
            "meta": {"algorithm": "pagerank", "seed": seed},
            "chaos": engine.report(), "telemetry": collector.to_dict(),
        }, tracer, metrics)
        return collector, engine, tracer, ctx.sim_time(), record


def _telemetry(record):
    """The telemetry view of a run record."""
    return telemetry_doc(record, spans_from_json(record["spans"]))


class TestChaosTelemetryEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        return _chaos_telemetry_run()

    def test_alert_fires_between_injection_and_recovery(self, run):
        collector, engine, tracer, sim_time, _ = run
        [fault] = engine.fired
        assert fault.kind == "kill_server"
        alerts = [a for a in collector.alerts
                  if a.slo == "ps-availability"]
        assert alerts, "kill_server must trip the availability SLO"
        alert = alerts[0]
        recovery_spans = [s for s in tracer.spans()
                          if s.track == "recovery"]
        assert recovery_spans, "PS master must have recovered"
        recovery_end = max(s.end_s for s in recovery_spans)
        assert fault.sim_time_s <= alert.fired_at_s <= recovery_end

    def test_alert_mirrored_into_trace_and_metrics(self, run):
        collector, _, tracer, _, _ = run
        alert_instants = [s for s in tracer.spans()
                          if s.track == "alerts"
                          and s.name.startswith("alert ")]
        assert len(alert_instants) >= 1
        assert collector.metrics.get("obs.alerts.fired") == len(
            [a for a in collector.alerts])

    def test_detection_timeline_pairs_fault_with_alert(self, run):
        _, engine, _, _, _ = run
        [row] = engine.detection_timeline()
        assert row["kind"] == "kill_server"
        assert row["detected_at_s"] is not None
        assert row["detection_delay_s"] >= 0.0
        assert row["slo"] == "ps-availability"

    def test_deterministic_double_run(self):
        a = _chaos_telemetry_run(seed=11)
        b = _chaos_telemetry_run(seed=11)
        assert json.dumps(a[4], sort_keys=True) == \
               json.dumps(b[4], sort_keys=True)

    def test_critical_path_covers_95_percent(self, run):
        _, _, tracer, sim_time, _ = run
        report = critical_path(tracer.spans(), sim_time)
        assert report.covered_pct >= 95.0
        assert sum(r.pct for r in report.table()) >= 95.0

    def test_telemetry_doc_schema(self, run):
        *_, record = run
        doc = _telemetry(record)
        assert doc["schema"] == "repro.telemetry/v1"
        assert doc["telemetry"]["ticks"] > 0
        assert doc["telemetry"]["series"]
        assert doc["critical_path"]["covered_pct"] >= 95.0
        assert doc["chaos"]["detection"]
        json.dumps(doc)  # JSON-serializable end to end


# ----------------------------------------------------------------------
# critical path unit behavior
# ----------------------------------------------------------------------

class TestCriticalPath:
    def test_gap_attributed_to_recovery_then_idle(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 0.0, 4.0,
              {"stage": 0, "kind": "result", "tasks": 1})
        t.add("driver", "recovery", "ps.recover", 4.0, 7.0)
        report = critical_path(t.spans(), 10.0)
        by_label = {r.label: r.seconds for r in report.rows}
        assert by_label["recovery:ps.recover"] == pytest.approx(3.0)
        assert by_label["driver:idle"] == pytest.approx(3.0)
        assert report.covered_pct == pytest.approx(100.0)

    def test_stage_split_by_critical_executor(self):
        t = Tracer()
        t.add("driver", "stages", "stage 0", 0.0, 10.0,
              {"stage": 0, "kind": "result", "tasks": 2})
        t.add("executor-0", "tasks", "tasks s0", 0.0, 4.0, {"stage": 0})
        t.add("executor-1", "tasks", "tasks s0", 0.0, 10.0, {"stage": 0})
        # Critical executor-1's detail: 6s task with 3s nested ps.pull.
        t.add("executor-1", "s0.p1", "task", 0.0, 10.0)
        t.add("executor-1", "s0.p1", "ps.pull", 2.0, 7.0)
        report = critical_path(t.spans(), 10.0)
        by_label = {r.label: r.seconds for r in report.rows}
        assert by_label["result:ps.pull"] == pytest.approx(5.0)
        assert by_label["result:compute"] == pytest.approx(5.0)

    def test_empty_spans_all_idle(self):
        report = critical_path([], 5.0)
        assert [r.label for r in report.rows] == ["driver:idle"]
        assert report.covered_pct == pytest.approx(100.0)

    def test_top_n_folds_tail(self):
        t = Tracer()
        for i in range(5):
            t.add("driver", "stages", f"stage {i}",
                  float(i), float(i) + 1.0,
                  {"stage": i, "kind": f"k{i}", "tasks": 1})
        report = critical_path(t.spans(), 5.0, top_n=2)
        table = report.table()
        assert len(table) == 3
        assert table[-1].label == "(other)"
        assert sum(r.pct for r in table) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# dashboard + CLIs
# ----------------------------------------------------------------------

class TestDashboard:
    def test_render_full_document(self):
        *_, record = _chaos_telemetry_run()
        html = render_dashboard(_telemetry(record))
        assert html.startswith("<!DOCTYPE html>")
        assert "SLO status" in html
        assert "Critical path" in html
        assert "Fault detection timeline" in html
        assert "ps-availability" in html
        assert "prefers-color-scheme: dark" in html
        assert "NaN" not in html

    def test_render_is_deterministic(self):
        *_, record = _chaos_telemetry_run()
        doc = _telemetry(record)
        assert render_dashboard(doc) == render_dashboard(doc)

    def test_render_minimal_document(self):
        doc = {"schema": "repro.telemetry/v1", "meta": {},
               "sim_time_s": 0.0,
               "telemetry": {"window_s": 5.0, "ticks": 0,
                             "series": {}, "slos": [], "alerts": []}}
        html = render_dashboard(doc)
        assert "no alerts fired" in html


def _empty_record(**sections):
    return {"schema": "repro.record/v1", "lines": [], "errors": [],
            "sim_time_s": 1.0, "spans": [],
            "metrics": metrics_to_dict(MetricsRegistry()), **sections}


class TestObsCli:
    def _write_doc(self, tmp_path):
        *_, record = _chaos_telemetry_run()
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        return path

    def test_report_writes_dashboard(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_doc(tmp_path)
        out = tmp_path / "views"
        rc = main(["report", str(src), "--out", str(out),
                   "--require-alert", "1"])
        assert rc == 0
        assert (out / "dashboard.html").read_text().startswith(
            "<!DOCTYPE html>")
        assert sorted(p.name for p in out.iterdir()) == [
            "dashboard.html", "metrics.json", "telemetry.json",
            "timeline.txt", "trace.json"]
        stdout = capsys.readouterr().out
        assert "critical" in stdout and "alert" in stdout

    def test_require_alert_fails_when_none(self, tmp_path):
        from repro.cli import main
        doc = _empty_record(telemetry={"window_s": 5.0, "ticks": 1,
                                       "series": {}, "slos": [],
                                       "alerts": []})
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--out",
                     str(tmp_path / "d"), "--require-alert", "1"]) == 1

    def test_rejects_non_telemetry_json(self, tmp_path):
        from repro.cli import main
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["report", str(path)]) == 1

    @pytest.mark.parametrize("doc", [
        [],
        {"schema": "repro.telemetry/v1", "telemetry": []},
        {"schema": "repro.telemetry/v1", "meta": {}, "sim_time_s": 1.0,
         "telemetry": {"window_s": 5.0, "ticks": 1, "series": {},
                       "slos": [], "alerts": []}},
        _empty_record(spans={}),
        _empty_record(sim_time_s="1.0"),
        _empty_record(telemetry=[]),
        _empty_record(telemetry={"series": {}, "slos": {}, "alerts": []}),
        _empty_record(spans=[{"component": "driver"}]),
    ], ids=["list", "telemetry-list", "telemetry-document", "spans-object",
            "sim-time-string", "record-telemetry-list", "slos-object",
            "span-without-fields"])
    def test_rejects_what_is_not_a_record(self, doc, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--out", str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {path}: ")
        assert not (tmp_path / "v").exists()


class TestMainCliTelemetryFlag:
    def test_telemetry_flag_writes_document(self, tmp_path):
        from repro.cli import main
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n2\t0\n1\t0\n2\t1\n")
        record = tmp_path / "record.json"
        rc = main([
            "run", "pagerank", "--input", str(edges), "--iterations", "2",
            "--executors", "2", "--servers", "1",
            "--record", str(record),
        ])
        assert rc == 0
        assert main(["report", str(record), "--out",
                     str(tmp_path / "views")]) == 0
        doc = json.loads((tmp_path / "views" / "telemetry.json").read_text())
        assert doc["schema"] == "repro.telemetry/v1"
        assert doc["meta"]["algorithm"] == "pagerank"
        assert doc["critical_path"]["covered_pct"] >= 95.0
