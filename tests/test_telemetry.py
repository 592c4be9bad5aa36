"""Tests for the telemetry pipeline: sketch and histogram, SLO burn-rate
alerting, critical-path attribution, the record's views and CLIs.

The histogram and sketch properties run ``deep`` (1,000 examples) in the
``serve`` entry of the ``smoke`` CI matrix."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.common.metrics import (
    EXECUTORS_ALIVE_G,
    Histogram,
    MetricsRegistry,
    PS_SERVERS_ALIVE_G,
    PS_SERVERS_TOTAL_G,
)
from repro.common.rng import DEFAULT_SEED
from repro.common.sketch import QuantileSketch
from repro.core.algorithms import PageRank
from repro.core.context import PSGraphContext
from repro.core.runner import GraphRunner
from repro.datasets.generators import powerlaw_graph
from repro.datasets.tencent import write_edges
from repro.obs import (
    SloEngine,
    SloSpec,
    TelemetryCollector,
    Tracer,
    build_record,
    critical_path,
    metrics_to_dict,
    spans_from_json,
    telemetry_doc,
)
from repro.obs import critical
from repro.obs.determinism import run_workload, segments
from tests.conftest import histogram_state, sketch_state


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
        assert sketch_state(a) == sketch_state(b)

    def test_bounded_memory_collapses(self):
        sk = QuantileSketch(alpha=0.01, max_buckets=32)
        for i in range(1, 20000):
            sk.add(float(i))
        assert len(sketch_state(sk)["buckets"]) <= 32
        assert sketch_state(sk)["count"] == 19999
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
        assert sketch_state(sk)["count"] == 3
        assert sk.count_above(-0.5) == 3
        assert sk.percentile(0) == -1.0


# ----------------------------------------------------------------------
# histogram: one buffer == one ``QuantileSketch.add`` per sample
# ----------------------------------------------------------------------

GAMMA = 1.01 / 0.99


def capped_histogram(max_exact):
    """A histogram that switches to its sketch past ``max_exact``."""
    return type("CappedHistogram", (Histogram,), {"max_exact": max_exact})()


class OneByOne(Histogram):
    """The reference: every sample past the switch is one
    ``QuantileSketch.add``, and so is every sample the switch moves.
    Below the switch a query sorts a list of the samples afresh and
    counts with comparisons, so no cached order or search is shared."""

    def _exact(self):
        if self._sketch is not None:
            return None
        return sorted(self._buf[:self._n].tolist())

    def count_above(self, threshold):
        if self._sketch is not None:
            return self._sketch.count_above(threshold)
        return sum(v > threshold for v in self._buf[:self._n].tolist())

    def observe(self, value):
        v = float(value)
        self._count += 1
        self._sum += value
        self._min, self._max = min(self._min, v), max(self._max, v)
        if self._sketch is None:
            if self._n < self.max_exact:
                # The exact samples, in a buffer exactly as long.
                self._buf = np.append(self._buf[:self._n], v)
                self._n += 1
                self._sorted = False
                return
            self._sketch = QuantileSketch()
            for x in self._buf[:self._n].tolist():
                self._sketch.add(x)
            self._n = 0
        self._sketch.add(v)


def scalar_histogram(values, max_exact):
    hist = type("CappedOneByOne", (OneByOne,), {"max_exact": max_exact})()
    for v in values:
        hist.observe(v)
    return hist


def full_state(hist):
    state = histogram_state(hist)
    sketch = sketch_state(hist._sketch) if hist._sketch is not None else None
    return (state, sorted(hist._buf[:hist._n].tolist()), sketch,
            [hist.count_above(t) for t in (-1.0, 0.0, 0.01, 1.0, 1e9)])


samples = st.one_of(
    st.floats(1e-6, 1e3),
    st.sampled_from([0.0, -1.5, 1.0, GAMMA, GAMMA ** 2, GAMMA ** -3,
                     GAMMA ** 40, 0.25]),
    st.integers(-60, 60).map(lambda k: GAMMA ** k))


@given(values=st.lists(samples, max_size=60),
       cuts=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(
           ["batch", "one by one", "batch, then a query",
            "one by one, then a query", "one by one, then a count"])),
           max_size=6),
       max_exact=st.sampled_from([4, 16, 8192]))
@example(values=[1.0, 0.25, 2.0, 0.25], cuts=[], max_exact=4)  # fills it
@example(values=[1.0, 0.25, 2.0, 0.25, 3.0], cuts=[(4, "batch, then a query")],
         max_exact=4)
def test_observe_many_equals_observe(values, cuts, max_exact):
    """Any split of a series into batches, single observations and
    queries in between (past the sketch switch, samples wait in the
    buffer until it fills or a query comes) leaves the state one
    ``QuantileSketch.add`` per sample leaves, and the buffer never holds
    more than ``max_exact`` samples."""
    bulk = capped_histogram(max_exact)
    bounds = sorted(dict(cuts).items()) + [(len(values), "batch")]
    lo = 0
    for hi, how in bounds:
        chunk = values[lo:max(lo, hi)]
        lo = max(lo, hi)
        if how.startswith("one by one"):
            for v in chunk:
                bulk.observe(v)
                assert bulk._n <= len(bulk._buf) <= max_exact
        else:
            bulk.observe_many(np.asarray(chunk, dtype=np.float64))
            assert bulk._n <= len(bulk._buf) <= max_exact
        if how.endswith("query"):
            bulk.percentile(50.0)
        elif how.endswith("count"):
            bulk.count_above(0.5)
    assert full_state(bulk) == full_state(
        scalar_histogram(values, max_exact))


def test_observe_many_across_the_exact_sample_cap():
    rng = np.random.default_rng(2)
    values = rng.lognormal(-3.0, 1.5, 3 * 8192 + 17)
    values[::97] = 0.0
    bulk = Histogram()
    for chunk in np.array_split(values, 11):
        bulk.observe_many(chunk)
    bulk.percentile(50.0)
    assert bulk._sketch is not None
    assert full_state(bulk) == full_state(
        scalar_histogram(values.tolist(), 8192))


@given(values=st.lists(samples, max_size=80),
       max_buckets=st.integers(2, 12))
@example(values=[1.0, 2.0, 4.0, 8.0, 16.0, 32.0], max_buckets=2)
def test_add_many_equals_add_past_max_buckets(values, max_buckets):
    bulk = QuantileSketch(max_buckets=max_buckets)
    one_by_one = QuantileSketch(max_buckets=max_buckets)
    half = len(values) // 2
    bulk.add_many(values[:half])
    bulk.add_many(np.asarray(values[half:], dtype=np.float64))
    for v in values:
        one_by_one.add(v)
    assert sketch_state(bulk) == sketch_state(one_by_one)
    assert ([bulk.percentile(q) for q in (0.0, 10.0, 50.0, 99.0, 100.0)]
            == [one_by_one.percentile(q)
                for q in (0.0, 10.0, 50.0, 99.0, 100.0)])


def test_bucket_keys_at_exact_bucket_edges():
    # gamma ** k sits on the edge between buckets k and k + 1: the place
    # where np.log and math.log may round the quotient to either side.
    sketch = QuantileSketch()
    edges = [sketch._gamma ** k for k in range(-400, 400)]
    bulk = QuantileSketch()
    bulk.add_many(edges)
    expected = {}
    for v in edges:
        key = math.ceil(math.log(v) / sketch._log_gamma)
        expected[key] = expected.get(key, 0) + 1
    assert bulk._buckets == expected


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
        assert len(changed) == 1 and changed[0].resolved_at_s is None
        assert changed[0].fired_at_s == 2.0
        r.set_gauge(PS_SERVERS_ALIVE_G, 2.0)  # recovered
        # Advance past the short window so the bad probe ages out.
        changed = engine.evaluate(12.0, r)
        changed = engine.evaluate(17.0, r) or changed
        resolved = [a for a in changed if a.resolved_at_s is not None]
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
        assert sorted(doc["telemetry"]) == ["alerts", "slos", "window_s"]
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

    def test_top_n_folds_tail(self, monkeypatch):
        monkeypatch.setattr(critical, "TOP_N", 2)
        t = Tracer()
        for i in range(5):
            t.add("driver", "stages", f"stage {i}",
                  float(i), float(i) + 1.0,
                  {"stage": i, "kind": f"k{i}", "tasks": 1})
        report = critical_path(t.spans(), 5.0)
        table = report.table()
        assert len(table) == 3
        assert table[-1].label == "(other)"
        assert sum(r.pct for r in table) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# the collector only observes
# ----------------------------------------------------------------------

def _on_alerts_track(span):
    return (span["component"], span["track"]) == ("driver", "alerts")


def _without_alerts(record):
    """``record`` without the instants on the driver's ``alerts`` track."""
    return {**record, "spans": [s for s in record["spans"]
                                if not _on_alerts_track(s)]}


def test_the_collector_only_observes():
    """``telemetry-chaos-pagerank`` is ``chaos-pagerank`` plus
    ``--record``, which attaches the collector: every stage and the run's
    answer stay the same, apart from the collector's alert instants."""
    plain, observed = (run_workload(name, DEFAULT_SEED) for name in
                       ("chaos-pagerank", "telemetry-chaos-pagerank"))
    assert "telemetry" in observed and "telemetry" not in plain
    assert any(_on_alerts_track(s) for s in observed["spans"])
    one, two = (segments(_without_alerts(r)) for r in (plain, observed))
    for key in ("output", "output_crc", "sim_time_s", "stats", "iterations"):
        assert dict(one)[key] == dict(two)[key], key
    stages = [seg for seg in one if seg[0] not in plain]
    assert stages and stages == [seg for seg in two if seg[0] not in observed]


# ----------------------------------------------------------------------
# the record's views + CLIs
# ----------------------------------------------------------------------

def _empty_record(**sections):
    return {"schema": "repro.record/v1", "lines": [], "errors": [],
            "sim_time_s": 1.0, "spans": [],
            "metrics": metrics_to_dict(MetricsRegistry()), **sections}


def _span(**fields):
    return {"component": "driver", "track": "stages", "name": "stage 0",
            "start_s": 0.0, "end_s": 1.0, "kind": "span", **fields}


class TestObsCli:
    def _write_doc(self, tmp_path):
        *_, record = _chaos_telemetry_run()
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        return path

    def test_report_writes_every_view(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_doc(tmp_path)
        out = tmp_path / "views"
        rc = main(["report", str(src), "--out", str(out),
                   "--require-alert", "1"])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.json", "telemetry.json", "timeline.txt", "trace.json"]
        doc = json.loads((out / "telemetry.json").read_text())
        assert sorted(doc["telemetry"]) == ["alerts", "slos", "window_s"]
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
        _empty_record(spans=[_span(tags=[1, 2])]),
        _empty_record(spans=[_span(tags="x")]),
        _empty_record(telemetry={"window_s": 5.0, "slos": [1],
                                 "alerts": []}),
    ], ids=["list", "telemetry-list", "telemetry-document", "spans-object",
            "sim-time-string", "record-telemetry-list", "slos-object",
            "span-without-fields", "span-tags-list", "span-tags-string",
            "slo-entry-not-object"])
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
