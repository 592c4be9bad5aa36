"""Observability: sim-time tracing, telemetry, SLOs and exporters.

The :mod:`repro.obs` subsystem makes *why one configuration beats another*
observable instead of asserted: a :class:`~repro.obs.tracer.Tracer` records
sim-time spans for every dataflow stage, task attempt, shuffle write/fetch,
PS pull/push/psFunc, RPC, HDFS read/write, checkpoint and container
restart, and exporters turn the recording into a Chrome trace
(``chrome://tracing`` / Perfetto), a plain-text per-stage timeline, or a
JSON metrics dump — views ``repro report`` derives from one run record
(:mod:`repro.obs.record`).  See ``docs/observability.md``.

On top of the raw spans sits the telemetry pipeline: a
:class:`~repro.obs.telemetry.TelemetryCollector` samples windowed
time-series from the metrics registry on sim-clock ticks, an
:class:`~repro.obs.slo.SloEngine` evaluates declarative objectives with
multi-window burn-rate alerting, :func:`~repro.obs.critical.critical_path`
attributes end-to-end sim time to stages and operators, and the
``repro report`` command renders a record's telemetry as a
self-contained HTML dashboard.  :func:`~repro.obs.determinism.segments`
cuts a record into stage segments of exact events, which the determinism
double run and the committed ledger compare.

Tracing is off by default: every subsystem is threaded with
:data:`~repro.obs.tracer.NOOP_TRACER`, whose methods do nothing, so
benchmark numbers are unchanged unless a recording tracer is supplied::

    from repro.obs import Tracer, write_chrome_trace, timeline_report

    tracer = Tracer()
    with PSGraphContext(cluster, tracer=tracer) as ctx:
        GraphRunner(ctx).run(PageRank(), "/input/edges")
        print(timeline_report(tracer, ctx.sim_time()))
        write_chrome_trace("trace.json", tracer)
"""

from repro.obs.critical import CriticalPathReport, critical_path
from repro.obs.export import (
    chrome_trace,
    metrics_to_dict,
    spans_from_json,
    spans_to_json,
    timeline_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.record import (
    build_record, read_record, record_views, telemetry_doc)
from repro.obs.slo import Alert, SloEngine, SloSpec, default_slos
from repro.obs.telemetry import TelemetryCollector, TimeSeriesStore
from repro.obs.tracer import INSTANT, NOOP_TRACER, SPAN, NoopTracer, Span, Tracer

__all__ = [
    "Alert",
    "CriticalPathReport",
    "INSTANT",
    "NOOP_TRACER",
    "SPAN",
    "NoopTracer",
    "SloEngine",
    "SloSpec",
    "Span",
    "TelemetryCollector",
    "TimeSeriesStore",
    "Tracer",
    "build_record",
    "chrome_trace",
    "critical_path",
    "default_slos",
    "metrics_to_dict",
    "read_record",
    "record_views",
    "spans_from_json",
    "spans_to_json",
    "telemetry_doc",
    "timeline_report",
    "validate_chrome_trace",
    "write_chrome_trace",
]
