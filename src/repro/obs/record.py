"""The run record: one JSON document per ``repro run | serve | stream``.

It is the pipeline's result document (report lines, gate errors, sim
time, meta, the serve / stream report, the chaos report, CRC digests and
the telemetry collector's dump) plus every span and the metrics dump,
each stored once.  ``--record`` writes it, the determinism harness
snapshots it, and ``repro report`` derives every view from it.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Dict, List, Tuple

from repro.common.metrics import MetricsRegistry
from repro.obs.critical import critical_path
from repro.obs.dashboard import render_dashboard
from repro.obs.export import (
    chrome_trace, metrics_to_dict, spans_from_json, spans_to_json,
    timeline_report)
from repro.obs.tracer import NoopTracer, Span

SCHEMA = "repro.record/v1"

#: Section -> JSON type; the first five are in every record.
_SECTIONS = {"lines": list, "errors": list, "sim_time_s": (int, float),
             "spans": list, "metrics": dict, "meta": dict, "report": dict,
             "chaos": dict, "telemetry": dict}
_REQUIRED = ("lines", "errors", "sim_time_s", "spans", "metrics")
#: The collector's dump, as the telemetry view and dashboard read it.
_TELEMETRY = {"series": dict, "slos": list, "alerts": list}
_dump = partial(json.dumps, indent=2, sort_keys=True)


def build_record(doc: Dict[str, object], tracer: NoopTracer,
                 metrics: MetricsRegistry) -> Dict[str, object]:
    """The record of one finished run: its result document ``doc``, the
    tracer's spans and the registry's dump."""
    return {"schema": SCHEMA, **doc, "spans": spans_to_json(tracer),
            "metrics": metrics_to_dict(metrics)}


def read_record(path: str) -> Tuple[Dict[str, object], List[Span]]:
    """Load a record and its spans; ``ValueError`` if it is not one."""
    with open(path) as f:
        record = json.load(f)
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"not a run record (schema={schema!r})")
    checks = [(record, key, kind) for key, kind in _SECTIONS.items()
              if key in record or key in _REQUIRED]
    if isinstance(record.get("telemetry"), dict):
        checks += [(record["telemetry"], *kv) for kv in _TELEMETRY.items()]
    for doc, key, kind in checks:
        if not isinstance(doc.get(key), kind):
            raise ValueError(f"section {key!r} is missing or mistyped")
    try:
        return record, spans_from_json(record["spans"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed span: {e!r}") from None


def telemetry_doc(record: Dict[str, object],
                  spans: List[Span]) -> Dict[str, object]:
    """The telemetry document — run meta, sim time, the collector's dump,
    the critical-path profile over ``spans`` and the chaos report — that
    the dashboard renders and ``repro report`` summarizes.  Its keys are
    sorted at every level, as ``telemetry.json`` stores them."""
    sim_time_s = record["sim_time_s"]
    doc = {"schema": "repro.telemetry/v1", "meta": record.get("meta", {}),
           "sim_time_s": sim_time_s,
           "telemetry": record.get("telemetry", {}),
           "critical_path": critical_path(
               spans, sim_time_s, top_n=25).to_dict()}  # type: ignore[arg-type]
    if "chaos" in record:
        doc["chaos"] = record["chaos"]
    return json.loads(json.dumps(doc, sort_keys=True))


def record_views(record: Dict[str, object], spans: List[Span],
                 telemetry: Dict[str, object]) -> Dict[str, str]:
    """Every view the record can give, by file name; ``telemetry`` is
    :func:`telemetry_doc` of the same record."""
    views = {"trace.json": json.dumps(chrome_trace(spans)),
             "metrics.json": _dump(record["metrics"]),
             "timeline.txt": timeline_report(
                 spans, sim_time_s=record["sim_time_s"]) + "\n"}
    if "telemetry" in record:
        views["telemetry.json"] = _dump(telemetry)
        views["dashboard.html"] = render_dashboard(telemetry)
    if "report" in record:
        views["report.json"] = _dump(record["report"])
    return views
