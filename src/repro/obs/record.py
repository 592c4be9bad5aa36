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
#: The collector's dump, as the telemetry view and the alert gate read it.
_TELEMETRY = {"slos": list, "alerts": list}
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
    telemetry = record.get("telemetry", {})
    for key in _TELEMETRY:
        if not all(isinstance(row, dict) for row in telemetry.get(key, [])):
            raise ValueError(f"an entry of {key!r} is not an object")
    try:
        spans = spans_from_json(record["spans"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed span: {e!r}") from None
    if not all(isinstance(s.tags, (dict, type(None))) for s in spans):
        raise ValueError("malformed span: tags must be an object or null")
    return record, spans


def telemetry_doc(record: Dict[str, object],
                  spans: List[Span]) -> Dict[str, object]:
    """The telemetry document — run meta, sim time, the collector's dump,
    the critical-path profile over ``spans`` and the chaos report — that
    ``repro report`` writes and summarizes.  Its keys are
    sorted at every level, as ``telemetry.json`` stores them."""
    sim_time_s = record["sim_time_s"]
    doc = {"schema": "repro.telemetry/v1", "meta": record.get("meta", {}),
           "sim_time_s": sim_time_s,
           "telemetry": record.get("telemetry", {}),
           "critical_path": critical_path(
               spans, sim_time_s).to_dict()}  # type: ignore[arg-type]
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
    if "report" in record:
        views["report.json"] = _dump(record["report"])
    return views


def summary_lines(doc: Dict[str, object]) -> List[str]:
    """The plain-text summary of one telemetry document: run meta, SLO
    states, alerts, fault detection and the top 10 critical-path rows."""
    telemetry = doc.get("telemetry", {})
    meta = doc.get("meta", {})
    lines = []
    if meta:
        lines.append("run       : " + " ".join(
            f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append(f"sim time  : {doc.get('sim_time_s', 0.0):.3f} s")
    for row in telemetry.get("slos", []):
        lines.append(
            f"slo       : {row.get('name'):<24} {row.get('state'):<10}"
            f" alerts={row.get('alerts')} "
            f"max_burn={row.get('max_burn_long', 0.0):.2f}"
        )
    for a in telemetry.get("alerts", []):
        resolved = a.get("resolved_at_s")
        tail = (f"resolved at {resolved:.3f} s"
                if isinstance(resolved, (int, float)) else "still firing")
        lines.append(
            f"alert     : {a.get('slo')} fired at "
            f"{a.get('fired_at_s', 0.0):.3f} s, {tail}"
        )
    for row in (doc.get("chaos") or {}).get("detection", []):
        if row.get("detected_at_s") is None:
            lines.append(f"fault     : {row.get('kind')} -> "
                         f"{row.get('target')}: NOT detected")
        else:
            lines.append(
                f"fault     : {row.get('kind')} -> {row.get('target')} "
                f"detected by {row.get('slo')} after "
                f"{row.get('detection_delay_s', 0.0):.3f} s"
            )
    cp = doc.get("critical_path")
    if isinstance(cp, dict):
        lines.append(f"critical  : table covers "
                     f"{cp.get('covered_pct', 0.0):.2f}% of sim time")
        for row in cp.get("table", [])[:10]:
            lines.append(
                f"  {row.get('pct', 0.0):6.2f}%  "
                f"{row.get('seconds', 0.0):10.4f} s  {row.get('label')}"
            )
    return lines
