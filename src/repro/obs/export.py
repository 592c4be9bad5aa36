"""Exporters for recorded traces and metrics.

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome tracing
  JSON format (open in ``chrome://tracing`` or https://ui.perfetto.dev).
  Each simulated container becomes one "process", each track one "thread",
  and spans are placed at their *simulated* timestamps.
* :func:`timeline_report` — a plain-text per-stage / per-iteration
  breakdown of where simulated time went.
* :func:`metrics_to_dict` — a JSON-ready dump of every counter, gauge and
  histogram in a :class:`~repro.common.metrics.MetricsRegistry`.
* :func:`spans_to_json` / :func:`spans_from_json` — the lossless span
  form a run record (:mod:`repro.obs.record`) stores.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.common.metrics import MetricsRegistry
from repro.obs.tracer import INSTANT, NoopTracer, Span, Tracer

TracerOrSpans = Union[Tracer, NoopTracer, Sequence[Span]]


def _as_spans(source: TracerOrSpans) -> List[Span]:
    if hasattr(source, "spans"):
        return source.spans()  # type: ignore[union-attr]
    return list(source)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

def chrome_trace(source: TracerOrSpans) -> Dict[str, object]:
    """Build a Chrome-tracing document from recorded spans.

    Components map to integer ``pid`` rows and tracks to integer ``tid``
    rows (Chrome requires numbers); ``process_name`` / ``thread_name``
    metadata events carry the human-readable labels.  Sim-time seconds are
    exported as microseconds, the unit the trace viewer expects.
    """
    spans = _as_spans(source)
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    events: List[Dict[str, object]] = []

    def pid_of(component: str) -> int:
        if component not in pids:
            pids[component] = len(pids) + 1
            events.append({
                "ph": "M", "name": "process_name", "pid": pids[component],
                "tid": 0, "args": {"name": component},
            })
        return pids[component]

    def tid_of(component: str, track: str) -> int:
        key = (component, track)
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid_of(component),
                "tid": tids[key], "args": {"name": track},
            })
        return tids[key]

    for span in spans:
        event: Dict[str, object] = {
            "name": span.name,
            "pid": pid_of(span.component),
            "tid": tid_of(span.component, span.track),
            "ts": span.start_s * 1e6,
        }
        if span.kind == INSTANT:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.duration_s * 1e6
        if span.tags:
            event["args"] = dict(span.tags)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, source: TracerOrSpans) -> int:
    """Write the Chrome trace JSON to a local file; returns event count."""
    doc = chrome_trace(source)
    with open(path, "w") as f:
        json.dump(doc, f)
    return len(doc["traceEvents"])  # type: ignore[arg-type]


def validate_chrome_trace(doc: Dict[str, object]) -> List[str]:
    """Structural checks on a Chrome-trace document; returns problems.

    Verifies what the trace viewer silently mis-renders when violated:
    every event carries a phase; ``X`` events have numeric non-negative
    ``ts``/``dur`` and integer ``pid``/``tid``; ``B``/``E`` events match
    per (pid, tid); instants carry a scope; metadata events name their
    process/thread; and on every thread the ``X`` events — sorted onto
    the timeline — are either disjoint or properly nested (our tracks
    are serial sim timelines, so a partial overlap means a corrupted
    trace).  An empty list means valid.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    open_stacks: Dict[Tuple[int, int], List[str]] = {}
    x_by_thread: Dict[Tuple[int, int],
                      List[Tuple[float, float, str]]] = {}
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None:
            problems.append(f"event[{i}]: missing ph")
            continue
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                problems.append(
                    f"event[{i}]: unknown metadata {e.get('name')!r}")
            elif "name" not in (e.get("args") or {}):
                problems.append(f"event[{i}]: metadata without args.name")
            continue
        for field in ("pid", "tid"):
            if not isinstance(e.get(field), int):
                problems.append(f"event[{i}]: non-integer {field}")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event[{i}]: bad ts {ts!r}")
            continue
        key = (e.get("pid"), e.get("tid"))
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event[{i}]: bad dur {dur!r}")
            else:
                x_by_thread.setdefault(key, []).append(
                    (float(ts), float(ts) + float(dur),
                     str(e.get("name"))))
        elif ph == "B":
            open_stacks.setdefault(key, []).append(str(e.get("name")))
        elif ph == "E":
            stack = open_stacks.get(key)
            if not stack:
                problems.append(f"event[{i}]: E without matching B")
            else:
                stack.pop()
        elif ph == "i":
            if e.get("s") not in ("t", "p", "g"):
                problems.append(f"event[{i}]: instant without scope")
        else:
            problems.append(f"event[{i}]: unsupported phase {ph!r}")
    for key, stack in open_stacks.items():
        if stack:
            problems.append(f"thread {key}: {len(stack)} unclosed B event(s)")
    eps = 1e-6  # one picosecond in exported microseconds
    for key, spans in x_by_thread.items():
        stack: List[Tuple[float, float, str]] = []
        for start, end, name in sorted(spans,
                                       key=lambda s: (s[0], -s[1])):
            while stack and start >= stack[-1][1] - eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                problems.append(
                    f"thread {key}: {name!r} [{start}, {end}] partially "
                    f"overlaps {stack[-1][2]!r} ending {stack[-1][1]}")
            stack.append((start, end, name))
    return problems


# ----------------------------------------------------------------------
# span JSON round-trip
# ----------------------------------------------------------------------

def spans_to_json(source: TracerOrSpans) -> List[Dict[str, object]]:
    """All spans as JSON-ready dicts (recording order preserved)."""
    return [{"component": s.component, "track": s.track, "name": s.name,
             "start_s": s.start_s, "end_s": s.end_s,
             "tags": dict(s.tags) if s.tags else None, "kind": s.kind}
            for s in _as_spans(source)]


def spans_from_json(docs: Iterable[Dict[str, object]]) -> List[Span]:
    """Rebuild spans from :func:`spans_to_json` output."""
    return [Span(component=str(d["component"]), track=str(d["track"]),
                 name=str(d["name"]), start_s=float(d["start_s"]),
                 end_s=float(d["end_s"]), tags=d.get("tags"),
                 kind=str(d.get("kind", "span"))) for d in docs]


# ----------------------------------------------------------------------
# plain-text timeline
# ----------------------------------------------------------------------

def timeline_report(source: TracerOrSpans,
                    sim_time_s: float | None = None) -> str:
    """Per-stage and per-iteration breakdown of simulated time.

    Args:
        source: a tracer or span list.
        sim_time_s: the run's final simulated time; when given, the report
            footer compares it against the summed stage spans (stages tile
            the driver timeline, so their sum is at most the run time).
    """
    driver = [s for s in _as_spans(source) if s.component == "driver"]
    stages = sorted((s for s in driver if s.track == "stages"),
                    key=lambda s: (s.start_s, s.end_s))
    marks = sorted((s for s in driver if s.track == "iterations"),
                   key=lambda s: s.start_s)
    lines: List[str] = []

    lines.append("== per-stage timeline (sim seconds) ==")
    if stages:
        lines.append(f"{'stage':>6} {'kind':<20} {'start':>10} {'end':>10} "
                     f"{'dur':>9} {'tasks':>6}")
        for s in stages:
            tags = s.tags or {}
            lines.append(
                f"{str(tags.get('stage', '?')):>6} "
                f"{str(tags.get('kind', '?')):<20} "
                f"{s.start_s:>10.4f} {s.end_s:>10.4f} "
                f"{s.duration_s:>9.4f} {str(tags.get('tasks', '?')):>6}"
            )
    else:
        lines.append("(no stage spans recorded)")

    if marks:
        lines.append("")
        lines.append("== per-iteration timeline (sim seconds) ==")
        lines.append(f"{'iter':>6} {'start':>10} {'end':>10} {'dur':>9} "
                     f"{'stages':>7} {'stage_s':>9}")
        prev = 0.0
        for mark in marks:
            in_iter = [s for s in stages if prev <= s.start_s < mark.start_s]
            tags = mark.tags or {}
            lines.append(
                f"{str(tags.get('epoch', '?')):>6} "
                f"{prev:>10.4f} {mark.start_s:>10.4f} "
                f"{mark.start_s - prev:>9.4f} "
                f"{len(in_iter):>7} "
                f"{sum(s.duration_s for s in in_iter):>9.4f}"
            )
            prev = mark.start_s

    lines.append("")
    stage_total = sum(s.duration_s for s in stages)
    lines.append(f"stage span total : {stage_total:.4f} s "
                 f"({len(stages)} stages)")
    if sim_time_s is not None:
        covered = stage_total / sim_time_s if sim_time_s > 0 else 0.0
        lines.append(f"run sim-time     : {sim_time_s:.4f} s "
                     f"(stages cover {covered:.1%})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# metrics dump
# ----------------------------------------------------------------------

def metrics_to_dict(metrics: MetricsRegistry) -> Dict[str, object]:
    """Structured dump of one registry: counters, gauges, histograms."""
    return {
        "counters": metrics.snapshot(),
        "gauges": metrics.gauge_snapshot(),
        "histograms": {
            name: hist.summary() for name, hist in metrics.histograms()
        },
    }

