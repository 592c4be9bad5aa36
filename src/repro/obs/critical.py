"""Critical-path profiler over recorded span trees.

Attributes every simulated second between t=0 and end-of-run to a stage
operator or a driver-side activity, so a run report can answer "where did
the time go?" with a table that sums to 100% — the methodology the
distributed-graph-systems measurement literature asks of end-to-end
numbers.

The driver's ``stages`` track tiles the run timeline (the scheduler is
sequential), so the profile walks it in two passes:

* **Inside a stage** — the *critical executor* (largest serial busy
  time) determined the barrier, so the stage's wall duration is split
  across that executor's per-task detail spans (``ps.pull``,
  ``shuffle.write``, ``rpc.*`` ...) proportionally to their *exclusive*
  times (nested spans subtracted, flamegraph-style); the remainder is
  task compute.
* **Between stages** — gaps are attributed to overlapping driver-track
  spans (PS recovery, driver-side agent ops, in priority order); any
  remainder is explicit ``driver:idle`` rather than silently dropped.

Because the catch-all rows are part of the table, coverage is 100% by
construction and the acceptance bar (>= 95% of end-to-end sim time
accounted for) is a structural property, not luck.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.tracer import INSTANT, Span

#: Driver tracks consulted (in priority order) to explain inter-stage
#: gaps.  "phases"/"iterations" overlap stages and are skipped.
_GAP_TRACKS: Tuple[str, ...] = ("recovery", "ps-agent")

_KIND_SUFFIX = re.compile(r"-\d+$")

Interval = Tuple[float, float]


def _normalize_kind(kind: str) -> str:
    """Fold per-instance stage kinds ("shuffle-3") onto one label."""
    return _KIND_SUFFIX.sub("", kind)


def _subtract(intervals: List[Interval],
              cut: Interval) -> List[Interval]:
    """Remove ``cut`` from a list of disjoint intervals."""
    lo, hi = cut
    out: List[Interval] = []
    for a, b in intervals:
        if hi <= a or b <= lo:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


def _exclusive_times(spans: List[Span]) -> Dict[str, float]:
    """Per-name exclusive (self) time for one serial track.

    Spans on a detail track form a properly nested serial timeline;
    classic flamegraph accounting: a span's exclusive time is its
    duration minus the total duration of its direct children.
    """
    ordered = sorted(spans, key=lambda s: (s.start_s, -s.end_s))
    out: Dict[str, float] = defaultdict(float)
    stack: List[List[float]] = []  # [end_s, child_total, duration, idx]
    names: List[str] = []
    eps = 1e-12

    def pop() -> None:
        end_s, child_total, duration = stack.pop()
        name = names.pop()
        out[name] += max(0.0, duration - child_total)
        if stack:
            stack[-1][1] += duration

    for span in ordered:
        while stack and span.start_s >= stack[-1][0] - eps:
            pop()
        stack.append([span.end_s, 0.0, span.duration_s])
        names.append(span.name)
    while stack:
        pop()
    return dict(out)


@dataclass
class PathRow:
    """One aggregated critical-path table row."""

    label: str
    seconds: float
    pct: float

    def to_dict(self) -> Dict[str, object]:
        return {"label": self.label, "seconds": self.seconds,
                "pct": self.pct}


#: Rows :meth:`CriticalPathReport.table` shows before its "(other)" tail.
TOP_N = 25


@dataclass
class CriticalPathReport:
    """Full attribution of end-to-end sim time."""

    sim_time_s: float
    rows: List[PathRow]          # every row, sorted by seconds desc

    @property
    def covered_s(self) -> float:
        """Seconds the table accounts for (== sim_time by construction)."""
        return sum(r.seconds for r in self.rows)

    @property
    def covered_pct(self) -> float:
        """Coverage as a percentage of end-to-end sim time."""
        if self.sim_time_s <= 0.0:
            return 100.0
        return 100.0 * self.covered_s / self.sim_time_s

    def table(self) -> List[PathRow]:
        """Top :data:`TOP_N` rows plus an "(other)" tail so the table sums
        to 100%."""
        if len(self.rows) <= TOP_N:
            return list(self.rows)
        head = self.rows[:TOP_N]
        tail_s = sum(r.seconds for r in self.rows[TOP_N:])
        tail_pct = sum(r.pct for r in self.rows[TOP_N:])
        return head + [PathRow("(other)", tail_s, tail_pct)]

    def to_dict(self) -> Dict[str, object]:
        return {
            "sim_time_s": self.sim_time_s,
            "covered_s": self.covered_s,
            "covered_pct": self.covered_pct,
            "rows": [r.to_dict() for r in self.rows],
            "table": [r.to_dict() for r in self.table()],
        }


def critical_path(spans: Sequence[Span],
                  sim_time_s: float) -> CriticalPathReport:
    """Attribute ``sim_time_s`` across stages/operators from span trees."""
    alloc: Dict[Tuple[str, str], float] = defaultdict(float)
    if sim_time_s <= 0.0:
        return CriticalPathReport(sim_time_s, [])

    stages = sorted(
        (s for s in spans
         if s.component == "driver" and s.track == "stages"
         and s.kind != INSTANT),
        key=lambda s: (s.start_s, s.end_s),
    )

    # ---- inside stages: split by the critical executor's operators ----
    tasks_by_stage: Dict[int, List[Span]] = defaultdict(list)
    details: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
    for s in spans:
        if s.track == "tasks" and s.tags and "stage" in s.tags:
            tasks_by_stage[int(s.tags["stage"])].append(s)
        elif s.track.startswith("s") and ".p" in s.track:
            details[(s.component, s.track)].append(s)

    covered_hi = 0.0  # how far the stage tiling reached
    gaps: List[Interval] = []
    for stage in stages:
        start = max(stage.start_s, covered_hi)
        end = min(stage.end_s, sim_time_s)
        if start > covered_hi:
            gaps.append((covered_hi, start))
        duration = max(0.0, end - start)
        covered_hi = max(covered_hi, end)
        if duration <= 0.0:
            continue
        sid = int(stage.tags.get("stage", -1)) if stage.tags else -1
        kind = _normalize_kind(
            str(stage.tags.get("kind", "stage"))) if stage.tags else "stage"
        _attribute_stage(alloc, kind, sid, duration,
                         tasks_by_stage.get(sid, ()), details)
    if covered_hi < sim_time_s:
        gaps.append((covered_hi, sim_time_s))

    # ---- between stages: recovery, driver-side agent ops, idle -------
    gap_spans: Dict[str, List[Span]] = {
        track: sorted(
            (s for s in spans
             if s.component == "driver" and s.track == track
             and s.kind != INSTANT),
            key=lambda s: (s.start_s, s.end_s),
        )
        for track in _GAP_TRACKS
    }
    for gap in gaps:
        remaining = [gap]
        for track in _GAP_TRACKS:
            for s in gap_spans[track]:
                nxt: List[Interval] = []
                for a, b in remaining:
                    lo = max(a, s.start_s)
                    hi = min(b, s.end_s)
                    if hi > lo:
                        alloc[(track, s.name)] += hi - lo
                        nxt.extend(_subtract([(a, b)], (lo, hi)))
                    else:
                        nxt.append((a, b))
                remaining = nxt
        for a, b in remaining:
            if b > a:
                alloc[("driver", "idle")] += b - a

    # ---- assemble report ---------------------------------------------
    rows = sorted(
        (PathRow(f"{group}:{op}", secs, 100.0 * secs / sim_time_s)
         for (group, op), secs in alloc.items()),
        key=lambda r: (-r.seconds, r.label),
    )
    return CriticalPathReport(sim_time_s, rows)


def _attribute_stage(alloc: Dict[Tuple[str, str], float], kind: str,
                     sid: int, duration: float,
                     task_spans: Iterable[Span],
                     details: Dict[Tuple[str, str], List[Span]]) -> None:
    """Split one stage's wall duration across its critical executor."""
    busy: Dict[str, float] = defaultdict(float)
    for s in task_spans:
        busy[s.component] += s.duration_s
    if not busy:
        alloc[(kind, "compute")] += duration
        return
    # Deterministic tie-break: largest busy, then lexicographic id.
    critical = max(busy, key=lambda c: (busy[c], c))
    prefix = f"s{sid}.p"
    detail_spans: List[Span] = []
    for (component, track), track_spans in details.items():
        if component == critical and track.startswith(prefix):
            detail_spans.extend(
                _exclusive_per_track(track_spans))
    if not detail_spans:
        alloc[(kind, "compute")] += duration
        return
    ops: Dict[str, float] = defaultdict(float)
    total = 0.0
    for name, excl in detail_spans:
        op = "compute" if name == "task" else name
        ops[op] += excl
        total += excl
    if total <= 0.0:
        alloc[(kind, "compute")] += duration
        return
    for op, excl in ops.items():
        alloc[(kind, op)] += duration * (excl / total)


def _exclusive_per_track(track_spans: List[Span]
                         ) -> List[Tuple[str, float]]:
    """(name, exclusive seconds) pairs for one detail track."""
    return list(_exclusive_times(track_spans).items())
