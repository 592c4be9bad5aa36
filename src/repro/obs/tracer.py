"""Sim-time span tracing.

A :class:`Tracer` records *spans* — named intervals of simulated time owned
by one component (a container such as ``executor-3``, ``ps-server-1`` or the
driver) on one *track* (a sub-timeline within the component, e.g. the
executor's ``tasks`` row or one task's own row).  Because every metered
operation in the simulator advances a :class:`~repro.common.simclock.SimClock`
or charges a :class:`~repro.common.simclock.TaskCost`, span boundaries are
read from those, never from the wall clock: exported traces show the
*simulated* schedule of the cluster.

The default tracer everywhere is :data:`NOOP_TRACER`, whose methods do
nothing and allocate nothing, so instrumented code paths cost a single
attribute check when tracing is off and benchmark numbers are unchanged.

Span placement conventions used across the code base (see
``docs/observability.md``):

* ``component`` is the simulated process: a container id or ``"driver"``.
* ``track`` is a row inside that process.  Stage spans live on the driver's
  ``stages`` track; the compressed parallel view of an executor's work is
  its ``tasks`` track; each task attempt additionally owns a serial detail
  track named ``s<stage>.p<partition>`` on which its shuffle / PS / HDFS
  sub-operations nest.
* sim-time seconds go in ``start_s`` / ``end_s``; exporters convert to the
  microseconds Chrome tracing expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.simclock import SimClock, TaskCost

#: Span kinds: ``"span"`` is an interval, ``"instant"`` a point event.
SPAN = "span"
INSTANT = "instant"


@dataclass
class Span:
    """One recorded interval (or instant) of simulated time.

    Attributes:
        component: simulated process the span belongs to (container id).
        track: timeline row within the component.
        name: operation name, e.g. ``"stage"`` or ``"ps.pull"``.
        start_s: sim-time start, in seconds.
        end_s: sim-time end; equals ``start_s`` for instants.
        tags: free-form labels exported as Chrome-trace ``args``.
        kind: :data:`SPAN` or :data:`INSTANT`.
    """

    component: str
    track: str
    name: str
    start_s: float
    end_s: float
    tags: Optional[Dict[str, object]] = None
    kind: str = SPAN

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds."""
        return self.end_s - self.start_s


class _NoopSpanScope:
    """Reusable do-nothing context manager returned by the no-op tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpanScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: Shared no-op scope: returned wherever a span cannot or need not record.
NOOP_SCOPE = _NoopSpanScope()


class NoopTracer:
    """Tracing disabled: every method is a cheap no-op.

    This is the default tracer threaded through all subsystems.  Hot paths
    guard any span bookkeeping behind ``tracer.enabled`` so a disabled run
    pays at most one attribute lookup per instrumented operation.
    """

    enabled = False

    def add(self, component: str, track: str, name: str, start_s: float,
            end_s: float, tags: Optional[Dict[str, object]] = None) -> None:
        """Record a completed span (no-op)."""

    def instant(self, component: str, track: str, name: str, ts_s: float,
                tags: Optional[Dict[str, object]]) -> None:
        """Record a point event (no-op)."""

    def clock_span(self, component: str, track: str, name: str,
                   clock: SimClock,
                   tags: Optional[Dict[str, object]]):
        """Span covering a clock-advancing region (no-op scope)."""
        return NOOP_SCOPE

    def cost_span(self, component: str, track: str, name: str,
                  cost: TaskCost, base_s: float,
                  tags: Optional[Dict[str, object]] = None):
        """Span covering a cost-charging region (no-op scope)."""
        return NOOP_SCOPE

    def spans(self) -> List[Span]:
        """Recorded spans (always empty for the no-op tracer)."""
        return []


#: Shared default tracer instance.
NOOP_TRACER = NoopTracer()


class _ClockSpanScope:
    """Context manager recording a span between two clock readings."""

    __slots__ = ("_tracer", "_component", "_track", "_name", "_clock",
                 "_tags", "_start")

    def __init__(self, tracer: "Tracer", component: str, track: str,
                 name: str, clock: SimClock,
                 tags: Optional[Dict[str, object]]) -> None:
        self._tracer = tracer
        self._component = component
        self._track = track
        self._name = name
        self._clock = clock
        self._tags = tags
        self._start = 0.0

    def __enter__(self) -> "_ClockSpanScope":
        self._start = self._clock.now_s
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.add(self._component, self._track, self._name,
                         self._start, self._clock.now_s, self._tags)


class _CostSpanScope:
    """Context manager placing a span on a task's serial cost timeline.

    During a simulated task the owning clock stands still and work is
    accumulated on a :class:`TaskCost`; an operation charging that cost
    therefore occupies ``[base + cost_before, base + cost_after]`` on the
    task's own timeline, where ``base`` is the executor clock at task start.
    """

    __slots__ = ("_tracer", "_component", "_track", "_name", "_cost",
                 "_base", "_tags", "_before")

    def __init__(self, tracer: "Tracer", component: str, track: str,
                 name: str, cost: TaskCost, base_s: float,
                 tags: Optional[Dict[str, object]]) -> None:
        self._tracer = tracer
        self._component = component
        self._track = track
        self._name = name
        self._cost = cost
        self._base = base_s
        self._tags = tags
        self._before = 0.0

    def __enter__(self) -> "_CostSpanScope":
        self._before = self._cost.total_s
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.add(
            self._component, self._track, self._name,
            self._base + self._before, self._base + self._cost.total_s,
            self._tags,
        )


@dataclass
class Tracer:
    """Recording tracer: collects :class:`Span` objects in memory."""

    _spans: List[Span] = field(default_factory=list, init=False)

    enabled = True

    def add(self, component: str, track: str, name: str, start_s: float,
            end_s: float, tags: Optional[Dict[str, object]] = None) -> None:
        """Record a completed span with explicit boundaries."""
        self._spans.append(
            Span(component, track, name, start_s, end_s, tags)
        )

    def instant(self, component: str, track: str, name: str, ts_s: float,
                tags: Optional[Dict[str, object]]) -> None:
        """Record a point event at sim-time ``ts_s``."""
        self._spans.append(
            Span(component, track, name, ts_s, ts_s, tags, kind=INSTANT)
        )

    def clock_span(self, component: str, track: str, name: str,
                   clock: SimClock,
                   tags: Optional[Dict[str, object]]
                   ) -> _ClockSpanScope:
        """Span whose boundaries are read from ``clock`` at enter/exit.

        Use for regions that advance a container clock directly (PS server
        compute, checkpoint IO, container restarts).
        """
        return _ClockSpanScope(self, component, track, name, clock, tags)

    def cost_span(self, component: str, track: str, name: str,
                  cost: TaskCost, base_s: float,
                  tags: Optional[Dict[str, object]] = None) -> _CostSpanScope:
        """Span whose boundaries are read from ``cost`` relative to
        ``base_s`` (the executor clock at task start).

        Use for regions that charge a running task's cost accumulator
        (shuffle write/fetch, PS pull/push, HDFS IO inside a task).
        """
        return _CostSpanScope(self, component, track, name, cost, base_s,
                              tags)

    def spans(self) -> List[Span]:
        """All recorded spans, in recording order."""
        return list(self._spans)
