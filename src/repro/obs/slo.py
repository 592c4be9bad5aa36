"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` states an objective over one metric stream — "99% of
``ps.pull`` latencies under 0.5 sim-s", "99.9% of liveness probes see
every PS server alive" — and the :class:`SloEngine` evaluates it at every
sim-clock tick the :class:`TelemetryCollector` receives.

The simulator is event-driven — there is no wall-clock scrape loop — so
the collector hooks the deterministic sim-time ticks the engine already
produces: stage-end barriers, PS epoch barriers, and recovery detection
(``SparkContext.notify_tick``).  On each tick it evaluates the engine,
mirrors fired alerts into the trace (instants on the driver's ``alerts``
track) and the metrics registry (the ``obs.alerts.fired`` counter), and
at the end dumps SLO states and alerts into the run record
(:mod:`repro.obs.record`), where ``repro report``'s alert gate reads them.

Alerting follows the multi-window burn-rate recipe used for production
SLOs: the *burn rate* is the fraction of events that violated the
objective divided by the error budget (``1 - objective``); an alert fires
only when the burn rate exceeds the rule's threshold over **both** a long
window (sustained damage) and a short window (still happening now), and
resolves once the short window recovers.  Both windows are measured in
simulated seconds, so a seeded run fires exactly the same alerts at
exactly the same sim times every run — the determinism double run
compares them.

Three objective kinds cover the simulator's streams:

* ``latency`` — a histogram plus a threshold; bad events are samples
  above the threshold (diffed via ``Histogram.count_above`` between
  ticks).
* ``ratio`` — two counters; bad/total deltas between ticks (task
  failures over task launches).
* ``availability`` — a liveness gauge probed once per tick; a tick where
  ``alive < expected`` is one bad probe.  This is what turns a chaos
  ``kill_server`` into an alert *between* fault injection and recovery:
  the PS master ticks the collector at detection time, while the gauge
  still reads degraded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.metrics import (
    ALERTS_FIRED,
    EXECUTORS_ALIVE_G,
    MetricsRegistry,
    PS_PULL_LATENCY_H,
    PS_SERVERS_ALIVE_G,
    PS_SERVERS_TOTAL_G,
    TASKS_FAILED,
    TASKS_LAUNCHED,
)
from repro.obs.tracer import NoopTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.context import SparkContext

#: Objective kinds understood by the engine.
SLO_KINDS = ("latency", "ratio", "availability")

#: Default SLO window width in simulated seconds.
DEFAULT_WINDOW_S = 5.0


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective plus its burn-rate alert rule.

    Args:
        name: stable identifier ("ps-availability").
        description: operator-facing one-liner.
        kind: one of :data:`SLO_KINDS`.
        objective: target good-event fraction in (0, 1); the error budget
            is ``1 - objective``.
        histogram / threshold_s: for ``latency`` — samples above the
            threshold are bad.
        bad_counter / total_counter: for ``ratio``.
        alive_gauge / expected_gauge: for ``availability``; when
            ``expected_gauge`` is None the gauge's own high-water mark is
            the expectation (membership discovered at runtime).
        short_windows / long_windows: rule windows in multiples of the
            collector's sampling window.
        burn_threshold: burn rate both windows must exceed to fire.
    """

    name: str
    description: str
    kind: str
    objective: float
    histogram: Optional[str] = None
    threshold_s: float = 0.0
    bad_counter: Optional[str] = None
    total_counter: Optional[str] = None
    alive_gauge: Optional[str] = None
    expected_gauge: Optional[str] = None
    short_windows: int = 1
    long_windows: int = 6
    burn_threshold: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1): {self.objective}"
            )
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError("need 1 <= short_windows <= long_windows")

    @property
    def error_budget(self) -> float:
        """Tolerated bad-event fraction."""
        return 1.0 - self.objective

    def objective_label(self) -> str:
        """Human-readable statement of the objective."""
        pct = self.objective * 100.0
        if self.kind == "latency":
            return (f"{pct:g}% of {self.histogram} samples "
                    f"<= {self.threshold_s:g} sim-s")
        if self.kind == "ratio":
            return (f"{pct:g}% of {self.total_counter} events "
                    f"not in {self.bad_counter}")
        return f"{pct:g}% of probes see {self.alive_gauge} at full strength"


@dataclass
class Alert:
    """One fired burn-rate alert (and, once recovered, its resolution)."""

    slo: str
    fired_at_s: float
    burn_short: float
    burn_long: float
    resolved_at_s: Optional[float] = field(default=None, init=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo,
            "fired_at_s": self.fired_at_s,
            "resolved_at_s": self.resolved_at_s,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
        }


class _SloState:
    """Mutable per-SLO evaluation state."""

    __slots__ = ("spec", "last_total", "last_bad", "windows",
                 "total_events", "bad_events", "burn_short", "burn_long",
                 "max_burn_long", "active_alert")

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.last_total = 0.0
        self.last_bad = 0.0
        # window index -> [good, bad]; pruned to the long window.
        self.windows: "OrderedDict[int, List[float]]" = OrderedDict()
        self.total_events = 0.0
        self.bad_events = 0.0
        self.burn_short = 0.0
        self.burn_long = 0.0
        self.max_burn_long = 0.0
        self.active_alert: Optional[Alert] = None


class SloEngine:
    """Evaluates a set of SLOs on sim-clock ticks and manages alerts."""

    def __init__(self, slos: List[SloSpec], *, window_s: float) -> None:
        if window_s <= 0.0:
            raise ValueError("window_s must be positive")
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.window_s = window_s
        self._states = [_SloState(s) for s in slos]
        self.alerts: List[Alert] = []

    # -- sampling ----------------------------------------------------------

    def _cumulative(self, state: _SloState,
                    metrics: MetricsRegistry) -> Tuple[float, float]:
        """Cumulative (total, bad) event counts for one SLO."""
        spec = state.spec
        if spec.kind == "latency":
            hist = metrics.histogram(spec.histogram)
            return float(hist.count), float(
                hist.count_above(spec.threshold_s))
        if spec.kind == "ratio":
            return (metrics.get(spec.total_counter),
                    metrics.get(spec.bad_counter))
        # availability: one probe per tick against the liveness gauge.
        snap = metrics.gauge_snapshot().get(spec.alive_gauge)
        if snap is None:
            return state.last_total, state.last_bad
        expected = (metrics.get_gauge(spec.expected_gauge)
                    if spec.expected_gauge is not None else snap["high"])
        degraded = snap["value"] < expected
        return (state.last_total + 1.0,
                state.last_bad + (1.0 if degraded else 0.0))

    def _burn(self, state: _SloState, widx: int, n_windows: int) -> float:
        """Burn rate over the last ``n_windows`` sampling windows."""
        lo = widx - n_windows + 1
        good = bad = 0.0
        for w, (g, b) in state.windows.items():
            if w >= lo:
                good += g
                bad += b
        total = good + bad
        if total <= 0.0:
            return 0.0
        return (bad / total) / state.spec.error_budget

    def evaluate(self, now_s: float,
                 metrics: MetricsRegistry) -> List[Alert]:
        """Sample every SLO at sim time ``now_s``; returns state changes.

        The returned list holds alerts that *fired* or *resolved* on this
        tick (an Alert appears once per transition; check
        ``resolved_at_s`` to tell which).
        """
        widx = int(now_s // self.window_s)
        changed: List[Alert] = []
        for state in self._states:
            spec = state.spec
            total, bad = self._cumulative(state, metrics)
            d_total = max(0.0, total - state.last_total)
            d_bad = max(0.0, bad - state.last_bad)
            state.last_total, state.last_bad = total, bad
            state.total_events += d_total
            state.bad_events += d_bad
            if d_total > 0.0:
                cell = state.windows.setdefault(widx, [0.0, 0.0])
                cell[0] += d_total - d_bad
                cell[1] += d_bad
            # Prune windows that fell out of the long window.
            lo = widx - spec.long_windows + 1
            for w in [w for w in state.windows if w < lo]:
                del state.windows[w]
            state.burn_short = self._burn(state, widx, spec.short_windows)
            state.burn_long = self._burn(state, widx, spec.long_windows)
            state.max_burn_long = max(state.max_burn_long, state.burn_long)
            if state.active_alert is None:
                if (state.burn_short >= spec.burn_threshold
                        and state.burn_long >= spec.burn_threshold):
                    alert = Alert(
                        slo=spec.name, fired_at_s=now_s,
                        burn_short=state.burn_short,
                        burn_long=state.burn_long,
                    )
                    state.active_alert = alert
                    self.alerts.append(alert)
                    changed.append(alert)
            elif state.burn_short < spec.burn_threshold:
                state.active_alert.resolved_at_s = now_s
                changed.append(state.active_alert)
                state.active_alert = None
        return changed

    # -- reporting ---------------------------------------------------------

    def status(self) -> List[Dict[str, object]]:
        """Per-SLO status rows for the run record and ``repro report``."""
        rows: List[Dict[str, object]] = []
        for state in self._states:
            spec = state.spec
            fired = [a for a in self.alerts if a.slo == spec.name]
            if state.active_alert is not None:
                verdict = "firing"
            elif fired:
                verdict = "recovered"
            else:
                verdict = "ok"
            rows.append({
                "name": spec.name,
                "kind": spec.kind,
                "description": spec.description,
                "objective": spec.objective,
                "objective_label": spec.objective_label(),
                "burn_threshold": spec.burn_threshold,
                "short_windows": spec.short_windows,
                "long_windows": spec.long_windows,
                "total_events": state.total_events,
                "bad_events": state.bad_events,
                "burn_short": state.burn_short,
                "burn_long": state.burn_long,
                "max_burn_long": state.max_burn_long,
                "alerts": len(fired),
                "state": verdict,
            })
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump: status rows plus the full alert log."""
        return {
            "window_s": self.window_s,
            "slos": self.status(),
            "alerts": [a.to_dict() for a in self.alerts],
        }


def default_slos() -> List[SloSpec]:
    """The stock objectives every telemetry run watches.

    Thresholds are intentionally loose for healthy seeded runs — they are
    regression canaries and fault detectors, not tuning targets.
    """
    return [
        SloSpec(
            name="ps-availability",
            description="every PS server answers health checks",
            kind="availability", objective=0.999,
            alive_gauge=PS_SERVERS_ALIVE_G,
            expected_gauge=PS_SERVERS_TOTAL_G,
            short_windows=1, long_windows=6, burn_threshold=10.0,
        ),
        SloSpec(
            name="executor-availability",
            description="every executor container is alive",
            kind="availability", objective=0.999,
            alive_gauge=EXECUTORS_ALIVE_G,
            short_windows=1, long_windows=6, burn_threshold=10.0,
        ),
        SloSpec(
            name="ps-pull-latency",
            description="agent pull round-trips stay fast",
            kind="latency", objective=0.99,
            histogram=PS_PULL_LATENCY_H, threshold_s=1.0,
            short_windows=2, long_windows=8, burn_threshold=6.0,
        ),
        SloSpec(
            name="task-success",
            description="tasks finish without retries",
            kind="ratio", objective=0.95,
            bad_counter=TASKS_FAILED, total_counter=TASKS_LAUNCHED,
            short_windows=2, long_windows=8, burn_threshold=6.0,
        ),
    ]


class TelemetryCollector:
    """The tick hook that evaluates an :class:`SloEngine` for one
    simulated run and mirrors its alerts into the trace and metrics."""

    def __init__(self, metrics: MetricsRegistry, tracer: NoopTracer, *,
                 slos: Optional[List[SloSpec]] = None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.engine = SloEngine(
            default_slos() if slos is None else slos,
            window_s=DEFAULT_WINDOW_S)
        self._spark: Optional["SparkContext"] = None

    def attach(self, spark: "SparkContext") -> "TelemetryCollector":
        """Register the tick hook on a SparkContext."""
        spark.add_tick_hook(self.tick)
        self._spark = spark
        return self

    def detach(self) -> None:
        """Unregister from the SparkContext (idempotent)."""
        if self._spark is not None:
            self._spark.remove_tick_hook(self.tick)
            self._spark = None

    def tick(self, now_s: float) -> None:
        """One sim-clock tick: evaluate the SLOs, mirror their alerts."""
        for alert in self.engine.evaluate(now_s, self.metrics):
            if alert.resolved_at_s is None:
                self.metrics.inc(ALERTS_FIRED)
                self.tracer.instant(
                    "driver", "alerts", f"alert {alert.slo}", now_s,
                    {"slo": alert.slo,
                     "burn_short": alert.burn_short,
                     "burn_long": alert.burn_long},
                )
            else:
                self.tracer.instant(
                    "driver", "alerts", f"resolved {alert.slo}", now_s,
                    {"slo": alert.slo},
                )

    def finalize(self, sim_time_s: float) -> None:
        """Final tick at end-of-run (captures trailing deltas)."""
        self.tick(sim_time_s)

    @property
    def alerts(self) -> List[Alert]:
        """Every alert the engine fired, in firing order."""
        return self.engine.alerts

    def to_dict(self) -> Dict[str, object]:
        """The run record's ``telemetry`` section: ``window_s``, SLO
        status rows and the alert log."""
        return self.engine.to_dict()
