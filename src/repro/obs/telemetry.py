"""Windowed telemetry: time-series sampling on sim-clock ticks.

The simulator is event-driven — there is no wall-clock scrape loop — so
the telemetry pipeline samples the shared :class:`MetricsRegistry` at the
deterministic sim-time ticks the engine already produces: stage-end
barriers, PS epoch barriers, and recovery detection
(``SparkContext.notify_tick``).  Each sample diffs counters and histogram
totals against the previous tick and lands the deltas in fixed-width
windows of simulated seconds, with bounded ring-buffer retention per
series.

The :class:`TelemetryCollector` glues the pieces together: it registers
a tick hook, feeds the :class:`TimeSeriesStore`, evaluates the
:class:`~repro.obs.slo.SloEngine`, mirrors fired alerts into the trace
(as instants on the driver's ``alerts`` track) and the metrics registry
(the ``obs.alerts.fired`` counter), and serializes everything —
including the critical-path profile — into the telemetry document the
``repro report`` command turns into a dashboard.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.metrics import ALERTS_FIRED, MetricsRegistry
from repro.obs.slo import Alert, SloEngine, SloSpec, default_slos
from repro.obs.tracer import NOOP_TRACER, NoopTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.context import SparkContext

#: Default sampling-window width in simulated seconds.
DEFAULT_WINDOW_S = 5.0

#: Default ring-buffer retention (windows kept per series).
DEFAULT_MAX_WINDOWS = 256

#: Ordered metric-prefix -> component mapping (first match wins; the
#: scheduler entry comes after the more specific shuffle one).
_COMPONENT_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("dataflow.shuffle", "shuffle"),
    ("dataflow", "scheduler"),
    ("ps.", "ps"),
    ("net.rpc", "rpc"),
    ("hdfs", "hdfs"),
    ("yarn", "yarn"),
    ("chaos", "chaos"),
    ("serve", "serve"),
    ("streaming", "streaming"),
    ("ingest", "ingest"),
    ("runner", "driver"),
    ("graphx", "graphx"),
    ("obs", "obs"),
)


def component_of(metric_name: str) -> str:
    """Map a dotted metric name onto its owning component."""
    for prefix, component in _COMPONENT_PREFIXES:
        if metric_name.startswith(prefix):
            return component
    return "other"


class Series:
    """One named time-series with ring-buffer retention.

    Points are ``(window_index, value)`` pairs; the window index is
    ``floor(sim_time / window_s)``.  Counter/histogram series accumulate
    deltas within a window; gauge series keep the last value seen.
    """

    __slots__ = ("name", "kind", "component", "points")

    def __init__(self, name: str, kind: str, max_windows: int) -> None:
        self.name = name
        self.kind = kind
        self.component = component_of(name)
        self.points: "deque[List[float]]" = deque(maxlen=max_windows)

    def record(self, widx: int, value: float, *,
               accumulate: bool) -> None:
        """Fold ``value`` into window ``widx`` (append-only in widx)."""
        if self.points and self.points[-1][0] == widx:
            if accumulate:
                self.points[-1][1] += value
            else:
                self.points[-1][1] = value
            return
        self.points.append([float(widx), float(value)])

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "component": self.component,
            "points": [[int(w), v] for w, v in self.points],
        }


class TimeSeriesStore:
    """Windowed series sampled from a :class:`MetricsRegistry`.

    Counters become per-window *rate* series (delta per window),
    gauges become last-value series, and each histogram contributes a
    ``<name>.rate`` delta-count series plus a cumulative ``<name>.p99``
    percentile series.
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 max_windows: int = DEFAULT_MAX_WINDOWS) -> None:
        if window_s <= 0.0:
            raise ValueError("window_s must be positive")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.window_s = window_s
        self.max_windows = max_windows
        self.series: Dict[str, Series] = {}
        self._last_counters: Dict[str, float] = {}
        self._last_hist: Dict[str, float] = {}
        self.ticks = 0
        self.last_tick_s = 0.0

    def window_index(self, now_s: float) -> int:
        """The window a sim-time instant falls into."""
        return int(now_s // self.window_s)

    def _series(self, name: str, kind: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name, kind, self.max_windows)
        return s

    def sample(self, now_s: float, metrics: MetricsRegistry) -> None:
        """Diff the registry against the previous tick at ``now_s``."""
        widx = self.window_index(now_s)
        self.ticks += 1
        self.last_tick_s = now_s
        for name, value in sorted(metrics.snapshot().items()):
            delta = value - self._last_counters.get(name, 0.0)
            self._last_counters[name] = value
            if delta != 0.0 or name in self.series:
                self._series(name, "counter").record(
                    widx, delta, accumulate=True)
        for name, snap in metrics.gauge_snapshot().items():
            self._series(name, "gauge").record(
                widx, snap["value"], accumulate=False)
        for name, hist in metrics.histograms():
            count = float(hist.count)
            delta = count - self._last_hist.get(name, 0.0)
            self._last_hist[name] = count
            if delta != 0.0 or f"{name}.rate" in self.series:
                self._series(f"{name}.rate", "histogram-rate").record(
                    widx, delta, accumulate=True)
                self._series(f"{name}.p99", "histogram-p99").record(
                    widx, hist.percentile(99), accumulate=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump, series sorted by name."""
        return {
            "window_s": self.window_s,
            "max_windows": self.max_windows,
            "ticks": self.ticks,
            "last_tick_s": self.last_tick_s,
            "series": {name: self.series[name].to_dict()
                       for name in sorted(self.series)},
        }


class TelemetryCollector:
    """Tick-driven sampling + SLO evaluation for one simulated run."""

    def __init__(self, metrics: MetricsRegistry,
                 tracer: NoopTracer = NOOP_TRACER, *,
                 window_s: float = DEFAULT_WINDOW_S,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 slos: Optional[List[SloSpec]] = None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.store = TimeSeriesStore(window_s, max_windows)
        self.engine = SloEngine(
            default_slos() if slos is None else slos, window_s=window_s)
        self._spark: Optional["SparkContext"] = None

    # -- lifecycle ---------------------------------------------------------

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

    # -- sampling ----------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """One sim-clock tick: sample the registry, evaluate SLOs."""
        self.store.sample(now_s, self.metrics)
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
        """Final flush tick at end-of-run (captures trailing deltas)."""
        self.tick(sim_time_s)

    # -- reporting ---------------------------------------------------------

    @property
    def alerts(self) -> List[Alert]:
        """Every alert the engine fired, in firing order."""
        return self.engine.alerts

    def to_dict(self) -> Dict[str, object]:
        """Store + SLO dump (no critical path; see build_telemetry_doc)."""
        doc = self.store.to_dict()
        doc.update(self.engine.to_dict())
        return doc


def build_telemetry_doc(collector: TelemetryCollector,
                        tracer: NoopTracer,
                        sim_time_s: float, *,
                        meta: Optional[Dict[str, object]] = None,
                        chaos: Optional[Dict[str, object]] = None,
                        top_n: int = 25) -> Dict[str, object]:
    """Assemble the full telemetry document for one finished run.

    This is what ``--telemetry PATH`` writes and ``repro report``
    renders: windowed series, SLO status, the alert log, the critical-path
    profile over the recorded spans, and (for chaos runs) the fault report
    with its detection-to-recovery timeline.
    """
    from repro.obs.critical import critical_path

    doc: Dict[str, object] = {
        "schema": "repro.telemetry/v1",
        "meta": dict(meta or {}),
        "sim_time_s": sim_time_s,
        "telemetry": collector.to_dict(),
    }
    doc["critical_path"] = critical_path(
        tracer.spans(), sim_time_s, top_n=top_n).to_dict()
    if chaos is not None:
        doc["chaos"] = chaos
    return doc
