"""Chaos engine: fires a :class:`FaultSchedule` into a running cluster.

The engine attaches to the existing failure-injection surfaces — the
SparkContext's post-task hooks (kill / slow faults) and the RPC fabric's
fault-injector slot (drop / timeout faults) — so no scheduler or server
code knows chaos exists.  Every fired fault is charged to the simulated
clocks of the parties involved, counted in the metrics registry and, when
tracing is on, dropped on the driver's ``chaos`` track, so recovery cost
shows up in the same Chrome trace as the work it delayed.

Typical use::

    schedule = FaultSchedule.load("schedule.json")
    engine = ChaosEngine(schedule, ctx.spark, ctx.ps)
    engine.attach()
    try:
        result = GraphRunner(ctx).run(algo, "/input/edges")
    finally:
        engine.detach()
    print(engine.describe())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.chaos.schedule import RPC_KINDS, FaultSchedule, FaultSpec
from repro.common.errors import ConfigError, RpcError
from repro.common.metrics import CHAOS_FAULTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.context import SparkContext
    from repro.ps.context import PSContext


@dataclass
class FiredFault:
    """Record of one fault the engine actually injected."""

    kind: str
    target: str
    sim_time_s: float
    tasks_seen: int
    detail: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "target": self.target,
            "sim_time_s": self.sim_time_s, "tasks_seen": self.tasks_seen,
            **self.detail,
        }


class ChaosEngine:
    """Deterministically injects one schedule into one cluster."""

    def __init__(self, schedule: FaultSchedule, spark: "SparkContext",
                 ps: Optional["PSContext"]) -> None:
        self.schedule = schedule
        self.spark = spark
        self.ps = ps
        self.tasks_seen = 0
        self.rpc_calls_seen = 0
        self.fired: List[FiredFault] = []
        #: Optional telemetry collector; when bound, the fault report
        #: carries the SLO alerts and a detection timeline per fault.
        self._telemetry = None
        self._attached = False
        self._installed_injector = None
        #: (fault, matching-calls-seen, failures-injected) for rpc faults.
        self._rpc_state: List[List] = []
        #: Task-triggered faults not yet fired.
        self._pending: List[FaultSpec] = []
        #: (restore_at_tasks_seen, executor_index, previous_slowdown).
        self._slow_restores: List[List] = []
        if any(f.kind == "kill_server" for f in schedule) and ps is None:
            raise ConfigError(
                "schedule contains kill_server faults but no PSContext "
                "was given"
            )
        if any(f.at_epoch is not None for f in schedule) and ps is None:
            raise ConfigError(
                "schedule contains at_epoch triggers but no PSContext "
                "was given"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "ChaosEngine":
        """Install the task hook and the RPC fault injector."""
        if self._attached:
            return self
        self._pending = [f for f in self.schedule
                         if f.kind not in RPC_KINDS]
        self._rpc_state = [[f, 0, 0] for f in self.schedule
                           if f.kind in RPC_KINDS]
        self.spark.add_task_hook(self._on_task)
        if self._rpc_state:
            if self.spark.rpc.fault_injector is not None:
                raise ConfigError(
                    "RPC fabric already has a fault injector installed"
                )
            # Keep the exact bound-method object installed: each attribute
            # access creates a fresh one, so detach() must compare against
            # this instance, not a new ``self._on_rpc``.
            self._installed_injector = self._on_rpc
            self.spark.rpc.fault_injector = self._installed_injector
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove the hooks and undo any still-active slowdowns."""
        if not self._attached:
            return
        self._attached = False
        self.spark.remove_task_hook(self._on_task)
        if self.spark.rpc.fault_injector is self._installed_injector:
            self.spark.rpc.fault_injector = None
        self._installed_injector = None
        for entry in self._slow_restores:
            _at, index, previous = entry
            self.spark.executors[index].slowdown = previous
        self._slow_restores.clear()

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def _on_task(self, stage_id: int, partition: int, kind: str) -> None:
        self.tasks_seen += 1
        # Expire straggler windows first so a restore scheduled for task N
        # happens before a fault triggered at task N fires.
        still_slow: List[List] = []
        for entry in self._slow_restores:
            at, index, previous = entry
            if at is not None and self.tasks_seen >= at:
                self.spark.executors[index].slowdown = previous
            else:
                still_slow.append(entry)
        self._slow_restores = still_slow
        due: List[FaultSpec] = []
        remaining: List[FaultSpec] = []
        for fault in self._pending:
            if self._kill_due(fault, kind):
                due.append(fault)
            else:
                remaining.append(fault)
        self._pending = remaining
        for fault in due:
            self._fire_task_fault(fault)

    def _kill_due(self, fault: FaultSpec, task_kind: str) -> bool:
        if fault.task_kind is not None and task_kind != fault.task_kind:
            return False
        if fault.after_tasks is not None:
            return self.tasks_seen >= fault.after_tasks
        # at_epoch trigger: fire at the first (matching) task completion
        # once the PS sync controller reaches the epoch.
        assert self.ps is not None
        return self.ps.sync.epoch >= (fault.at_epoch or 0)

    def _fire_task_fault(self, fault: FaultSpec) -> None:
        if fault.kind == "kill_executor":
            executor = self.spark.executors[fault.index]
            if not executor.alive:
                return
            self.spark.kill_executor(fault.index, reason="chaos")
            self._record(fault, executor.id, {})
        elif fault.kind == "kill_server":
            assert self.ps is not None
            server = self.ps.servers[fault.index]
            if not server.container.alive:
                return
            self.ps.kill_server(fault.index)
            self._record(fault, server.id, {})
        elif fault.kind == "slow_executor":
            executor = self.spark.executors[fault.index]
            previous = executor.slowdown
            executor.slowdown = fault.factor
            # duration_tasks == 0 means "until detached": the entry never
            # expires by task count but detach() still restores it.
            self._slow_restores.append([
                self.tasks_seen + fault.duration_tasks
                if fault.duration_tasks > 0 else None,
                fault.index, previous,
            ])
            self._record(fault, executor.id,
                         {"factor": fault.factor,
                          "duration_tasks": fault.duration_tasks})

    def _on_rpc(self, endpoint: str, method: str) -> float:
        """RPC fault injector (see :attr:`repro.net.rpc.RpcEnv.fault_injector`).

        Returns extra simulated latency to charge the caller; raises
        :class:`RpcError` to fail the call.
        """
        self.rpc_calls_seen += 1
        for state in self._rpc_state:
            fault, seen, injected = state
            if not fault.matches_rpc(endpoint, method):
                continue
            state[1] = seen = seen + 1
            if injected >= fault.count or seen <= fault.after_calls:
                continue
            state[2] = injected + 1
            self._record(
                fault, f"{endpoint}.{method}",
                {"call": seen, "delay_s": fault.delay_s},
            )
            if fault.kind == "rpc_timeout":
                raise InjectedRpcTimeout(
                    f"chaos: injected timeout on {endpoint}.{method}",
                    delay_s=fault.delay_s,
                )
            raise RpcError(
                f"chaos: injected drop on {endpoint}.{method}"
            )
        return 0.0

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def _record(self, fault: FaultSpec, target: str,
                detail: Dict[str, object]) -> None:
        now_s = self.spark.driver_clock.now_s
        self.fired.append(FiredFault(
            fault.kind, target, now_s, self.tasks_seen, detail
        ))
        self.spark.metrics.inc(CHAOS_FAULTS)
        tracer = self.spark.tracer
        if tracer.enabled:
            tracer.instant(
                "driver", "chaos", f"chaos.{fault.kind}", now_s,
                {"target": target, "tasks_seen": self.tasks_seen,
                 **detail},
            )

    def bind_telemetry(self, collector) -> "ChaosEngine":
        """Attach a :class:`~repro.obs.slo.TelemetryCollector`.

        Once bound, :meth:`report` includes the SLO alert log and a
        per-fault detection timeline (injection -> first alert), which is
        what chaos runs use to measure detection-to-recovery.
        """
        self._telemetry = collector
        return self

    def detection_timeline(self) -> List[Dict[str, object]]:
        """Injection-to-detection rows for every fired fault.

        Each row pairs a fired fault with the first alert whose
        sim-time detection stamp is at or after the injection.  A fault
        nobody alerted on has ``detected_at_s`` None — that is a
        coverage gap worth seeing, not an error.
        """
        if self._telemetry is None:
            return []
        rows: List[Dict[str, object]] = []
        for f in self.fired:
            alert = next(
                (a for a in self._telemetry.alerts
                 if a.fired_at_s >= f.sim_time_s - 1e-9), None)
            row: Dict[str, object] = {
                "kind": f.kind,
                "target": f.target,
                "injected_at_s": f.sim_time_s,
                "detected_at_s": None,
                "detection_delay_s": None,
                "slo": None,
                "recovered_at_s": None,
            }
            if alert is not None:
                row.update({
                    "detected_at_s": alert.fired_at_s,
                    "detection_delay_s": alert.fired_at_s - f.sim_time_s,
                    "slo": alert.slo,
                    "recovered_at_s": alert.resolved_at_s,
                })
            rows.append(row)
        return rows

    def report(self) -> Dict[str, object]:
        """Machine-readable summary of what the engine injected."""
        doc: Dict[str, object] = {
            "tasks_seen": self.tasks_seen,
            "rpc_calls_seen": self.rpc_calls_seen,
            "scheduled": len(self.schedule),
            "fired": [f.to_dict() for f in self.fired],
        }
        if self._telemetry is not None:
            doc["alerts"] = [a.to_dict()
                             for a in self._telemetry.alerts]
            doc["detection"] = self.detection_timeline()
        return doc

    def describe(self) -> str:
        """Human-readable summary of the injected faults."""
        lines = [
            f"chaos: {len(self.fired)} fault(s) fired "
            f"({len(self.schedule)} scheduled, {self.tasks_seen} tasks "
            f"observed)"
        ]
        for f in self.fired:
            extra = "".join(
                f" {k}={v}" for k, v in sorted(f.detail.items())
            )
            lines.append(
                f"  t={f.sim_time_s:10.3f}s task#{f.tasks_seen:<5d} "
                f"{f.kind} -> {f.target}{extra}"
            )
        for row in self.detection_timeline():
            if row["detected_at_s"] is None:
                lines.append(
                    f"  t={row['injected_at_s']:10.3f}s "
                    f"{row['kind']} -> {row['target']}: no alert fired"
                )
            else:
                lines.append(
                    f"  t={row['injected_at_s']:10.3f}s "
                    f"{row['kind']} detected by {row['slo']} "
                    f"after {row['detection_delay_s']:.3f}s"
                )
        return "\n".join(lines)


class InjectedRpcTimeout(RpcError):
    """A chaos-injected RPC timeout; carries the simulated wait."""

    def __init__(self, message: str, delay_s: float = 0.0) -> None:
        super().__init__(message)
        self.delay_s = delay_s
