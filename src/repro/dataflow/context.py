"""SparkContext — the driver-side entry point of the dataflow engine.

"Spark has a context shared by all the executors, called SparkContext.
PSGraph uses it to get Spark settings and runtime statistics" (Sec. III-C).
The simulated context additionally owns the pieces a real cluster would
distribute: the executors (Yarn containers), the shuffle service, the DAG
scheduler, the HDFS client and the RPC environment shared with the parameter
server.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List

from repro.common.batch import RowBatch
from repro.common.config import ClusterConfig
from repro.common.metrics import EXECUTORS_ALIVE_G, MetricsRegistry
from repro.common.simclock import SimClock, barrier
from repro.dataflow.executor import Executor
from repro.obs.tracer import NOOP_TRACER, NoopTracer
from repro.dataflow.rdd import RDD, ParallelCollectionRDD, TextFileRDD
from repro.dataflow.scheduler import DAGScheduler
from repro.dataflow.shuffle import ShuffleService
from repro.hdfs.filesystem import Hdfs
from repro.net.rpc import RpcEnv
from repro.yarn.resource_manager import Container, ResourceManager

#: Hook signature: ``hook(stage_id, partition, kind)`` called after each task.
TaskHook = Callable[[int, int, str], None]

#: Hook signature: ``hook(now_s)`` called on sim-clock ticks (stage ends,
#: PS barriers, recovery detection) — the telemetry sampling points.
TickHook = Callable[[float], None]


class SparkContext:
    """Driver for one simulated Spark application.

    Args:
        cluster: resource allocation and cost model for the job.
        hdfs: shared filesystem; created fresh when omitted.
        metrics: shared metrics registry; created fresh when omitted.
        tracer: sim-time span tracer threaded into every subsystem this
            context creates; the default no-op tracer records nothing.
            (Subsystems passed in pre-built keep their own tracer.)
        app_name: label used for the driver container id.

    The context creates its own Yarn (:attr:`resource_manager`) and RPC
    fabric (:attr:`rpc`, where the PS attaches).
    """

    #: Spark's behaviour: a task routed to a dead executor restarts it via
    #: the resource manager instead of failing the job.
    auto_restart_executors = True
    #: Exponential backoff the driver waits (in sim-time) before
    #: re-launching a failed task attempt:
    #: ``min(RETRY_BACKOFF_MAX_S, base * 2**(attempt-1))`` seconds.
    retry_backoff_base_s = 1.0
    RETRY_BACKOFF_MAX_S = 60.0

    def __init__(self, cluster: ClusterConfig, *,
                 hdfs: Hdfs | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: NoopTracer = NOOP_TRACER,
                 app_name: str = "app") -> None:
        self.cluster = cluster
        self.app_name = app_name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.hdfs = hdfs if hdfs is not None else Hdfs(
            cluster.cost_model, self.metrics
        )
        self.resource_manager = ResourceManager(self.metrics, tracer=tracer)
        self.rpc = RpcEnv(self.metrics)
        self.driver: Container = self.resource_manager.request(
            "driver", cluster.executor_mem_bytes, name=f"driver-{app_name}"
        )
        self.executors: List[Executor] = [
            Executor(i, c)
            for i, c in enumerate(
                self.resource_manager.request_many(
                    "executor", cluster.num_executors,
                    cluster.executor_mem_bytes,
                )
            )
        ]
        # The shuffle service, HDFS and RPC fabric trace their in-task
        # operations through the running TaskContext (see taskctx.task_span),
        # so only clock-owning subsystems receive the tracer directly.
        self.shuffle_service = ShuffleService(cluster.cost_model, self.metrics)
        self.scheduler = DAGScheduler(self)
        self._task_hooks: List[TaskHook] = []
        self._tick_hooks: List[TickHook] = []
        self._stopped = False
        self._update_liveness_gauge()
        # Per-context id streams: shuffle/RDD ids must restart at 0 for
        # every application so that span tags (e.g. "shuffle-3") are
        # reproducible across runs in the same process.
        self._shuffle_ids = itertools.count()
        self._rdd_ids = itertools.count()

    def next_shuffle_id(self) -> int:
        """Allocate a shuffle id unique within this context."""
        return next(self._shuffle_ids)

    def next_rdd_id(self) -> int:
        """Allocate an RDD id unique within this context."""
        return next(self._rdd_ids)

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    def parallelize(self, data: Iterable[Any] | RowBatch,
                    num_partitions: int | None = None) -> RDD:
        """Distribute a driver-side collection into an RDD.  A
        :class:`~repro.common.batch.RowBatch` stays columns: one batch per
        partition, holding the rows a list of its tuples would."""
        if type(data) is not RowBatch:
            data = list(data)
        n = num_partitions or min(self.cluster.num_executors,
                                  max(1, len(data)))
        return ParallelCollectionRDD(self, data, max(1, n))

    def text_file(self, path: str) -> RDD:
        """Lines of an HDFS file or directory, one partition per
        executor."""
        return TextFileRDD(self, path, None)

    # ------------------------------------------------------------------
    # executors, placement and failure
    # ------------------------------------------------------------------

    def live_executor_map(self) -> dict:
        """Map of executor container id -> liveness: the scheduler's view
        of which map outputs of a stage survive.  (A shuffle read asks
        the owning executors themselves.)"""
        return {ex.id: ex.alive for ex in self.executors}

    def executor_for_partition(self, partition: int) -> Executor:
        """Deterministic preferred executor for a partition, with failover.

        Placement mixes the partition id (Knuth multiplicative hash) so
        that partition schemes which are themselves modular (``v mod P``)
        do not alias onto ``P mod E`` — otherwise several partitions of
        the *same* skewed key range would stack on one executor.
        """
        mixed = (partition * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        idx = mixed % len(self.executors)
        executor = self.executors[idx]
        if executor.alive:
            return executor
        if self.auto_restart_executors:
            self.restart_executor(idx)
            # Verify the restart actually re-registered the executor as
            # alive before placing work on it; fall through to failover
            # if the container did not come back.
            if executor.alive:
                return executor
        # Failover: re-mix the already-mixed id over the *live* executors
        # so the dead executor's partitions spread across all survivors
        # instead of stacking onto the next index (skew).
        live = [ex for ex in self.executors if ex.alive]
        if not live:
            raise RuntimeError("no live executors")
        remixed = ((mixed ^ 0x85EBCA6B) * 0xC2B2AE35) & 0xFFFFFFFF
        return live[remixed % len(live)]

    def kill_executor(self, index: int, reason: str = "failure injection"
                      ) -> None:
        """Failure injection: kill one executor, losing its cache and
        shuffle outputs (Table II's "manually kill an executor")."""
        executor = self.executors[index]
        self.resource_manager.kill(executor.container, reason)
        executor.invalidate()
        self.shuffle_service.invalidate_executor(executor.id)
        self._update_liveness_gauge()

    def restart_executor(self, index: int) -> Executor:
        """Restart a dead executor via the resource manager."""
        executor = self.executors[index]
        self.resource_manager.restart(executor.container)
        executor.invalidate()
        self._update_liveness_gauge()
        return executor

    def handle_executor_failure(self, executor: Executor) -> None:
        """React to a mid-task container loss (scheduler callback)."""
        executor.invalidate()
        self.shuffle_service.invalidate_executor(executor.id)
        if self.auto_restart_executors:
            self.resource_manager.restart(executor.container)
        self._update_liveness_gauge()

    def _update_liveness_gauge(self) -> None:
        """Refresh the executor-liveness gauge after membership changes."""
        self.metrics.set_gauge(
            EXECUTORS_ALIVE_G,
            float(sum(1 for ex in self.executors if ex.alive)),
        )

    # ------------------------------------------------------------------
    # hooks & time
    # ------------------------------------------------------------------

    def add_task_hook(self, hook: TaskHook) -> None:
        """Register a post-task callback (used for failure injection)."""
        self._task_hooks.append(hook)

    def remove_task_hook(self, hook: TaskHook) -> None:
        """Unregister a post-task callback.

        Idempotent: removing a hook that is not (or no longer) registered
        is a no-op, so nested failure-injection experiments can tear down
        unconditionally.
        """
        try:
            self._task_hooks.remove(hook)
        except ValueError:
            pass

    def notify_task_complete(self, stage_id: int, partition: int,
                             kind: str) -> None:
        """Invoke registered task hooks (called by the scheduler)."""
        for hook in list(self._task_hooks):
            hook(stage_id, partition, kind)

    def add_tick_hook(self, hook: TickHook) -> None:
        """Register a sim-clock tick callback (telemetry sampling)."""
        self._tick_hooks.append(hook)

    def remove_tick_hook(self, hook: TickHook) -> None:
        """Unregister a tick callback (idempotent, like task hooks)."""
        try:
            self._tick_hooks.remove(hook)
        except ValueError:
            pass

    def notify_tick(self, now_s: float) -> None:
        """Invoke tick hooks at a deterministic sim-time sampling point.

        Called at stage-end barriers, PS epoch barriers and recovery
        detection — never from wall-clock timers, so a seeded run ticks
        at exactly the same sim times every time.
        """
        for hook in list(self._tick_hooks):
            hook(now_s)

    @property
    def driver_clock(self) -> SimClock:
        """The driver container's clock; job time is read from here."""
        return self.driver.clock

    def charge_driver_result(self, nbytes: int) -> None:
        """Charge the driver for collecting ``nbytes`` of results."""
        self.driver.clock.advance(
            self.cluster.cost_model.network_time(nbytes)
        )

    def sim_time(self) -> float:
        """Current simulated job time in seconds (driver clock)."""
        return self.driver.clock.now_s

    def sync_clocks(self) -> float:
        """Barrier the driver with every live executor; returns the time."""
        clocks = [self.driver.clock] + [
            ex.container.clock for ex in self.executors if ex.alive
        ]
        return barrier(clocks)

    def stop(self) -> None:
        """Release every container owned by this context, and with the
        executors what they held: cached partitions and shuffle outputs.
        (A stopped context often stays referenced — by a result's lazy
        frame, by a caller's local — and must not pin its data.)"""
        if self._stopped:
            return
        self._stopped = True
        for ex in self.executors:
            ex.invalidate()
            self.resource_manager.release(ex.container)
        self.shuffle_service.clear()
        self.resource_manager.release(self.driver)
