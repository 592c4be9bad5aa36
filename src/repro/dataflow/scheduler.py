"""DAG scheduler: stages, tasks, retries and failure recovery.

An action walks the RDD lineage, materializes every missing shuffle (map
stages) bottom-up, and then runs the result stage.  Tasks run sequentially in
this process but *sim-time* is computed as if they ran in parallel: within a
stage each executor's clock advances by the total cost of the tasks it was
assigned (divided by its core count), and the stage ends with a barrier —
exactly the behaviour of a synchronous Spark stage.

Failure recovery mirrors Spark (Sec. III-C of the paper): a dead executor is
restarted by the resource manager, its cached partitions and shuffle outputs
are lost, and lost map outputs are recomputed from lineage when a reduce task
discovers them missing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List

from repro.common.batch import iter_rows
from repro.common.errors import ContainerLostError, StageFailedError
from repro.common.metrics import (
    STAGES_RUN,
    TASK_DURATION_H,
    TASKS_FAILED,
    TASKS_LAUNCHED,
)
from repro.common.simclock import barrier
from repro.dataflow.shuffle import ShuffleOutputLostError
from repro.dataflow.taskctx import TaskContext, metered, task_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.context import SparkContext
    from repro.dataflow.rdd import RDD, ShuffleDependency

#: Maximum attempts per task before the stage is declared failed.
MAX_TASK_ATTEMPTS = 6


class DAGScheduler:
    """Schedules stages over the context's executors."""

    def __init__(self, ctx: "SparkContext") -> None:
        self.ctx = ctx
        self._stage_seq = 0
        self._deps_by_id: Dict[int, "ShuffleDependency"] = {}

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def run_job(self, rdd: "RDD",
                func: Callable[[int, Iterator[Any]], Any],
                per_row: bool = False) -> List[Any]:
        """Run ``func`` over every partition of ``rdd``; returns results.

        With ``per_row``, ``func`` draws one record per row: a
        :class:`~repro.common.batch.RowBatch` is split before it is
        metered, so a ``func`` that stops early is charged only for the
        rows it drew.
        """
        self._ensure_shuffles(rdd, set())
        return self._run_result_stage(rdd, func, per_row)

    def run_stage(self, num_partitions: int,
                  task: Callable[[int, TaskContext], Any],
                  kind: str = "custom") -> List[Any]:
        """Run a custom stage of ``num_partitions`` tasks.

        Used by GraphX, whose vertex/edge tables live outside the RDD
        lineage but must share the same executors, cost accounting and
        barrier semantics.  ``task(partition, tctx)`` runs with a live
        TaskContext (so PS agents and the shuffle service charge it).
        """
        results = self._run_tasks(
            list(range(num_partitions)), task, kind=kind
        )
        return [results[p] for p in range(num_partitions)]

    # ------------------------------------------------------------------
    # shuffle (map) stages
    # ------------------------------------------------------------------

    def _ensure_shuffles(self, rdd: "RDD", seen: set) -> None:
        """Materialize, bottom-up, every shuffle the lineage depends on."""
        for parent in rdd.narrow_parents:
            if parent.id not in seen:
                seen.add(parent.id)
                self._ensure_shuffles(parent, seen)
        for dep in rdd.shuffle_deps:
            if dep.shuffle_id in self._deps_by_id and self._dep_complete(dep):
                continue
            self._ensure_shuffles(dep.parent, seen)
            self._deps_by_id[dep.shuffle_id] = dep
            self._run_map_stage(dep)

    def _dep_complete(self, dep: "ShuffleDependency") -> bool:
        live = self.ctx.live_executor_map()
        svc = self.ctx.shuffle_service
        return all(
            svc.has_output(dep.shuffle_id, mp, live)
            for mp in range(dep.parent.num_partitions)
        )

    def _run_map_stage(self, dep: "ShuffleDependency") -> None:
        """Run map tasks for every missing partition of one shuffle."""
        live = self.ctx.live_executor_map()
        svc = self.ctx.shuffle_service
        missing = [
            mp for mp in range(dep.parent.num_partitions)
            if not svc.has_output(dep.shuffle_id, mp, live)
        ]
        if not missing:
            return

        def map_task(mp: int, tctx: TaskContext) -> None:
            self._write_map_output(dep, mp, tctx)

        self._run_tasks(missing, map_task, kind=f"shuffle-{dep.shuffle_id}")

    def _write_map_output(self, dep: "ShuffleDependency", mp: int,
                          tctx: TaskContext) -> None:
        buckets = dep.map_output(
            dep.parent.iterator(mp, tctx), tctx.cost,
            self.ctx.cluster.cost_model.cpu_record_s,
        )
        self.ctx.shuffle_service.write(
            dep.shuffle_id, mp, tctx.executor, buckets, tctx.cost
        )

    def _recompute_shuffle(self, shuffle_id: int) -> None:
        """Recompute lost map outputs after an executor death."""
        dep = self._deps_by_id.get(shuffle_id)
        if dep is None:
            raise StageFailedError(
                f"shuffle {shuffle_id} lost but its lineage is unknown"
            )
        # The parent lineage may itself depend on lost shuffles.
        self._ensure_shuffles(dep.parent, set())
        self._run_map_stage(dep)

    # ------------------------------------------------------------------
    # result stage
    # ------------------------------------------------------------------

    def _run_result_stage(self, rdd: "RDD",
                          func: Callable[[int, Iterator[Any]], Any],
                          per_row: bool) -> List[Any]:
        cm = self.ctx.cluster.cost_model

        def result_task(p: int, tctx: TaskContext) -> Any:
            records = rdd.iterator(p, tctx)
            if per_row:
                records = iter_rows(records)
            return func(p, metered(records, tctx.cost, cm.cpu_record_s,
                                   trace_name="result-input"))

        results = self._run_tasks(
            list(range(rdd.num_partitions)), result_task, kind="result"
        )
        return [results[p] for p in range(rdd.num_partitions)]

    # ------------------------------------------------------------------
    # task loop shared by map and result stages
    # ------------------------------------------------------------------

    def _retry_backoff(self, attempt: int) -> None:
        """Wait (in sim-time, on the driver) before relaunching a failed
        attempt: ``min(max, base * 2**(attempt-1))`` seconds."""
        ctx = self.ctx
        base = ctx.retry_backoff_base_s
        if base <= 0.0:
            return
        ctx.driver_clock.advance(
            min(ctx.RETRY_BACKOFF_MAX_S, base * (2.0 ** (attempt - 1)))
        )

    def _finish_task(self, tctx: TaskContext, result: Any,
                     busy: Dict[int, float], results: Dict[int, Any],
                     kind: str) -> None:
        """Book one successful task attempt."""
        ctx = self.ctx
        tracer = ctx.tracer
        executor = tctx.executor
        stage_id, p = tctx.stage_id, tctx.partition_id
        # A straggler executor stretches its tasks' elapsed sim-time.
        elapsed_s = tctx.cost.total_s * max(1.0, executor.slowdown)
        ctx.metrics.observe(TASK_DURATION_H, elapsed_s)
        if tracer.enabled:
            # Two views of the finished attempt: the executor's row
            # (tasks tiled in completion order) and the task's own
            # detail row.
            base = executor.container.clock.now_s
            tracer.add(
                executor.id, "tasks",
                f"task s{stage_id}.p{p}",
                base + busy[executor.index],
                base + (busy[executor.index] + elapsed_s),
                {"stage": stage_id, "partition": p, "kind": kind,
                 "attempt": tctx.attempt,
                 "cpu_s": tctx.cost.cpu_s, "net_s": tctx.cost.net_s,
                 "disk_s": tctx.cost.disk_s},
            )
            tracer.add(
                executor.id, tctx.trace_track, "task",
                base, base + elapsed_s,
                {"stage": stage_id, "partition": p, "kind": kind,
                 "attempt": tctx.attempt},
            )
        busy[executor.index] += elapsed_s
        results[p] = result
        ctx.notify_task_complete(stage_id, p, kind)

    def _run_tasks(self, partitions: List[int],
                   task: Callable[[int, TaskContext], Any],
                   kind: str) -> Dict[int, Any]:
        ctx = self.ctx
        metrics = ctx.metrics
        tracer = ctx.tracer
        stage_id = self._stage_seq
        self._stage_seq += 1
        metrics.inc(STAGES_RUN)
        stage_start_s = ctx.driver_clock.now_s
        failures = 0

        busy: Dict[int, float] = defaultdict(float)
        results: Dict[int, Any] = {}
        attempts: Dict[int, int] = defaultdict(int)
        pending = list(partitions)
        while pending:
            p = pending.pop(0)
            executor = ctx.executor_for_partition(p)
            tctx = TaskContext(stage_id, p, executor, attempt=attempts[p],
                               tracer=tracer)
            metrics.inc(TASKS_LAUNCHED)
            try:
                with task_scope(tctx):
                    executor.ensure_alive()
                    result = task(p, tctx)
            except ShuffleOutputLostError as lost:
                metrics.inc(TASKS_FAILED)
                failures += 1
                if tracer.enabled:
                    tracer.instant(
                        executor.id, "tasks", "task-failed",
                        executor.container.clock.now_s,
                        {"stage": stage_id, "partition": p,
                         "reason": f"shuffle-{lost.shuffle_id}-lost"},
                    )
                attempts[p] += 1
                if attempts[p] >= MAX_TASK_ATTEMPTS:
                    raise StageFailedError(
                        f"stage {stage_id} ({kind}): partition {p} kept "
                        f"losing shuffle {lost.shuffle_id}"
                    ) from lost
                self._retry_backoff(attempts[p])
                self._recompute_shuffle(lost.shuffle_id)
                pending.insert(0, p)
                continue
            except ContainerLostError:
                metrics.inc(TASKS_FAILED)
                failures += 1
                if tracer.enabled:
                    tracer.instant(
                        executor.id, "tasks", "task-failed",
                        executor.container.clock.now_s,
                        {"stage": stage_id, "partition": p,
                         "reason": "container-lost"},
                    )
                attempts[p] += 1
                if attempts[p] >= MAX_TASK_ATTEMPTS:
                    raise StageFailedError(
                        f"stage {stage_id} ({kind}): partition {p} failed "
                        f"{attempts[p]} times"
                    )
                self._retry_backoff(attempts[p])
                ctx.handle_executor_failure(executor)
                pending.insert(0, p)
                continue
            self._finish_task(tctx, result, busy, results, kind)
        # Sim-time: each executor worked its share in parallel with the
        # others; a stage ends at a barrier with the driver.
        clocks = [ctx.driver_clock]
        for ex in ctx.executors:
            if ex.index in busy:
                ex.container.clock.advance(busy[ex.index])
            if ex.alive:
                clocks.append(ex.container.clock)
        end_s = barrier(clocks)
        if tracer.enabled:
            tracer.add(
                "driver", "stages", f"stage {stage_id} ({kind})",
                stage_start_s, end_s,
                {"stage": stage_id, "kind": kind,
                 "tasks": len(partitions), "failures": failures},
            )
        ctx.notify_tick(end_s)
        return results
