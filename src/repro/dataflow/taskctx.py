"""Task execution context.

One :class:`TaskContext` exists while a dataflow task runs a partition on an
executor.  It carries the cost accumulator for the task, the executor's
memory tracker, and cluster-wide handles, and is published through a
context variable so code called from *inside* user functions — most
importantly the PS agent's pull/push — can charge the running task without
plumbing arguments through every lambda.

The context also carries the cluster's :class:`~repro.obs.tracer.Tracer`
(a no-op by default): sub-operations of a task (shuffle fetches, PS
pulls, HDFS reads) call :func:`task_span` to place themselves on the
task's serial sim-time row without threading a tracer argument through
every iterator chain.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.common.batch import RowBatch, accumulate_sequential
from repro.common.simclock import TaskCost
from repro.obs.tracer import NOOP_SCOPE, NOOP_TRACER, NoopTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.executor import Executor


@dataclass
class TaskContext:
    """State of one running task.

    Attributes:
        stage_id: id of the enclosing stage.
        partition_id: partition this task computes.
        executor: executor the task runs on.
        cost: simulated cost accumulated by the task so far.
        attempt: retry attempt number (0 = first try).
        tracer: the cluster tracer (no-op unless tracing is enabled).
    """

    stage_id: int
    partition_id: int
    executor: "Executor"
    cost: TaskCost = field(default_factory=TaskCost, init=False)
    attempt: int = 0
    tracer: NoopTracer = NOOP_TRACER

    @property
    def trace_track(self) -> str:
        """The task's own trace row, e.g. ``s4.p2`` (see docs)."""
        return f"s{self.stage_id}.p{self.partition_id}"

    @property
    def trace_base_s(self) -> float:
        """Sim-time origin of the task's serial timeline.

        Executor clocks stand still while a task accumulates cost, so the
        clock reading *is* the stage start on this executor.
        """
        return self.executor.container.clock.now_s


_current: contextvars.ContextVar[TaskContext | None] = contextvars.ContextVar(
    "repro_dataflow_task_context", default=None
)


def current_task_context() -> TaskContext | None:
    """The task context of the currently executing task, if any."""
    return _current.get()


def task_span(name: str, cost: TaskCost,
              tags: Optional[Dict[str, object]] = None):
    """Span scope on the current task's trace row.

    Places ``name`` at ``[base + cost_before, base + cost_after]`` on the
    running task's serial timeline.  Returns a no-op scope when no task is
    running or tracing is disabled, so call sites need no guards.

    Args:
        cost: the accumulator the operation charges.
        tags: optional labels exported with the span.
    """
    tctx = _current.get()
    if tctx is None or not tctx.tracer.enabled:
        return NOOP_SCOPE
    return tctx.tracer.cost_span(
        tctx.executor.id, tctx.trace_track, name, cost,
        tctx.trace_base_s, tags,
    )


class task_scope:
    """Context manager installing ``tctx`` as the current task context."""

    def __init__(self, tctx: TaskContext) -> None:
        self._tctx = tctx
        self._token: contextvars.Token | None = None

    def __enter__(self) -> TaskContext:
        self._token = _current.set(self._tctx)
        return self._tctx

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _current.reset(self._token)


def metered(iterator: Iterator, cost: TaskCost, cpu_record_s: float,
            trace_name: str) -> Iterator:
    """Wrap an iterator, charging per-record CPU to ``cost`` as it is drained.

    A :class:`~repro.common.batch.RowBatch` is charged as its rows, before
    it is handed on: ``len(batch)`` additions, bit-identical to the boxed
    rows' one-by-one charges.

    When the running task is being traced, one span named ``trace_name``
    covering the whole drain — including any shuffle fetch or HDFS
    read charged by the upstream iterator chain — is placed on the task's
    trace row when the iterator is exhausted.
    """
    with task_span(trace_name, cost):
        for item in iterator:
            if type(item) is RowBatch:
                cost.cpu_s = accumulate_sequential(
                    cost.cpu_s, cpu_record_s, len(item))
            else:
                cost.cpu_s += cpu_record_s
            yield item
