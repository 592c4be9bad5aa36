"""Logical clocks for the simulated cluster.

Every container (Spark executor, PS server, the driver) owns a
:class:`SimClock`; metered operations advance the owning clock.  A barrier —
the BSP synchronization of the parameter server or the end of a dataflow
stage — aligns a group of clocks to their maximum, which is exactly how
wall-clock time behaves on a real synchronous cluster: a stage is as slow as
its slowest participant.

:class:`TaskCost` is a small accumulator threaded through task execution so
that the cost of one task can be inspected (and attributed to the executor
that ran it) without touching global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class TaskCost:
    """Per-task simulated cost breakdown, in seconds.

    Attributes:
        cpu_s: compute time.
        net_s: network transfer time (RPCs, shuffle fetches, PS pull/push).
        disk_s: disk read/write time (shuffle spill, HDFS IO, checkpoints).
    """

    cpu_s: float = field(default=0.0, init=False)
    net_s: float = field(default=0.0, init=False)
    disk_s: float = field(default=0.0, init=False)

    @property
    def total_s(self) -> float:
        """Total simulated seconds consumed by the task."""
        return self.cpu_s + self.net_s + self.disk_s


@dataclass
class SimClock:
    """Monotonic logical clock owned by one container.

    Attributes:
        name: container name, for diagnostics.
        now_s: current simulated time in seconds.
    """

    name: str = "clock"
    now_s: float = field(default=0.0, init=False)
    busy_s: float = field(default=0.0, init=False)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` of busy work; returns new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self.now_s += seconds
        self.busy_s += seconds
        return self.now_s

    def advance_to(self, when_s: float) -> float:
        """Advance (idle) to absolute time ``when_s`` if it is in the future."""
        if when_s > self.now_s:
            self.now_s = when_s
        return self.now_s


def barrier(clocks: Iterable[SimClock]) -> float:
    """Align a group of clocks to their maximum, as a BSP barrier does.

    Returns:
        The barrier time, i.e. the maximum ``now_s`` across the group.
    """
    clocks = list(clocks)
    if not clocks:
        return 0.0
    t = max(c.now_s for c in clocks)
    for c in clocks:
        c.advance_to(t)
    return t
