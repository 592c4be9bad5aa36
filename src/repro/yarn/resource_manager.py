"""Simulated resource manager (Yarn / Kubernetes stand-in).

Sec. III-B of the paper: "When a task is submitted to the resource management
platform such as Yarn and Kubernetes, the master is first initialized.  It
then requests resources ... to launch the parameter servers.  ...  Once one
server encounters failure, the master asks the resource management platform
to restart the server."

The reproduction's resource manager grants :class:`Container` objects — each
owning a :class:`~repro.common.simclock.SimClock` and a
:class:`~repro.common.memory.MemoryTracker` sized by the grant — and can kill
and restart them, which drives the failure-recovery experiment (Table II).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import ContainerLostError, ResourceError
from repro.common.memory import MemoryTracker
from repro.common.metrics import CONTAINERS_RESTARTED, MetricsRegistry
from repro.common.simclock import SimClock
from repro.obs.tracer import NOOP_TRACER, NoopTracer


@dataclass
class Container:
    """One granted container: a slice of a cluster machine.

    Attributes:
        id: unique container id, e.g. ``executor-3``.
        kind: role label ("executor", "ps-server", "driver", "master").
        mem_bytes: memory grant.
        clock: the container's simulated clock.
        memory: tracker enforcing the grant.
        alive: containers can be killed (failure injection / preemption).
        restarts: number of times this container has been restarted.
    """

    id: str
    kind: str
    mem_bytes: int
    clock: SimClock
    memory: MemoryTracker
    alive: bool = field(default=True, init=False)
    restarts: int = field(default=0, init=False)

    def ensure_alive(self) -> None:
        """Raise :class:`ContainerLostError` if the container is dead."""
        if not self.alive:
            raise ContainerLostError(self.id)


@dataclass
class ResourceManager:
    """Grants, kills and restarts containers.

    Attributes:
        metrics: cluster metrics registry.
        tracer: sim-time tracer; kills and restarts land on each
            container's "lifecycle" track.
    """

    metrics: MetricsRegistry | None
    tracer: NoopTracer = NOOP_TRACER
    _granted: int = field(default=0, init=False)
    _containers: Dict[str, Container] = field(default_factory=dict,
                                              init=False)
    _seq: "itertools.count[int]" = field(default_factory=itertools.count,
                                         init=False)

    #: Simulated seconds a restart takes (container scheduling + process
    #: start); experiments scale it with the dataset scale factor.
    restart_delay_s = 30.0
    #: Cluster-wide memory capacity in bytes; requests beyond it raise
    #: :class:`ResourceError` (None: unbounded).
    capacity_bytes = None

    def request(self, kind: str, mem_bytes: int,
                name: str | None = None) -> Container:
        """Grant one container of ``kind`` with the given resources."""
        if mem_bytes <= 0:
            raise ResourceError(f"invalid memory request: {mem_bytes}")
        if (self.capacity_bytes is not None
                and self._granted + mem_bytes > self.capacity_bytes):
            raise ResourceError(
                f"cluster capacity exceeded: {self._granted} + {mem_bytes} "
                f"> {self.capacity_bytes}"
            )
        cid = name if name is not None else f"{kind}-{next(self._seq)}"
        if cid in self._containers:
            raise ResourceError(f"container id {cid} already granted")
        container = Container(
            id=cid,
            kind=kind,
            mem_bytes=mem_bytes,
            clock=SimClock(name=cid),
            memory=MemoryTracker(container=cid, capacity=mem_bytes),
        )
        self._containers[cid] = container
        self._granted += mem_bytes
        return container

    def request_many(self, kind: str, count: int,
                     mem_bytes: int) -> List[Container]:
        """Grant ``count`` identical containers (e.g. all executors)."""
        return [
            self.request(kind, mem_bytes, name=f"{kind}-{i}")
            for i in range(count)
        ]

    def kill(self, container: Container, reason: str = "killed") -> None:
        """Mark a container dead; its memory contents are lost."""
        container.alive = False
        container.memory.reset()
        if self.tracer.enabled:
            self.tracer.instant(
                container.id, "lifecycle", "killed",
                container.clock.now_s, {"reason": reason},
            )

    def restart(self, container: Container) -> Container:
        """Restart a dead (or live) container in place.

        The container's clock is advanced past the cluster-wide maximum by
        ``restart_delay_s`` — a restarted process rejoins late — and its
        memory is wiped.
        """
        latest = max(
            (c.clock.now_s for c in self._containers.values() if c.alive),
            default=container.clock.now_s,
        )
        container.clock.advance_to(max(latest, container.clock.now_s))
        start_s = container.clock.now_s
        container.clock.advance(self.restart_delay_s)
        container.memory.reset()
        container.alive = True
        container.restarts += 1
        if self.metrics is not None:
            self.metrics.inc(CONTAINERS_RESTARTED)
        if self.tracer.enabled:
            self.tracer.add(
                container.id, "lifecycle", "restart",
                start_s, container.clock.now_s,
                {"restarts": container.restarts, "kind": container.kind},
            )
        return container

    def release(self, container: Container) -> None:
        """Return a container's resources to the cluster."""
        if self._containers.pop(container.id, None) is not None:
            self._granted -= container.mem_bytes
            container.alive = False
