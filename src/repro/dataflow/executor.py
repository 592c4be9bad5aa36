"""Simulated Spark executors.

An :class:`Executor` wraps a Yarn container and owns the executor-local
state of the dataflow engine: the cache of persisted RDD partitions (the
block manager) and — attached externally — the shuffle files it wrote.  Task
*placement* is deterministic: a multiplicative hash of the partition id
picks the preferred executor (with failover to the next live one), which
keeps cache and shuffle locality simple, balanced and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.common.errors import ContainerLostError
from repro.common.sizeof import sizeof_records
from repro.yarn.resource_manager import Container

#: Memory-tag prefix for cached RDD partitions.
CACHE_TAG = "rdd-cache"


@dataclass
class Executor:
    """One executor process: container + block-manager cache.

    Attributes:
        index: executor index within the job (stable across restarts).
        container: the backing Yarn container.
        slowdown: straggler factor — simulated task time on this executor
            is multiplied by it (>= 1.0; set by fault injection, read by
            the scheduler's cost accounting).
    """

    index: int
    container: Container
    slowdown: float = field(default=1.0, init=False)
    _cache: Dict[Tuple[int, int], List[Any]] = field(default_factory=dict,
                                                     init=False)

    @property
    def id(self) -> str:
        """The container id, e.g. ``executor-3``."""
        return self.container.id

    @property
    def alive(self) -> bool:
        """Liveness of the backing container."""
        return self.container.alive

    def ensure_alive(self) -> None:
        """Raise :class:`ContainerLostError` if the executor is dead."""
        if not self.alive:
            raise ContainerLostError(self.id)

    # -- block manager (RDD cache) -----------------------------------------

    def cache_put(self, rdd_id: int, partition: int,
                  records: List[Any]) -> None:
        """Persist a computed partition; charges executor memory."""
        key = (rdd_id, partition)
        if key in self._cache:
            return
        nbytes = sizeof_records(records)
        self.container.memory.allocate(nbytes, tag=f"{CACHE_TAG}:{rdd_id}")
        self._cache[key] = records

    def cache_get(self, rdd_id: int, partition: int) -> List[Any] | None:
        """Fetch a cached partition, or ``None`` on a miss."""
        return self._cache.get((rdd_id, partition))

    def cache_drop_rdd(self, rdd_id: int) -> None:
        """Unpersist every cached partition of one RDD."""
        doomed = [k for k in self._cache if k[0] == rdd_id]
        for k in doomed:
            del self._cache[k]
        self.container.memory.release_tag(f"{CACHE_TAG}:{rdd_id}")

    def invalidate(self) -> None:
        """Drop all executor-local state (called when the executor dies)."""
        self._cache.clear()
        self.slowdown = 1.0
        # Container memory was reset by the resource manager on kill.
