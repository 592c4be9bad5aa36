"""Exception hierarchy shared by every subsystem of the PSGraph reproduction.

All errors raised by the simulated cluster derive from :class:`PSGraphError` so
applications can catch a single base class.  The most important subclass is
:class:`SimulatedOOMError`, raised by :class:`repro.common.memory.MemoryTracker`
when a container exceeds its memory grant — this is the mechanism behind the
"OOM" cells of Figure 6 in the paper.
"""

from __future__ import annotations


class PSGraphError(Exception):
    """Base class for every error raised by the reproduction."""


class ConfigError(PSGraphError):
    """An invalid configuration value was supplied."""


class SimulatedOOMError(PSGraphError, MemoryError):
    """A container's tracked allocations exceeded its memory grant.

    Mirrors a JVM ``OutOfMemoryError`` killing a Spark executor.  Carries
    enough context to explain *which* container died and *what* allocation
    pushed it over the edge.
    """

    def __init__(self, container: str, requested: int, used: int,
                 capacity: int, what: str = "") -> None:
        self.container = container
        self.requested = requested
        self.used = used
        self.capacity = capacity
        self.what = what
        detail = f" while allocating {what!r}" if what else ""
        super().__init__(
            f"container {container} out of memory{detail}: "
            f"requested {requested} B on top of {used} B used, "
            f"capacity {capacity} B"
        )


class RpcError(PSGraphError):
    """An RPC could not be delivered (e.g. the endpoint is dead)."""


class EndpointNotFoundError(RpcError):
    """The target RPC endpoint is not registered."""


class HdfsError(PSGraphError):
    """Base class for simulated-HDFS failures."""


class FileNotFoundOnHdfsError(HdfsError, FileNotFoundError):
    """The requested HDFS path does not exist (also a builtin
    :class:`FileNotFoundError`, as a missing local file would be)."""


class FileAlreadyExistsError(HdfsError):
    """An HDFS path was created twice without overwrite."""


class ResourceError(PSGraphError):
    """The resource manager could not satisfy a container request."""


class ContainerLostError(PSGraphError):
    """A container was killed (failure injection or preemption)."""

    def __init__(self, container: str, reason: str = "killed") -> None:
        self.container = container
        self.reason = reason
        super().__init__(f"container {container} lost: {reason}")


class StageFailedError(PSGraphError):
    """A dataflow stage exhausted its retry budget."""


class PSError(PSGraphError):
    """Base class for parameter-server failures."""


class MatrixNotFoundError(PSError):
    """A PS matrix handle refers to a matrix that does not exist."""


class PartitionNotFoundError(PSError):
    """A PS request was routed to a partition the server does not hold."""


class CheckpointNotFoundError(PSError):
    """Recovery was requested but no checkpoint has been written yet."""


class GraphLoadError(PSGraphError):
    """Malformed graph input (bad edge line, negative vertex id, ...)."""
