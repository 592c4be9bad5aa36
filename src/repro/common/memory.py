"""Per-container memory accounting.

Every simulated container (Spark executor, parameter server) owns a
:class:`MemoryTracker` sized by its Yarn grant.  Subsystems charge logical
bytes for everything they materialize — cached RDD partitions, shuffle
buffers, join temp tables, PS model partitions — and release them when the
data is dropped.  Exceeding the grant raises
:class:`repro.common.errors.SimulatedOOMError`, which is how the reproduction
produces the "OOM" cells of Figure 6 for GraphX.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.errors import SimulatedOOMError


@dataclass
class MemoryTracker:
    """Tracks logical-byte allocations against a fixed capacity.

    Attributes:
        container: name of the owning container (for error messages).
        capacity: memory grant in bytes.  ``None`` disables enforcement
            (useful in unit tests of unrelated machinery).
    """

    container: str
    capacity: int | None
    used: int = field(default=0, init=False)
    peak: int = field(default=0, init=False)
    _by_tag: Dict[str, int] = field(default_factory=dict, init=False)

    def allocate(self, nbytes: int, tag: str = "untagged") -> int:
        """Charge ``nbytes`` under ``tag``; raise SimulatedOOMError on overflow."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        nbytes = int(nbytes)
        if self.capacity is not None and self.used + nbytes > self.capacity:
            raise SimulatedOOMError(
                self.container, nbytes, self.used, self.capacity, what=tag
            )
        self.used += nbytes
        self._by_tag[tag] = self._by_tag.get(tag, 0) + nbytes
        if self.used > self.peak:
            self.peak = self.used
        return self.used

    def release(self, nbytes: int, tag: str = "untagged") -> int:
        """Return ``nbytes`` previously charged under ``tag``."""
        if nbytes < 0:
            raise ValueError(f"cannot release {nbytes} bytes")
        nbytes = int(nbytes)
        self.used = max(0, self.used - nbytes)
        if tag in self._by_tag:
            remaining = self._by_tag[tag] - nbytes
            if remaining > 0:
                self._by_tag[tag] = remaining
            else:
                del self._by_tag[tag]
        return self.used

    def release_tag(self, tag: str) -> int:
        """Release everything charged under ``tag``; returns bytes freed."""
        freed = self._by_tag.pop(tag, 0)
        self.used = max(0, self.used - freed)
        return freed

    def reset(self) -> None:
        """Drop all charges (used between independent runs)."""
        self.used = 0
        self.peak = 0
        self._by_tag.clear()
