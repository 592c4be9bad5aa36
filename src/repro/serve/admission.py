"""Bounded admission queue with priority order and deadline eviction.

The queue is the only buffer between the request generator and the PS
lookup path, and it is *bounded*: when full, the lowest-priority /
latest-deadline entry is evicted (or the newcomer rejected if it is
itself the worst), and at drain time entries whose deadline has already
passed are evicted instead of served — a stale recommendation is worth
less than the capacity it occupies.

Every admission decision produces either a served request or a drop
with an explicit reason, so the plane can prove the
conservation law the chaos tests assert: ``offered == served + dropped``
— no request is ever silently lost, even mid-failover.

Ordering is total and deterministic: ``(-priority, deadline_s, seq)`` —
highest priority first, then earliest deadline, then arrival order.  The
plane sorts a run's requests by it once; a request's position in that
order is its *rank*, and the queue is one ascending array of ranks: the
head is served first, the tail is the worst entry.  No object is built
per request: drops are logged as columns (:class:`DropLog`).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.serve.limiter import WatermarkGate

#: Drop reasons recorded by the plane (queue + limiter + gate); a drop's
#: *reason id* is its position here.
DROP_REASONS = (
    "rate_limited",   # tenant token bucket empty at arrival
    "backpressure",   # watermark gate closed to this priority class
    "queue_full",     # bounded queue evicted the worst entry
    "deadline",       # entry expired before it could be served
)
RATE_LIMITED, BACKPRESSURE, QUEUE_FULL, DEADLINE = range(4)


class DropLog:
    """Dropped requests in drop order, as four columns: sequence number,
    tenant id (position in ``tenants``), reason id (position in
    :data:`DROP_REASONS`), sim time."""

    def __init__(self, tenants: Tuple[str, ...], seq=(), tenant=(),
                 reason=(), time=()) -> None:
        self.tenants = tenants
        self.seq = np.asarray(seq, dtype=np.int64)
        self.tenant = np.asarray(tenant, dtype=np.int64)
        self.reason = np.asarray(reason, dtype=np.int64)
        self.time = np.asarray(time, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.seq)

    def extend(self, other: "DropLog") -> None:
        """Append another log's rows."""
        self.seq = np.concatenate([self.seq, other.seq])
        self.tenant = np.concatenate([self.tenant, other.tenant])
        self.reason = np.concatenate([self.reason, other.reason])
        self.time = np.concatenate([self.time, other.time])

    def counts(self) -> Dict[str, int]:
        """Drops per reason, reasons in order of first occurrence."""
        ids, first = np.unique(self.reason, return_index=True)
        totals = np.bincount(self.reason, minlength=len(DROP_REASONS))
        return {DROP_REASONS[r]: int(totals[r])
                for r in ids[np.argsort(first)].tolist()}


class AdmissionQueue:
    """Bounded priority queue of pending requests, held as ranks.

    Args:
        capacity: maximum queued requests (>= 1).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.capacity = capacity
        #: Ascending ranks; the front is served first.
        self._ranks = np.empty(0, dtype=np.int64)

    @property
    def depth(self) -> int:
        """Current number of queued requests."""
        return len(self._ranks)

    def admit(self, ranks: np.ndarray, protected: np.ndarray,
              gate: WatermarkGate
              ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Offer one quantum's arrivals, in arrival order, through the
        watermark gate and into the queue.

        Before each arrival the gate sees the current depth; a closed
        gate sheds the unprotected; a full queue makes its worst entry —
        or the newcomer, if that is the worst — give way.  When the gate
        is open and ``depth + arrivals`` exceeds neither its high
        watermark nor the capacity, no arrival can meet a threshold: the
        depth each one sees is below both, so all are queued in one
        merge.  Otherwise the same decisions run one arrival at a time
        over plain integers.

        Returns:
            ``None`` when every arrival was queued; else ``(position,
            victim rank, reason id)`` of each drop in decision order —
            ``position`` is the arrival that caused it, the victim is
            that arrival itself or the entry it displaced.
        """
        depth = len(self._ranks)
        if (not gate.closed
                and depth + len(ranks) <= min(gate.high, self.capacity)):
            self._ranks = np.sort(np.concatenate([self._ranks, ranks]))
            return None
        entries = self._ranks.tolist()
        high, low, capacity = gate.high, gate.low, self.capacity
        closed, transitions = gate.closed, gate.transitions
        positions, victims, reasons = [], [], []
        for position, (rank, keep) in enumerate(
                zip(ranks.tolist(), protected.tolist())):
            if closed:
                closed = depth > low
            elif depth >= high:
                closed = True
                transitions += 1
            if closed and not keep:
                victim, reason = rank, BACKPRESSURE
            elif depth < capacity:
                insort(entries, rank)
                depth += 1
                continue
            elif rank >= entries[-1]:
                victim, reason = rank, QUEUE_FULL
            else:
                victim, reason = entries.pop(), QUEUE_FULL
                insort(entries, rank)
            positions.append(position)
            victims.append(victim)
            reasons.append(reason)
        gate.closed, gate.transitions = closed, transitions
        self._ranks = np.asarray(entries, dtype=np.int64)
        return (np.asarray(positions, dtype=np.int64),
                np.asarray(victims, dtype=np.int64),
                np.asarray(reasons, dtype=np.int64))

    def drain(self, limit: int, now_s: float, deadline_of: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Dequeue up to ``limit`` servable requests at sim-time ``now_s``.

        Args:
            deadline_of: absolute deadline of every rank of the run.

        Returns:
            ``(batch, expired)`` ranks — ``batch`` in priority order, ready
            to serve; ``expired`` entries met before the batch filled had
            hit their deadline while queued and must be recorded as
            evictions by the caller.
        """
        alive = deadline_of[self._ranks] >= now_s
        if alive.all():
            batch, self._ranks = self._ranks[:limit], self._ranks[limit:]
            return batch, batch[:0]
        # One past the limit-th servable entry (or everything).
        stop = int(np.cumsum(alive).searchsorted(limit)) + 1
        head, alive = self._ranks[:stop], alive[:stop]
        self._ranks = self._ranks[stop:]
        return head[alive], head[~alive]
