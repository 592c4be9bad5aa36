"""Per-tenant token-bucket rate limiting and watermark backpressure.

Two admission-control mechanisms guard the serving plane's queue:

* :class:`TokenBucket` / :class:`TenantRateLimiter` — each rate-limited
  tenant refills tokens at its contracted rate on the *simulated* clock; a
  request that finds the bucket empty is rejected immediately (a fast 429,
  never queued).  Refill is computed from sim-time deltas, so the limiter
  is bit-deterministic under the double-run harness.  A bucket's fill is
  a chain of float ``min`` / add / subtract, one link per arrival, so it
  runs as that recurrence over plain floats — but only over the limited
  tenants' arrivals, and it depends on nothing but those: the plane runs
  it once over a whole request stream.
* :class:`WatermarkGate` — hysteresis over the admission-queue depth.
  When depth crosses the high watermark the gate closes and arrivals
  below the protected priority are shed until depth drains to the low
  watermark; latency-critical tenants keep flowing.  This is the
  standard mempool/ingress pattern: bounded queue, shed the best-effort
  class first, never block the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.serve.workload import TenantSpec


@dataclass
class TokenBucket:
    """Classic token bucket on the sim clock.

    Attributes:
        rate: tokens added per simulated second (0 = unlimited).
        burst: bucket capacity.
        tokens: current fill; starts full.
        last_s: sim-time of the last refill.
    """

    rate: float
    burst: float
    tokens: float = field(init=False)
    last_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise ConfigError("rate must be >= 0")
        if self.burst < 1.0:
            raise ConfigError("burst must be >= 1")
        self.tokens = float(self.burst)

    def take(self, arrivals: Iterable[float]) -> List[bool]:
        """Consume one token per arrival time, in order; False where the
        bucket was empty.  An unlimited bucket (``rate == 0``) grants all."""
        if self.rate == 0.0:
            return [True for _ in arrivals]
        rate, burst = self.rate, float(self.burst)
        tokens, last_s = self.tokens, self.last_s
        granted = []
        for now_s in arrivals:
            if now_s > last_s:
                tokens = min(burst, tokens + (now_s - last_s) * rate)
                last_s = now_s
            grant = tokens >= 1.0
            if grant:
                tokens -= 1.0
            granted.append(grant)
        self.tokens, self.last_s = tokens, last_s
        return granted


class TenantRateLimiter:
    """One token bucket per rate-limited tenant, keyed by the tenant's
    position in the spec list; the others are never held back."""

    def __init__(self, tenants: Sequence[TenantSpec]) -> None:
        self._buckets: Dict[int, TokenBucket] = {
            i: TokenBucket(rate=t.rate_limit, burst=float(t.burst))
            for i, t in enumerate(tenants) if t.rate_limit > 0.0
        }

    def admit(self, tenant: np.ndarray, arrival: np.ndarray) -> np.ndarray:
        """Which requests (tenant id and arrival time columns, in arrival
        order) pass their tenant's bucket."""
        passed = np.ones(len(tenant), dtype=bool)
        for tid, bucket in self._buckets.items():
            mine = np.flatnonzero(tenant == tid)
            passed[mine] = bucket.take(arrival[mine].tolist())
        return passed


@dataclass
class WatermarkGate:
    """Hysteresis gate over the admission-queue depth.

    Attributes:
        high: depth at or above which the gate closes.
        low: depth at or below which a closed gate reopens.
        protect_priority: requests with priority >= this pass even
            through a closed gate (the latency-critical class).
        closed: current gate state.
        transitions: number of open -> closed transitions (exposed so
            reports can show how often backpressure engaged).
    """

    high: int
    low: int
    protect_priority: int
    closed: bool = field(init=False, default=False)
    transitions: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.low < 0 or self.high <= self.low:
            raise ConfigError("need 0 <= low < high watermarks")

    def update(self, depth: int) -> None:
        """Refresh the gate from the current queue depth."""
        if not self.closed and depth >= self.high:
            self.closed = True
            self.transitions += 1
        elif self.closed and depth <= self.low:
            self.closed = False

    def protects(self, priority: np.ndarray) -> np.ndarray:
        """Which priorities pass even a closed gate."""
        return priority >= self.protect_priority
