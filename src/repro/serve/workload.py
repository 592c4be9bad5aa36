"""Seeded request workloads: Zipfian key skew, tenant mix, sim-time arrivals.

Serving traffic at Tencent scale is dominated by two properties the
generator reproduces deterministically:

* **key skew** — a small set of hot users/items receives most lookups.
  Keys are drawn from a truncated Zipf distribution over the model's key
  space (probability of key ``k`` proportional to ``1 / (k+1)**s``), the
  standard model for social-graph access skew and the reason a small
  hot-key cache absorbs most of the load.
* **tenant mix** — several downstream products share the plane with
  different request rates, priorities and deadlines.

Arrivals follow a merged Poisson process on the *simulated* clock: the
inter-arrival gaps are exponential draws from one seeded generator, so a
seed fully determines every request's tenant, key and arrival time and a
double-run serves bit-identical traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed, make_rng


@dataclass(frozen=True)
class TenantSpec:
    """One downstream product sharing the serving plane.

    Attributes:
        name: tenant identifier ("feeds", "ads", ...).
        model: PS matrix/vector name this tenant looks up.
        weight: share of the merged arrival process.
        priority: admission priority; higher is served first and is
            protected longer under backpressure.
        deadline_s: per-request staleness bound — a request still queued
            this many simulated seconds after its arrival is evicted
            rather than served (a stale recommendation is worthless).
        rate_limit: token-bucket refill rate in requests per simulated
            second; ``0`` disables rate limiting for the tenant.
        burst: token-bucket capacity (tokens), ``>= 1``.
    """

    name: str
    model: str
    weight: float = 1.0
    priority: int = 1
    deadline_s: float = 5.0
    rate_limit: float = 0.0
    burst: int = 32

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ConfigError(f"tenant {self.name}: weight must be > 0")
        if self.deadline_s <= 0.0:
            raise ConfigError(f"tenant {self.name}: deadline_s must be > 0")
        if self.rate_limit < 0.0:
            raise ConfigError(f"tenant {self.name}: rate_limit must be >= 0")
        if self.burst < 1:
            raise ConfigError(f"tenant {self.name}: burst must be >= 1")


@dataclass
class Request:
    """One lookup request flowing through the plane.

    Attributes:
        seq: global arrival sequence number (deterministic tie-breaker).
        tenant: owning tenant's name.
        model: PS matrix/vector to look up.
        key: row key to fetch.
        arrival_s: sim-time instant the request enters the plane.
        deadline_s: absolute sim-time after which the request is stale.
        priority: admission priority inherited from the tenant.
    """

    seq: int
    tenant: str
    model: str
    key: int
    arrival_s: float
    deadline_s: float
    priority: int


def zipf_probabilities(key_space: int, s: float) -> np.ndarray:
    """Truncated-Zipf pmf over ``0 .. key_space-1`` (hot keys first)."""
    if key_space < 1:
        raise ConfigError("key_space must be >= 1")
    if s < 0.0:
        raise ConfigError("zipf exponent must be >= 0")
    ranks = np.arange(1, key_space + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


@dataclass
class RequestGenerator:
    """Seeded generator of one serving workload.

    Args:
        tenants: the tenant mix; at least one.
        key_space: number of servable keys per model (keys are drawn in
            ``0 .. key_space-1``; hot keys are the low ids).
        zipf_s: skew exponent; 0 is uniform, ~1.1 is social-graph-like.
        rate: merged arrival rate in requests per simulated second.
        seed: workload seed; fully determines the traffic.
    """

    tenants: Sequence[TenantSpec]
    key_space: int
    zipf_s: float = 1.1
    rate: float = 1000.0
    seed: int = 0
    _pmf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if self.rate <= 0.0:
            raise ConfigError("rate must be > 0")
        self._pmf = zipf_probabilities(self.key_space, self.zipf_s)

    def generate(self, num_requests: int,
                 start_s: float = 0.0) -> List[Request]:
        """Materialize ``num_requests`` requests, sorted by arrival.

        Arrival gaps, tenant choices and keys each use an independent
        derived stream so changing one knob (say the tenant mix) does not
        reshuffle the others.
        """
        if num_requests < 0:
            raise ConfigError("num_requests must be >= 0")
        gaps = make_rng(derive_seed(self.seed, "serve-arrivals")).exponential(
            1.0 / self.rate, size=num_requests)
        arrivals = start_s + np.cumsum(gaps)
        weights = np.array([t.weight for t in self.tenants])
        tenant_idx = make_rng(derive_seed(self.seed, "serve-tenants")).choice(
            len(self.tenants), size=num_requests, p=weights / weights.sum())
        keys = make_rng(derive_seed(self.seed, "serve-keys")).choice(
            self.key_space, size=num_requests, p=self._pmf)
        out: List[Request] = []
        for i in range(num_requests):
            tenant = self.tenants[int(tenant_idx[i])]
            t = float(arrivals[i])
            out.append(Request(
                seq=i, tenant=tenant.name, model=tenant.model,
                key=int(keys[i]), arrival_s=t,
                deadline_s=t + tenant.deadline_s,
                priority=tenant.priority,
            ))
        return out


def default_tenants(model: str,
                    second_model: Optional[str] = None) -> List[TenantSpec]:
    """The stock two-tenant mix used by the CLI and examples.

    ``feeds`` is the latency-critical high-priority product; ``batch-reco``
    is a best-effort consumer that backpressure sheds first.
    """
    return [
        TenantSpec(name="feeds", model=model, weight=3.0, priority=2,
                   deadline_s=5.0),
        TenantSpec(name="batch-reco", model=second_model or model,
                   weight=1.0, priority=1, deadline_s=10.0,
                   rate_limit=400.0, burst=64),
    ]
