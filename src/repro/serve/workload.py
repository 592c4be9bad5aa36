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

The stream is drawn and kept as columns (:class:`RequestBatch`), with no
Python object per request; a :class:`Request` is a view onto one row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, List, Sequence, Tuple

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


class RequestBatch:
    """A request stream as columns: one array per field, one row per request.

    ``seq``, ``key`` and ``priority`` are int64, ``arrival_s`` and
    ``deadline_s`` float64.  ``tenant`` and ``model`` are int64 codes into
    the ``tenants`` and ``models`` name tables.  Indexing or iterating
    yields :class:`Request` views onto single rows; this is the form
    :meth:`RequestGenerator.generate` returns and
    :meth:`repro.serve.plane.ServingPlane.run` reads as it is.
    """

    __slots__ = ("seq", "tenant", "model", "key", "arrival_s", "deadline_s",
                 "priority", "tenants", "models")

    def __init__(self, seq: np.ndarray, tenant: np.ndarray, model: np.ndarray,
                 key: np.ndarray, arrival_s: np.ndarray,
                 deadline_s: np.ndarray, priority: np.ndarray,
                 tenants: Tuple[str, ...], models: Tuple[str, ...]) -> None:
        self.seq, self.tenant, self.model, self.key = seq, tenant, model, key
        self.arrival_s, self.deadline_s = arrival_s, deadline_s
        self.priority = priority
        self.tenants, self.models = tenants, models

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, row: int) -> "Request":
        return _row_view(self, range(len(self.seq))[operator.index(row)])

    def __iter__(self) -> Iterator["Request"]:
        return map(_row_view, repeat(self), range(len(self.seq)))


class Request:
    """One lookup request: a view onto one row of a :class:`RequestBatch`.

    Setting ``arrival_s`` or ``deadline_s`` writes through to the batch,
    so the next :meth:`~repro.serve.plane.ServingPlane.run` over it sees
    the new times.

    Attributes:
        seq: global arrival sequence number (deterministic tie-breaker).
        tenant: owning tenant's name.
        model: PS matrix/vector to look up.
        key: row key to fetch.
        arrival_s: sim-time instant the request enters the plane.
        deadline_s: absolute sim-time after which the request is stale.
        priority: admission priority inherited from the tenant.
    """

    __slots__ = ("_batch", "_row")

    @property
    def seq(self) -> int:
        return self._batch.seq.item(self._row)

    @property
    def tenant(self) -> str:
        batch = self._batch
        return batch.tenants[batch.tenant[self._row]]

    @property
    def model(self) -> str:
        batch = self._batch
        return batch.models[batch.model[self._row]]

    @property
    def key(self) -> int:
        return self._batch.key.item(self._row)

    @property
    def arrival_s(self) -> float:
        return self._batch.arrival_s.item(self._row)

    @arrival_s.setter
    def arrival_s(self, value: float) -> None:
        self._batch.arrival_s[self._row] = value

    @property
    def deadline_s(self) -> float:
        return self._batch.deadline_s.item(self._row)

    @deadline_s.setter
    def deadline_s(self, value: float) -> None:
        self._batch.deadline_s[self._row] = value

    @property
    def priority(self) -> int:
        return self._batch.priority.item(self._row)


def _row_view(batch: RequestBatch, row: int) -> Request:
    """Row ``row`` of ``batch``."""
    request = object.__new__(Request)
    request._batch = batch
    request._row = row
    return request


def check_tenant_names(tenants: Sequence[TenantSpec]) -> None:
    """At least one tenant, and no two sharing a name."""
    if not tenants:
        raise ConfigError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names in {names}")


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
        check_tenant_names(self.tenants)
        if self.rate <= 0.0:
            raise ConfigError("rate must be > 0")
        self._pmf = zipf_probabilities(self.key_space, self.zipf_s)

    def generate(self, num_requests: int,
                 start_s: float = 0.0) -> RequestBatch:
        """Draw ``num_requests`` requests as one batch, sorted by arrival.

        Arrival gaps, tenant choices and keys each use an independent
        derived stream so changing one knob (say the tenant mix) does not
        reshuffle the others.  Model, deadline and priority are gathered
        from the drawn tenant's spec.
        """
        if num_requests < 0:
            raise ConfigError("num_requests must be >= 0")
        gaps = make_rng(derive_seed(self.seed, "serve-arrivals")).exponential(
            1.0 / self.rate, size=num_requests)
        arrivals = start_s + np.cumsum(gaps)
        weights = np.array([t.weight for t in self.tenants])
        tenant = make_rng(derive_seed(self.seed, "serve-tenants")).choice(
            len(self.tenants), size=num_requests, p=weights / weights.sum())
        keys = make_rng(derive_seed(self.seed, "serve-keys")).choice(
            self.key_space, size=num_requests, p=self._pmf)
        models = tuple(dict.fromkeys(t.model for t in self.tenants))
        model_of = np.array([models.index(t.model) for t in self.tenants],
                            dtype=np.int64)
        deadline_of = np.array([t.deadline_s for t in self.tenants],
                               dtype=np.float64)
        priority_of = np.array([t.priority for t in self.tenants],
                               dtype=np.int64)
        return RequestBatch(
            np.arange(num_requests, dtype=np.int64),
            tenant.astype(np.int64, copy=False), model_of[tenant],
            keys.astype(np.int64, copy=False), arrivals,
            arrivals + deadline_of[tenant], priority_of[tenant],
            tuple(t.name for t in self.tenants), models)


def default_tenants(model: str) -> List[TenantSpec]:
    """The stock two-tenant mix used by the CLI and examples.

    ``feeds`` is the latency-critical high-priority product; ``batch-reco``
    is a best-effort consumer that backpressure sheds first.
    """
    return [
        TenantSpec(name="feeds", model=model, weight=3.0, priority=2,
                   deadline_s=5.0),
        TenantSpec(name="batch-reco", model=model,
                   weight=1.0, priority=1, deadline_s=10.0,
                   rate_limit=400.0, burst=64),
    ]
