"""Online serving plane for PS-resident artifacts (``repro.serve``).

Batch training leaves ranks and embeddings on the parameter servers;
this package exposes them to simulated request traffic on the
deterministic sim clock — the Tencent production setting the paper
motivates (Sec. I), where trained vectors feed online recommenders.

Pieces:

* :mod:`repro.serve.workload` — seeded request generator (Zipfian key
  skew, tenant mix, Poisson arrivals on sim time) returning the stream
  as columns (:class:`RequestBatch`).
* :mod:`repro.serve.limiter` — per-tenant token buckets and the
  queue-watermark backpressure gate.
* :mod:`repro.serve.admission` — bounded priority queue with
  deadline-based eviction.
* :mod:`repro.serve.plane` — the :class:`ServingPlane` orchestrator
  routing lookups to PS servers through the existing RPC layer behind a
  hot-key :class:`repro.ps.cache.PullCache` per model, and
  :func:`publish_snapshot`, which turns trained rows into a checkpointed
  serving vector.

``repro serve`` (:mod:`repro.cli`) runs the train → snapshot → serve →
report pipeline end to end.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.limiter import TenantRateLimiter, TokenBucket, WatermarkGate
from repro.serve.plane import (
    ServingPlane,
    ServingReport,
    default_serve_slos,
    publish_snapshot,
)
from repro.serve.workload import (
    Request,
    RequestBatch,
    RequestGenerator,
    TenantSpec,
)

__all__ = [
    "AdmissionQueue",
    "Request",
    "RequestBatch",
    "RequestGenerator",
    "ServingPlane",
    "ServingReport",
    "TenantRateLimiter",
    "TenantSpec",
    "TokenBucket",
    "WatermarkGate",
    "default_serve_slos",
    "publish_snapshot",
]
