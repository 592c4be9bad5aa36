"""Metered in-process RPC fabric.

The parameter-server agents in each Spark executor talk to the PS servers via
"RPC (remote process call)" (Sec. III-C).  This module provides that fabric
for the simulated cluster: named endpoints, liveness so failure injection
(killing a server) surfaces as :class:`RpcError` at call sites, and the fault
hook the chaos engine installs.  The PS agent dispatches to a live endpoint's
handler itself and charges its own cost; :meth:`RpcEnv.call` is the master's
metered health ping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.common.errors import EndpointNotFoundError, RpcError
from repro.common.metrics import RPC_BYTES, RPC_CALLS, MetricsRegistry
from repro.common.simclock import TaskCost


@dataclass
class RpcEndpoint:
    """One addressable party on the fabric (a PS server, the master, ...).

    Attributes:
        name: unique endpoint name.
        handler: object whose methods are invoked by :meth:`RpcEnv.call`.
        alive: dead endpoints reject calls with :class:`RpcError`.
    """

    name: str
    handler: Any
    alive: bool = field(default=True, init=False)


@dataclass
class RpcEnv:
    """Registry of endpoints plus the metered call path."""

    metrics: MetricsRegistry | None
    _endpoints: Dict[str, RpcEndpoint] = field(default_factory=dict,
                                               init=False)
    #: Optional fault hook ``(endpoint, method) -> extra_latency_s``; may
    #: raise :class:`RpcError` to fail the call.  Installed by the chaos
    #: engine; consulted by :meth:`check_fault` on every metered call path
    #: (including the PS agent's direct dispatch, which bypasses
    #: :meth:`call`).
    fault_injector: Optional[Callable[[str, str], float]] = field(
        default=None, init=False)

    def check_fault(self, name: str, method: str,
                    cost: TaskCost | None) -> None:
        """Give the installed fault injector a chance to fail this call.

        Extra latency the injector returns (or attaches to a raised
        timeout) is charged to ``cost`` when provided; callers without a
        task-cost accumulator absorb it at their own clock (see the PS
        agent and master).
        """
        if self.fault_injector is None:
            return
        try:
            extra_s = self.fault_injector(name, method)
        except RpcError as exc:
            delay_s = getattr(exc, "delay_s", 0.0)
            if cost is not None and delay_s > 0.0:
                cost.net_s += delay_s
            raise
        if extra_s and cost is not None:
            cost.net_s += extra_s

    def register(self, name: str, handler: Any) -> RpcEndpoint:
        """Register ``handler`` under ``name`` (replacing a dead predecessor)."""
        ep = RpcEndpoint(name, handler)
        self._endpoints[name] = ep
        return ep

    def unregister(self, name: str) -> None:
        """Remove an endpoint entirely."""
        self._endpoints.pop(name, None)

    def kill(self, name: str) -> None:
        """Mark an endpoint dead; subsequent calls raise :class:`RpcError`."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise EndpointNotFoundError(name)
        ep.alive = False

    def revive(self, name: str, handler: Any) -> None:
        """Bring an endpoint back with a fresh handler."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise EndpointNotFoundError(name)
        ep.alive = True
        ep.handler = handler

    def is_alive(self, name: str) -> bool:
        """Liveness check used by the PS master's health probes."""
        ep = self._endpoints.get(name)
        return ep is not None and ep.alive

    def endpoint(self, name: str) -> RpcEndpoint:
        """Look up an endpoint or raise :class:`EndpointNotFoundError`."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise EndpointNotFoundError(name)
        return ep

    def call(self, name: str, method: str, *, request_bytes: int,
             response_bytes: int) -> Any:
        """Invoke the argument-free ``method`` on endpoint ``name`` and
        meter one call of ``request_bytes + response_bytes``."""
        ep = self.endpoint(name)
        if not ep.alive:
            raise RpcError(f"endpoint {name} is not alive")
        self.check_fault(name, method, None)
        fn = getattr(ep.handler, method, None)
        if fn is None:
            raise RpcError(f"endpoint {name} has no method {method!r}")
        result = fn()
        if self.metrics is not None:
            self.metrics.inc(RPC_CALLS)
            self.metrics.inc(RPC_BYTES, request_bytes + response_bytes)
        return result
