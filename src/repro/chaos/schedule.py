"""Deterministic fault schedules.

Table II of the paper evaluates PSGraph's fault tolerance by "manually
killing an executor / a parameter server" mid-job.  A
:class:`FaultSchedule` systematizes that manual kill into a declarative,
seed-reproducible plan: each :class:`FaultSpec` names a fault kind and a
*deterministic trigger* — a completed-task count, a PS sync epoch, or an
RPC call count — never the wall clock, so a seeded chaos run double-runs
bit-identically (the property CI's ``repro-lint`` job asserts through
the strict determinism harness).

Fault kinds:

==================  =====================================================
kind                effect when the trigger fires
==================  =====================================================
``kill_executor``   kill one Spark executor (cache + shuffle outputs lost)
``kill_server``     kill one PS server (model partitions lost)
``rpc_drop``        the next ``count`` matching RPCs raise
                    :class:`~repro.common.errors.RpcError` (transient)
``rpc_timeout``     like ``rpc_drop`` but each failure first charges
                    ``delay_s`` of simulated wait to the caller
``slow_executor``   multiply one executor's task time by ``factor`` for
                    ``duration_tasks`` completed tasks (a straggler)
==================  =====================================================

Schedules are read from JSON (the CLI's ``--chaos schedule.json``) and
can be generated from a seed with :func:`FaultSchedule.random`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import make_rng

#: Fault kinds that target an executor / server index via task triggers.
KILL_KINDS = ("kill_executor", "kill_server")
#: Fault kinds injected on the RPC fabric.
RPC_KINDS = ("rpc_drop", "rpc_timeout")
#: Every supported kind.
FAULT_KINDS = KILL_KINDS + RPC_KINDS + ("slow_executor",)


@dataclass
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        index: executor / server index (kill and slow faults).
        after_tasks: fire once the engine has seen this many completed
            tasks (kill / slow faults; mutually exclusive with
            ``at_epoch``).
        at_epoch: fire at the first completed task at or after this PS
            sync epoch (kill / slow faults on a context with a PS).
        task_kind: only count completed tasks of this kind (e.g.
            ``result``); ``None`` counts every task.
        endpoint: RPC endpoint glob, e.g. ``ps-server-*`` (rpc faults).
        method: RPC method glob, e.g. ``push`` (rpc faults).
        after_calls: fire from this many matching RPC calls onward.
        count: number of consecutive matching calls to fail.
        delay_s: simulated seconds charged per ``rpc_timeout`` failure.
        factor: slowdown multiplier for ``slow_executor``.
        duration_tasks: tasks the slowdown lasts (0 = until detached).
    """

    kind: str
    index: int = 0
    after_tasks: Optional[int] = None
    at_epoch: Optional[int] = None
    task_kind: Optional[str] = None
    endpoint: str = "*"
    method: str = "*"
    after_calls: int = 0
    count: int = 1
    delay_s: float = 0.0
    factor: float = 1.0
    duration_tasks: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{FAULT_KINDS}"
            )
        if self.kind in KILL_KINDS or self.kind == "slow_executor":
            if self.after_tasks is None and self.at_epoch is None:
                raise ConfigError(
                    f"{self.kind} fault needs an after_tasks or at_epoch "
                    "trigger"
                )
            if self.after_tasks is not None and self.at_epoch is not None:
                raise ConfigError(
                    f"{self.kind} fault must use after_tasks OR at_epoch, "
                    "not both"
                )
        if self.kind == "slow_executor" and self.factor < 1.0:
            raise ConfigError("slow_executor factor must be >= 1.0")
        if self.kind in RPC_KINDS and self.count < 1:
            raise ConfigError("rpc fault count must be >= 1")
        if self.delay_s < 0.0:
            raise ConfigError("delay_s must be non-negative")

    def matches_rpc(self, endpoint: str, method: str) -> bool:
        """Whether this (rpc) fault targets one endpoint/method pair."""
        return (fnmatchcase(endpoint, self.endpoint)
                and fnmatchcase(method, self.method))


@dataclass
class FaultSchedule:
    """An ordered list of planned faults plus its provenance seed."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.faults = [
            f if isinstance(f, FaultSpec) else FaultSpec(**f)
            for f in self.faults
        ]

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        """Parse a schedule from a dict (the JSON layout)."""
        if not isinstance(data, dict) or "faults" not in data:
            raise ConfigError(
                "fault schedule must be an object with a 'faults' list"
            )
        faults = data["faults"]
        if not isinstance(faults, list):
            raise ConfigError("'faults' must be a list")
        try:
            specs = [FaultSpec(**f) for f in faults]
        except TypeError as exc:
            raise ConfigError(f"bad fault spec: {exc}") from exc
        seed = data.get("seed")
        return cls(specs, seed=seed if seed is None else int(seed))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault schedule JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        """Load a schedule from a local JSON file."""
        with open(path) as f:
            return cls.from_json(f.read())

    # -- generation --------------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, num_faults: int = 3,
               num_executors: int, num_servers: int = 0,
               max_after_tasks: int = 60,
               kinds: Sequence[str] = FAULT_KINDS) -> "FaultSchedule":
        """Generate a seed-deterministic schedule.

        Triggers are drawn uniformly from ``[1, max_after_tasks]`` and
        targets from the executor/server ranges; the same seed always
        yields the same schedule, so randomized chaos sweeps remain
        reproducible.
        """
        rng = make_rng(seed)
        kinds = [
            k for k in kinds
            if num_servers > 0 or k != "kill_server"
        ]
        if not kinds:
            raise ConfigError("no fault kinds to draw from")
        faults: List[FaultSpec] = []
        for _ in range(num_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            after = int(rng.integers(1, max_after_tasks + 1))
            if kind == "kill_executor":
                faults.append(FaultSpec(
                    kind, index=int(rng.integers(num_executors)),
                    after_tasks=after,
                ))
            elif kind == "kill_server":
                faults.append(FaultSpec(
                    kind, index=int(rng.integers(num_servers)),
                    after_tasks=after,
                ))
            elif kind == "slow_executor":
                faults.append(FaultSpec(
                    kind, index=int(rng.integers(num_executors)),
                    after_tasks=after,
                    factor=float(2 + int(rng.integers(7))),
                    duration_tasks=int(rng.integers(5, 30)),
                ))
            else:  # rpc_drop / rpc_timeout
                faults.append(FaultSpec(
                    kind, endpoint="ps-server-*",
                    after_calls=int(rng.integers(1, max_after_tasks + 1)),
                    count=int(rng.integers(1, 3)),
                    delay_s=(float(rng.integers(1, 10))
                             if kind == "rpc_timeout" else 0.0),
                ))
        # Sort by trigger so firing order is independent of draw order.
        faults.sort(key=lambda f: (
            f.after_tasks if f.after_tasks is not None else f.after_calls,
            f.kind, f.index,
        ))
        return cls(faults, seed=seed)
