"""PS master: health checking and failure recovery.

Sec. III-B: "the master monitors the status of servers by periodical sending
health checking signal.  Once one server encounters failure, the master asks
the resource management platform to restart the server.  If the algorithm
can bear inconsistency between model partitions, such as GE and GNN, the
newly launched server pulls the checkpoint partition from HDFS and continues
training.  Otherwise, the master asks all the servers to restore the
checkpoint partitions from HDFS, such that model consistency is ensured for
algorithms such as PageRank."

Recovery modes therefore come in two flavours:

* ``relaxed`` — only the failed server reloads its checkpoints;
* ``strict`` — every server rolls back to the last checkpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.common.errors import CheckpointNotFoundError, RpcError
from repro.common.metrics import PS_PINGS_FAILED
from repro.common.simclock import barrier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ps.context import PSContext
    from repro.ps.meta import MatrixMeta

#: Recovery modes (see module docstring).
RECOVERY_MODES = ("relaxed", "strict")


class PSMaster:
    """Monitors servers and orchestrates recovery."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx
        #: Driver sim-seconds per server ping; experiment cells rescale it.
        self.health_check_cost_s = 5e-5
        self.recoveries = 0

    def health_check(self) -> List[int]:
        """Ping every server; returns indices of dead ones.

        A server is dead when its container or its endpoint is (what
        ``kill_server`` sets).  A ping that fails on a live server is a
        network fault: it costs its :attr:`health_check_cost_s` and any
        injected delay on the driver clock, counts in
        ``ps.master.pings_failed``, and restarts nothing.
        """
        dead: List[int] = []
        spark = self.psctx.spark
        rpc, clock = spark.rpc, spark.driver_clock
        for server in self.psctx.servers:
            clock.advance(self.health_check_cost_s)
            if not (server.container.alive and rpc.is_alive(server.id)):
                dead.append(server.index)
                continue
            try:
                rpc.call(server.id, "ping", request_bytes=8, response_bytes=8)
            except RpcError as exc:
                clock.advance(getattr(exc, "delay_s", 0.0))
                spark.metrics.inc(PS_PINGS_FAILED)
        return dead

    def recover(self, mode: str = "relaxed") -> List[int]:
        """Detect dead servers, restart them, and reload model state.

        Args:
            mode: ``relaxed`` reloads only the failed servers' partitions
                from their checkpoints; ``strict`` rolls *every* partition
                of every matrix back to the last checkpoint (model
                consistency for algorithms like PageRank).

        Returns:
            Indices of the servers that were recovered.

        Raises:
            CheckpointNotFoundError: a needed partition was never
                checkpointed.
        """
        if mode not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {mode!r}; choose from "
                f"{RECOVERY_MODES}"
            )
        psctx = self.psctx
        dead = self.health_check()
        if not dead:
            return []
        recovery_start_s = psctx.spark.driver_clock.now_s
        # Detection point: the dead servers are known but not yet
        # restarted.  Refresh the liveness gauge and tick the telemetry
        # collector here so the availability SLO sees a degraded probe
        # with a sim timestamp between fault injection and recovery end.
        psctx.update_liveness_gauge()
        psctx.spark.notify_tick(recovery_start_s)
        dead_set = set(dead)
        restore_all = mode == "strict"
        # Phase 1: verify every checkpoint this restore will need BEFORE
        # touching any server.  A missing checkpoint must leave the
        # cluster exactly as the failure left it — not with servers
        # revived-but-empty and other matrices half-restored.
        plan: List[Tuple["MatrixMeta", int, int, str]] = []
        for name in psctx.matrix_names():
            meta = psctx.matrix_meta(name)
            for pid in range(meta.num_partitions):
                sidx = meta.server_of(pid)
                if not restore_all and sidx not in dead_set:
                    continue
                path = psctx.checkpoint_path(name, pid)
                if not psctx.spark.hdfs.exists(path):
                    raise CheckpointNotFoundError(
                        f"no checkpoint for {name}[{pid}] at {path}"
                    )
                plan.append((meta, pid, sidx, path))
        # Phase 2: restart dead containers, wipe their stale state and
        # re-register their RPC endpoints.
        for index in dead:
            server = psctx.servers[index]
            psctx.spark.resource_manager.restart(server.container)
            server.wipe()
            psctx.spark.rpc.revive(server.id, server)
        psctx.update_liveness_gauge()
        # Phase 3: reload from the verified plan.
        for meta, pid, sidx, path in plan:
            psctx.servers[sidx].restore_partition(meta, pid, path)
        self.recoveries += len(dead)
        psctx.note_recovery(mode, dead)
        # Cached pulls may predate the rollback; drop them.
        psctx.clear_pull_caches()
        # Everyone waited for recovery (the paper: other executors are
        # "blocked by the synchronization controller of PS").
        end_s = barrier(
            [psctx.spark.driver_clock]
            + [ex.container.clock for ex in psctx.spark.executors if ex.alive]
            + [s.container.clock for s in psctx.servers
               if s.container.alive]
        )
        tracer = psctx.spark.tracer
        if tracer.enabled:
            tracer.add(
                "driver", "recovery", "ps.recover",
                recovery_start_s, end_s,
                {"mode": mode,
                 "servers": [psctx.servers[i].id for i in dead]},
            )
        psctx.spark.notify_tick(end_s)
        return dead
