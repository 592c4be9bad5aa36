"""PSContext — the driver-side entry point of the parameter server.

"PSGraph creates a context called PSContext to store the configurations of
PS, such as the locations of parameter servers and the partition layout
(mapping of data partitions to servers)" (Sec. III-C).

The context launches server containers through the resource manager,
registers them on the RPC fabric, owns the agent, the sync controller and
the master, and is the factory for PS-resident models (matrices, vectors,
column-sharded embeddings, neighbor tables).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import (
    CheckpointNotFoundError,
    ConfigError,
    ContainerLostError,
    MatrixNotFoundError,
    RpcError,
)
from repro.common.metrics import (
    PS_CHECKPOINT_BYTES,
    PS_CHECKPOINTS,
    PS_RECOVERIES,
    PS_ROLLBACKS,
    PS_SERVERS_ALIVE_G,
    PS_SERVERS_TOTAL_G,
)
from repro.dataflow.context import SparkContext
from repro.ps.agent import PSAgent
from repro.ps.master import PSMaster
from repro.ps.matrix import PSEmbedding, PSMatrix, PSNeighborTable, PSVector
from repro.ps.meta import STORAGE_KINDS, MatrixMeta
from repro.ps.optimizer import Optimizer
from repro.ps.partitioner import make_ps_partitioner
from repro.ps.server import PSServer
from repro.ps.storage import (
    ColumnShardMatrix,
    DenseRowStore,
    NeighborTableView,
)
from repro.ps.sync import SyncController


class PSContext:
    """One parameter-server deployment attached to a SparkContext.

    Args:
        spark: the owning SparkContext (provides Yarn, RPC, HDFS, metrics,
            and the cluster config's server count and grant).
        checkpoint_dir: HDFS directory for partition checkpoints.
        checkpoint_interval: when > 0, every Nth :meth:`barrier` call
            checkpoints every registered model to HDFS — the paper's
            "each parameter server periodically stores the local data
            partition to HDFS" (Sec. III-A).  0 leaves checkpointing to
            explicit calls.
        sync_mode: "bsp" (default) or "asp".
    """

    def __init__(self, spark: SparkContext, *,
                 checkpoint_dir: str = "/ps-checkpoints",
                 checkpoint_interval: int = 0,
                 sync_mode: str = "bsp") -> None:
        cluster = spark.cluster
        if cluster.num_servers <= 0:
            raise ConfigError(
                "PSContext needs at least one server "
                "(ClusterConfig.num_servers)")
        self.spark = spark
        self.checkpoint_dir = checkpoint_dir.rstrip("/")
        self.checkpoint_interval = checkpoint_interval
        containers = spark.resource_manager.request_many(
            "ps-server", cluster.num_servers, cluster.server_mem_bytes
        )
        self.servers: List[PSServer] = [
            PSServer(i, c, cluster.cost_model, spark.hdfs,
                     tracer=spark.tracer)
            for i, c in enumerate(containers)
        ]
        for server in self.servers:
            spark.rpc.register(server.id, server)
        self.agent = PSAgent(self)
        self.sync = SyncController(self, sync_mode)
        self.master = PSMaster(self)
        self._metas: Dict[str, MatrixMeta] = {}
        self._handles: Dict[str, object] = {}
        self._pull_caches: Dict[str, object] = {}
        self._stopped = False
        #: When True (default), a failed RPC triggers master recovery and
        #: one retry instead of failing the caller (Sec. III-B).
        self.auto_recover = True
        #: Recovery consistency mode used by auto-recovery: "relaxed" for
        #: GE/GNN-style tolerance, "strict" for PageRank-style rollback.
        self.recovery_mode = "relaxed"
        #: Completed algorithm iterations, maintained by the driver loop
        #: via :meth:`start_iterations` / :meth:`complete_iteration`.
        self.progress = 0
        #: Bumped on every master recovery; lets a driver loop detect that
        #: a recovery happened while a stage was in flight.
        self.recovery_generation = 0
        #: Bumped only on *strict* recoveries (checkpoint rollbacks) — the
        #: signal that in-flight iteration work must be redone.
        self.rollback_generation = 0
        #: When True, :meth:`barrier` leaves periodic checkpointing to
        #: :meth:`complete_iteration` (iteration-driven policy).
        self._iteration_driven = False
        #: ``progress`` value captured by the most recent checkpoint.
        self._ckpt_progress = 0
        spark.metrics.set_gauge(PS_SERVERS_TOTAL_G, float(cluster.num_servers))
        self.update_liveness_gauge()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of PS server containers."""
        return len(self.servers)

    def matrix_names(self) -> List[str]:
        """Names of every registered model."""
        return sorted(self._metas)

    def matrix_meta(self, name: str) -> MatrixMeta:
        """Metadata of one model."""
        meta = self._metas.get(name)
        if meta is None:
            raise MatrixNotFoundError(name)
        return meta

    # ------------------------------------------------------------------
    # model factories
    # ------------------------------------------------------------------

    def _register(self, meta: MatrixMeta, handle: object) -> None:
        if meta.name in self._metas:
            raise ConfigError(f"matrix {meta.name!r} already exists")
        self._metas[meta.name] = meta
        self._handles[meta.name] = handle
        parts = range(meta.num_partitions)
        if meta.storage == "dense":
            # A matrix's rows live in one array laid out partition-major;
            # a server's partition is a contiguous view of it, so a keyed
            # gather or scatter over the matrix is one array operation.
            keys = [meta.partitioner.keys_of_partition(p) for p in parts]
            meta.data = DenseRowStore(np.concatenate(keys), meta.cols,
                                      meta.dtype, meta.init)
            meta.part_offsets = np.cumsum(
                [0] + [len(k) for k in keys]).tolist()
        elif meta.storage == "column":
            # Shard after shard, each a contiguous rows x width block: a
            # full-row gather or scatter is one strided copy per width.
            meta.part_offsets = meta.partitioner.bounds.tolist()
            meta.part_widths = np.diff(meta.part_offsets)
            meta.data = ColumnShardMatrix(meta.rows, meta.part_offsets,
                                          meta.dtype)
        elif meta.storage == "neighbor":
            servers, name, owners = self.servers, meta.name, meta.owners
            meta.data = NeighborTableView(
                len(owners),
                lambda pid: servers[owners[pid]]._stores.get((name, pid)))
        if meta.optimizer is not None:
            meta.opt_state = meta.optimizer.init_shared_state(
                meta.rows * meta.cols, meta.dtype, meta.num_partitions)
        for pid in parts:
            self.servers[meta.server_of(pid)].create_partition(meta, pid)

    def _default_partitions(self, size: int) -> int:
        # Two per server (spreads load), capped by the key space.
        return max(1, min(size, 2 * self.num_servers))

    def create_matrix(self, name: str, rows: int, cols: int = 1,
                      dtype: np.dtype = np.float64, *,
                      partition: str = "range", axis: int = 0,
                      storage: str = "dense", init: float = 0.0,
                      optimizer: Optimizer | None = None,
                      num_partitions: int | None = None) -> PSMatrix:
        """Create a row-partitioned matrix on the PS (Listing 1's
        ``PSContext.matrix(row, col, DataType)``)."""
        if storage not in STORAGE_KINDS:
            raise ConfigError(f"unknown storage {storage!r}")
        if axis not in (0, 1):
            raise ConfigError("axis must be 0 or 1")
        if (axis == 1) != (storage == "column") or (
                axis == 1 and (partition != "range" or init != 0.0)):
            raise ConfigError("a column-sharded matrix (axis=1) has "
                              "storage='column', partition='range' and "
                              "init 0 (RandomInit fills it)")
        if optimizer is not None and storage not in ("dense", "column"):
            raise ConfigError(f"no server-side optimizer on {storage!r} "
                              "storage")
        key_space = rows if axis == 0 else cols
        partitioner = make_ps_partitioner(
            partition, key_space,
            num_partitions or self._default_partitions(key_space),
        )
        meta = MatrixMeta(
            name=name, rows=rows, cols=cols, dtype=np.dtype(dtype),
            axis=axis, storage=storage, partitioner=partitioner, init=init,
            optimizer=optimizer, num_servers=self.num_servers,
        )
        handle: PSMatrix
        if axis == 1:
            handle = PSEmbedding(self, meta)
        elif cols == 1:
            handle = PSVector(self, meta)
        else:
            handle = PSMatrix(self, meta)
        self._register(meta, handle)
        return handle

    def create_vector(self, name: str, size: int, *,
                      partition: str = "range", init: float = 0.0,
                      num_partitions: int | None = None) -> PSVector:
        """Create a float64 PS vector (1-column dense matrix)."""
        return self.create_matrix(
            name, size, 1, np.float64, partition=partition, init=init,
            num_partitions=num_partitions,
        )

    def create_embedding(self, name: str, rows: int, dim: int, *,
                         num_partitions: int | None = None) -> PSEmbedding:
        """Create a float32 column-sharded embedding matrix (the LINE layout
        of Sec. IV-D: same dimensions of all vectors co-located per
        server)."""
        return self.create_matrix(
            name, rows, dim, np.float32, partition="range", axis=1,
            storage="column", num_partitions=num_partitions
            or max(1, min(dim, self.num_servers)),
        )

    def create_neighbor_table(self, name: str, num_vertices: int, *,
                              partition: str = "hash",
                              num_partitions: int | None = None
                              ) -> PSNeighborTable:
        """Create a PS-resident neighbor table keyed by vertex id."""
        partitioner = make_ps_partitioner(
            partition, num_vertices,
            num_partitions or self._default_partitions(num_vertices),
        )
        meta = MatrixMeta(
            name=name, rows=num_vertices, cols=1, dtype=np.dtype(np.int64),
            axis=0, storage="neighbor", partitioner=partitioner,
            num_servers=self.num_servers,
        )
        handle = PSNeighborTable(self, meta)
        self._register(meta, handle)
        return handle

    def matrix(self, name: str) -> object:
        """Look up an existing model handle by name."""
        handle = self._handles.get(name)
        if handle is None:
            raise MatrixNotFoundError(name)
        return handle

    def enable_pull_cache(self, name: str, staleness: int = 0,
                          capacity: Optional[int] = None):
        """Turn on agent-side pull caching for one matrix.

        Entries are served for ``staleness`` sync epochs after the pull
        (0 = valid only within the current epoch; every barrier expires
        them).  ``capacity`` optionally bounds the cache to that many
        entries with LRU eviction; the default keeps it unbounded.
        Returns the :class:`repro.ps.cache.PullCache` so callers can read
        its hit statistics.
        """
        from repro.ps.cache import PullCache

        self.matrix_meta(name)  # raises on unknown matrix
        cache = PullCache(staleness=staleness, capacity=capacity,
                          metrics=self.spark.metrics)
        self._pull_caches[name] = cache
        return cache

    def pull_cache(self, name: str):
        """The matrix's pull cache, or ``None`` when caching is off."""
        return self._pull_caches.get(name)

    def clear_pull_caches(self) -> None:
        """Drop every agent-side cache (after recovery rollbacks)."""
        for cache in self._pull_caches.values():
            cache.clear()

    def drop_matrix(self, name: str) -> None:
        """Remove a model from every server."""
        meta = self.matrix_meta(name)
        for pid in range(meta.num_partitions):
            server = self.servers[meta.server_of(pid)]
            if server.container.alive:
                server.drop_matrix(name)
        del self._metas[name]
        del self._handles[name]
        self._pull_caches.pop(name, None)

    # ------------------------------------------------------------------
    # checkpointing & recovery
    # ------------------------------------------------------------------

    def checkpoint_path(self, name: str, pid: int) -> str:
        """HDFS path of one partition's checkpoint."""
        return f"{self.checkpoint_dir}/{name}/part-{pid:05d}"

    def checkpoint_matrix(self, name: str) -> int:
        """Snapshot every partition of one model to HDFS; bytes written."""
        meta = self.matrix_meta(name)
        total = 0
        for pid in range(meta.num_partitions):
            server = self.servers[meta.server_of(pid)]
            total += server.checkpoint(
                name, pid, self.checkpoint_path(name, pid)
            )
        self.spark.metrics.inc(PS_CHECKPOINTS)
        self.spark.metrics.inc(PS_CHECKPOINT_BYTES, total)
        return total

    def checkpoint_all(self) -> int:
        """Checkpoint every registered model; total bytes written.

        All partitions or none: a dead server that holds a partition
        raises :class:`ContainerLostError` before anything is written, so
        the files never mix two iterations.
        """
        names = self.matrix_names()
        for name in names:
            meta = self.matrix_meta(name)
            for pid in range(meta.num_partitions):
                self.servers[meta.server_of(pid)].container.ensure_alive()
        return sum(self.checkpoint_matrix(n) for n in names)

    def kill_server(self, index: int) -> None:
        """Failure injection: kill one PS server (Table II)."""
        server = self.servers[index]
        self.spark.resource_manager.kill(server.container)
        server.wipe()
        self.spark.rpc.kill(server.id)
        self.update_liveness_gauge()

    def update_liveness_gauge(self) -> None:
        """Refresh the server-liveness gauge (kills, recoveries).

        The telemetry collector's availability SLO probes this gauge at
        sim-clock ticks: any tick where ``alive < total`` burns error
        budget, which is what turns a kill-server fault into an alert.
        """
        self.spark.metrics.set_gauge(
            PS_SERVERS_ALIVE_G,
            float(sum(1 for s in self.servers if s.container.alive)),
        )

    def recover(self) -> List[int]:
        """Detect and recover dead servers, reloading only their partitions
        (relaxed mode; ``master.recover("strict")`` rolls every partition
        back, see :class:`PSMaster`)."""
        return self.master.recover("relaxed")

    def note_recovery(self, mode: str, dead: List[int]) -> None:
        """Master callback after a completed recovery: bump generations.

        Strict recoveries roll the model back to the last checkpoint, so
        they also reset :attr:`progress` to the checkpointed iteration and
        bump :attr:`rollback_generation` — a driver loop comparing that
        counter around a stage knows it must redo the iteration.
        """
        self.recovery_generation += 1
        self.spark.metrics.inc(PS_RECOVERIES, len(dead))
        if mode == "strict":
            self.rollback_generation += 1
            self.progress = self._ckpt_progress

    def rollback(self) -> None:
        """Restore every model partition from its last checkpoint.

        Called by recovery-aware driver loops after a mid-iteration strict
        recovery: tasks that kept running *after* the master restored the
        checkpoint may have pushed partial updates into it, so the loop
        re-restores a clean snapshot before redoing the iteration.
        """
        for name in self.matrix_names():
            meta = self.matrix_meta(name)
            for pid in range(meta.num_partitions):
                path = self.checkpoint_path(name, pid)
                if not self.spark.hdfs.exists(path):
                    raise CheckpointNotFoundError(
                        f"no checkpoint for {name}[{pid}] at {path}"
                    )
                self.servers[meta.server_of(pid)].restore_partition(
                    meta, pid, path
                )
        self.clear_pull_caches()
        self.progress = self._ckpt_progress
        self.spark.metrics.inc(PS_ROLLBACKS)

    # ------------------------------------------------------------------
    # iteration control
    # ------------------------------------------------------------------

    def start_iterations(self) -> None:
        """Switch to the iteration-driven checkpoint policy.

        Recovery-aware algorithm loops call this once before iterating:
        it resets :attr:`progress`, writes the baseline checkpoint (when
        ``checkpoint_interval > 0``) so a fault in iteration 1 has a
        consistent snapshot to roll back to, and moves periodic
        checkpointing from :meth:`barrier` (every Nth sync epoch, which
        can capture mid-iteration state) to :meth:`complete_iteration`
        (always a consistent post-iteration boundary).
        """
        self._iteration_driven = True
        self.progress = 0
        self._ckpt_progress = 0
        if self.checkpoint_interval > 0:
            self._checkpoint_with_recovery()

    def complete_iteration(self) -> None:
        """Mark one algorithm iteration done; maybe checkpoint.

        With ``checkpoint_interval > 0`` every Nth completed iteration
        snapshots every model, establishing the rollback boundary strict
        recovery restores to.
        """
        self.progress += 1
        if (self.checkpoint_interval > 0
                and self.progress % self.checkpoint_interval == 0):
            self._checkpoint_with_recovery()
            self._ckpt_progress = self.progress

    def _checkpoint_with_recovery(self) -> None:
        """Checkpoint all models, recovering once if a server is down.  A
        strict recovery restores every partition from the files, which
        then already hold the model; a relaxed one writes them again."""
        try:
            self.checkpoint_all()
        except (RpcError, ContainerLostError):
            if not self.auto_recover:
                raise
            self.master.recover(self.recovery_mode)
            if self.recovery_mode != "strict":
                self.checkpoint_all()

    def barrier(self) -> float:
        """End-of-iteration barrier (BSP) or epoch tick (ASP).

        With ``checkpoint_interval > 0``, every Nth barrier also writes the
        periodic HDFS checkpoint of every registered model — unless the
        driver switched to the iteration-driven policy via
        :meth:`start_iterations`, in which case checkpoints are written at
        iteration boundaries by :meth:`complete_iteration` instead.
        """
        t = self.sync.barrier()
        if (not self._iteration_driven
                and self.checkpoint_interval > 0
                and self.sync.epoch % self.checkpoint_interval == 0):
            self.checkpoint_all()
        self.spark.notify_tick(self.spark.sim_time())
        return t

    def stop(self) -> None:
        """Release server containers and unregister endpoints."""
        if self._stopped:
            return
        self._stopped = True
        for server in self.servers:
            self.spark.rpc.unregister(server.id)
            self.spark.resource_manager.release(server.container)
