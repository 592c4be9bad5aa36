"""Parameter server process.

Each :class:`PSServer` wraps one Yarn container and holds the model
partitions assigned to it.  Every agent request goes through the same
three steps here: admission (:meth:`PSServer._live_store`: the container
is alive and holds the partition; the store comes back, and
:meth:`PSServer._admit` raises why not), the request's code on that
store when it has any — a psFunc, a neighbor-table write or compact, run
by the agent's fan-out loop — and :meth:`PSServer._work` /
:meth:`PSServer._recharge`.  The data of a keyed gather or scatter, a
column-shard operation or an optimizer step moves through the matrix-wide
store once per operation, so for those the server only *meters* each
request.  Checkpoint save / load stay server calls.

Memory for every store is charged against the container's grant (an
oversized model OOMs the server, as on a real cluster), and each operation
advances the server's clock by its compute cost so BSP barriers see server
time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.costs import CostModel
from repro.common.errors import PartitionNotFoundError, PSError
from repro.common.simclock import TaskCost
from repro.hdfs.filesystem import Hdfs
from repro.obs.tracer import NOOP_TRACER, NoopTracer
from repro.ps.meta import MatrixMeta
from repro.ps.storage import NeighborTableStore, SparseRowStore, Store
from repro.yarn.resource_manager import Container


class PSServer:
    """One parameter-server container and its model partitions."""

    def __init__(self, index: int, container: Container,
                 cost_model: CostModel, hdfs: Hdfs,
                 tracer: NoopTracer = NOOP_TRACER) -> None:
        self.index = index
        self.container = container
        self.cost_model = cost_model
        self.hdfs = hdfs
        self.tracer = tracer
        self._stores: Dict[Tuple[str, int], Store] = {}
        self._metas: Dict[str, MatrixMeta] = {}
        self._charged: Dict[Tuple[str, int], int] = {}

    @property
    def id(self) -> str:
        """Container id, e.g. ``ps-server-3``."""
        return self.container.id

    # ------------------------------------------------------------------
    # memory & time accounting helpers
    # ------------------------------------------------------------------

    def _recharge(self, key: Tuple[str, int]) -> None:
        """Reconcile the container's memory charge with the store size."""
        store = self._stores[key]
        new = store.nbytes
        old = self._charged.get(key, 0)
        tag = f"ps:{key[0]}"
        if new > old:
            self.container.memory.allocate(new - old, tag=tag)
        elif new < old:
            self.container.memory.release(old - new, tag=tag)
        self._charged[key] = new

    def _spend(self, seconds: float, op: str, tags: dict) -> None:
        """Advance the server clock; when tracing, as a ``ps.<op>`` span
        on this server's "ops" track."""
        clock = self.container.clock
        start_s = clock.now_s
        clock.advance(seconds)
        if self.tracer.enabled:
            self.tracer.add(self.id, "ops", f"ps.{op}", start_s,
                            clock.now_s, tags)

    def _work(self, flops: float, op: str, matrix: str) -> None:
        """Advance the server clock by compute time (a ``ps.<op>`` span
        when tracing; untraced, no tags are built)."""
        seconds = flops * self.cost_model.cpu_flop_s
        if self.tracer.enabled:
            self._spend(seconds, op, {"matrix": matrix, "flops": flops})
        else:
            self.container.clock.advance(seconds)

    def _live_store(self, matrix: str, pid: int) -> Store | None:
        """The store of partition ``pid`` of ``matrix`` if the container
        is alive and holds it, else ``None``."""
        if not self.container.alive:
            return None
        return self._stores.get((matrix, pid))

    def _admit(self, matrix: str, pid: int) -> Store:
        """What every request starts with: :meth:`_live_store`, or the
        reason there is none raised."""
        store = self._live_store(matrix, pid)
        if store is None:
            self.container.ensure_alive()
            raise PartitionNotFoundError(
                f"server {self.id} does not hold {matrix}[{pid}]"
            )
        return store

    # ------------------------------------------------------------------
    # partition lifecycle (called by the PS context / master)
    # ------------------------------------------------------------------

    def create_partition(self, meta: MatrixMeta, pid: int) -> None:
        """Allocate the store for one partition of ``meta``."""
        self.container.ensure_alive()
        self._metas[meta.name] = meta
        key = (meta.name, pid)
        if meta.storage in ("dense", "column"):
            # A view of the matrix's one array: what the partition does
            # to its data, the matrix sees.
            store: Store = meta.data.part(*meta.part_offsets[pid:pid + 2])
        elif meta.storage == "sparse":
            store = SparseRowStore(meta.cols, meta.dtype)
        elif meta.storage == "neighbor":
            store = NeighborTableStore(meta.data)
        else:
            raise PSError(f"unknown storage kind {meta.storage!r}")
        self._stores[key] = store
        self._recharge(key)

    def drop_matrix(self, matrix: str) -> None:
        """Release every partition of one matrix."""
        for key in [k for k in self._stores if k[0] == matrix]:
            del self._stores[key]
            self._charged.pop(key, None)
        self.container.memory.release_tag(f"ps:{matrix}")
        self._metas.pop(matrix, None)

    def wipe(self) -> None:
        """Forget all state (the process died)."""
        for meta in self._metas.values():
            if meta.storage == "neighbor":
                meta.data.drop()
        self._stores.clear()
        self._charged.clear()

    def ping(self) -> bool:
        """Health-check endpoint for the master."""
        self.container.ensure_alive()
        return True

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, matrix: str, pid: int, path: str) -> int:
        """Snapshot one partition to HDFS; returns bytes written."""
        store = self._admit(matrix, pid)
        cost = TaskCost()
        opt = self._metas[matrix].part_state(pid)
        payload = {"store": store.snapshot(),
                   "opt": ({k: v.copy() for k, v in opt.items()}
                           if opt is not None else None)}
        f = self.hdfs.write_pickle(path, payload, overwrite=True, cost=cost)
        self._spend(cost.total_s, "checkpoint", {
            "matrix": matrix, "partition": pid, "bytes": f.logical_bytes})
        return f.logical_bytes

    def restore_partition(self, meta: MatrixMeta, pid: int,
                          path: str) -> None:
        """Recreate one partition from its HDFS checkpoint."""
        self.container.ensure_alive()
        cost = TaskCost()
        payload = self.hdfs.read_pickle(path, cost=cost)
        self._spend(cost.total_s, "restore",
                    {"matrix": meta.name, "partition": pid})
        self.create_partition(meta, pid)
        key = (meta.name, pid)
        self._stores[key].restore(payload["store"])
        for name, value in (payload["opt"] or {}).items():
            meta.part_state(pid)[name][...] = value
        self._recharge(key)
