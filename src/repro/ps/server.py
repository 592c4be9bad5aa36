"""Parameter server process.

Each :class:`PSServer` wraps one Yarn container, holds the model partitions
assigned to it, and exposes the RPC surface the agents call: slice
operations for column shards, neighbor-table writes, psFunc execution,
gradient application, and checkpoint save/load.  Row pulls / writes and
neighbor-table reads are keyed gathers and scatters: the agent moves their
data itself and only *meters* each request here (``_admit``, ``_work``).

Memory for every store is charged against the container's grant (an
oversized model OOMs the server, as on a real cluster), and each operation
advances the server's clock by its compute cost so BSP barriers see server
time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.common.costs import CostModel
from repro.common.errors import PartitionNotFoundError, PSError
from repro.common.simclock import TaskCost
from repro.hdfs.filesystem import Hdfs
from repro.obs.tracer import NOOP_TRACER, NoopTracer
from repro.ps.meta import MatrixMeta
from repro.ps.psfunc import PsFunc
from repro.ps.storage import (
    ColumnShardStore,
    NeighborTableStore,
    SparseRowStore,
    Store,
)
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
        self._opt_state: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
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
        start_s = self.container.clock.now_s
        self.container.clock.advance(seconds)
        if self.tracer.enabled:
            self.tracer.add(self.id, "ops", f"ps.{op}", start_s,
                            self.container.clock.now_s, tags)

    def _work(self, flops: float, op: str, matrix: str) -> None:
        """Advance the server clock by compute time."""
        self._spend(self.cost_model.flop_time(flops), op,
                    {"matrix": matrix, "flops": flops})

    def _admit(self, matrix: str, pid: int) -> Store:
        """What every request starts with: the container is alive and
        holds the partition.  For a request whose data the agent moves
        itself this and :meth:`_work` are all the server does."""
        self.container.ensure_alive()
        store = self._stores.get((matrix, pid))
        if store is None:
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
        if meta.storage == "dense":
            # A run of the matrix's one array: what the partition does
            # to its rows, the matrix sees.
            store: Store = meta.data.part(*meta.part_offsets[pid:pid + 2])
        elif meta.storage == "sparse":
            store = SparseRowStore(meta.cols, meta.dtype)
        elif meta.storage == "column":
            store = ColumnShardStore(
                meta.rows, meta.partitioner.keys_of_partition(pid),
                meta.dtype, meta.init,
            )
        elif meta.storage == "neighbor":
            store = NeighborTableStore(meta.data)
        else:
            raise PSError(f"unknown storage kind {meta.storage!r}")
        self._stores[key] = store
        if meta.optimizer is not None and meta.storage in ("dense", "column"):
            self._opt_state[key] = meta.optimizer.init_state(
                store.array.shape, meta.dtype
            )
        self._recharge(key)

    def drop_matrix(self, matrix: str) -> None:
        """Release every partition of one matrix."""
        for key in [k for k in self._stores if k[0] == matrix]:
            del self._stores[key]
            self._opt_state.pop(key, None)
            self._charged.pop(key, None)
        self.container.memory.release_tag(f"ps:{matrix}")
        self._metas.pop(matrix, None)

    def held_partitions(self) -> List[Tuple[str, int]]:
        """Keys of partitions this server currently holds."""
        return sorted(self._stores)

    def wipe(self) -> None:
        """Forget all state (the process died)."""
        for meta in self._metas.values():
            if meta.storage == "neighbor":
                meta.data.drop()
        self._stores.clear()
        self._opt_state.clear()
        self._charged.clear()

    def ping(self) -> bool:
        """Health-check endpoint for the master."""
        self.container.ensure_alive()
        return True

    # ------------------------------------------------------------------
    # column-shard operations (axis=1 stores)
    # ------------------------------------------------------------------

    def pull_slices(self, matrix: str, pid: int,
                    row_keys: np.ndarray) -> np.ndarray:
        """Local column slice of the requested rows."""
        store = self._admit(matrix, pid)
        self._work(len(row_keys) * store.array.shape[1],
                   "pull_slices", matrix)
        return store.get_row_slices(row_keys)

    def push_slices(self, matrix: str, pid: int, row_keys: np.ndarray,
                    deltas: np.ndarray) -> None:
        """Increment the local column slice of the requested rows."""
        store = self._admit(matrix, pid)
        store.inc_row_slices(row_keys, deltas)
        self._work(deltas.size, "push_slices", matrix)

    def set_slices(self, matrix: str, pid: int, row_keys: np.ndarray,
                   values: np.ndarray) -> None:
        """Overwrite the local column slice of the requested rows."""
        store = self._admit(matrix, pid)
        store.set_row_slices(row_keys, values)
        self._work(values.size, "set_slices", matrix)

    # ------------------------------------------------------------------
    # neighbor-table operations
    # ------------------------------------------------------------------

    def push_neighbors(self, matrix: str, pid: int, vertices: np.ndarray,
                       indptr: np.ndarray, indices: np.ndarray) -> None:
        """Merge a CSR block of rows into the tables of ``vertices``."""
        self._admit(matrix, pid).append_neighbors(vertices, indptr, indices)
        self._work(len(indices), "push_neighbors", matrix)
        self._recharge((matrix, pid))

    def remove_neighbors(self, matrix: str, pid: int, vertices: np.ndarray,
                         indptr: np.ndarray, indices: np.ndarray) -> None:
        """Subtract a CSR block of rows from the tables of ``vertices``."""
        self._admit(matrix, pid).remove_neighbors(vertices, indptr, indices)
        self._work(len(indices), "remove_neighbors", matrix)
        self._recharge((matrix, pid))

    def drop_vertices(self, matrix: str, pid: int,
                      vertices: np.ndarray) -> None:
        """Delete the adjacency tables of ``vertices``."""
        store = self._admit(matrix, pid)
        store.drop_vertices(vertices)
        self._work(len(vertices), "drop_vertices", matrix)
        self._recharge((matrix, pid))

    def compact(self, matrix: str, pid: int) -> None:
        """Freeze a neighbor table into CSR form."""
        store = self._admit(matrix, pid)
        store.compact()
        self._recharge((matrix, pid))

    def table_size(self, matrix: str, pid: int) -> int:
        """Number of vertices stored in one neighbor-table partition."""
        return self._admit(matrix, pid).num_vertices()

    # ------------------------------------------------------------------
    # psFunc & gradients
    # ------------------------------------------------------------------

    def run_psfunc(self, matrix: str, pid: int, func: PsFunc) -> object:
        """Execute a psFunc against one partition's store."""
        store = self._admit(matrix, pid)
        result = func.apply(store)
        self._work(func.flops(store), "psfunc", matrix)
        self._recharge((matrix, pid))
        return result

    def apply_gradients(self, matrix: str, pid: int,
                        grad: np.ndarray) -> None:
        """Run the matrix's server-side optimizer on one partition.

        ``grad`` must match the partition's parameter shape (rows owned by
        the partition for axis=0; the column slice for axis=1).
        """
        store = self._admit(matrix, pid)
        meta = self._metas[matrix]
        if meta.optimizer is None:
            raise PSError(f"matrix {matrix} has no optimizer attached")
        state = self._opt_state[(matrix, pid)]
        meta.optimizer.step(store.array, grad, state)
        self._work(grad.size * meta.optimizer.flops_per_element(),
                   "apply_gradients", matrix)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, matrix: str, pid: int, path: str) -> int:
        """Snapshot one partition to HDFS; returns bytes written."""
        store = self._admit(matrix, pid)
        cost = TaskCost()
        state = store.snapshot()
        opt = self._opt_state.get((matrix, pid))
        payload = {"store": state,
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
        if payload["opt"] is not None:
            self._opt_state[key] = payload["opt"]
        self._recharge(key)
