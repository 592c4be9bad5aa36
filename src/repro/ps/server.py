"""Parameter server process.

Each :class:`PSServer` wraps one Yarn container, holds the model partitions
assigned to it, and exposes the RPC surface the agents call: pull/push/set
on rows, slice operations for column shards, neighbor-table operations,
psFunc execution, gradient application, and checkpoint save/load.

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
    DenseRowStore,
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

    def _work(self, flops: float, op: str | None = None,
              matrix: str | None = None) -> None:
        """Advance the server clock by compute time.

        When ``op`` is given and tracing is on, the compute lands as a
        span on this server's "ops" track.
        """
        start_s = self.container.clock.now_s
        self.container.clock.advance(self.cost_model.flop_time(flops))
        if op is not None and self.tracer.enabled:
            self.tracer.add(
                self.id, "ops", f"ps.{op}",
                start_s, self.container.clock.now_s,
                {"matrix": matrix, "flops": flops},
            )

    def _store(self, matrix: str, pid: int) -> Store:
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
            store: Store = DenseRowStore(
                meta.partitioner.keys_of_partition(pid), meta.cols,
                meta.dtype, meta.init,
            )
        elif meta.storage == "sparse":
            store = SparseRowStore(meta.cols, meta.dtype)
        elif meta.storage == "column":
            store = ColumnShardStore(
                meta.rows, meta.partitioner.keys_of_partition(pid),
                meta.dtype, meta.init,
            )
        elif meta.storage == "neighbor":
            store = NeighborTableStore()
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
        self._stores.clear()
        self._opt_state.clear()
        self._charged.clear()

    def ping(self) -> bool:
        """Health-check endpoint for the master."""
        self.container.ensure_alive()
        return True

    # ------------------------------------------------------------------
    # row operations (axis=0 dense/sparse stores)
    # ------------------------------------------------------------------

    def pull(self, matrix: str, pid: int, keys: np.ndarray,
             col: int | None = None) -> np.ndarray:
        """Rows (or one column of them) for ``keys``."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        cols = 1 if col is not None else store.cols
        self._work(len(keys) * cols, "pull", matrix)
        return store.get_rows(keys, col)

    def push(self, matrix: str, pid: int, keys: np.ndarray,
             deltas: np.ndarray, col: int | None = None) -> None:
        """Increment rows for ``keys`` by ``deltas``."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.inc_rows(keys, deltas, col)
        self._work(np.size(deltas), "push", matrix)
        self._recharge((matrix, pid))

    def set(self, matrix: str, pid: int, keys: np.ndarray,
            values: np.ndarray, col: int | None = None) -> None:
        """Overwrite rows for ``keys``."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.set_rows(keys, values, col)
        self._work(np.size(values), "set", matrix)
        self._recharge((matrix, pid))

    # ------------------------------------------------------------------
    # column-shard operations (axis=1 stores)
    # ------------------------------------------------------------------

    def pull_slices(self, matrix: str, pid: int,
                    row_keys: np.ndarray) -> np.ndarray:
        """Local column slice of the requested rows."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        self._work(len(row_keys) * store.array.shape[1],
                   "pull_slices", matrix)
        return store.get_row_slices(row_keys)

    def push_slices(self, matrix: str, pid: int, row_keys: np.ndarray,
                    deltas: np.ndarray) -> None:
        """Increment the local column slice of the requested rows."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.inc_row_slices(row_keys, deltas)
        self._work(deltas.size, "push_slices", matrix)

    def set_slices(self, matrix: str, pid: int, row_keys: np.ndarray,
                   values: np.ndarray) -> None:
        """Overwrite the local column slice of the requested rows."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.set_row_slices(row_keys, values)
        self._work(values.size, "set_slices", matrix)

    # ------------------------------------------------------------------
    # neighbor-table operations
    # ------------------------------------------------------------------

    def push_neighbors(self, matrix: str, pid: int, vertices: np.ndarray,
                       indptr: np.ndarray, indices: np.ndarray) -> None:
        """Merge a CSR block of rows into the tables of ``vertices``."""
        self.container.ensure_alive()
        self._store(matrix, pid).append_neighbors(vertices, indptr, indices)
        self._work(len(indices), "push_neighbors", matrix)
        self._recharge((matrix, pid))

    def remove_neighbors(self, matrix: str, pid: int, vertices: np.ndarray,
                         indptr: np.ndarray, indices: np.ndarray) -> None:
        """Subtract a CSR block of rows from the tables of ``vertices``."""
        self.container.ensure_alive()
        self._store(matrix, pid).remove_neighbors(vertices, indptr, indices)
        self._work(len(indices), "remove_neighbors", matrix)
        self._recharge((matrix, pid))

    def drop_vertices(self, matrix: str, pid: int,
                      vertices: np.ndarray) -> None:
        """Delete the adjacency tables of ``vertices``."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.drop_vertices(vertices)
        self._work(len(vertices), "drop_vertices", matrix)
        self._recharge((matrix, pid))

    def get_neighbors(self, matrix: str, pid: int, vertices: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the rows of ``vertices`` (an unknown
        vertex has an empty row)."""
        self.container.ensure_alive()
        out = self._store(matrix, pid).get_neighbors(vertices)
        self._work(len(out[1]), "get_neighbors", matrix)
        return out

    def degrees(self, matrix: str, pid: int,
                vertices: np.ndarray) -> np.ndarray:
        """Neighbor counts for ``vertices``."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        self._work(len(vertices), "degrees", matrix)
        return store.degree(vertices)

    def compact(self, matrix: str, pid: int) -> None:
        """Freeze a neighbor table into CSR form."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        store.compact()
        self._recharge((matrix, pid))

    def table_size(self, matrix: str, pid: int) -> int:
        """Number of vertices stored in one neighbor-table partition."""
        self.container.ensure_alive()
        return self._store(matrix, pid).num_vertices()

    # ------------------------------------------------------------------
    # psFunc & gradients
    # ------------------------------------------------------------------

    def run_psfunc(self, matrix: str, pid: int, func: PsFunc) -> object:
        """Execute a psFunc against one partition's store."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
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
        self.container.ensure_alive()
        meta = self._metas[matrix]
        if meta.optimizer is None:
            raise PSError(f"matrix {matrix} has no optimizer attached")
        store = self._store(matrix, pid)
        state = self._opt_state[(matrix, pid)]
        meta.optimizer.step(store.array, grad, state)
        self._work(grad.size * meta.optimizer.flops_per_element(),
                   "apply_gradients", matrix)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, matrix: str, pid: int, path: str) -> int:
        """Snapshot one partition to HDFS; returns bytes written."""
        self.container.ensure_alive()
        store = self._store(matrix, pid)
        cost = TaskCost()
        state = store.snapshot()
        opt = self._opt_state.get((matrix, pid))
        payload = {"store": state,
                   "opt": ({k: v.copy() for k, v in opt.items()}
                           if opt is not None else None)}
        f = self.hdfs.write_pickle(path, payload, overwrite=True, cost=cost)
        start_s = self.container.clock.now_s
        self.container.clock.advance(cost.total_s)
        if self.tracer.enabled:
            self.tracer.add(
                self.id, "ops", "ps.checkpoint",
                start_s, self.container.clock.now_s,
                {"matrix": matrix, "partition": pid,
                 "bytes": f.logical_bytes},
            )
        return f.logical_bytes

    def restore_partition(self, meta: MatrixMeta, pid: int,
                          path: str) -> None:
        """Recreate one partition from its HDFS checkpoint."""
        self.container.ensure_alive()
        cost = TaskCost()
        payload = self.hdfs.read_pickle(path, cost=cost)
        start_s = self.container.clock.now_s
        self.container.clock.advance(cost.total_s)
        if self.tracer.enabled:
            self.tracer.add(
                self.id, "ops", "ps.restore",
                start_s, self.container.clock.now_s,
                {"matrix": meta.name, "partition": pid},
            )
        self.create_partition(meta, pid)
        key = (meta.name, pid)
        self._stores[key].restore(payload["store"])
        if payload["opt"] is not None:
            self._opt_state[key] = payload["opt"]
        self._recharge(key)
