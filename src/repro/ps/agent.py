"""PS agent — the client side of the parameter server.

"PSGraph establishes a PS agent in every Spark executor to manage the data
communication between Spark and PS.  When the PS agent needs to get a data
item from the PS, it first uses the data index to get the partition location
from PSContext ... then gets the required data from PS via RPC" (Sec. III-C).

In the simulation a single :class:`PSAgent` object plays the role of all the
per-executor agents: when called from inside a running dataflow task it
charges *that task's* cost, otherwise the driver's clock.

Cost model of one agent operation: the agent fans its per-partition requests
out to all involved servers **concurrently**, so the operation takes one
RPC latency plus the transfer time of the *most loaded server's* share of
the bytes, inflated by the congestion factor (executors per server) —
plus serialization CPU for the total payload.  This is why adding servers
speeds PSGraph up and why "using one machine to store the latent vectors
could cause serious network congestion" (Sec. IV-D).

Failure handling follows Sec. III-B: if a server is dead, the agent asks
the master to recover (restart via Yarn + reload HDFS checkpoints) and then
retries once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

import numpy as np

from repro.common.errors import (
    ContainerLostError,
    EndpointNotFoundError,
    RpcError,
)
from repro.common.metrics import (
    PS_PSFUNC_CALLS,
    PS_PULL_BYTES,
    PS_PULLS,
    PS_PUSH_BYTES,
    PS_PUSHES,
    PS_REQUEST_H,
)
from repro.common.batch import (
    gather_segments,
    split_indices,
    strictly_increasing,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof
from repro.dataflow.taskctx import current_task_context, task_span
from repro.ps.meta import MatrixMeta
from repro.ps.psfunc import PsFunc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.blocks import NeighborBlock
    from repro.ps.context import PSContext

#: One request: (server_index, method, args, request_bytes, response_bytes)
#: where response_bytes is an int or a callable over the result.
Call = Tuple[int, str, tuple, int, Any]


class PSAgent:
    """Routes model requests to the right servers and meters them."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx

    # ------------------------------------------------------------------
    # metered concurrent-call primitive
    # ------------------------------------------------------------------

    def _invoke(self, server_index: int, method: str, args: tuple) -> Any:
        """One raw RPC with master-recovery retry (Sec. III-B)."""
        psctx = self.psctx
        endpoint = psctx.server_endpoint(server_index)
        rpc = psctx.spark.rpc
        try:
            self._check_fault(endpoint, method)
            ep = rpc.endpoint(endpoint)
            if not ep.alive:
                raise RpcError(f"endpoint {endpoint} is not alive")
            return getattr(ep.handler, method)(*args)
        except EndpointNotFoundError:
            raise
        except (RpcError, ContainerLostError):
            if not psctx.auto_recover:
                raise
            psctx.master.recover(psctx.recovery_mode)
            ep = rpc.endpoint(endpoint)
            return getattr(ep.handler, method)(*args)

    def _check_fault(self, endpoint: str, method: str) -> None:
        """Chaos hook: the agent dispatches to server handlers directly
        (bypassing :meth:`RpcEnv.call`), so it must consult the fabric's
        fault injector itself.  Injected timeout latency lands on the
        running task's cost, or the driver clock outside a task."""
        rpc = self.psctx.spark.rpc
        if rpc.fault_injector is None:
            return
        tctx = current_task_context()
        if tctx is not None:
            rpc.check_fault(endpoint, method, tctx.cost)
            return
        try:
            rpc.check_fault(endpoint, method, None)
        except RpcError as exc:
            delay_s = getattr(exc, "delay_s", 0.0)
            if delay_s > 0.0:
                self.psctx.spark.driver_clock.advance(delay_s)
            raise

    def _group_call(self, calls: Sequence[Call],
                    col: int | None = None) -> List[Any]:
        """Issue requests concurrently; charge the caller once.

        Time charged = one latency + (bytes of the busiest server) x
        congestion / bandwidth; CPU charged for serializing everything.

        The recorded span is tagged with the matrix (and, for column-
        scoped row ops, the column) so the staleness detector in
        :mod:`repro.lint.races` can attribute each access to a location.
        """
        psctx = self.psctx
        cm = psctx.spark.cluster.cost_model
        tctx = current_task_context()
        cost = tctx.cost if tctx is not None else TaskCost()
        cost_before_s = cost.total_s
        concurrent = psctx.spark.cluster.num_executors if tctx else 1
        per_server: defaultdict = defaultdict(float)
        total = 0.0
        results: List[Any] = []
        for server_index, method, args, req_bytes, resp_bytes in calls:
            result = self._invoke(server_index, method, args)
            results.append(result)
            if callable(resp_bytes):
                resp_bytes = resp_bytes(result)
            nbytes = req_bytes + resp_bytes
            per_server[server_index] += nbytes
            total += nbytes
        tags: dict = {}
        if calls:
            busiest = max(per_server.values())
            congestion = max(1.0, concurrent / max(1, psctx.num_servers))
            method = calls[0][1]
            tags = {"calls": len(calls), "bytes": int(total)}
            # Every server method's first argument is the matrix name.
            matrix = calls[0][2][0] if calls[0][2] else None
            if isinstance(matrix, str):
                tags["matrix"] = matrix
            if col is not None:
                tags["col"] = int(col)
            with task_span(f"ps.{method}", cost, tags):
                cost.net_s += cm.network_time(busiest, congestion)
                cost.cpu_s += cm.serialization_time(total)
            metrics = psctx.spark.metrics
            from repro.common.metrics import RPC_BYTES, RPC_CALLS

            metrics.inc(RPC_CALLS, len(calls))
            metrics.inc(RPC_BYTES, total)
            metrics.observe(PS_REQUEST_H, total)
            # Per-operation sim-time latency: everything this group call
            # charged to the caller (network + serialization + injected
            # RPC delays) — the series latency SLOs are written against.
            metrics.observe(f"ps.{method}.latency_s",
                            cost.total_s - cost_before_s)
        if tctx is None:
            # Driver-side operation: advance the driver clock and, when
            # tracing, record the span on the driver's "ps-agent" track.
            clock = psctx.spark.driver_clock
            start_s = clock.now_s
            clock.advance(cost.total_s)
            tracer = psctx.spark.tracer
            if calls and tracer.enabled:
                tracer.add(
                    "driver", "ps-agent", f"ps.{calls[0][1]}",
                    start_s, clock.now_s, tags,
                )
        return results

    def _metrics(self):
        return self.psctx.spark.metrics

    # ------------------------------------------------------------------
    # row pull/push/set (axis=0)
    # ------------------------------------------------------------------

    def pull(self, meta: MatrixMeta, keys: np.ndarray,
             col: int | None = None) -> np.ndarray:
        """Rows (or a single column of them) for ``keys``, in input order.

        When the matrix has an agent-side pull cache enabled, cached keys
        are served locally and only the misses hit the servers.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim == 1 and strictly_increasing(keys):
            # Already sorted and distinct (a block's vertices, a
            # cache-miss subset): nothing to dedupe, nothing to undo.
            ukeys, inverse = keys, None
        else:
            ukeys, inverse = np.unique(keys, return_inverse=True)
        shape = len(ukeys) if col is not None else (len(ukeys), meta.cols)
        out = np.zeros(shape, dtype=meta.dtype)
        cache = self.psctx.pull_cache(meta.name)
        if cache is None:
            out = self._pull_from_servers(meta, ukeys, col, out)
        else:
            epoch = self.psctx.sync.epoch
            hit, values = cache.lookup(ukeys, col, epoch)
            if hit.any():
                out[hit] = values[hit]
            if not hit.all():
                miss = ~hit
                missing = ukeys[miss]
                fetched = self._pull_from_servers(
                    meta, missing, col, np.zeros(
                        (len(missing),) + out.shape[1:], dtype=meta.dtype))
                out[miss] = fetched
                cache.store(missing, col, fetched, epoch)
        return out if inverse is None else out[inverse]

    def _pull_from_servers(self, meta: MatrixMeta, ukeys: np.ndarray,
                           col: int | None, out: np.ndarray) -> np.ndarray:
        """The uncached server fetch for unique ``ukeys``; fills ``out``."""
        pids = meta.partitioner.partition_array(ukeys)
        calls: List[Call] = []
        index_sets = []
        for pid, idx in split_indices(pids):
            subkeys = ukeys[idx]
            index_sets.append(idx)
            calls.append((
                meta.server_of(pid), "pull",
                (meta.name, pid, subkeys, col),
                int(subkeys.nbytes),
                lambda v: int(v.nbytes),
            ))
        results = self._group_call(calls, col=col)
        nbytes = 0
        for idx, values in zip(index_sets, results):
            out[idx] = values
            nbytes += int(values.nbytes)
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, nbytes + int(ukeys.nbytes))
        return out

    def push(self, meta: MatrixMeta, keys: np.ndarray, deltas: np.ndarray,
             col: int | None = None) -> None:
        """Increment rows for ``keys`` by ``deltas`` (duplicates add up)."""
        self._write(meta, keys, deltas, col, "push")

    def set(self, meta: MatrixMeta, keys: np.ndarray, values: np.ndarray,
            col: int | None = None) -> None:
        """Overwrite rows for ``keys`` with ``values``."""
        self._write(meta, keys, values, col, "set")

    def _write(self, meta: MatrixMeta, keys: np.ndarray,
               values: np.ndarray, col: int | None, method: str) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        cache = self.psctx.pull_cache(meta.name)
        if cache is not None:
            cache.invalidate(keys)
        values = np.asarray(values, dtype=meta.dtype)
        pids = meta.partitioner.partition_array(keys)
        calls: List[Call] = []
        for pid, idx in split_indices(pids):
            subkeys = keys[idx]
            subvalues = values[idx]
            calls.append((
                meta.server_of(pid), method,
                (meta.name, pid, subkeys, subvalues, col),
                int(subkeys.nbytes + subvalues.nbytes),
                0,
            ))
        self._group_call(calls, col=col)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(
            PS_PUSH_BYTES, int(keys.nbytes + values.nbytes)
        )

    def pull_all(self, meta: MatrixMeta) -> np.ndarray:
        """The full matrix, assembled at the caller (axis=0 or axis=1)."""
        if meta.axis == 1:
            return self.pull_rows_full(
                meta, np.arange(meta.rows, dtype=np.int64)
            )
        out = np.zeros((meta.rows, meta.cols), dtype=meta.dtype)
        calls: List[Call] = []
        key_sets = []
        for pid in range(meta.num_partitions):
            keys = meta.partitioner.keys_of_partition(pid)
            key_sets.append(keys)
            calls.append((
                meta.server_of(pid), "pull",
                (meta.name, pid, keys, None),
                int(keys.nbytes),
                lambda v: int(v.nbytes),
            ))
        for keys, values in zip(key_sets, self._group_call(calls)):
            out[keys] = values
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, int(out.nbytes))
        return out

    # ------------------------------------------------------------------
    # column-shard operations (axis=1)
    # ------------------------------------------------------------------

    def pull_rows_full(self, meta: MatrixMeta,
                       row_keys: np.ndarray) -> np.ndarray:
        """Full rows of a column-sharded matrix (concatenated slices)."""
        row_keys = np.asarray(row_keys, dtype=np.int64)
        out = np.zeros((len(row_keys), meta.cols), dtype=meta.dtype)
        calls: List[Call] = [
            (
                meta.server_of(pid), "pull_slices",
                (meta.name, pid, row_keys),
                int(row_keys.nbytes),
                lambda v: int(v.nbytes),
            )
            for pid in range(meta.num_partitions)
        ]
        results = self._group_call(calls)
        nbytes = 0
        for pid, values in enumerate(results):
            cols = meta.partitioner.keys_of_partition(pid)
            out[:, cols] = values
            nbytes += int(values.nbytes)
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(
            PS_PULL_BYTES, nbytes + int(row_keys.nbytes)
        )
        return out

    def push_rows_full(self, meta: MatrixMeta, row_keys: np.ndarray,
                       deltas: np.ndarray) -> None:
        """Increment full rows of a column-sharded matrix."""
        self._write_slices(meta, row_keys, deltas, "push_slices")

    def set_rows_full(self, meta: MatrixMeta, row_keys: np.ndarray,
                      values: np.ndarray) -> None:
        """Overwrite full rows of a column-sharded matrix."""
        self._write_slices(meta, row_keys, values, "set_slices")

    def _write_slices(self, meta: MatrixMeta, row_keys: np.ndarray,
                      values: np.ndarray, method: str) -> None:
        row_keys = np.asarray(row_keys, dtype=np.int64)
        values = np.asarray(values, dtype=meta.dtype)
        calls: List[Call] = []
        for pid in range(meta.num_partitions):
            cols = meta.partitioner.keys_of_partition(pid)
            sub = np.ascontiguousarray(values[:, cols])
            calls.append((
                meta.server_of(pid), method,
                (meta.name, pid, row_keys, sub),
                int(row_keys.nbytes + sub.nbytes),
                0,
            ))
        self._group_call(calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(
            PS_PUSH_BYTES, int(row_keys.nbytes + values.nbytes)
        )

    # ------------------------------------------------------------------
    # neighbor tables
    # ------------------------------------------------------------------

    def _table_calls(self, meta: MatrixMeta, method: str,
                     vertices: np.ndarray,
                     block: "NeighborBlock | None" = None,
                     resp_bytes: Any = 0) -> Tuple[list, list, int]:
        """One ``method`` request per partition owning some of ``vertices``.

        A request carries the partition's vertices and, with ``block``,
        its rows as one ``(vertices, indptr, indices)`` envelope; indptr
        is rebuilt from row lengths on arrival, so only vertices and
        indices are charged.  Returns ``(index_sets, results,
        request_bytes)``, the index sets in call order.
        """
        pids = meta.partitioner.partition_array(vertices)
        index_sets = []
        calls: List[Call] = []
        total = 0
        for pid, idx in split_indices(pids):
            if block is None:
                payload: tuple = (vertices[idx],)
                nbytes = int(payload[0].nbytes)
            else:
                sub = block.take(idx)
                payload = (sub.vertices, sub.indptr, sub.neighbors)
                nbytes = int(sub.vertices.nbytes + sub.neighbors.nbytes)
            total += nbytes
            index_sets.append(idx)
            calls.append((meta.server_of(pid), method,
                          (meta.name, pid) + payload, nbytes, resp_bytes))
        return index_sets, self._group_call(calls), total

    def _table_write(self, meta: MatrixMeta, method: str,
                     vertices: np.ndarray,
                     block: "NeighborBlock | None" = None) -> None:
        _idx, _results, total = self._table_calls(
            meta, method, np.asarray(vertices, dtype=np.int64), block
        )
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, total)

    def push_neighbors(self, meta: MatrixMeta,
                       block: "NeighborBlock") -> None:
        """Merge the block's rows into the PS tables."""
        self._table_write(meta, "push_neighbors", block.vertices, block)

    def remove_neighbors(self, meta: MatrixMeta,
                         block: "NeighborBlock") -> None:
        """Subtract the block's rows from the PS tables."""
        self._table_write(meta, "remove_neighbors", block.vertices, block)

    def drop_vertices(self, meta: MatrixMeta,
                      vertices: np.ndarray) -> None:
        """Delete the adjacency tables of ``vertices`` across servers."""
        self._table_write(meta, "drop_vertices", vertices)

    def get_neighbors(self, meta: MatrixMeta,
                      vertices: np.ndarray) -> "NeighborBlock":
        """The rows of ``vertices`` as one block aligned with the request
        (duplicates allowed, an unknown vertex has an empty row)."""
        from repro.core.blocks import NeighborBlock

        vertices = np.asarray(vertices, dtype=np.int64)
        index_sets, results, nbytes = self._table_calls(
            meta, "get_neighbors", vertices,
            resp_bytes=lambda r: int(r[1].nbytes),
        )
        self._metrics().inc(PS_PULLS)
        if not results:  # empty request
            self._metrics().inc(PS_PULL_BYTES, nbytes)
            return NeighborBlock(vertices, np.zeros(1, dtype=np.int64),
                                 np.empty(0, dtype=np.int64))
        # Rows arrive grouped by partition: lay the responses end to end,
        # then one gather puts the rows back in request order.
        order = np.concatenate(index_sets)
        flat = np.concatenate([indices for _indptr, indices in results])
        got = np.concatenate(
            [indptr[1:] - indptr[:-1] for indptr, _indices in results])
        starts = np.empty_like(got)
        lens = np.empty_like(got)
        lens[order] = got
        starts[order] = np.cumsum(got) - got
        self._metrics().inc(PS_PULL_BYTES, nbytes + int(flat.nbytes))
        return NeighborBlock(vertices, *gather_segments(flat, starts, lens))

    def degrees(self, meta: MatrixMeta, vertices: np.ndarray) -> np.ndarray:
        """Neighbor counts for ``vertices``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        out = np.zeros(len(vertices), dtype=np.int64)
        index_sets, results, _ = self._table_calls(
            meta, "degrees", vertices, resp_bytes=lambda d: int(d.nbytes)
        )
        for idx, degs in zip(index_sets, results):
            out[idx] = degs
        self._metrics().inc(PS_PULLS)
        return out

    def compact(self, meta: MatrixMeta) -> None:
        """Freeze all neighbor-table partitions into CSR form."""
        self._group_call([
            (meta.server_of(pid), "compact", (meta.name, pid), 16, 0)
            for pid in range(meta.num_partitions)
        ])

    def table_total(self, meta: MatrixMeta) -> int:
        """Total vertices stored across all neighbor-table partitions."""
        sizes = self._group_call([
            (meta.server_of(pid), "table_size", (meta.name, pid), 16, 8)
            for pid in range(meta.num_partitions)
        ])
        return int(sum(sizes))

    # ------------------------------------------------------------------
    # psFunc & gradients
    # ------------------------------------------------------------------

    def psfunc(self, meta: MatrixMeta, func: PsFunc) -> Any:
        """Run ``func`` on every partition and merge the partials."""
        req = sizeof(func)
        partials = self._group_call([
            (
                meta.server_of(pid), "run_psfunc",
                (meta.name, pid, func),
                req,
                lambda r: sizeof(r),
            )
            for pid in range(meta.num_partitions)
        ])
        self._metrics().inc(PS_PSFUNC_CALLS)
        return func.merge(partials)

    def apply_gradients(self, meta: MatrixMeta, grad: np.ndarray) -> None:
        """Ship a full-shape gradient; each server updates its partition
        with the matrix's server-side optimizer."""
        grad = np.asarray(grad, dtype=meta.dtype)
        calls: List[Call] = []
        for pid in range(meta.num_partitions):
            keys = meta.partitioner.keys_of_partition(pid)
            if meta.axis == 1:
                sub = np.ascontiguousarray(grad[:, keys])
            else:
                sub = np.ascontiguousarray(grad[keys])
            calls.append((
                meta.server_of(pid), "apply_gradients",
                (meta.name, pid, sub),
                int(sub.nbytes), 0,
            ))
        self._group_call(calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(grad.nbytes))
