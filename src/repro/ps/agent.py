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
could cause serious network congestion" (Sec. IV-D).  The per-partition
requests of a keyed gather or scatter (row pulls and writes, neighbor-table
reads) are **charged, not executed**: their data moves in one array
operation on the matrix-wide store (:meth:`PSAgent._fan_out`).

Failure handling follows Sec. III-B: if a server is dead, the agent asks
the master to recover (restart via Yarn + reload HDFS checkpoints) and then
retries once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.common.batch import (
    gather_segments,
    partition_order,
    split_indices,
    strictly_increasing,
)
from repro.common.errors import (
    ContainerLostError,
    EndpointNotFoundError,
    PartitionNotFoundError,
    PSError,
    RpcError,
)
from repro.common.metrics import (
    PS_PSFUNC_CALLS,
    PS_PULL_BYTES,
    PS_PULLS,
    PS_PUSH_BYTES,
    PS_PUSHES,
    PS_REQUEST_H,
    RPC_BYTES,
    RPC_CALLS,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof
from repro.dataflow.taskctx import current_task_context, task_span
from repro.ps.meta import MatrixMeta
from repro.ps.psfunc import PsFunc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.blocks import NeighborBlock
    from repro.ps.context import PSContext

#: One executed request: (partition, arguments after matrix and partition,
#: request_bytes, response_bytes — an int or a callable over the result).
Call = Tuple[int, tuple, int, Any]


class _Bill:
    """What one agent operation owes, charged to the caller once: one
    latency + busiest server's bytes x congestion / bandwidth, CPU for all."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx
        self.tctx = current_task_context()
        self.cost = self.tctx.cost if self.tctx is not None else TaskCost()
        self.cost_before_s = self.cost.total_s
        self.per_server: defaultdict = defaultdict(float)
        self.total = 0.0
        self.calls = 0

    def add(self, server_index: int, nbytes: int) -> None:
        self.per_server[server_index] += nbytes
        self.total += nbytes
        self.calls += 1

    def settle(self, method: str, matrix: str, col: int | None) -> None:
        """Charge the operation; the span's matrix (and column) tags are
        what :mod:`repro.lint.races` attributes the access by."""
        psctx, cost, total = self.psctx, self.cost, self.total
        spark = psctx.spark
        tags: dict = {}
        if self.calls:
            concurrent = spark.cluster.num_executors if self.tctx else 1
            congestion = max(1.0, concurrent / max(1, psctx.num_servers))
            tags = {"calls": self.calls, "bytes": int(total),
                    "matrix": matrix}
            if col is not None:
                tags["col"] = int(col)
            cm = spark.cluster.cost_model
            with task_span(f"ps.{method}", cost, tags):
                cost.net_s += cm.network_time(
                    max(self.per_server.values()), congestion)
                cost.cpu_s += cm.serialization_time(total)
            spark.metrics.inc(RPC_CALLS, self.calls)
            spark.metrics.inc(RPC_BYTES, total)
            spark.metrics.observe(PS_REQUEST_H, total)
            # Everything the operation charged the caller (network,
            # serialization, injected RPC delays): the latency SLOs' series.
            spark.metrics.observe(f"ps.{method}.latency_s",
                                  cost.total_s - self.cost_before_s)
        if self.tctx is None:
            # Driver-side operation: advance the driver clock and, when
            # tracing, record the span on the driver's "ps-agent" track.
            clock = spark.driver_clock
            start_s = clock.now_s
            clock.advance(cost.total_s)
            if self.calls and spark.tracer.enabled:
                spark.tracer.add("driver", "ps-agent", f"ps.{method}",
                                 start_s, clock.now_s, tags)


class PSAgent:
    """Routes model requests to the right servers and meters them."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx

    # ------------------------------------------------------------------
    # metered concurrent-call primitive
    # ------------------------------------------------------------------

    def _invoke(self, server_index: int, method: str, target: str,
                args: tuple,
                before_recover: Callable[[], None] | None = None) -> Any:
        """One ``method`` request, handler ``target(*args)``, with
        master-recovery retry (Sec. III-B)."""
        psctx = self.psctx
        endpoint = psctx.server_endpoint(server_index)
        rpc = psctx.spark.rpc
        try:
            self._check_fault(endpoint, method)
            ep = rpc.endpoint(endpoint)
            if not ep.alive:
                raise RpcError(f"endpoint {endpoint} is not alive")
            return getattr(ep.handler, target)(*args)
        except EndpointNotFoundError:
            raise
        except (RpcError, ContainerLostError):
            if not psctx.auto_recover:
                raise
            if before_recover is not None:
                before_recover()
            psctx.master.recover(psctx.recovery_mode)
            return getattr(rpc.endpoint(endpoint).handler, target)(*args)

    def _check_fault(self, endpoint: str, method: str) -> None:
        """Chaos hook: the agent dispatches to server handlers itself
        (not through :meth:`RpcEnv.call`), so it asks the fault injector.
        Injected latency lands on the task's cost or the driver clock."""
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

    def _group_call(self, meta: MatrixMeta, method: str,
                    calls: Sequence[Call]) -> List[Any]:
        """Issue ``method`` requests concurrently, each *executed* by its
        server's handler (it runs code on a partition); charge once."""
        bill = _Bill(self.psctx)
        results: List[Any] = []
        for pid, args, req_bytes, resp_bytes in calls:
            server_index = meta.server_of(pid)
            result = self._invoke(server_index, method, method,
                                  (meta.name, pid) + args)
            results.append(result)
            if callable(resp_bytes):
                resp_bytes = resp_bytes(result)
            bill.add(server_index, req_bytes + resp_bytes)
        bill.settle(method, meta.name, None)
        return results

    def _fan_out(self, meta: MatrixMeta, method: str, pids: np.ndarray,
                 meter: Callable[[np.ndarray], tuple],
                 move: Callable[[Any, Any], None],
                 col: int | None = None) -> None:
        """One keyed gather or scatter: the request to each partition in
        ``pids`` is *metered*, the data moves once.

        ``meter(keys per partition)`` is ``(request bytes, response bytes,
        flops)`` per partition.  The loop does, in ascending partition
        order (the order the requests go out in), what a request does
        besides moving data: fault check, liveness, partition presence, the
        server's clock advance and ``ps.<method>`` span, bytes into the
        bill.  ``move(store, sel)`` moves the data of request positions
        ``sel`` — through the matrix-wide ``meta.data`` in one call or, for
        a matrix that exists per partition only, through each partition's
        store inside the loop.  A dead server found at partition *k* first
        moves the data of the partitions before *k* (the recovery sees those
        writes, cannot touch those reads), recovers, retries *k*, re-meters.
        """
        psctx, name, num = self.psctx, meta.name, meta.num_partitions
        whole = meta.data
        counts = np.bincount(pids, minlength=num)
        if whole is None:
            order, offsets = partition_order(pids, num)
        bill = _Bill(psctx)
        req, resp, flops = (m.tolist() for m in meter(counts))
        moved = 0

        def flush(upto: int) -> None:
            nonlocal moved
            if whole is not None and upto > moved:
                move(whole, slice(None) if upto - moved == num else
                     np.flatnonzero((pids >= moved) & (pids < upto)))
            moved = upto

        for pid in np.flatnonzero(counts).tolist():
            server_index = meta.server_of(pid)
            server = psctx.servers[server_index]
            generation = psctx.recovery_generation
            store = self._invoke(server_index, method, "_admit",
                                 (name, pid), lambda: flush(pid))
            if psctx.recovery_generation != generation:
                req, resp, flops = (m.tolist() for m in meter(counts))
            if whole is None:
                move(store, order[offsets[pid]:offsets[pid + 1]])
            server._work(flops[pid], method, name)
            if whole is None:
                server._recharge((name, pid))
            bill.add(server_index, req[pid] + resp[pid])
        flush(num)
        bill.settle(method, name, col)

    def _metrics(self):
        return self.psctx.spark.metrics

    # ------------------------------------------------------------------
    # row pull/push/set (axis=0)
    # ------------------------------------------------------------------

    def _route(self, meta: MatrixMeta, keys: np.ndarray) -> np.ndarray:
        """The partition of every key, all checked before the operation
        moves or charges anything: a bad key leaves no half a write."""
        pids = meta.partitioner.partition_array(keys)
        dense = meta.storage == "dense"
        ids, bound = ((keys, meta.rows) if dense
                      else (pids, meta.num_partitions))
        if len(ids) and not 0 <= ids.min() <= ids.max() < bound:
            bad = ids[(ids < 0) | (ids >= bound)][:5]
            if dense:
                raise PSError(f"keys not in partition: {bad}...")
            raise PartitionNotFoundError(
                f"{meta.name} has no partition {bad[0]}")
        return pids

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
        cache = self.psctx.pull_cache(meta.name)
        if cache is None:
            out = self._pull_from_servers(meta, ukeys, col)
        else:
            out = np.zeros(
                len(ukeys) if col is not None else (len(ukeys), meta.cols),
                dtype=meta.dtype)
            epoch = self.psctx.sync.epoch
            hit, values = cache.lookup(ukeys, col, epoch)
            if hit.any():
                out[hit] = values[hit]
            if not hit.all():
                miss = ~hit
                missing = ukeys[miss]
                fetched = self._pull_from_servers(meta, missing, col)
                out[miss] = fetched
                cache.store(missing, col, fetched, epoch)
        return out if inverse is None else out[inverse]

    def _pull_from_servers(self, meta: MatrixMeta, ukeys: np.ndarray,
                           col: int | None,
                           key_nbytes: int | None = None) -> np.ndarray:
        """The uncached server fetch for unique ``ukeys``."""
        pids = self._route(meta, ukeys)
        width = 1 if col is not None else meta.cols
        out = np.empty(len(ukeys) if col is not None else (len(ukeys), width),
                       dtype=meta.dtype)

        def move(store: Any, sel: Any) -> None:
            out[sel] = store.get_rows(ukeys[sel], col)

        self._fan_out(
            meta, "pull", pids,
            lambda n: (8 * n, n * (width * out.itemsize), n * width),
            move, col)
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, int(out.nbytes) + (
            int(ukeys.nbytes) if key_nbytes is None else key_nbytes))
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
        values = np.asarray(values, dtype=meta.dtype)
        pids = self._route(meta, keys)
        cache = self.psctx.pull_cache(meta.name)
        if cache is not None:
            cache.invalidate(keys)
        width = int(np.prod(values.shape[1:]))
        apply = "inc_rows" if method == "push" else "set_rows"
        self._fan_out(
            meta, method, pids,
            lambda n: (n * (8 + width * values.itemsize), 0 * n, n * width),
            lambda store, sel: getattr(store, apply)(
                keys[sel], values[sel], col),
            col)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(keys.nbytes + values.nbytes))

    def pull_all(self, meta: MatrixMeta) -> np.ndarray:
        """The full matrix, assembled at the caller (axis=0 or axis=1)."""
        keys = np.arange(meta.rows, dtype=np.int64)
        if meta.axis == 1:
            return self.pull_rows_full(meta, keys)
        return self._pull_from_servers(meta, keys, None, key_nbytes=0)

    # ------------------------------------------------------------------
    # column-shard operations (axis=1)
    # ------------------------------------------------------------------

    def pull_rows_full(self, meta: MatrixMeta,
                       row_keys: np.ndarray) -> np.ndarray:
        """Full rows of a column-sharded matrix (concatenated slices)."""
        row_keys = np.asarray(row_keys, dtype=np.int64)
        out = np.zeros((len(row_keys), meta.cols), dtype=meta.dtype)
        results = self._group_call(meta, "pull_slices", [
            (pid, (row_keys,), int(row_keys.nbytes), lambda v: int(v.nbytes))
            for pid in range(meta.num_partitions)
        ])
        nbytes = 0
        for pid, values in enumerate(results):
            cols = meta.partitioner.keys_of_partition(pid)
            out[:, cols] = values
            nbytes += int(values.nbytes)
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, nbytes + int(row_keys.nbytes))
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
            calls.append((pid, (row_keys, sub),
                          int(row_keys.nbytes + sub.nbytes), 0))
        self._group_call(meta, method, calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES,
                            int(row_keys.nbytes + values.nbytes))

    # ------------------------------------------------------------------
    # neighbor tables
    # ------------------------------------------------------------------

    def _table_write(self, meta: MatrixMeta, method: str,
                     vertices: np.ndarray,
                     block: "NeighborBlock | None" = None) -> None:
        """One ``method`` request per partition owning some of
        ``vertices``, executed by the partition's store.  It carries the
        partition's vertices and, with ``block``, its rows as one
        ``(vertices, indptr, indices)`` envelope; indptr is rebuilt from
        row lengths on arrival, so only vertices and indices are charged.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        pids = meta.partitioner.partition_array(vertices)
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
            calls.append((pid, payload, nbytes, 0))
        self._group_call(meta, method, calls)
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

    def _table_read(self, meta: MatrixMeta, method: str,
                    vertices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(starts, lens, flat)`` of the rows of ``vertices`` in the
        table's read view, metered as one ``method`` request per partition.
        A recovery in the middle of the fan-out changes the table under the
        partitions not asked yet; rows already read keep their view."""
        pids = self._route(meta, vertices)
        starts = np.empty(len(vertices), dtype=np.int64)
        lens = np.empty_like(starts)
        flats: list = []
        found: tuple = ()

        def meter(counts: np.ndarray) -> tuple:
            nonlocal found
            found = meta.data.find(vertices, np.flatnonzero(counts).tolist())
            if method == "degrees":
                return 8 * counts, 8 * counts, counts
            entries = np.bincount(pids, weights=found[1],
                                  minlength=len(counts)).astype(np.int64)
            return 8 * counts, 8 * entries, entries

        def move(_view: Any, sel: Any) -> None:
            starts[sel] = found[0][sel] + sum(map(len, flats))
            lens[sel] = found[1][sel]
            flats.append(found[2])

        self._fan_out(meta, method, pids, meter, move)
        self._metrics().inc(PS_PULLS)
        return starts, lens, (flats[0] if len(flats) == 1
                              else np.concatenate(flats))

    def get_neighbors(self, meta: MatrixMeta,
                      vertices: np.ndarray) -> "NeighborBlock":
        """The rows of ``vertices`` as one block aligned with the request
        (duplicates allowed, an unknown vertex has an empty row)."""
        from repro.core.blocks import NeighborBlock

        vertices = np.asarray(vertices, dtype=np.int64)
        starts, lens, flat = self._table_read(meta, "get_neighbors", vertices)
        block = NeighborBlock(vertices, *gather_segments(flat, starts, lens))
        self._metrics().inc(
            PS_PULL_BYTES, int(vertices.nbytes + block.neighbors.nbytes))
        return block

    def degrees(self, meta: MatrixMeta, vertices: np.ndarray) -> np.ndarray:
        """Neighbor counts for ``vertices``."""
        return self._table_read(
            meta, "degrees", np.asarray(vertices, dtype=np.int64))[1]

    def compact(self, meta: MatrixMeta) -> None:
        """Freeze all neighbor-table partitions into CSR form."""
        self._group_call(meta, "compact", [
            (pid, (), 16, 0) for pid in range(meta.num_partitions)])

    def table_total(self, meta: MatrixMeta) -> int:
        """Total vertices stored across all neighbor-table partitions."""
        return int(sum(self._group_call(meta, "table_size", [
            (pid, (), 16, 8) for pid in range(meta.num_partitions)])))

    # ------------------------------------------------------------------
    # psFunc & gradients
    # ------------------------------------------------------------------

    def psfunc(self, meta: MatrixMeta, func: PsFunc) -> Any:
        """Run ``func`` on every partition and merge the partials."""
        req = sizeof(func)
        partials = self._group_call(meta, "run_psfunc", [
            (pid, (func,), req, sizeof)
            for pid in range(meta.num_partitions)])
        self._metrics().inc(PS_PSFUNC_CALLS)
        return func.merge(partials)

    def apply_gradients(self, meta: MatrixMeta, grad: np.ndarray) -> None:
        """Ship a full-shape gradient; each server updates its partition
        with the matrix's server-side optimizer."""
        grad = np.asarray(grad, dtype=meta.dtype)
        calls: List[Call] = []
        for pid in range(meta.num_partitions):
            keys = meta.partitioner.keys_of_partition(pid)
            sub = np.ascontiguousarray(
                grad[:, keys] if meta.axis == 1 else grad[keys])
            calls.append((pid, (sub,), int(sub.nbytes), 0))
        self._group_call(meta, "apply_gradients", calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(grad.nbytes))
