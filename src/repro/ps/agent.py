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
could cause serious network congestion" (Sec. IV-D).  Every operation goes
through one loop, :meth:`PSAgent._fan_out`, which meters each request and
runs its code (a psFunc, a table write) on the partition's store; keyed
gathers and scatters, column-shard operations and optimizer steps are
**charged, not executed** per request: their data moves once.

Failure handling follows Sec. III-B: if a server is dead, the agent asks
the master to recover (restart via Yarn + reload HDFS checkpoints) and then
retries once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Tuple

import numpy as np

from repro.common.batch import (
    gather_segments,
    partition_order,
    strictly_increasing,
)
from repro.common.errors import (
    ContainerLostError,
    EndpointNotFoundError,
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


class _Bill:
    """What one agent operation owes, charged to the caller once: one
    latency + busiest server's bytes x congestion / bandwidth, CPU for all."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx
        self.tctx = current_task_context()
        self.cost = self.tctx.cost if self.tctx is not None else TaskCost()
        self.cost_before_s = self.cost.total_s
        self.per_server = [0.0] * psctx.num_servers  # bytes of its requests
        self.calls = 0

    def settle(self, method: str, matrix: str, col: int | None) -> None:
        """Charge the operation; the span's matrix (and column) tags are
        what :mod:`repro.obs.races` attributes the access by."""
        psctx, cost, total = self.psctx, self.cost, sum(self.per_server)
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
                cost.net_s += cm.network_time(max(self.per_server),
                                              congestion)
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


def check_rows(meta: MatrixMeta, keys: Any) -> np.ndarray:
    """Row keys as int64, all checked against the matrix's rows before an
    operation moves or charges anything."""
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) and not 0 <= keys.min() <= keys.max() < meta.rows:
        bad = keys[(keys < 0) | (keys >= meta.rows)][:5]
        raise PSError(f"keys not in partition: {bad}...")
    return keys


def _positions(pids: np.ndarray, lo: int, hi: int, num: int) -> Any:
    """The request positions whose partition is in ``lo..hi-1``."""
    if hi - lo == num:
        return slice(None)
    return np.flatnonzero((pids >= lo) & (pids < hi))


class PSAgent:
    """Routes model requests to the right servers and meters them."""

    def __init__(self, psctx: "PSContext") -> None:
        self.psctx = psctx

    # ------------------------------------------------------------------
    # the one dispatch loop
    # ------------------------------------------------------------------

    def _invoke(self, server: Any, method: str, matrix: str, pid: int,
                before_recover: Callable[[int], None]) -> Any:
        """Admit a ``method`` request to partition ``pid`` of ``matrix`` at
        ``server`` (``PSServer._admit`` returns the store), with the master-
        recovery retry of Sec. III-B after ``before_recover(pid)``.  Faults
        are injected here; an injected delay lands on the task's cost or
        the driver clock."""
        psctx, endpoint = self.psctx, server.id
        rpc = psctx.spark.rpc
        try:
            if rpc.fault_injector is not None:
                tctx = current_task_context()
                try:
                    rpc.check_fault(endpoint, method,
                                    tctx.cost if tctx is not None else None)
                except RpcError as exc:
                    delay_s = getattr(exc, "delay_s", 0.0)
                    if tctx is None and delay_s > 0.0:
                        psctx.spark.driver_clock.advance(delay_s)
                    raise
            ep = rpc.endpoint(endpoint)
            if not ep.alive:
                raise RpcError(f"endpoint {endpoint} is not alive")
            return ep.handler._admit(matrix, pid)
        except EndpointNotFoundError:
            raise
        except (RpcError, ContainerLostError):
            if not psctx.auto_recover:
                raise
            before_recover(pid)
            psctx.master.recover(psctx.recovery_mode)
            return rpc.endpoint(endpoint).handler._admit(matrix, pid)

    def _fan_out(self, meta: MatrixMeta, method: str, pids: Iterable[int],
                 request: Callable[[int, Any], Tuple[int, Any]],
                 move: Callable[[int, int], None] | None = None,
                 col: int | None = None, op: str | None = None,
                 recharge: bool = False) -> None:
        """One agent operation: a ``method`` request to each partition in
        ``pids`` (ascending, the order they go out in), charged once.

        Per request: fault check, liveness, presence (``_invoke``), then
        ``request(pid, store)`` runs its code, if any, and returns its
        ``(bytes, flops)`` — flops, unless ``None``, advance the server's
        clock as a ``ps.<op>`` span — then the memory charge if
        ``recharge``.  ``move(lo, hi)`` moves the data of the requests to
        partitions ``lo..hi-1`` at once; a dead server found at partition
        *k* first gets those before *k* moved, so a recovery sees those
        writes and cannot touch those reads."""
        psctx, name, servers = self.psctx, meta.name, self.psctx.servers
        bill = _Bill(psctx)
        per_server = bill.per_server
        moved = 0

        def flush(upto: int) -> None:
            nonlocal moved
            if move is not None and upto > moved:
                move(moved, upto)
            moved = upto

        for pid in pids:
            server_index = meta.server_of(pid)
            server = servers[server_index]
            store = self._invoke(server, method, name, pid, flush)
            nbytes, flops = request(pid, store)
            if flops is not None:
                server._work(flops, op or method, name)
            if recharge:
                server._recharge((name, pid))
            per_server[server_index] += nbytes
            bill.calls += 1
        flush(meta.num_partitions)
        bill.settle(method, name, col)

    def _metrics(self):
        return self.psctx.spark.metrics

    # ------------------------------------------------------------------
    # row pull/push/set (axis=0)
    # ------------------------------------------------------------------

    def _route(self, meta: MatrixMeta, keys: np.ndarray) -> np.ndarray:
        """The partition of every key, all checked against the matrix's
        rows — whatever its storage — before the operation moves or
        charges anything: a bad key leaves no half a write."""
        return meta.partitioner.partition_array(check_rows(meta, keys))

    def _keyed(self, meta: MatrixMeta, method: str, pids: np.ndarray,
               width: int, apply: Callable[[Any, Any], None],
               col: int | None) -> None:
        """A keyed gather or scatter of ``width`` values per key: a request
        to each partition owning keys, a key and its values on the wire.
        ``apply(store, sel)`` moves the data of request positions ``sel``:
        once through ``meta.data``, or per partition when there is none."""
        num, whole = meta.num_partitions, meta.data
        counts = np.bincount(pids, minlength=num)
        nbytes = (counts * (8 + width * meta.dtype.itemsize)).tolist()
        flops = (counts * width).tolist()
        touched = np.flatnonzero(counts).tolist()
        if whole is not None:
            self._fan_out(meta, method, touched,
                          lambda pid, _store: (nbytes[pid], flops[pid]),
                          lambda lo, hi: apply(
                              whole, _positions(pids, lo, hi, num)), col)
            return
        order, offsets = partition_order(pids, num)

        def request(pid: int, store: Any) -> tuple:
            apply(store, order[offsets[pid]:offsets[pid + 1]])
            return nbytes[pid], flops[pid]

        self._fan_out(meta, method, touched, request, col=col, recharge=True)

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

        self._keyed(meta, "pull", pids, width, move, col)
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
        self._keyed(meta, method, pids, width, lambda store, sel: getattr(
            store, apply)(keys[sel], values[sel], col), col)
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

    def _shards(self, meta: MatrixMeta, method: str, rows: int,
                move: Callable[[int, int], None]) -> None:
        """A request to every shard about ``rows`` full rows: keys and
        slices on the wire, a flop per element; ``move`` as in ``_fan_out``."""
        widths = np.diff(meta.part_offsets)
        nbytes = (rows * (8 + widths * meta.dtype.itemsize)).tolist()
        flops = (rows * widths).tolist()
        self._fan_out(meta, method, range(meta.num_partitions),
                      lambda pid, _store: (nbytes[pid], flops[pid]), move)

    def pull_rows_full(self, meta: MatrixMeta,
                       row_keys: np.ndarray) -> np.ndarray:
        """Full rows of a column-sharded matrix (concatenated slices)."""
        row_keys = check_rows(meta, row_keys)
        out = np.empty((len(row_keys), meta.cols), dtype=meta.dtype)
        self._shards(meta, "pull_slices", len(row_keys),
                     lambda lo, hi: meta.data.get_rows(row_keys, out, lo, hi))
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, int(out.nbytes + row_keys.nbytes))
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
        row_keys = check_rows(meta, row_keys)
        values = np.asarray(values, dtype=meta.dtype)
        if values.shape != (len(row_keys), meta.cols):
            raise PSError(f"{meta.name}: values of shape {values.shape}")
        apply = (meta.data.inc_rows if method == "push_slices"
                 else meta.data.set_rows)
        self._shards(meta, method, len(row_keys),
                     lambda lo, hi: apply(row_keys, values, lo, hi))
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES,
                            int(row_keys.nbytes + values.nbytes))

    # ------------------------------------------------------------------
    # neighbor tables
    # ------------------------------------------------------------------

    def _table_write(self, meta: MatrixMeta, method: str,
                     vertices: np.ndarray,
                     block: "NeighborBlock | None" = None) -> None:
        """A ``method`` request to each partition owning ``vertices``, run
        on its store, carrying its vertices and, with ``block``, its rows;
        indptr is rebuilt from row lengths, so it is not charged."""
        vertices = np.asarray(vertices, dtype=np.int64)
        order, offsets = partition_order(self._route(meta, vertices),
                                         meta.num_partitions)
        apply = "append_neighbors" if method == "push_neighbors" else method
        total = 0

        def request(pid: int, store: Any) -> tuple:
            nonlocal total
            idx = order[offsets[pid]:offsets[pid + 1]]
            if block is None:
                sub = vertices[idx]
                store.drop_vertices(sub)
                nbytes, flops = int(sub.nbytes), len(sub)
            else:
                rows = block.take(idx)
                getattr(store, apply)(rows.vertices, rows.indptr,
                                      rows.neighbors)
                nbytes = int(rows.vertices.nbytes + rows.neighbors.nbytes)
                flops = len(rows.neighbors)
            total += nbytes
            return nbytes, flops

        self._fan_out(meta, method, np.flatnonzero(np.diff(offsets)).tolist(),
                      request, recharge=True)
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
        table's read view, a ``method`` request per partition.  After a
        recovery mid-way the partitions not read yet are found again."""
        psctx, num = self.psctx, meta.num_partitions
        pids = self._route(meta, vertices)
        counts = np.bincount(pids, minlength=num)
        touched = np.flatnonzero(counts).tolist()
        starts = np.empty(len(vertices), dtype=np.int64)
        lens = np.empty_like(starts)
        flats: list = []
        found: tuple = ()
        entries = generation = None

        def find() -> None:
            nonlocal found, entries, generation
            generation = psctx.recovery_generation
            found = meta.data.find(vertices, touched)
            entries = np.bincount(pids, weights=found[1],
                                  minlength=num).astype(np.int64)

        def request(pid: int, _store: Any) -> tuple:
            if generation != psctx.recovery_generation:
                find()
            n = int(counts[pid])
            if method == "degrees":
                return 16 * n, n
            return 8 * n + 8 * int(entries[pid]), int(entries[pid])

        def move(lo: int, hi: int) -> None:
            sel = _positions(pids, lo, hi, num)
            starts[sel] = found[0][sel] + sum(map(len, flats))
            lens[sel] = found[1][sel]
            flats.append(found[2])

        find()
        self._fan_out(meta, method, touched, request, move)
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
        def request(_pid: int, store: Any) -> tuple:
            store.compact()
            return 16, None

        self._fan_out(meta, "compact", range(meta.num_partitions), request,
                      recharge=True)

    def table_total(self, meta: MatrixMeta) -> int:
        """Total vertices stored across all neighbor-table partitions."""
        sizes: list = []

        def request(_pid: int, store: Any) -> tuple:
            sizes.append(store.num_vertices())
            return 24, None

        self._fan_out(meta, "table_size", range(meta.num_partitions),
                      request)
        return int(sum(sizes))

    # ------------------------------------------------------------------
    # psFunc & gradients
    # ------------------------------------------------------------------

    def psfunc(self, meta: MatrixMeta, func: PsFunc) -> Any:
        """Run ``func`` on every partition and merge the partials."""
        req = sizeof(func)
        partials: list = []

        def request(_pid: int, store: Any) -> tuple:
            partials.append(func.apply(store))
            return req + sizeof(partials[-1]), func.flops(store)

        self._fan_out(meta, "run_psfunc", range(meta.num_partitions),
                      request, op="psfunc", recharge=True)
        self._metrics().inc(PS_PSFUNC_CALLS)
        return func.merge(partials)

    def apply_gradients(self, meta: MatrixMeta, grad: np.ndarray) -> None:
        """Ship a full-shape gradient; the server-side optimizer steps every
        partition — once per run of partitions at the same step count."""
        opt, state = meta.optimizer, meta.opt_state
        if opt is None:
            raise PSError(f"matrix {meta.name} has no optimizer attached")
        grad = np.asarray(grad, dtype=meta.dtype)
        if grad.shape != (meta.rows, meta.cols):
            raise PSError(f"{meta.name}: gradient of shape {grad.shape}")
        param = meta.data.array.reshape(-1)
        flat = meta.data.layout(grad).reshape(-1)
        ends = meta.part_ends()
        sizes = np.diff(ends)
        nbytes = (sizes * grad.itemsize).tolist()
        flops = (sizes * opt.flops_per_element()).tolist()
        steps = [state[name] for name in opt.counters]

        def move(lo: int, hi: int) -> None:
            cuts = [p for p in range(lo + 1, hi)
                    if any(s[p] != s[p - 1] for s in steps)]
            for a, b in zip([lo] + cuts, cuts + [hi]):
                opt.step(param[ends[a]:ends[b]], flat[ends[a]:ends[b]], {
                    name: whole[a:b] if name in opt.counters
                    else whole[ends[a]:ends[b]]
                    for name, whole in state.items()})

        self._fan_out(meta, "apply_gradients", range(meta.num_partitions),
                      lambda pid, _store: (nbytes[pid], flops[pid]), move)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(grad.nbytes))
