"""A PS operation moves its data once — held to the loops it replaced.

Until commit ``b921050`` every row pull / push / set and every
neighbor-table read was split per partition and each piece *executed* by
a ``PSServer`` handler; until ``a4f296a`` so were column-shard operations,
optimizer steps, psFuncs and neighbor-table writes (``_group_call``).
Both loops are copied here as :class:`OracleAgent` (agent side) and
``HANDLERS`` (server side) and run beside the new path — one metered
fan-out loop, the data moved once through the matrix-wide store, request
code run on the partition's store inside the loop — on the same seeded
operation sequences: results, final state (optimizer state included),
both clocks, every metric, every span and every server's memory must
agree, across recoveries in the middle of an operation too.

``--hypothesis-profile deep`` (the ``chaos`` entry of the ``smoke`` CI
matrix) runs 1,000
examples of each property.
"""

import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.batch import gather_segments, strictly_increasing
from repro.common.config import ClusterConfig
from repro.common.errors import (
    ConfigError,
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
    PS_RECOVERIES,
    PS_REQUEST_H,
    RPC_BYTES,
    RPC_CALLS,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof
from repro.core.blocks import NeighborBlock
from repro.dataflow.context import SparkContext
from repro.dataflow.taskctx import current_task_context, task_span
from repro.obs.determinism import span_event
from repro.obs.export import metrics_to_dict
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.ps.agent import PSAgent
from repro.ps.context import PSContext
from repro.ps.matrix import PSMatrix
from repro.ps.optimizer import SGD, AdaGrad, Adam, Momentum
from repro.ps.psfunc import RandomInit, RankOneUpdate
from repro.ps.storage import DenseRowStore
from tests.conftest import VectorSum, set_rows, split_indices, table_block

# ----------------------------------------------------------------------
# the oracle: the per-partition loop of commit b921050
# ----------------------------------------------------------------------


def _srv_pull(server, matrix, pid, keys, col=None):
    store = server._admit(matrix, pid)
    cols = 1 if col is not None else store.cols
    server._work(len(keys) * cols, "pull", matrix)
    return store.get_rows(keys, col)


def _srv_push(server, matrix, pid, keys, deltas, col=None):
    store = server._admit(matrix, pid)
    store.inc_rows(keys, deltas, col)
    server._work(np.size(deltas), "push", matrix)
    server._recharge((matrix, pid))


def _srv_set(server, matrix, pid, keys, values, col=None):
    store = server._admit(matrix, pid)
    store.set_rows(keys, values, col)
    server._work(np.size(values), "set", matrix)
    server._recharge((matrix, pid))


def _srv_get_neighbors(server, matrix, pid, vertices):
    out = server._admit(matrix, pid).get_neighbors(vertices)
    server._work(len(out[1]), "get_neighbors", matrix)
    return out


def _srv_degrees(server, matrix, pid, vertices):
    store = server._admit(matrix, pid)
    server._work(len(vertices), "degrees", matrix)
    return np.diff(store.get_neighbors(vertices)[0])


# -- the handlers ``_group_call`` dispatched to until a4f296a ------------


def _srv_pull_slices(server, matrix, pid, row_keys):
    store = server._admit(matrix, pid)
    server._work(len(row_keys) * store.array.shape[1], "pull_slices", matrix)
    return store.get_row_slices(row_keys)


def _srv_push_slices(server, matrix, pid, row_keys, deltas):
    store = server._admit(matrix, pid)
    store.inc_row_slices(row_keys, deltas)
    server._work(deltas.size, "push_slices", matrix)


def _srv_set_slices(server, matrix, pid, row_keys, values):
    store = server._admit(matrix, pid)
    store.set_row_slices(row_keys, values)
    server._work(values.size, "set_slices", matrix)


def _srv_push_neighbors(server, matrix, pid, vertices, indptr, indices):
    server._admit(matrix, pid).append_neighbors(vertices, indptr, indices)
    server._work(len(indices), "push_neighbors", matrix)
    server._recharge((matrix, pid))


def _srv_remove_neighbors(server, matrix, pid, vertices, indptr, indices):
    server._admit(matrix, pid).remove_neighbors(vertices, indptr, indices)
    server._work(len(indices), "remove_neighbors", matrix)
    server._recharge((matrix, pid))


def _srv_drop_vertices(server, matrix, pid, vertices):
    store = server._admit(matrix, pid)
    store.drop_vertices(vertices)
    server._work(len(vertices), "drop_vertices", matrix)
    server._recharge((matrix, pid))


def _srv_compact(server, matrix, pid):
    store = server._admit(matrix, pid)
    store.compact()
    server._recharge((matrix, pid))


def _srv_run_psfunc(server, matrix, pid, func):
    store = server._admit(matrix, pid)
    result = func.apply(store)
    server._work(func.flops(store), "psfunc", matrix)
    server._recharge((matrix, pid))
    return result


def _srv_apply_gradients(server, matrix, pid, grad):
    server._admit(matrix, pid)
    meta = server._metas[matrix]
    if meta.optimizer is None:
        raise PSError(f"matrix {matrix} has no optimizer attached")
    # (the partition's state dict, which the server kept until a4f296a)
    meta.optimizer.step(server._stores[(matrix, pid)].array, grad,
                        meta.part_state(pid))
    server._work(grad.size * meta.optimizer.flops_per_element(),
                 "apply_gradients", matrix)


HANDLERS = {"pull": _srv_pull, "push": _srv_push, "set": _srv_set,
            "get_neighbors": _srv_get_neighbors, "degrees": _srv_degrees,
            "pull_slices": _srv_pull_slices,
            "push_slices": _srv_push_slices, "set_slices": _srv_set_slices,
            "push_neighbors": _srv_push_neighbors,
            "remove_neighbors": _srv_remove_neighbors,
            "drop_vertices": _srv_drop_vertices, "compact": _srv_compact,
            "run_psfunc": _srv_run_psfunc,
            "apply_gradients": _srv_apply_gradients}


class OracleAgent(PSAgent):
    """Every operation exactly as ``b921050`` (row pulls / writes, table
    reads) and ``a4f296a`` (column shards, optimizer steps, psFuncs, table
    writes) ran it: split → slice → dispatch → execute on the partition →
    reassemble."""

    def _check_fault(self, endpoint, method):
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

    def _oracle_invoke(self, server_index, method, args):
        psctx = self.psctx
        endpoint = psctx.servers[server_index].id
        rpc = psctx.spark.rpc
        try:
            self._check_fault(endpoint, method)
            ep = rpc.endpoint(endpoint)
            if not ep.alive:
                raise RpcError(f"endpoint {endpoint} is not alive")
            return HANDLERS[method](ep.handler, *args)
        except EndpointNotFoundError:
            raise
        except (RpcError, ContainerLostError):
            if not psctx.auto_recover:
                raise
            psctx.master.recover(psctx.recovery_mode)
            ep = rpc.endpoint(endpoint)
            return HANDLERS[method](ep.handler, *args)

    def _oracle_group_call(self, calls, col=None):
        psctx = self.psctx
        cm = psctx.spark.cluster.cost_model
        tctx = current_task_context()
        cost = tctx.cost if tctx is not None else TaskCost()
        cost_before_s = cost.total_s
        concurrent = psctx.spark.cluster.num_executors if tctx else 1
        per_server = defaultdict(float)
        total = 0.0
        results = []
        for server_index, method, args, req_bytes, resp_bytes in calls:
            result = self._oracle_invoke(server_index, method, args)
            results.append(result)
            if callable(resp_bytes):
                resp_bytes = resp_bytes(result)
            nbytes = req_bytes + resp_bytes
            per_server[server_index] += nbytes
            total += nbytes
        tags = {}
        if calls:
            busiest = max(per_server.values())
            congestion = max(1.0, concurrent / max(1, psctx.num_servers))
            method = calls[0][1]
            tags = {"calls": len(calls), "bytes": int(total)}
            matrix = calls[0][2][0] if calls[0][2] else None
            if isinstance(matrix, str):
                tags["matrix"] = matrix
            if col is not None:
                tags["col"] = int(col)
            with task_span(f"ps.{method}", cost, tags):
                cost.net_s += cm.network_time(busiest, congestion)
                cost.cpu_s += cm.serialization_time(total)
            metrics = psctx.spark.metrics
            metrics.inc(RPC_CALLS, len(calls))
            metrics.inc(RPC_BYTES, total)
            metrics.observe(PS_REQUEST_H, total)
            metrics.observe(f"ps.{method}.latency_s",
                            cost.total_s - cost_before_s)
        if tctx is None:
            clock = psctx.spark.driver_clock
            start_s = clock.now_s
            clock.advance(cost.total_s)
            tracer = psctx.spark.tracer
            if calls and tracer.enabled:
                tracer.add("driver", "ps-agent", f"ps.{calls[0][1]}",
                           start_s, clock.now_s, tags)
        return results

    def _pull_from_servers(self, meta, ukeys, col, key_nbytes=None):
        out = np.zeros(
            len(ukeys) if col is not None else (len(ukeys), meta.cols),
            dtype=meta.dtype)
        pids = meta.partitioner.partition_array(ukeys)
        calls, index_sets = [], []
        for pid, idx in split_indices(pids):
            subkeys = ukeys[idx]
            index_sets.append(idx)
            calls.append((meta.server_of(pid), "pull",
                          (meta.name, pid, subkeys, col),
                          int(subkeys.nbytes), lambda v: int(v.nbytes)))
        results = self._oracle_group_call(calls, col=col)
        nbytes = 0
        for idx, values in zip(index_sets, results):
            out[idx] = values
            nbytes += int(values.nbytes)
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, nbytes + int(ukeys.nbytes))
        return out

    def _write(self, meta, keys, values, col, method):
        keys = np.asarray(keys, dtype=np.int64)
        cache = self.psctx.pull_cache(meta.name)
        if cache is not None:
            cache.invalidate(keys)
        values = np.asarray(values, dtype=meta.dtype)
        pids = meta.partitioner.partition_array(keys)
        calls = []
        for pid, idx in split_indices(pids):
            subkeys = keys[idx]
            subvalues = values[idx]
            calls.append((meta.server_of(pid), method,
                          (meta.name, pid, subkeys, subvalues, col),
                          int(subkeys.nbytes + subvalues.nbytes), 0))
        self._oracle_group_call(calls, col=col)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(keys.nbytes + values.nbytes))

    def pull_all(self, meta):
        if meta.axis == 1:
            return self.pull_rows_full(meta, np.arange(meta.rows))
        out = np.zeros((meta.rows, meta.cols), dtype=meta.dtype)
        calls, key_sets = [], []
        for pid in range(meta.num_partitions):
            keys = meta.partitioner.keys_of_partition(pid)
            key_sets.append(keys)
            calls.append((meta.server_of(pid), "pull",
                          (meta.name, pid, keys, None),
                          int(keys.nbytes), lambda v: int(v.nbytes)))
        for keys, values in zip(key_sets, self._oracle_group_call(calls)):
            out[keys] = values
        self._metrics().inc(PS_PULLS)
        self._metrics().inc(PS_PULL_BYTES, int(out.nbytes))
        return out

    def _table_calls(self, meta, method, vertices, resp_bytes):
        pids = meta.partitioner.partition_array(vertices)
        index_sets, calls = [], []
        total = 0
        for pid, idx in split_indices(pids):
            nbytes = int(vertices[idx].nbytes)
            total += nbytes
            index_sets.append(idx)
            calls.append((meta.server_of(pid), method,
                          (meta.name, pid, vertices[idx]), nbytes,
                          resp_bytes))
        return index_sets, self._oracle_group_call(calls), total

    def get_neighbors(self, meta, vertices):
        vertices = np.asarray(vertices, dtype=np.int64)
        index_sets, results, nbytes = self._table_calls(
            meta, "get_neighbors", vertices, lambda r: int(r[1].nbytes))
        self._metrics().inc(PS_PULLS)
        if not results:
            self._metrics().inc(PS_PULL_BYTES, nbytes)
            return NeighborBlock(vertices, np.zeros(1, dtype=np.int64),
                                 np.empty(0, dtype=np.int64))
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

    def degrees(self, meta, vertices):
        vertices = np.asarray(vertices, dtype=np.int64)
        out = np.zeros(len(vertices), dtype=np.int64)
        index_sets, results, _ = self._table_calls(
            meta, "degrees", vertices, lambda d: int(d.nbytes))
        for idx, degs in zip(index_sets, results):
            out[idx] = degs
        self._metrics().inc(PS_PULLS)
        return out

    # -- a4f296a: ``_group_call`` ------------------------------------------

    def _group_call(self, meta, method, calls):
        return self._oracle_group_call([
            (meta.server_of(pid), method, (meta.name, pid) + args, req, resp)
            for pid, args, req, resp in calls])

    def pull_rows_full(self, meta, row_keys):
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

    def _write_slices(self, meta, row_keys, values, method):
        row_keys = np.asarray(row_keys, dtype=np.int64)
        values = np.asarray(values, dtype=meta.dtype)
        calls = []
        for pid in range(meta.num_partitions):
            cols = meta.partitioner.keys_of_partition(pid)
            sub = np.ascontiguousarray(values[:, cols])
            calls.append((pid, (row_keys, sub),
                          int(row_keys.nbytes + sub.nbytes), 0))
        self._group_call(meta, method, calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES,
                            int(row_keys.nbytes + values.nbytes))

    def _table_write(self, meta, method, vertices, block=None):
        vertices = np.asarray(vertices, dtype=np.int64)
        pids = meta.partitioner.partition_array(vertices)
        calls = []
        total = 0
        for pid, idx in split_indices(pids):
            if block is None:
                payload = (vertices[idx],)
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

    def compact(self, meta):
        self._group_call(meta, "compact", [
            (pid, (), 16, 0) for pid in range(meta.num_partitions)])

    def psfunc(self, meta, func):
        req = sizeof(func)
        partials = self._group_call(meta, "run_psfunc", [
            (pid, (func,), req, sizeof)
            for pid in range(meta.num_partitions)])
        self._metrics().inc(PS_PSFUNC_CALLS)
        return func.merge(partials)

    def apply_gradients(self, meta, grad):
        grad = np.asarray(grad, dtype=meta.dtype)
        calls = []
        for pid in range(meta.num_partitions):
            keys = meta.partitioner.keys_of_partition(pid)
            sub = np.ascontiguousarray(
                grad[:, keys] if meta.axis == 1 else grad[keys])
            calls.append((pid, (sub,), int(sub.nbytes), 0))
        self._group_call(meta, "apply_gradients", calls)
        self._metrics().inc(PS_PUSHES)
        self._metrics().inc(PS_PUSH_BYTES, int(grad.nbytes))


# ----------------------------------------------------------------------
# harness: one script, two systems
# ----------------------------------------------------------------------


class System:
    """A 3-server PS with a dense matrix and a neighbor table — and, with
    ``shards``, a column-sharded matrix of ``ecols`` columns; ``optimizer``
    steps it and the dense matrix.  ``traced=False`` runs without spans."""

    def __init__(self, oracle: bool, kind: str, rows: int, cols: int,
                 parts: int, dtype=np.float64, storage: str = "dense",
                 servers: int = 3, shards: int = 0, ecols: int = 0,
                 optimizer=None, traced: bool = True):
        self.tracer = Tracer() if traced else NOOP_TRACER
        self.spark = SparkContext(ClusterConfig(
            num_executors=2, executor_mem_bytes=1 << 40,
            num_servers=servers, server_mem_bytes=1 << 40,
        ), tracer=self.tracer)
        self.ps = PSContext(self.spark)
        if oracle:
            self.ps.agent = OracleAgent(self.ps)
        self.m = self.ps.create_matrix(
            "m", rows, cols, dtype, partition=kind, storage=storage,
            num_partitions=parts, optimizer=optimizer)
        self.t = self.ps.create_neighbor_table(
            "t", rows, partition=kind, num_partitions=parts)
        self.e = None
        if shards:
            self.e = self.ps.create_matrix(
                "e", rows, ecols, dtype, axis=1, storage="column",
                num_partitions=shards, optimizer=optimizer)
        self.out = []

    def close(self):
        self.ps.stop()
        self.spark.stop()

    def state(self):
        """Everything a run can observe, as comparable plain values."""
        flat = []
        for item in self.out:
            if isinstance(item, NeighborBlock):
                flat += [item.vertices, item.indptr, item.neighbors]
            else:
                flat.append(item)
        rows = np.arange(self.m.meta.rows)
        table = self.t.get(rows)
        metas = [self.ps.matrix_meta(name) for name in self.ps.matrix_names()]
        return {
            "out": [(np.asarray(x).dtype.str, np.asarray(x).tolist())
                    for x in flat],
            "matrix": self.m.to_numpy().tolist(),
            "table": (table.indptr.tolist(), table.neighbors.tolist()),
            "column": None if self.e is None else self.e.to_numpy().tolist(),
            "optimizer": [(meta.name, name, state.tolist())
                          for meta in metas if meta.opt_state is not None
                          for name, state in meta.opt_state.items()],
            "sim_s": self.spark.sim_time(),
            "server_clocks": [s.container.clock.now_s
                              for s in self.ps.servers],
            "metrics": json.dumps(metrics_to_dict(self.spark.metrics),
                                  sort_keys=True),
            "memory": [(s.container.memory.used, s.container.memory.peak)
                       for s in self.ps.servers],
            "nbytes": [(key, store.nbytes) for s in self.ps.servers
                       for key, store in sorted(s._stores.items())],
            "spans": [span_event(s) for s in self.tracer.spans()],
        }


def run_both(script, **config):
    """Run ``script(system)`` on the new path and on the oracle; the two
    observable states."""
    states = []
    for oracle in (False, True):
        system = System(oracle, **config)
        try:
            script(system)
            states.append(system.state())
        finally:
            system.close()
    return states


def assert_same(states):
    new, old = states
    for key in old:
        assert new[key] == old[key], key


# ----------------------------------------------------------------------
# (b) random matrices, random operation sequences
# ----------------------------------------------------------------------


@st.composite
def op_sequences(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 3))
    config = dict(
        kind=draw(st.sampled_from(["hash", "range", "hash-range"])),
        rows=rows, cols=cols, parts=draw(st.integers(1, 9)),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        storage=draw(st.sampled_from(["dense", "dense", "sparse"])),
    )
    # Key sets: empty, all in one partition (one key repeated), anything.
    keys = st.one_of(
        st.just([]),
        st.integers(0, rows - 1).flatmap(
            lambda k: st.lists(st.just(k), min_size=1, max_size=4)),
        st.lists(st.integers(0, rows - 1), max_size=12),
    )
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["pull", "push", "set", "pull_all", "tpush", "tget",
                         "tdeg", "tremove", "tdrop", "tcompact", "task"]),
        keys, st.one_of(st.none(), st.integers(0, cols - 1)),
        st.integers(0, 2 ** 31)), max_size=12))
    return config, ops


def play(system, ops):
    m, t, rows = system.m, system.t, system.m.meta.rows
    cols = m.meta.cols

    def one(op, keys, col, seed):
        # The matrix handle's column-scoped calls, on a 1-column vector too.
        rng = np.random.default_rng(seed)
        keys = np.asarray(keys, dtype=np.int64)
        shape = len(keys) if col is not None else (len(keys), cols)
        if op == "pull":
            return PSMatrix.pull(m, keys, col)
        if op == "push":
            return PSMatrix.push(m, keys, rng.standard_normal(shape), col)
        if op == "set":
            return PSMatrix.set(m, keys, rng.standard_normal(shape), col)
        if op == "pull_all":
            return m.to_numpy()
        block = table_block({
            int(v): sorted(set(rng.integers(0, rows, 3).tolist()))
            for v in dict.fromkeys(keys.tolist())})
        if op == "tpush":
            return t.push(block)
        if op == "tremove":
            return t.remove(block)
        if op == "tdrop":
            return t.drop(keys)
        if op == "tcompact":
            return t.compact()
        return t.degrees(keys) if op == "tdeg" else t.get(keys)

    for op, keys, col, seed in ops:
        if op == "task":
            def work(it, keys=keys, col=col, seed=seed):
                part = list(it)
                return [one(name, keys, col, seed + part[0])
                        for name in ("push", "pull", "tpush", "tget")]
            system.out += [x for res in system.spark.parallelize(
                range(4), 2).foreach_partition(work) for x in res
                if x is not None]
        else:
            result = one(op, keys, col, seed)
            if result is not None:
                system.out.append(result)


@given(op_sequences())
def test_one_fan_out_equals_the_per_partition_loop(case):
    config, ops = case
    if config["storage"] == "sparse":
        # A sparse matrix has no optimizer state or table view to share;
        # its table still goes through the read view.
        ops = [op for op in ops if op[0] != "pull_all"]
    assert_same(run_both(lambda system: play(system, ops), **config))


# ----------------------------------------------------------------------
# (c) a recovery in the middle of an operation
# ----------------------------------------------------------------------

ROWS, PARTS = 48, 8


def _seed_and_checkpoint(system):
    """Known contents, checkpointed; then changes the checkpoint lacks."""
    rng = np.random.default_rng(5)
    keys = np.arange(ROWS)
    system.m.set(keys, rng.standard_normal((ROWS, 2)))
    system.t.push(table_block({
        int(v): sorted(set(rng.integers(0, ROWS, 4).tolist()))
        for v in keys}))
    system.ps.checkpoint_all()
    system.m.push(keys, np.ones((ROWS, 2)))
    system.t.push(table_block({int(v): [int(v) // 2, ROWS + 1]
                               for v in keys[::2]}))


def _kill_before_call(system, server: int, call: int):
    """Fault injector: kill ``server`` right before request ``call`` of
    the next operations goes out."""
    seen = [0]

    def injector(endpoint, method):
        if seen[0] == call and system.ps.servers[server].container.alive:
            system.ps.kill_server(server)
        seen[0] += 1
        return 0.0

    system.spark.rpc.fault_injector = injector


#: (server killed, before which request of the operation).  With 3
#: servers partition p lives on server p % 3: in the first three the
#: dead server has answered nothing yet, in the last two it has.
MID_OPERATION = [(0, 0), (1, 1), (2, 2), (0, 3), (1, 7)]


def assert_recovery_equals_the_loop(mode, op, kill, kind, keys):
    """``op`` on ``keys`` with a server killed between operations or in
    the middle of this one: the same end as the per-partition loop's,
    after one recovery."""
    def script(system):
        system.ps.recovery_mode = mode
        _seed_and_checkpoint(system)
        if kill == "between":
            system.ps.kill_server(1)
        else:
            _kill_before_call(system, *kill)
        if op == "push":
            system.m.push(keys, np.full((ROWS, 2), 10.0))
        elif op == "set":
            system.m.set(keys, np.full(ROWS, 7.0), col=1)
        elif op == "pull":
            system.out.append(system.m.pull(keys))
        elif op == "get":
            system.out.append(system.t.get(keys))
        else:
            system.out.append(system.t.degrees(keys))
        system.spark.rpc.fault_injector = None
        system.out.append(system.spark.metrics.get(PS_RECOVERIES))

    states = run_both(script, kind=kind, rows=ROWS, cols=2, parts=PARTS)
    assert_same(states)
    assert states[0]["out"][-1][1] == 1.0  # one server recovered, once


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("op", ["push", "set", "pull", "get", "degrees"])
@pytest.mark.parametrize("kill", ["between"] + MID_OPERATION, ids=str)
def test_mid_operation_recovery_equals_the_loop(mode, op, kill):
    assert_recovery_equals_the_loop(mode, op, kill, "hash",
                                    np.arange(ROWS)[::-1])


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("op", ["push", "set", "pull"])
@pytest.mark.parametrize("kill", ["between"] + MID_OPERATION, ids=str)
def test_mid_operation_recovery_of_cut_keys_equals_the_loop(mode, op, kill):
    """Sorted keys of a range matrix, cut at the partition bounds: the
    writes before a dead server's partition move (as one slice) before
    its recovery, the rest after it."""
    assert_recovery_equals_the_loop(mode, op, kill, "range",
                                    np.arange(ROWS))


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("kill", ["between"] + MID_OPERATION, ids=str)
def test_a_write_is_applied_exactly_once_across_a_recovery(mode, kill):
    system = System(False, kind="hash", rows=ROWS, cols=1, parts=PARTS)
    try:
        system.ps.recovery_mode = mode
        system.ps.checkpoint_all()  # all zeros
        if kill == "between":
            system.ps.kill_server(1)
            dead, call = 1, 1
        else:
            _kill_before_call(system, *kill)
            dead, call = kill
        system.m.push(np.arange(ROWS), np.ones(ROWS))
        got = system.m.to_numpy()
        pids = np.arange(ROWS) % PARTS
        # Requests before the recovery that the restore rolled back: all
        # of them (strict), those the dead server had answered (relaxed).
        lost = pids < call
        if mode == "relaxed":
            lost &= pids % 3 == dead
        assert got.tolist() == np.where(lost, 0.0, 1.0).tolist()
    finally:
        system.close()


def test_without_auto_recover_a_dead_server_leaves_the_write_unapplied():
    system = System(False, kind="hash", rows=ROWS, cols=1, parts=PARTS)
    try:
        system.ps.checkpoint_all()
        system.ps.auto_recover = False
        system.ps.kill_server(2)
        with pytest.raises((RpcError, ContainerLostError)):
            system.m.push(np.arange(ROWS), np.ones(ROWS))
        system.ps.recover()
        assert not system.m.to_numpy().any()
    finally:
        system.close()


# ----------------------------------------------------------------------
# (d) what drops the read view; a restored partition is still a view
# ----------------------------------------------------------------------


def test_every_table_change_drops_the_read_view():
    system = System(False, kind="hash", rows=ROWS, cols=1, parts=PARTS)
    try:
        t, view = system.t, system.t.meta.data
        everything = np.arange(ROWS)

        def rows():
            block = t.get(everything)
            assert view._csr is not None
            return [r.tolist() for r in np.split(block.neighbors,
                                                 block.indptr[1:-1])]

        t.push(table_block({3: [1, 2], 11: [5], 20: [7, 9]}))
        assert rows()[3] == [1, 2]
        t.push(table_block({3: [4]}))
        assert view._csr is None
        assert rows()[3] == [1, 2, 4]
        t.remove(table_block({3: [2]}))
        assert view._csr is None
        assert rows()[3] == [1, 4]
        t.drop(np.array([11]))
        assert view._csr is None
        assert rows()[11] == []
        system.ps.checkpoint_all()
        assert rows()[20] == [7, 9]
        t.push(table_block({20: [8]}))
        rows()
        server = system.ps.servers[t.meta.server_of(20 % PARTS)]
        server.restore_partition(
            t.meta, 20 % PARTS,
            system.ps.checkpoint_path("t", 20 % PARTS))
        assert view._csr is None
        assert rows()[20] == [7, 9]
        system.ps.kill_server(server.index)  # wipes
        assert view._csr is None
        assert rows()[20] == [7, 9]  # recovered from the checkpoint
    finally:
        system.close()


def test_a_read_folds_only_the_partitions_it_touches():
    system = System(False, kind="hash", rows=ROWS, cols=1, parts=PARTS)
    try:
        t = system.t
        t.push(table_block({0: [1, 2], 1: [3], 9: [4, 5]}))
        stores = {pid: system.ps.servers[t.meta.server_of(pid)]._stores[
            ("t", pid)] for pid in (0, 1)}
        assert t.get(np.array([0, 8])).neighbors.tolist() == [1, 2]
        assert not stores[0]._pending and stores[1]._pending
        # Partition 1's queued rows are not in the view built above; its
        # first read folds them and rebuilds.
        assert t.get(np.array([9, 1, 0])).neighbors.tolist() == [
            4, 5, 3, 1, 2]
        assert not stores[1]._pending
    finally:
        system.close()


def test_a_restored_dense_partition_is_still_a_view_of_the_matrix():
    system = System(False, kind="hash-range", rows=ROWS, cols=2, parts=PARTS)
    try:
        m, whole = system.m, system.m.meta.data
        m.set(np.arange(ROWS), np.arange(2.0 * ROWS).reshape(ROWS, 2))
        system.ps.checkpoint_all()
        m.push(np.arange(ROWS), np.ones((ROWS, 2)))
        system.ps.kill_server(0)
        system.ps.recover()
        for server in system.ps.servers:
            for (name, _pid), store in server._stores.items():
                if name == "m":
                    assert np.shares_memory(store.array, whole.array)
        got = m.to_numpy()
        on_dead = np.isin(m.meta.partitioner.partition_array(
            np.arange(ROWS)) % 3, [0])
        want = np.arange(2.0 * ROWS).reshape(ROWS, 2) + 1.0
        want[on_dead] -= 1.0
        assert got.tolist() == want.tolist()
        system.ps.rollback()
        assert m.to_numpy().tolist() == (want - ~on_dead[:, None]).tolist()
    finally:
        system.close()


# ----------------------------------------------------------------------
# routing: sorted keys of a range matrix are cut at the bounds, any
# other keys get a partition id each — held to the grouping of every key
# by partition id that all keyed operations used before
# ----------------------------------------------------------------------


def reference_groups(meta, keys):
    """``(counts, select)`` as ``partition_array``, ``bincount`` and
    ``_positions`` gave them to every keyed operation until sorted keys
    were cut."""
    num = meta.num_partitions
    pids = meta.partitioner.partition_array(keys)

    def select(lo, hi):
        if hi - lo == num:
            return slice(None)
        return np.flatnonzero((pids >= lo) & (pids < hi))

    return np.bincount(pids, minlength=num), select


@st.composite
def keyed_cases(draw):
    rows = draw(st.integers(1, 40))
    ids = st.lists(st.integers(0, rows - 1), max_size=16)
    form = draw(st.sampled_from(
        ["increasing", "repeated", "unsorted", "empty", "out of range"]))
    keys = draw(ids)
    # The first and the last row, often.
    keys += draw(st.lists(st.sampled_from([0, rows - 1]), max_size=2))
    if form == "increasing":
        keys = sorted(set(keys))
    elif form == "repeated":
        keys = sorted(keys + keys[:draw(st.integers(1, 3))] or [0, 0])
    elif form == "unsorted":
        keys = draw(st.permutations(keys))
        if len(set(keys)) > 1 and keys == sorted(keys):
            keys = keys[::-1]
    elif form == "empty":
        keys = []
    else:
        bad = draw(st.sampled_from([-1, rows, rows + 7, 10 ** 9]))
        keys = sorted(set(keys)) if draw(st.booleans()) else keys
        keys.insert(draw(st.sampled_from([0, len(keys)])), bad)
    config = dict(
        kind=draw(st.sampled_from(["hash", "range", "hash-range"])),
        rows=rows, cols=draw(st.integers(1, 3)),
        parts=draw(st.sampled_from([1, 3, 8, len(keys) + 1 + draw(
            st.integers(0, 4))])),
        storage=draw(st.sampled_from(["dense", "dense", "sparse"])))
    col = draw(st.one_of(st.none(), st.integers(0, config["cols"] - 1)))
    return config, np.asarray(keys, dtype=np.int64), col, draw(
        st.integers(0, 2 ** 31))


def assert_stores_locate_alike(rows, cols, keys, seed):
    """A dense store keyed 0..n-1 locates a key as its row; it answers
    what a store locating through its slot table answers, bad keys
    included — whole, and as a part of the matrix's store."""
    rng = np.random.default_rng(seed)
    everything = np.arange(rows)
    content = rng.standard_normal((rows, cols))
    identity = DenseRowStore(everything, cols)
    slotted = DenseRowStore(everything[::-1].copy(), cols)
    assert identity._slot is None and (rows == 1 or slotted._slot is not None)
    for store in (identity, slotted):
        store.set_rows(everything, content)
    start = rows // 3
    runs = (identity.part(start, rows), DenseRowStore(everything[start:]))
    own = keys[keys >= start]
    if len(keys) and (keys.min() < 0 or keys.max() >= rows):
        for store in (identity, slotted):
            for op in ("get_rows", "inc_rows", "set_rows"):
                args = (keys,) if op == "get_rows" else (
                    keys, np.ones((len(keys), cols)))
                with pytest.raises(PSError, match="keys not in partition"):
                    getattr(store, op)(*args)
            assert store.get_rows(everything).tolist() == content.tolist()
        for run in runs:
            with pytest.raises(PSError, match="keys not in partition"):
                run._locate(keys)
        return
    deltas = rng.standard_normal((len(keys), cols))
    values = rng.standard_normal(len(keys))
    got = []
    for store in (identity, slotted):
        store.inc_rows(keys, deltas)
        store.set_rows(keys, values, col=cols - 1)
        got.append((store.get_rows(keys).tobytes(),
                    store.get_rows(keys, cols - 1).tobytes(),
                    store.get_rows(everything).tobytes()))
    assert got[0] == got[1]
    assert runs[0]._locate(own).tolist() == runs[1]._locate(own).tolist()
    if start:
        with pytest.raises(PSError, match="keys not in partition"):
            runs[0]._locate(np.array([start - 1]))


@given(keyed_cases())
def test_sorted_keys_are_cut_and_other_keys_routed(case):
    """Strictly increasing, repeated, unsorted, empty and out-of-range
    keys on hash, range and hash-range matrices: the counts, touched
    partitions and positions of every run of partitions ``lo..hi-1`` are
    the reference grouping's, pulls, pushes and sets (from the driver and
    from tasks) end as the per-partition loop ends them, and a bad key
    moves and charges nothing."""
    config, keys, col, seed = case
    bad = bool(len(keys)) and (keys.min() < 0 or keys.max() >= config["rows"])
    system = System(False, **config)
    try:
        meta, agent = system.m.meta, system.ps.agent
        num = meta.num_partitions
        ascending = strictly_increasing(keys)
        if bad:
            with pytest.raises(PSError, match="keys not in partition"):
                agent._groups(meta, keys, ascending)
        else:
            counts, select = agent._groups(meta, keys, ascending)
            want_counts, want_select = reference_groups(meta, keys)
            assert counts.tolist() == want_counts.tolist()
            assert (np.flatnonzero(counts).tolist()
                    == np.flatnonzero(want_counts).tolist())
            at = np.arange(len(keys))
            for lo in range(num):
                for hi in range(lo + 1, num + 1):
                    assert (at[select(lo, hi)].tolist()
                            == at[want_select(lo, hi)].tolist())
    finally:
        system.close()
    assert_stores_locate_alike(config["rows"], config["cols"], keys, seed)
    if not bad:
        ops = [(op, keys.tolist(), col, seed + i) for i, op in enumerate(
            ["pull", "push", "set", "pull", "task", "pull_all"])]
        assert_same(run_both(lambda system: play(system, ops), **config))
        return

    def refused(system):
        m, cols = system.m, system.m.meta.cols
        shape = len(keys) if col is not None else (len(keys), cols)
        for call in (lambda: PSMatrix.pull(m, keys, col),
                     lambda: PSMatrix.push(m, keys, np.ones(shape), col),
                     lambda: PSMatrix.set(m, keys, np.ones(shape), col)):
            with pytest.raises(PSError, match="keys not in partition"):
                call()

    states = []
    for script in (refused, lambda system: None):
        system = System(False, **config)
        try:
            script(system)
            states.append(system.state())
        finally:
            system.close()
    assert_same(states)


# ----------------------------------------------------------------------
# column shards, optimizer steps, psFuncs and table writes: random
# matrices, random operation sequences, against a4f296a's _group_call
# ----------------------------------------------------------------------

OPTIMIZERS = [SGD(lr=0.1), Momentum(lr=0.05), AdaGrad(lr=0.2), Adam(lr=0.01)]


@st.composite
def column_sequences(draw):
    rows = draw(st.integers(1, 30))
    shards = draw(st.integers(1, 9))
    config = dict(
        kind=draw(st.sampled_from(["hash", "range", "hash-range"])),
        rows=rows, cols=draw(st.integers(1, 3)),
        parts=draw(st.integers(1, 6)),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        servers=draw(st.sampled_from([1, 3, 5])), shards=shards,
        # shard widths 1 and 2, or one width
        ecols=draw(st.integers(shards, 2 * shards)),
        optimizer=draw(st.sampled_from(OPTIMIZERS)),
    )
    keys = st.lists(st.integers(0, rows - 1), max_size=10)
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["cset", "cpush", "cpull", "cnumpy", "grad", "mgrad",
                         "dot", "r1", "init", "vsum", "tpush", "tremove",
                         "tdrop", "tcompact", "tget", "task"]),
        keys, st.integers(0, 2 ** 31)), max_size=12))
    return config, ops


def play_columns(system, ops):
    e, m, t = system.e, system.m, system.t
    rows, cols = e.meta.rows, e.meta.cols

    def one(op, keys, seed):
        rng = np.random.default_rng(seed)
        keys = np.asarray(keys, dtype=np.int64)
        if op == "cset":
            return set_rows(e, keys, rng.standard_normal((len(keys), cols)))
        if op == "cpush":
            return e.push_rows(keys, rng.standard_normal((len(keys), cols)))
        if op == "cpull":
            return e.pull_rows(keys)
        if op == "cnumpy":
            return e.to_numpy()
        if op == "grad":
            return e.apply_gradients(rng.standard_normal(e.shape))
        if op == "mgrad":
            return m.apply_gradients(rng.standard_normal(m.shape))
        if op == "dot":
            return e.dot(keys, keys[::-1])
        if op == "r1":
            return e.rank_one_update(keys, keys[::-1],
                                     rng.standard_normal(len(keys)))
        if op == "init":
            return e.psfunc(RandomInit(seed % 1000, scale=0.5))
        if op == "vsum":
            return m.psfunc(VectorSum(0))
        block = table_block({
            int(v): sorted(set(rng.integers(0, rows, 3).tolist()))
            for v in dict.fromkeys(keys.tolist())})
        if op == "tpush":
            return t.push(block)
        if op == "tremove":
            return t.remove(block)
        if op == "tdrop":
            return t.drop(keys)
        if op == "tcompact":
            return t.compact()
        return t.get(keys)

    for op, keys, seed in ops:
        if op == "task":
            def work(it, keys=keys, seed=seed):
                part = list(it)
                return [one(name, keys, seed + part[0]) for name in
                        ("cpull", "cpush", "grad", "r1", "tpush", "tget")]
            system.out += [x for res in system.spark.parallelize(
                range(4), 2).foreach_partition(work) for x in res
                if x is not None]
        else:
            result = one(op, keys, seed)
            if result is not None:
                system.out.append(result)


@given(column_sequences())
def test_column_ops_psfuncs_and_table_writes_equal_the_group_call(case):
    config, ops = case
    assert_same(run_both(lambda system: play_columns(system, ops), **config))


# ----------------------------------------------------------------------
# a recovery in the middle of a column op, a psFunc or a table write
# ----------------------------------------------------------------------

SHARDS, ECOLS = 8, 12  # shard widths 2, 2, 2, 2, 1, 1, 1, 1


def _seed_columns(system):
    """Adam one step into the checkpoint, two steps in when it fails."""
    rng = np.random.default_rng(9)
    e = system.e
    set_rows(e, np.arange(ROWS), rng.standard_normal(e.shape))
    e.apply_gradients(rng.standard_normal(e.shape))
    _seed_and_checkpoint(system)
    e.apply_gradients(rng.standard_normal(e.shape))


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("op", ["grad", "pull", "psfunc", "tpush"])
@pytest.mark.parametrize("kill", MID_OPERATION, ids=str)
def test_mid_operation_recovery_of_every_loop_equals_the_group_call(
        mode, op, kill):
    keys = np.arange(ROWS)[::-1]
    rng = np.random.default_rng(4)
    grads = [rng.standard_normal((ROWS, ECOLS)) for _ in range(3)]

    def script(system):
        system.ps.recovery_mode = mode
        _seed_columns(system)
        _kill_before_call(system, *kill)
        e = system.e
        if op == "grad":
            e.apply_gradients(grads[0])
        elif op == "pull":
            system.out.append(e.pull_rows(keys))
        elif op == "psfunc":
            e.rank_one_update(keys, keys[::-1], np.full(ROWS, 0.1))
        else:
            system.t.push(table_block({int(v): [int(v) // 3, 5]
                                       for v in keys}))
        system.spark.rpc.fault_injector = None
        system.out.append(system.spark.metrics.get(PS_RECOVERIES))
        # Steps after a relaxed recovery run at the step counts the
        # restore rewound, per shard.
        e.apply_gradients(grads[1])
        e.apply_gradients(grads[2])
        system.out.append(e.meta.opt_state["t"].copy())

    states = run_both(script, kind="hash", rows=ROWS, cols=2, parts=PARTS,
                      shards=SHARDS, ecols=ECOLS, optimizer=Adam(lr=0.01))
    assert_same(states)
    assert states[0]["out"][-2][1] == 1.0  # one server recovered, once


def test_a_restored_shard_and_its_optimizer_state_are_the_matrix():
    system = System(False, kind="hash", rows=ROWS, cols=2, parts=PARTS,
                    shards=SHARDS, ecols=ECOLS, optimizer=Adam(lr=0.01))
    try:
        e, meta = system.e, system.e.meta
        _seed_columns(system)
        steps = meta.opt_state["t"]
        system.ps.kill_server(0)
        system.ps.recover()
        on_dead = [meta.server_of(pid) == 0 for pid in range(SHARDS)]
        assert steps.tolist() == [1 if dead else 2 for dead in on_dead]
        assert meta.opt_state["t"] is steps
        for server in system.ps.servers:
            for (name, pid), store in server._stores.items():
                if name == "e":
                    assert np.shares_memory(store.array, meta.data.array)
                    assert store.col_keys.tolist() == list(range(
                        *meta.part_offsets[pid:pid + 2]))
        for pid in range(SHARDS):
            for name, view in meta.part_state(pid).items():
                assert np.shares_memory(view, meta.opt_state[name])
        # A checkpoint still holds one shard and its own step count.
        payload = system.spark.hdfs.read_pickle(
            system.ps.checkpoint_path("e", 5), cost=None)
        assert payload["store"]["array"].shape == (ROWS, 1)
        assert payload["opt"]["t"].shape == (1,)
        assert payload["opt"]["m"].shape == (ROWS, 1)
        e.apply_gradients(np.ones((ROWS, ECOLS)))
        assert steps.tolist() == [2 if dead else 3 for dead in on_dead]
    finally:
        system.close()


# ----------------------------------------------------------------------
# a bad row key on a column-sharded matrix is refused before anything
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 10, 15], ids=["-1", "rows", "rows+5"])
@pytest.mark.parametrize("op", ["pull_rows", "push_rows", "set_rows", "dot",
                                "rank_one_update"])
def test_a_bad_row_key_changes_nothing(op, bad):
    system = System(False, kind="range", rows=10, cols=1, parts=2,
                    servers=2, shards=2, ecols=4)
    try:
        e = system.e
        set_rows(e, np.arange(10), np.arange(40.0).reshape(10, 4))
        keys = np.array([3, bad])
        before = _observed(system)
        with pytest.raises(PSError, match="keys not in partition"):
            if op == "pull_rows":
                e.pull_rows(keys)
            elif op == "push_rows":
                e.push_rows(keys, np.ones((2, 4)))
            elif op == "set_rows":
                set_rows(e, keys, np.ones((2, 4)))
            elif op == "dot":
                e.dot(keys, keys[::-1])
            else:
                e.rank_one_update(keys[::-1], keys, np.ones(2))
        assert _observed(system) == before
    finally:
        system.close()


@pytest.mark.parametrize("op, lengths", [
    ("dot", (3, 5)), ("dot", (5, 0)), ("rank_one_update", (3, 5, 4)),
    ("rank_one_update", (3, 3, 4)), ("rank_one_update", (4, 3, 4)),
    ("psfunc", (3, 5, 4))])
def test_pair_arrays_of_different_lengths_change_nothing(op, lengths):
    """Every pair needs both its rows (and its coefficient): uneven pair
    arrays are refused before anything moves or is charged, through the
    handle or as a hand-built psFunc."""
    system = System(False, kind="range", rows=10, cols=1, parts=2,
                    servers=2, shards=2, ecols=4)
    try:
        e = system.e
        set_rows(e, np.arange(10), np.arange(40.0).reshape(10, 4))
        args = [np.arange(n) for n in lengths[:2]] + [
            np.full(n, 0.5) for n in lengths[2:]]
        before = _observed(system)
        with pytest.raises(PSError, match="pair arrays of lengths"):
            if op == "psfunc":
                e.psfunc(RankOneUpdate(*args))
            else:
                getattr(e, op)(*args)
        assert _observed(system) == before
    finally:
        system.close()


def _observed(system):
    """The column matrix, both clocks, the metrics and the span count."""
    return (system.e.meta.data.array.tolist(), system.spark.sim_time(),
            [s.container.clock.now_s for s in system.ps.servers],
            json.dumps(metrics_to_dict(system.spark.metrics),
                       sort_keys=True),
            len(system.tracer.spans()))


def test_a_column_matrix_is_range_partitioned_column_storage():
    system = System(False, kind="hash", rows=10, cols=1, parts=2)
    try:
        create = system.ps.create_matrix
        for kwargs in (dict(axis=1, storage="column", partition="hash"),
                       dict(axis=1, storage="column", partition="hash-range"),
                       dict(axis=1, storage="dense"),
                       dict(axis=0, storage="column"),
                       dict(storage="sparse", optimizer=SGD())):
            with pytest.raises(ConfigError):
                create("x", 10, 4, **kwargs)
    finally:
        system.close()


# ----------------------------------------------------------------------
# inline admission: a request the loop admits and meters itself equals
# one admitted by ``_invoke`` and metered by ``PSServer._work``
# ----------------------------------------------------------------------


def _never_fires(endpoint, method):
    """An armed fault injector that injects nothing: with it every request
    goes through ``PSAgent._invoke``."""
    return 0.0


def run_paths(script, **config):
    """``script`` run inline (tracing on), with every request through
    ``_invoke`` (tracing on) and inline with tracing off: the three
    states, each with every clock's ``now_s`` and ``busy_s``."""
    states = []
    for armed, traced in ((False, True), (True, True), (False, False)):
        system = System(False, traced=traced, **config)
        try:
            if armed:
                system.spark.rpc.fault_injector = _never_fires
            script(system)
            state = system.state()
            state["clocks"] = [
                (clock.now_s, clock.busy_s) for clock in
                [system.spark.driver_clock]
                + [s.container.clock for s in system.ps.servers]]
            states.append(state)
        finally:
            system.close()
    return states


def assert_paths_agree(states):
    inline, invoked, untraced = states
    for key in invoked:
        assert inline[key] == invoked[key], key
        if key != "spans":
            assert untraced[key] == invoked[key], key
    assert untraced["spans"] == []


@given(st.one_of(op_sequences().map(lambda case: (play, *case)),
                 column_sequences().map(lambda case: (play_columns, *case))))
def test_inline_admission_equals_invoke(case):
    """Keyed pulls, pushes and sets; column pulls, pushes and sets;
    psFuncs, optimizer steps, table reads, writes and compacts — on the
    driver and in tasks."""
    player, config, ops = case
    assert_paths_agree(run_paths(lambda system: player(system, ops),
                                 **config))


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("kill", ["server", "container", "endpoint"])
def test_a_killed_container_recovers_through_invoke(mode, kill, monkeypatch):
    """A server, or only its container or endpoint, killed between two
    operations: the first request to it goes to ``_invoke`` and recovers
    there, as every request did before inline admission; every other
    request is admitted inline."""
    keys = np.arange(ROWS)[::-1]
    invoked = []
    invoke = PSAgent._invoke

    def spy(self, server, method, matrix, pid, before_recover):
        invoked.append((server.index, method, matrix, pid))
        return invoke(self, server, method, matrix, pid, before_recover)

    monkeypatch.setattr(PSAgent, "_invoke", spy)
    calls = []

    def script(system):
        system.ps.recovery_mode = mode
        _seed_columns(system)
        invoked.clear()
        server = system.ps.servers[1]
        if kill == "server":
            system.ps.kill_server(1)
        elif kill == "container":
            system.spark.resource_manager.kill(server.container)
        else:
            system.spark.rpc.kill(server.id)
        system.e.rank_one_update(keys, keys[::-1], np.full(ROWS, 0.1))
        system.out.append(system.e.dot(keys, keys[::-1]))
        system.m.push(keys, np.ones((ROWS, 2)))
        system.out.append(system.spark.metrics.get(PS_RECOVERIES))
        pushed = system.m.meta.partitioner.partition_array(keys)
        calls.append((invoked[:], system.e.meta.owners.index(1),
                      2 * SHARDS + len(np.unique(pushed))))

    states = run_paths(script, kind="hash", rows=ROWS, cols=2, parts=PARTS,
                       shards=SHARDS, ecols=ECOLS, optimizer=Adam(lr=0.01))
    assert_paths_agree(states)
    assert states[0]["out"][-1][1] == 1.0  # one server recovered, once
    (inline, first, _), (armed, _, requests), (untraced, _, _) = calls
    assert inline == untraced == [(1, "run_psfunc", "e", first)]
    assert len(armed) == requests
