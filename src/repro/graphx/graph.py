"""GraphX baseline: property graph as vertex + edge tables.

"GraphX stores graph data in a table abstraction, in which every executor
(worker) stores an edge table and a vertex table ...  With a shared-nothing
architecture, GraphX uses the table-join operation of Spark to implement
message passing" (Sec. I).  This module reproduces that design on the
metered dataflow substrate:

* edges are partitioned by a random vertex-cut; each edge partition keeps a
  *routing table* of the vertices it references;
* vertex attributes live in hash-partitioned vertex tables;
* :meth:`Graph.join` is the three-shuffle join pipeline — ship replicated
  vertex attributes to edge partitions, compute messages on triplets,
  shuffle messages back and reduce — charging shuffle disk/network and
  JVM-overhead temp tables at every step.

The memory behaviour of Fig. 6 (GraphX OOMs on K-core / triangle count /
DS2) emerges from exactly these charges: power-law hubs replicate to many
edge partitions, and heavy vertex attributes (neighbor sets) multiply the
replication cost.

As in GraphX itself, the routing tables and edge partitions carry *local*
indices built once per edge set (:class:`_JoinPlan`), and every shuffle
moves one :class:`~repro.dataflow.shuffle.ColumnBlock` per map task — no
Python object per partition pair anywhere on the join path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.common.batch import (
    RaggedColumn,
    partition_order,
    segment_reduce,
    sorted_unique,
    take_rows,
)
from repro.common.errors import GraphLoadError
from repro.dataflow.context import SparkContext
from repro.dataflow.executor import Executor
from repro.dataflow.shuffle import ColumnBlock
from repro.dataflow.taskctx import TaskContext

#: A message send function: ``send(src, dst, src_attr, dst_attr)`` over one
#: edge partition's arrays, returning a list of ``(target_ids, messages)``.
#: Array attrs arrive as one row per edge; neighbor-set attrs (a
#: :class:`~repro.common.batch.RaggedColumn`) as ``(table, rows)`` — the
#: replicated table and each edge's row in it.
SendFn = Callable[
    [np.ndarray, np.ndarray, Any, Any],
    List[Tuple[np.ndarray, np.ndarray]],
]

#: What a map task hands the shuffle: column tuples whose first column
#: keys the reduce partition (``key % num_reduces``).
Outputs = Sequence[Tuple[np.ndarray, ...]]


class VertexPartition:
    """One hash partition of the vertex table: sorted ids + aligned attrs."""

    def __init__(self, ids: np.ndarray, attrs: Any) -> None:
        self.ids = ids
        self.attrs = attrs  # array aligned with ids, or a RaggedColumn


def split_vertices(ids: np.ndarray, num_partitions: int) -> List[np.ndarray]:
    """Hash-partition sorted vertex ids: ``ids[ids % p == vp]`` per ``vp``."""
    order, offsets = partition_order(ids % num_partitions, num_partitions)
    return np.split(ids[order], offsets[1:-1])


class _JoinPlan:
    """The replication join of one edge set, planned once.

    Per vertex partition: the ids it ships (edge partition after edge
    partition), their positions in the partition, and where each edge
    partition's share ends.  Per edge partition: where its src / dst attrs
    sit in the table it receives (vertex partition after vertex partition,
    in ship order), and the rank that puts that table in id order.  A
    *broadcast* plan ships every vertex partition whole to every edge
    partition (fast unfolding's join).
    """

    def __init__(self, edge_parts: Sequence[Tuple[np.ndarray, np.ndarray]],
                 vertex_ids: Sequence[np.ndarray], broadcast: bool) -> None:
        self.num_edge_partitions = len(edge_parts)
        self.src_pos: List[np.ndarray] = []
        self.dst_pos: List[np.ndarray] = []
        self.id_rank: List[np.ndarray] = []
        self.ship_pos: List[np.ndarray] | None = None
        if broadcast:
            table = np.concatenate(vertex_ids)
            order = np.argsort(table, kind="stable")
            sorted_ids = table[order]
            for es, ed in edge_parts:
                self.src_pos.append(order[np.searchsorted(sorted_ids, es)])
                self.dst_pos.append(order[np.searchsorted(sorted_ids, ed)])
            return
        p_e, p_v = len(edge_parts), len(vertex_ids)
        refs = []
        self.ship_offsets = np.zeros((p_v, p_e + 1), dtype=np.int64)
        for ep, (es, ed) in enumerate(edge_parts):
            ids, inverse = np.unique(np.concatenate([es, ed]),
                                     return_inverse=True)
            arrival, offsets = partition_order(ids % p_v, p_v)
            rank = np.empty(len(ids), dtype=np.int64)
            rank[arrival] = np.arange(len(ids))
            refs.append(ids)
            self.ship_offsets[:, ep + 1] = np.diff(offsets)  # ids per vp
            self.id_rank.append(rank)
            self.src_pos.append(rank[inverse[:len(es)]])
            self.dst_pos.append(rank[inverse[len(es):]])
        all_refs = np.concatenate(refs)
        del refs
        order, offsets = partition_order(all_refs % p_v, p_v)
        self.ship_ids = np.split(all_refs[order], offsets[1:-1])
        del all_refs, order
        self.ship_pos = [np.searchsorted(ids, shipped)
                         for ids, shipped in zip(vertex_ids, self.ship_ids)]
        np.cumsum(self.ship_offsets, axis=1, out=self.ship_offsets)

    def ship_block(self, vp: int, part: VertexPartition) -> ColumnBlock:
        """What vertex partition ``vp`` ships: ``(ids, attrs)`` rows."""
        if self.ship_pos is None:
            return ColumnBlock.broadcasting((part.ids, part.attrs),
                                            self.num_edge_partitions)
        return ColumnBlock.presorted(
            (self.ship_ids[vp], take_rows(part.attrs, self.ship_pos[vp])),
            self.ship_offsets[vp])

    def table_nbytes(self, ep: int, attrs: Any) -> int:
        """Logical bytes of the attrs ``ep`` received: a neighbor-set
        table sizes as the list of arrays, in id order, it stands for."""
        if isinstance(attrs, RaggedColumn):
            return attrs.boxed_nbytes(self.id_rank[ep])
        return attrs.nbytes


def _edge_rows(attrs: Any, pos: np.ndarray) -> Any:
    """Per-edge attrs out of a received table (see :data:`SendFn`)."""
    if isinstance(attrs, RaggedColumn):
        return attrs, pos
    return attrs.take(pos, axis=0)


class Graph:
    """A GraphX-style property graph bound to a SparkContext."""

    def __init__(self, ctx: SparkContext,
                 edge_parts: List[Tuple[np.ndarray, np.ndarray]],
                 vertex_parts: List[VertexPartition],
                 broadcast: bool = False) -> None:
        self.ctx = ctx
        self.edge_parts = edge_parts
        self.vertex_parts = vertex_parts
        self.num_edge_partitions = len(edge_parts)
        self.num_vertex_partitions = len(vertex_parts)
        self._broadcast = broadcast
        self._plan: _JoinPlan | None = None
        self._charged_tags: List[Tuple[Executor, str]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, ctx: SparkContext, src: np.ndarray, dst: np.ndarray,
                   num_partitions: int | None = None) -> "Graph":
        """Build a graph from edge arrays, charging executor memory for the
        edge tables and routing tables (the GraphX resident footprint)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise GraphLoadError("src/dst length mismatch")
        if len(src) == 0:
            raise GraphLoadError("empty edge list")
        if src.min() < 0 or dst.min() < 0:
            raise GraphLoadError("negative vertex id")
        p = num_partitions or ctx.cluster.num_executors
        p = max(1, min(p, len(src)))
        edge_parts = [
            (src[i::p].copy(), dst[i::p].copy()) for i in range(p)
        ]
        all_ids = sorted_unique(np.concatenate([src, dst]))
        vertex_parts = [VertexPartition(ids, np.zeros(len(ids)))
                        for ids in split_vertices(all_ids, p)]
        graph = cls(ctx, edge_parts, vertex_parts)
        graph._charge_resident()
        return graph

    @property
    def plan(self) -> _JoinPlan:
        """The join plan of the current edge set (built on first use)."""
        if self._plan is None:
            self._plan = _JoinPlan(
                self.edge_parts, [vp.ids for vp in self.vertex_parts],
                self._broadcast)
        return self._plan

    @contextmanager
    def edge_subset(self, edge_parts: List[Tuple[np.ndarray, np.ndarray]]
                    ) -> Iterator[None]:
        """Run the body over other edge partitions (a chunk of the edges):
        they and their plan are one generation, swapped in and — whatever
        the body does — back out together."""
        saved = self.edge_parts, self._plan
        self.edge_parts, self._plan = edge_parts, None
        try:
            yield
        finally:
            self.edge_parts, self._plan = saved

    def _charge_resident(self) -> None:
        """Charge edge tables + routing tables to their executors' memory."""
        cm = self.ctx.cluster.cost_model
        for ep in range(self.num_edge_partitions):
            executor = self.ctx.executor_for_partition(ep)
            es, ed = self.edge_parts[ep]
            refs = len(self.plan.id_rank[ep])
            nbytes = int(
                (es.nbytes + ed.nbytes + refs * 8) * cm.jvm_object_overhead
            )
            tag = f"graphx:edges:{id(self)}:{ep}"
            executor.container.memory.allocate(nbytes, tag=tag)
            self._charged_tags.append((executor, tag))

    def unpersist(self) -> None:
        """Release the resident edge/routing memory and the join plan."""
        for executor, tag in self._charged_tags:
            executor.container.memory.release_tag(tag)
        self._charged_tags = []
        self._plan = None

    def collect_vertices(self) -> Tuple[np.ndarray, Any]:
        """All vertex ids + array attrs at the driver (small graphs only)."""
        ids = np.concatenate([vp.ids for vp in self.vertex_parts])
        order = np.argsort(ids, kind="stable")
        return ids[order], np.concatenate(
            [vp.attrs for vp in self.vertex_parts])[order]

    # ------------------------------------------------------------------
    # vertex updates
    # ------------------------------------------------------------------

    def map_vertices(self, fn: Callable[[np.ndarray, Any], Any]) -> None:
        """Replace attrs per partition: ``new_attrs = fn(ids, attrs)``."""
        def task(vp: int, tctx: TaskContext) -> None:
            part = self.vertex_parts[vp]
            part.attrs = fn(part.ids, part.attrs)
            tctx.cost.cpu_s += (
                self.ctx.cluster.cost_model.compute_time(len(part.ids))
            )

        self.ctx.scheduler.run_stage(
            self.num_vertex_partitions, task, kind="graphx-map-vertices"
        )

    def join_messages(
            self, messages: List[Tuple[np.ndarray, np.ndarray]],
            fn: Callable[[np.ndarray, Any, np.ndarray, np.ndarray], Any],
    ) -> None:
        """Join aggregated messages back into vertex attrs.

        ``fn(ids, attrs, msg_ids, msg_values)`` returns the new attrs for
        the partition (vertices without messages keep their attr — the
        callback decides, GraphX's ``joinVertices`` semantics).
        """
        def task(vp: int, tctx: TaskContext) -> None:
            part = self.vertex_parts[vp]
            msg_ids, msg_vals = messages[vp]
            part.attrs = fn(part.ids, part.attrs, msg_ids, msg_vals)
            tctx.cost.cpu_s += self.ctx.cluster.cost_model.compute_time(
                len(part.ids) + len(msg_ids)
            )

        self.ctx.scheduler.run_stage(
            self.num_vertex_partitions, task, kind="graphx-join"
        )

    # ------------------------------------------------------------------
    # the join/shuffle message-passing pipeline
    # ------------------------------------------------------------------

    @contextmanager
    def temp_table(self, tctx: TaskContext, tag: str,
                   logical_nbytes: int) -> Iterator[None]:
        """Hold, for the body, the JVM-overhead temp table a join task
        materializes out of ``logical_nbytes`` of fetched columns."""
        memory = tctx.executor.container.memory
        memory.allocate(
            int(logical_nbytes
                * self.ctx.cluster.cost_model.jvm_object_overhead), tag=tag)
        try:
            yield
        finally:
            memory.release_tag(tag)

    def write_outputs(self, shuffle_id: int, tctx: TaskContext,
                      outputs: Outputs, num_reduces: int) -> None:
        """Bucket a map task's outputs into one block and store it; rows
        keep their order: output after output, as produced."""
        columns = (outputs[0] if len(outputs) == 1
                   else [np.concatenate(cols) for cols in zip(*outputs)])
        pids = columns[0].astype(np.int64, copy=False) % num_reduces
        self.ctx.shuffle_service.write(
            shuffle_id, tctx.partition_id, tctx.executor,
            ColumnBlock.bucketed(columns, pids, num_reduces,
                                 [len(out[0]) for out in outputs]),
            tctx.cost)

    def emit_stage(self, kind: str, shuffle_id: int, num_tasks: int,
                   num_reduces: int,
                   produce: Callable[[int, TaskContext], Outputs]) -> None:
        """A map stage: task ``i`` shuffles what ``produce(i, tctx)``
        returns."""
        def task(i: int, tctx: TaskContext) -> None:
            self.write_outputs(shuffle_id, tctx, produce(i, tctx),
                               num_reduces)

        self.ctx.scheduler.run_stage(num_tasks, task, kind=kind)

    def reduce_stage(self, kind: str, shuffle_id: int, num_maps: int,
                     num_reduces: int, reduce: Callable[..., Any],
                     empty: Callable[[int], Any]) -> List[Any]:
        """The reduce stage of a shuffle, which it then drops: task ``r``
        returns ``reduce(r, tctx, *columns)`` over the rows it fetched, or
        ``empty(r)`` when there are none."""
        def task(r: int, tctx: TaskContext) -> Any:
            columns = self.ctx.shuffle_service.read(
                shuffle_id, r, num_maps, tctx.executor, tctx.cost)
            if len(columns[0]) == 0:
                return empty(r)
            return reduce(r, tctx, *columns)

        results = self.ctx.scheduler.run_stage(num_reduces, task, kind=kind)
        self.ctx.shuffle_service.drop_shuffle(shuffle_id)
        return results

    def join(self, prefix: str, map_tag: str,
             compute: Callable[[int, Any, Any], Outputs],
             reduce: Callable[..., Any],
             empty: Callable[[int], Any]) -> List[Any]:
        """The GraphX join pipeline: three metered shuffle stages.

        1. *Ship* (``<prefix>-ship``): every vertex partition writes its
           ``(ids, attrs)`` rows for each edge partition referencing them
           — the vertex-cut replication join, laid out by the plan.
        2. *Compute* (``<prefix>-compute``): every edge partition fetches
           its replicated attrs (charging a JVM-overhead temp map under
           ``map_tag``), runs ``compute(ep, src_attr, dst_attr)`` on the
           triplets and shuffles the outputs by target vertex.
        3. *Reduce* (``<prefix>-reduce``): every vertex partition fetches
           its messages and folds them (:meth:`reduce_stage`).

        Returns the reduce tasks' results, per vertex partition.
        """
        ctx = self.ctx
        cm = ctx.cluster.cost_model
        plan = self.plan
        ship_id = ctx.next_shuffle_id()
        msg_id = ctx.next_shuffle_id()
        p_v = self.num_vertex_partitions

        def ship_task(vp: int, tctx: TaskContext) -> None:
            ctx.shuffle_service.write(
                ship_id, vp, tctx.executor,
                plan.ship_block(vp, self.vertex_parts[vp]), tctx.cost)

        ctx.scheduler.run_stage(p_v, ship_task, kind=f"{prefix}-ship")

        def compute_task(ep: int, tctx: TaskContext) -> None:
            ids, attrs = ctx.shuffle_service.read(
                ship_id, ep, p_v, tctx.executor, tctx.cost)
            # The replicated vertex map is the join's temp table.
            with self.temp_table(tctx, f"{map_tag}:{ep}",
                                 ids.nbytes + plan.table_nbytes(ep, attrs)):
                outputs = compute(ep, _edge_rows(attrs, plan.src_pos[ep]),
                                  _edge_rows(attrs, plan.dst_pos[ep]))
                tctx.cost.cpu_s += cm.compute_time(len(plan.src_pos[ep]))
                self.write_outputs(msg_id, tctx, outputs, p_v)

        ctx.scheduler.run_stage(self.num_edge_partitions, compute_task,
                                kind=f"{prefix}-compute")
        results = self.reduce_stage(f"{prefix}-reduce", msg_id,
                                    self.num_edge_partitions, p_v,
                                    reduce, empty)
        ctx.shuffle_service.drop_shuffle(ship_id)
        return results

    def aggregate_messages(
            self, send: SendFn, reduce_op: str = "sum",
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """GraphX ``aggregateMessages``: :meth:`join` with ``send`` on the
        triplets and a ``reduce_op`` (sum/min/max) segment-reduce.

        Returns:
            Per vertex partition, ``(ids, reduced_values)`` for vertices
            that received at least one message.
        """
        op = {"sum": "add", "min": "min", "max": "max"}.get(reduce_op)
        if op is None:
            raise ValueError(f"unknown reduce_op {reduce_op!r}")
        cm = self.ctx.cluster.cost_model

        def reduce(vp: int, tctx: TaskContext, targets: np.ndarray,
                   msgs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            with self.temp_table(tctx, f"graphx-msgtable:{vp}",
                                 targets.nbytes + msgs.nbytes):
                # segment_reduce sorts once and folds with ufunc.reduceat;
                # min/max keep their float64 output contract.
                if op != "add":
                    msgs = msgs.astype(np.float64)
                out = segment_reduce(targets, msgs, op)
                tctx.cost.cpu_s += cm.compute_time(len(targets))
            return out

        return self.join(
            "graphx", "graphx-repmap",
            lambda ep, sa, da: send(*self.edge_parts[ep], sa, da), reduce,
            lambda vp: (np.empty(0, dtype=np.int64), np.empty(0)))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def out_degrees(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Out-degree per vertex (vertices with no out-edges are absent)."""
        return self.aggregate_messages(
            lambda es, ed, sa, da: [(es, np.ones(len(es)))], "sum"
        )

    def degrees(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Total degree (in + out) per vertex."""
        return self.aggregate_messages(
            lambda es, ed, sa, da: [
                (es, np.ones(len(es))), (ed, np.ones(len(ed)))
            ],
            "sum",
        )
