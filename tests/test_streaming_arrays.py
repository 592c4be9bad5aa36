"""The array forms of the streaming plane against the forms they replaced.

Mutations travel as one column batch from the topic's log to
``StreamingGraph.apply``; ``build_neighbor_block`` sorts one integer per
pair; ``StreamingGraph`` keeps presence as a mask and its pre-window
snapshots as one block; the incremental PageRank and components keep
their per-vertex state in vertex-indexed arrays and their adjacency memos
as CSR, and the components' pair searches advance together as key
arrays.  Each test here holds the new form to the old one — the
per-record stream (a list log per topic partition, landing lines encoded
and runs grouped record by record), the two-key ``lexsort`` block build
and the dict / set forms of ``StreamingGraph.apply``,
``IncrementalPageRank`` and ``IncrementalComponents`` of commit
``1309c35``, copied below as oracles — read for read, block for block,
and window for window in sim time, every span, every metric and the
bytes of every state.  Example counts follow the hypothesis profile
(``tests/conftest.py``): small in tier-1, ``deep`` in the ``streaming``
entry of the ``smoke`` CI matrix.
"""

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.batch import sorted_unique, unique_pairs
from repro.common.config import MB, ClusterConfig
from repro.common.errors import PSError
from repro.core.algorithms.pagerank import PageRank
from repro.core.blocks import NeighborBlock, build_neighbor_block
from repro.core.context import PSGraphContext
from repro.core.ops import edges_from_arrays
from repro.common.metrics import MetricsRegistry
from repro.hdfs.filesystem import Hdfs
from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ingest.mutations import (
    EDGE_ADD,
    EDGE_DEL,
    VERTEX_DEL,
    Mutation,
    MutationBatch,
    edge_adds,
)
from repro.obs.determinism import span_event
from repro.obs.export import metrics_to_dict
from repro.obs.tracer import Tracer
from repro.streaming import (
    IncrementalComponents,
    IncrementalPageRank,
    StreamingGraph,
)
from repro.streaming.graph import GraphDelta
from repro.streaming.pagerank import _BatchCtx
from tests.conftest import (
    digest,
    end_offsets,
    mutation_records,
    mutations_from_records,
)

# ----------------------------------------------------------------------
# oracles: the per-record mutation stream, the block build and the
# streaming plane at 1309c35
# ----------------------------------------------------------------------


def ref_encode_line(m):
    """One record's landing line (adds keep the legacy 2-column form)."""
    if m.op == EDGE_ADD:
        return f"{m.src}\t{m.dst}"
    if m.op == EDGE_DEL:
        return f"{EDGE_DEL}\t{m.src}\t{m.dst}"
    return f"{VERTEX_DEL}\t{m.src}"


def ref_group_runs(mutations):
    """``(op, src, dst)`` per maximal same-op run, by one record loop."""
    runs = []
    cur_op = None
    cur_src: List[int] = []
    cur_dst: List[int] = []

    def flush():
        if cur_op is not None:
            runs.append((cur_op, np.asarray(cur_src, dtype=np.int64),
                         np.asarray(cur_dst, dtype=np.int64)))

    for m in mutations:
        if m.op != cur_op:
            flush()
            cur_op, cur_src, cur_dst = m.op, [], []
        cur_src.append(m.src)
        cur_dst.append(m.dst)
    flush()
    return runs


def ref_route(logs, mutations):
    """Append each record to its partition's list log by ``src``."""
    for m in mutations:
        logs[m.src % len(logs)].append(m)


def ref_build_neighbor_block(targets, others, weights=None, dedupe=False):
    if len(targets) == 0:
        empty = np.empty(0, dtype=np.int64)
        return NeighborBlock(
            empty, np.zeros(1, dtype=np.int64), empty,
            np.empty(0) if weights is not None else None,
        )
    order = np.lexsort((others, targets))
    targets = targets[order]
    others = others[order]
    if weights is not None:
        weights = weights[order]
    if dedupe:
        keep = np.ones(len(targets), dtype=bool)
        keep[1:] = (targets[1:] != targets[:-1]) | (others[1:] != others[:-1])
        targets, others = targets[keep], others[keep]
        if weights is not None:
            weights = weights[keep]
    vertices, starts = np.unique(targets, return_index=True)
    indptr = np.append(starts, len(targets)).astype(np.int64)
    return NeighborBlock(vertices, indptr, others, weights)


class RefStreamingGraph(StreamingGraph):
    """Presence as a set; ``old_out`` a dict of first-touch rows."""

    def __init__(self, psctx, num_vertices, **kwargs):
        super().__init__(psctx, num_vertices, **kwargs)
        self._present = set()

    def present_vertices(self):
        return np.asarray(sorted(self._present), dtype=np.int64)

    def neighbors(self, vertices):
        outs = self.out.get(vertices)
        ins = self.inc.get(vertices)
        rows = np.arange(len(vertices))
        union = ref_build_neighbor_block(
            np.concatenate([np.repeat(rows, outs.degrees()),
                            np.repeat(rows, ins.degrees())]),
            np.concatenate([outs.neighbors, ins.neighbors]),
            dedupe=True,
        )
        indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
        indptr[union.vertices + 1] = union.degrees()
        return NeighborBlock(outs.vertices, np.cumsum(indptr),
                             union.neighbors)

    def apply(self, mutations):
        added_s, added_d, removed_s, removed_d, dropped = [], [], [], [], []
        old_out: Dict[int, np.ndarray] = {}
        for op, src, dst in ref_group_runs(mutation_records(mutations)):
            if op == EDGE_ADD:
                s, d = self._ref_edges(src, dst, old_out, add=True)
                added_s.extend(s.tolist())
                added_d.extend(d.tolist())
            elif op == EDGE_DEL:
                s, d = self._ref_edges(src, dst, old_out, add=False)
                removed_s.extend(s.tolist())
                removed_d.extend(d.tolist())
            else:
                s, d, doomed = self._ref_vertex_dels(src, old_out)
                removed_s.extend(s.tolist())
                removed_d.extend(d.tolist())
                dropped.extend(doomed.tolist())
        delta = GraphDelta(
            np.asarray(added_s, dtype=np.int64),
            np.asarray(added_d, dtype=np.int64),
            np.asarray(removed_s, dtype=np.int64),
            np.asarray(removed_d, dtype=np.int64),
            np.asarray(sorted(set(dropped)), dtype=np.int64),
            old_out=old_out,
        )
        self._ref_presence(delta)
        return delta

    def _ref_snapshot(self, vertices, old_out):
        current = self.out.get(vertices)
        for v, nbrs in current.rows():
            old_out.setdefault(v, nbrs)
        return current

    def _ref_edges(self, src, dst, old_out, *, add):
        if len(src) == 0:
            return src, dst
        src, dst = unique_pairs(src, dst)
        uniq, inverse = np.unique(src, return_inverse=True)
        current = self._ref_snapshot(uniq, old_out)
        radix = int(max(dst.max(), current.neighbors.max(initial=-1))) + 1
        present = np.isin(inverse * radix + dst, current.row_keys(radix))
        effective = ~present if add else present
        src, dst = src[effective], dst[effective]
        if len(src) == 0:
            return src, dst
        fwd = ref_build_neighbor_block(src, dst, dedupe=True)
        rev = ref_build_neighbor_block(dst, src, dedupe=True)
        if add:
            self.out.push(fwd)
            self.inc.push(rev)
            self.num_edges += len(src)
        else:
            self.out.remove(fwd)
            self.inc.remove(rev)
            self.num_edges -= len(src)
        return src, dst

    def _ref_vertex_dels(self, vertices, old_out):
        doomed = sorted_unique(vertices)
        outs = self._ref_snapshot(doomed, old_out)
        ins = self.inc.get(doomed)
        in_union = np.setdiff1d(ins.neighbors, doomed)
        if len(in_union):
            self._ref_snapshot(in_union, old_out)
        removed_src, removed_dst = unique_pairs(
            np.concatenate([outs.sources(), ins.neighbors]),
            np.concatenate([outs.neighbors, ins.sources()]))
        if outs.num_edges:
            self.inc.remove(ref_build_neighbor_block(
                outs.neighbors, outs.sources(), dedupe=True))
        if ins.num_edges:
            self.out.remove(ref_build_neighbor_block(
                ins.neighbors, ins.sources(), dedupe=True))
        self.out.drop(doomed)
        self.inc.drop(doomed)
        self.num_edges -= len(removed_src)
        return removed_src, removed_dst, doomed

    def _ref_presence(self, delta):
        became_present = []
        for v in sorted_unique(np.concatenate(
                [delta.added_src, delta.added_dst])).tolist():
            if v not in self._present:
                self._present.add(v)
                became_present.append(v)
        candidates = sorted_unique(np.concatenate([
            delta.removed_src, delta.removed_dst, delta.dropped,
        ]))
        became_absent = []
        if len(candidates):
            total = (self.out.degrees(candidates)
                     + self.inc.degrees(candidates))
            for v, deg in zip(candidates.tolist(), total.tolist()):
                if deg == 0 and v in self._present:
                    self._present.discard(v)
                    became_absent.append(v)
        delta.became_present = np.asarray(became_present, dtype=np.int64)
        delta.became_absent = np.asarray(sorted(became_absent),
                                         dtype=np.int64)


class RefIncrementalPageRank(IncrementalPageRank):
    """The dict seed and the dict push cascade."""

    def bootstrap(self):
        present = self.graph.present_vertices()
        base = 1.0 - self.damping
        return self._ref_push(self.state,
                              {int(v): base for v in present.tolist()})

    def update(self, delta):
        if delta.is_empty():
            return {"rounds": 0.0, "pushes": 0.0, "frontier": 0.0}
        base = 1.0 - self.damping
        seed: Dict[int, float] = {}
        for v in delta.became_present.tolist():
            seed[int(v)] = seed.get(int(v), 0.0) + base
        sources = np.asarray(sorted(delta.old_out), dtype=np.int64)
        if len(sources):
            ranks = self.state.pull(sources, col=0)
            new_outs = self.graph.out.get(sources)
            for (v, new_n), r in zip(new_outs.rows(), ranks):
                if r == 0.0:
                    continue
                old_n = delta.old_out[int(v)]
                if len(old_n):
                    c = -self.damping * r / len(old_n)
                    for t in old_n.tolist():
                        seed[int(t)] = seed.get(int(t), 0.0) + c
                if len(new_n):
                    c = self.damping * r / len(new_n)
                    for t in new_n.tolist():
                        seed[int(t)] = seed.get(int(t), 0.0) + c
        gone = np.union1d(delta.became_absent, delta.dropped)
        if len(gone):
            zeros = np.zeros(len(gone))
            self.state.set(gone, zeros, col=0)
            self.state.set(gone, zeros, col=1)
            for v in gone.tolist():
                seed.pop(int(v), None)
        stats = self._ref_push(self.state, seed)
        stats["frontier"] = float(len(seed))
        return stats

    def full_recompute(self, *, max_iterations=200):
        present = self.graph.present_vertices()
        if len(present) == 0:
            return present, np.empty(0)
        outs = self.graph.out.get(present)
        edges = edges_from_arrays(self.psctx.spark, outs.sources(),
                                  outs.neighbors)
        job = PageRank(max_iterations=max_iterations, tol=self.tol,
                       damping=self.damping)
        before = set(self.psctx.matrix_names())
        saved_recovery = self.psctx.recovery_mode
        try:
            result = job.transform(_BatchCtx(self.psctx), edges)
        finally:
            self.psctx.recovery_mode = saved_recovery
        got = {int(v): float(r) for v, r in result.output.rdd.collect()}
        ranks = np.asarray([got.get(int(v), 0.0) for v in present.tolist()])
        for name in set(self.psctx.matrix_names()) - before:
            self.psctx.drop_matrix(name)
        return present, ranks

    def _ref_push(self, state, seed):
        d, tol = self.damping, self.tol
        e_local: Dict[int, float] = {}
        r_delta: Dict[int, float] = {}
        adj: Dict[int, np.ndarray] = {}
        rounds = 0
        pushes = 0
        received = {int(v): float(a) for v, a in seed.items()}
        while rounds < self.max_rounds:
            pend = sorted(received)
            if pend:
                vs = np.asarray(pend, dtype=np.int64)
                for v, e in zip(pend, state.pull(vs, col=1)):
                    e_local[v] = float(e) + received.pop(v)
            hot = sorted(v for v in e_local
                         if abs(e_local[v]) > tol and v not in adj)
            if not pend and not hot:
                break
            rounds += 1
            if hot:
                hs = np.asarray(hot, dtype=np.int64)
                adj.update(self.graph.out.get(hs).rows())
            wave = sorted(v for v in e_local if v in adj)
            if not wave:
                continue
            wave_arr = np.asarray(wave, dtype=np.int64)
            e = np.asarray([e_local[v] for v in wave])
            nbrs = [adj[v] for v in wave]
            lens = np.asarray([len(t) for t in nbrs], dtype=np.int64)
            coef_k = np.where(lens > 0,
                              d / np.maximum(lens, 1).astype(np.float64),
                              0.0)
            r_acc = np.zeros(len(wave))
            if int(lens.sum()):
                flat = np.concatenate([t for t in nbrs if len(t)])
                src_idx = np.repeat(np.arange(len(wave)), lens)
                ins = np.minimum(np.searchsorted(wave_arr, flat),
                                 len(wave_arr) - 1)
                internal = wave_arr[ins] == flat
                int_tgt = ins[internal]
                int_src, ext_src = src_idx[internal], src_idx[~internal]
                ext_ids, ext_inv = np.unique(flat[~internal],
                                             return_inverse=True)
            else:
                flat = np.empty(0, dtype=np.int64)
                ext_ids = np.empty(0, dtype=np.int64)
            ext_acc = np.zeros(len(ext_ids))
            while True:
                active = np.abs(e) > tol
                if not active.any():
                    break
                ev = np.where(active, e, 0.0)
                r_acc += ev
                e = np.where(active, 0.0, e)
                pushes += int(active.sum())
                if not len(flat):
                    continue
                contrib = coef_k * ev
                if len(int_tgt):
                    np.add.at(e, int_tgt, contrib[int_src])
                if len(ext_ids):
                    np.add.at(ext_acc, ext_inv, contrib[ext_src])
            for i, v in enumerate(wave):
                if r_acc[i]:
                    r_delta[v] = r_delta.get(v, 0.0) + float(r_acc[i])
                e_local[v] = float(e[i])
            for u, a in zip(ext_ids.tolist(), ext_acc.tolist()):
                if a == 0.0:
                    continue
                u = int(u)
                if u in e_local:
                    e_local[u] += a
                else:
                    received[u] = received.get(u, 0.0) + a
        if r_delta:
            ids = np.asarray(sorted(r_delta), dtype=np.int64)
            state.push(ids, np.asarray([r_delta[int(v)] for v in ids]),
                       col=0)
        if e_local:
            ids = np.asarray(sorted(e_local), dtype=np.int64)
            state.set(ids, np.asarray([e_local[int(v)] for v in ids]),
                      col=1)
        self.psctx.barrier()
        return {"rounds": float(rounds), "pushes": float(pushes)}


class RefIncrementalComponents(IncrementalComponents):
    """Dict memo and label cache, set-based pair searches."""

    def bootstrap(self):
        self._adj = {}
        present = self.graph.present_vertices()
        if len(present):
            self.labels.set(present, present.astype(np.float64))
        rounds = self._ref_propagate(self.labels, set(present.tolist()))
        return {"rounds": float(rounds)}

    def update(self, delta):
        self._adj = {}
        rounds = 0
        repairs = 0
        if len(delta.became_present):
            self.labels.set(delta.became_present,
                            delta.became_present.astype(np.float64))
        gone = np.union1d(delta.became_absent, delta.dropped)
        if len(gone):
            self.labels.set(gone, np.full(len(gone), -1.0))
        gone_set = set(gone.tolist())
        if delta.num_removed:
            verified: Set[int] = set()
            pairs = unique_pairs(delta.removed_src, delta.removed_dst)
            live = list(zip(pairs[0].tolist(), pairs[1].tolist()))
            ends = sorted_unique(np.concatenate(pairs))
            ends = ends[~np.isin(ends, np.asarray(sorted(gone_set),
                                                  dtype=np.int64))]
            self._labels_cache = {}
            if len(ends):
                self._ref_neighbors(ends)
                for v, lab in zip(ends.tolist(), self.labels.pull(ends)):
                    self._labels_cache[int(v)] = float(lab)
            undecided: List[Tuple[int, int]] = []
            for u, w in live:
                if u in gone_set or w in gone_set:
                    continue
                if self._labels_cache[u] != self._labels_cache[w]:
                    continue
                nu = set(self._adj[u].tolist())
                nw = set(self._adj[w].tolist())
                if w in nu or u in nw or (nu & nw):
                    continue
                undecided.append((u, w))
            conn = (self._ref_batch_connectivity(undecided)
                    if undecided else {})
            for u, w in live:
                repairs += self._ref_repair_removal(
                    u, w, gone_set, verified, conn)
        if delta.num_added:
            frontier = set(sorted_unique(np.concatenate(
                [delta.added_src, delta.added_dst])).tolist())
            frontier -= gone_set
            rounds = self._ref_propagate(self.labels, frontier)
        return {"rounds": float(rounds), "repairs": float(repairs)}

    def full_recompute(self):
        self._adj = {}
        self._scratch_seq += 1
        name = f"{self.labels.name}.full{self._scratch_seq}"
        scratch = self.psctx.create_vector(
            name, self.graph.num_vertices, init=-1.0)
        present = self.graph.present_vertices()
        if len(present):
            scratch.set(present, present.astype(np.float64))
        self._ref_propagate(scratch, set(present.tolist()))
        labels = (scratch.pull(present).astype(np.int64) if len(present)
                  else np.empty(0, dtype=np.int64))
        self.psctx.drop_matrix(name)
        return present, labels

    def _ref_neighbors(self, vertices):
        missing = sorted(set(int(v) for v in vertices.tolist())
                         - self._adj.keys())
        if missing:
            ms = np.asarray(missing, dtype=np.int64)
            self._adj.update(self.graph.neighbors(ms).rows())
        return [self._adj[int(v)] for v in vertices.tolist()]

    def _ref_propagate(self, labels, frontier):
        rounds = 0
        while frontier and rounds < self.max_rounds:
            vs = np.asarray(sorted(frontier), dtype=np.int64)
            own = labels.pull(vs)
            nbrs = self._ref_neighbors(vs)
            lens = np.asarray([len(t) for t in nbrs], dtype=np.int64)
            frontier = set()
            if lens.sum() == 0:
                break
            flat = np.concatenate([t for t in nbrs if len(t)])
            nlab = labels.pull(flat)
            rows = np.flatnonzero(lens)
            starts = np.cumsum(lens) - lens
            lowest = np.minimum.reduceat(nlab, starts[rows])
            lower = lowest < own[rows]
            if lower.any():
                changed = np.zeros(len(vs), dtype=bool)
                changed[rows[lower]] = True
                labels.set(vs[changed], lowest[lower])
                frontier = set(sorted_unique(
                    flat[np.repeat(changed, lens)]).tolist())
            rounds += 1
            self.psctx.barrier()
        return rounds

    def _ref_repair_removal(self, u, w, gone, verified, conn):
        endpoints = [v for v in (u, w) if v not in gone]
        if not endpoints:
            return 0
        if len(endpoints) == 1:
            v = endpoints[0]
            if v in verified:
                return 0
            comp = self._ref_component(v)
            verified |= comp
            return self._ref_relabel_if_stale(comp)
        if u in verified and w in verified:
            return 0
        lu = self._labels_cache[u]
        lw = self._labels_cache[w]
        if lu != lw:
            return 0
        nu = set(self._adj[u].tolist())
        nw = set(self._adj[w].tolist())
        if w in nu or u in nw or (nu & nw):
            met, small = True, set()
        else:
            hit = conn.get((u, w))
            met, small = (hit if hit is not None
                          else self._ref_bidir_check(u, w))
        if met:
            if lu not in gone:
                return 0
            comp = self._ref_component(u)
            verified |= comp
            return self._ref_relabel_if_stale(comp)
        self._ref_relabel(small)
        verified |= small
        other = w if w not in small else u
        if lu in gone or lu in small:
            comp = self._ref_component(other)
            verified |= comp
            self._ref_relabel_if_stale(comp)
        return 1

    def _ref_batch_connectivity(self, pairs):
        state = {(u, w): ({u}, [u], {w}, [w]) for u, w in pairs}
        out = {}
        while state:
            need: Set[int] = set()
            for su, fu, sw, fw in state.values():
                need.update(fu if len(su) <= len(sw) else fw)
            missing = sorted(need - self._adj.keys())
            if missing:
                self._ref_neighbors(np.asarray(missing, dtype=np.int64))
            for p in sorted(state):
                su, fu, sw, fw = state[p]
                if len(su) <= len(sw):
                    fu, met = self._ref_expand(fu, su, sw)
                else:
                    fw, met = self._ref_expand(fw, sw, su)
                if met:
                    out[p] = (True, set())
                    del state[p]
                elif not fu:
                    out[p] = (False, su)
                    del state[p]
                elif not fw:
                    out[p] = (False, sw)
                    del state[p]
                else:
                    state[p] = (su, fu, sw, fw)
        return out

    def _ref_bidir_check(self, u, w):
        seen_u, seen_w = {u}, {w}
        fr_u, fr_w = [u], [w]
        while fr_u and fr_w:
            if len(seen_u) <= len(seen_w):
                fr_u, met = self._ref_expand(fr_u, seen_u, seen_w)
            else:
                fr_w, met = self._ref_expand(fr_w, seen_w, seen_u)
            if met:
                return True, set()
        return False, seen_u if not fr_u else seen_w

    def _ref_expand(self, frontier, seen, other_seen):
        vs = np.asarray(sorted(frontier), dtype=np.int64)
        nbrs = self._ref_neighbors(vs)
        nxt: Set[int] = set()
        for t in nbrs:
            nxt.update(t.tolist())
        if nxt & other_seen:
            return [], True
        nxt -= seen
        seen |= nxt
        return sorted(nxt), False

    def _ref_component(self, start):
        seen = {start}
        frontier = [start]
        while frontier:
            frontier, _ = self._ref_expand(frontier, seen, set())
        return seen

    def _ref_relabel(self, members):
        if not members:
            return 0
        ids = np.asarray(sorted(members), dtype=np.int64)
        want = float(ids[0])
        self.labels.set(ids, np.full(len(ids), want))
        for v in ids.tolist():
            if v in self._labels_cache:
                self._labels_cache[v] = want
        return 1

    def _ref_relabel_if_stale(self, members):
        if not members:
            return 0
        ids = np.asarray(sorted(members), dtype=np.int64)
        current = self.labels.pull(ids)
        want = float(ids[0])
        for v in ids.tolist():
            if v in self._labels_cache:
                self._labels_cache[v] = want
        if (current == want).all():
            return 0
        self.labels.set(ids, np.full(len(ids), want))
        return 1


# ----------------------------------------------------------------------
# the mutation stream: one column batch vs records one by one
# ----------------------------------------------------------------------


@st.composite
def topic_rounds(draw):
    """A topic of 1-5 partitions and rounds of produce calls (adds,
    removes and vertex drops of a few ids each), every round followed by
    one poll."""
    partitions = draw(st.integers(1, 5))
    vertex = st.integers(0, 12)
    pairs = st.lists(st.tuples(vertex, vertex), max_size=8)
    call = st.one_of(st.tuples(st.just("add"), pairs),
                     st.tuples(st.just("del"), pairs),
                     st.tuples(st.just("drop"),
                               st.lists(vertex, max_size=4)))
    rounds = draw(st.lists(st.lists(call, max_size=4), min_size=1,
                           max_size=5))
    return partitions, rounds


def _produce(topic, ref_logs, kind, ids):
    """One produce call on the topic, and its records on the list logs."""
    if kind == "drop":
        topic.produce_vertex_removals(np.asarray(ids, dtype=np.int64))
        records = [Mutation(VERTEX_DEL, v, -1) for v in ids]
    else:
        src, dst = (np.asarray(c, dtype=np.int64).reshape(-1)
                    for c in (zip(*ids) if ids else ((), ())))
        op = EDGE_ADD if kind == "add" else EDGE_DEL
        (topic.produce if kind == "add" else topic.produce_removals)(src, dst)
        records = [Mutation(op, s, d) for s, d in ids]
    ref_route(ref_logs, records)


def _runs(runs):
    return [(op, s.dtype, s.tolist(), d.dtype, d.tolist())
            for op, s, d in runs]


@given(topic_rounds(), st.data())
def test_columnar_stream_equals_the_record_stream(case, data):
    partitions, rounds = case
    topic = KafkaTopic("edges", num_partitions=partitions)
    fs = Hdfs(metrics=MetricsRegistry())
    seen: List[MutationBatch] = []
    consumer = EdgeStreamConsumer(topic, fs, landing_dir="/land")
    consumer.sink = seen.append
    ref_logs: List[List[Mutation]] = [[] for _ in range(partitions)]
    ref_offsets = [0] * partitions
    landed = 0  # consuming polls so far: the landing files' counter
    for calls in rounds:
        for kind, ids in calls:
            _produce(topic, ref_logs, kind, ids)
        assert end_offsets(topic) == [len(log) for log in ref_logs]
        # Reads from any offset, which may cut a produce chunk.
        for p, log in enumerate(ref_logs):
            offset = data.draw(st.integers(0, len(log) + 1))
            got = topic.read(p, offset)
            assert isinstance(got, MutationBatch)
            assert [c.dtype for c in got.columns] == [
                np.int8, np.int64, np.int64]
            assert mutation_records(got) == log[offset:]
        # One poll: the landed files and the sink's batch.
        staged = {p: log[ref_offsets[p]:] for p, log in enumerate(ref_logs)}
        staged = {p: records for p, records in staged.items() if records}
        seen.clear()
        assert consumer.poll() == sum(map(len, staged.values()))
        if not staged:
            assert not seen
            continue
        for p, records in staged.items():
            path = f"/land/batch-{landed:05d}-p{p}"
            want = "".join(ref_encode_line(m) + "\n" for m in records)
            assert fs.read_bytes(path) == want.encode()
            ref_offsets[p] += len(records)
        landed += 1
        ordered = [m for p in sorted(staged) for m in staged[p]]
        (batch,) = seen
        assert mutation_records(batch) == ordered
        assert _runs(batch.runs()) == _runs(ref_group_runs(ordered))
    assert list(consumer.offsets.values()) == ref_offsets


# ----------------------------------------------------------------------
# build_neighbor_block: one integer sort vs the two-key lexsort
# ----------------------------------------------------------------------

#: ``radix`` (largest ``other`` + 1) and the first ``target`` whose pair
#: key would overflow int64, for a few neighbor-id scales.
_LIMITS = [(radix, (2 ** 63 - radix) // radix)
           for radix in (1, 2, 7, 1000, 2 ** 31, 2 ** 40)]


@st.composite
def tuples(draw):
    """``(targets, others, weights or None, dedupe)``: few distinct ids so
    duplicates are common, and sometimes ids just under the pair-key
    limit."""
    radix, limit = draw(st.sampled_from(_LIMITS))
    n = draw(st.integers(0, 40))
    near = draw(st.booleans())
    lo = limit - 6 if near else 0
    targets = draw(st.lists(st.integers(max(lo, 0), min(lo + 5, limit - 1)),
                            min_size=n, max_size=n))
    others = draw(st.lists(st.integers(max(radix - 4, 0), radix - 1)
                           if near else st.integers(0, min(radix - 1, 6)),
                           min_size=n, max_size=n))
    weights = (np.asarray(draw(st.lists(
        st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n)))
        if draw(st.booleans()) else None)
    return (np.asarray(targets, dtype=np.int64),
            np.asarray(others, dtype=np.int64), weights,
            draw(st.booleans()))


def _block_bytes(block):
    return [(a.dtype, a.shape, a.tobytes())
            for a in (block.vertices, block.indptr, block.neighbors,
                      block.weights) if a is not None] + [
        block.weights is None]


@given(tuples())
def test_integer_sort_block_equals_the_lexsort_block(case):
    targets, others, weights, dedupe = case
    got = build_neighbor_block(targets, others, weights, dedupe)
    want = ref_build_neighbor_block(targets, others, weights, dedupe)
    assert _block_bytes(got) == _block_bytes(want)


def test_first_weight_wins_among_equal_pairs():
    block = build_neighbor_block(np.array([2, 1, 2, 2]),
                                 np.array([5, 3, 5, 4]),
                                 np.array([0.5, 1.0, 0.25, 2.0]),
                                 dedupe=True)
    assert block.vertices.tolist() == [1, 2]
    assert block.neighbors.tolist() == [3, 4, 5]
    assert block.weights.tolist() == [1.0, 2.0, 0.5]


@pytest.mark.parametrize("radix,limit", _LIMITS)
def test_ids_past_the_pair_key_limit_raise(radix, limit):
    others = np.array([radix - 1])
    build_neighbor_block(np.array([limit - 1]), others)
    with pytest.raises(PSError, match="too large"):
        build_neighbor_block(np.array([limit]), others)


# ----------------------------------------------------------------------
# the streaming plane: arrays vs dicts, window for window
# ----------------------------------------------------------------------


@st.composite
def streams(draw):
    """A base graph and up to three mutation windows on ``n`` vertices:
    adds and removes of random pairs (re-adds and absent removals
    included) and vertex drops, interleaved."""
    n = draw(st.integers(4, 24))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    base = draw(st.lists(pair, min_size=1, max_size=3 * n))
    mutation = st.one_of(
        st.tuples(st.just("add"), pair),
        st.tuples(st.just("del"), st.sampled_from(base) | pair),
        st.tuples(st.just("drop"), st.tuples(vertex, st.just(-1))),
    )
    windows = draw(st.lists(st.lists(mutation, max_size=12),
                            min_size=1, max_size=3))
    return n, base, windows


def _mutations(window):
    return mutations_from_records(
        Mutation(EDGE_ADD, a, b) if op == "add" else
        Mutation(EDGE_DEL, a, b) if op == "del" else Mutation(VERTEX_DEL, a, -1)
        for op, (a, b) in window)


def _old_out_rows(delta):
    if isinstance(delta.old_out, dict):
        return [(v, delta.old_out[v].tolist()) for v in sorted(delta.old_out)]
    return [(v, delta.old_out.neighbors[
        delta.old_out.indptr[i]:delta.old_out.indptr[i + 1]].tolist())
        for i, v in enumerate(delta.old_out.vertices.tolist())]


def _run(stream, graph_cls, pagerank_cls, components_cls, full):
    """Per window: delta, both algorithms' stats, state bytes and sim
    time; then every span and every metric."""
    n, base, windows = stream
    tracer = Tracer()
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    rows = []
    with PSGraphContext(cluster, app_name="streaming-arrays",
                        tracer=tracer) as ctx:
        g = graph_cls(ctx.ps, n)
        src, dst = (np.array(c) for c in zip(*base))
        g.apply(edge_adds(src, dst))
        pr = pagerank_cls(g, tol=1e-9)
        cc = components_cls(g)
        rows.append((pr.bootstrap(), cc.bootstrap(), ctx.sim_time()))
        for window in windows:
            delta = g.apply(_mutations(window))
            row = [
                delta.added_src.tolist(), delta.added_dst.tolist(),
                delta.removed_src.tolist(), delta.removed_dst.tolist(),
                delta.dropped.tolist(), delta.became_present.tolist(),
                delta.became_absent.tolist(), _old_out_rows(delta),
                g.num_edges, g.present_vertices().tolist(),
                pr.update(delta), cc.update(delta), ctx.sim_time(),
            ]
            if full:
                row += [digest(pr.full_recompute()),
                        digest(cc.full_recompute()), ctx.sim_time()]
            row += [digest(pr.state.to_numpy()),
                    digest(cc.labels.to_numpy())]
            rows.append(row)
        spans = [span_event(s) for s in tracer.spans()]
        return rows, digest(repr(spans)), metrics_to_dict(ctx.metrics)


@given(streams(), st.booleans())
def test_array_plane_equals_the_dict_plane(stream, full):
    got = _run(stream, StreamingGraph, IncrementalPageRank,
               IncrementalComponents, full)
    want = _run(stream, RefStreamingGraph, RefIncrementalPageRank,
                RefIncrementalComponents, full)
    for window, (g, w) in enumerate(zip(got[0], want[0])):
        assert g == w, f"window {window}"
    assert got[1:] == want[1:]
