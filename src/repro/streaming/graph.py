"""A live, mutable graph resident on the parameter server.

:class:`StreamingGraph` owns two PS neighbor tables — out-edges and
in-edges — and applies ordered mutation batches from the ingest stream
to both, reporting exactly what *actually* changed as a
:class:`GraphDelta`.  "Actually" matters: re-adding a present edge or
removing an absent one is a no-op under the tables' set semantics, and
the incremental algorithms must only repair state for real changes or
their invariants drift.

The delta also snapshots each mutated source's pre-window out-neighbor
list (pulled anyway for the presence check), which is precisely the
information delta-PageRank needs to repair its residual invariant
without rescanning the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.common.batch import sorted_unique, unique_pairs
from repro.common.metrics import (
    STREAM_EDGES_ADDED,
    STREAM_EDGES_LIVE_G,
    STREAM_EDGES_REMOVED,
    STREAM_VERTICES_DROPPED,
    MetricsRegistry,
)
from repro.core.blocks import NeighborBlock, build_neighbor_block
from repro.ingest.mutations import EDGE_ADD, EDGE_DEL, Mutation, group_runs


@dataclass
class GraphDelta:
    """What one applied mutation window actually changed.

    ``old_out`` maps every source vertex whose out-neighborhood changed
    to its *pre-window* out-neighbor array; ``became_present`` /
    ``became_absent`` track vertices crossing the degree-0 boundary
    (presence = endpoint of at least one live edge, the convention of
    the batch algorithms).
    """

    added_src: np.ndarray
    added_dst: np.ndarray
    removed_src: np.ndarray
    removed_dst: np.ndarray
    dropped: np.ndarray
    old_out: Dict[int, np.ndarray] = field(default_factory=dict)
    became_present: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    became_absent: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def num_added(self) -> int:
        return len(self.added_src)

    @property
    def num_removed(self) -> int:
        return len(self.removed_src)

    def touched(self) -> np.ndarray:
        """Every vertex adjacent to a change (sorted, unique)."""
        return sorted_unique(np.concatenate([
            self.added_src, self.added_dst,
            self.removed_src, self.removed_dst,
            self.dropped,
        ]))

    def is_empty(self) -> bool:
        return (self.num_added == 0 and self.num_removed == 0
                and len(self.dropped) == 0)


class StreamingGraph:
    """Directed graph on the PS, mutated in windows from an edge stream.

    Args:
        psctx: owning :class:`~repro.ps.context.PSContext`.
        num_vertices: vertex-id space of the underlying tables.
        name: prefix for the two tables (``{name}.out`` / ``{name}.in``).
        metrics: optional registry for the ``streaming.*`` counters.
    """

    def __init__(self, psctx, num_vertices: int, *, name: str = "stream",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.psctx = psctx
        self.num_vertices = num_vertices
        self.out = psctx.create_neighbor_table(f"{name}.out", num_vertices)
        self.inc = psctx.create_neighbor_table(f"{name}.in", num_vertices)
        self.metrics = metrics
        self.num_edges = 0
        self._present: Set[int] = set()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def present_vertices(self) -> np.ndarray:
        """Vertices that are an endpoint of at least one live edge."""
        return np.asarray(sorted(self._present), dtype=np.int64)

    def neighbors(self, vertices: np.ndarray) -> NeighborBlock:
        """Undirected adjacency: per requested vertex, the sorted union of
        its out- and in-neighbors."""
        outs = self.out.get(vertices)
        ins = self.inc.get(vertices)
        rows = np.arange(len(vertices))
        union = build_neighbor_block(
            np.concatenate([np.repeat(rows, outs.degrees()),
                            np.repeat(rows, ins.degrees())]),
            np.concatenate([outs.neighbors, ins.neighbors]),
            dedupe=True,
        )
        indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
        indptr[union.vertices + 1] = union.degrees()
        return NeighborBlock(outs.vertices, np.cumsum(indptr),
                             union.neighbors)

    def out_degrees(self, vertices: np.ndarray) -> np.ndarray:
        return self.out.degrees(vertices)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def apply(self, mutations: Iterable[Mutation]) -> GraphDelta:
        """Apply one ordered mutation batch; returns the effective delta."""
        added_s: List[int] = []
        added_d: List[int] = []
        removed_s: List[int] = []
        removed_d: List[int] = []
        dropped: List[int] = []
        old_out: Dict[int, np.ndarray] = {}

        for op, src, dst in group_runs(mutations):
            if op == EDGE_ADD:
                s, d = self._apply_edges(src, dst, old_out, add=True)
                added_s.extend(s.tolist())
                added_d.extend(d.tolist())
            elif op == EDGE_DEL:
                s, d = self._apply_edges(src, dst, old_out, add=False)
                removed_s.extend(s.tolist())
                removed_d.extend(d.tolist())
            else:
                s, d, doomed = self._apply_vertex_dels(src, old_out)
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
        self._update_presence(delta)
        if self.metrics is not None:
            self.metrics.inc(STREAM_EDGES_ADDED, delta.num_added)
            self.metrics.inc(STREAM_EDGES_REMOVED, delta.num_removed)
            self.metrics.inc(STREAM_VERTICES_DROPPED, len(delta.dropped))
            self.metrics.set_gauge(STREAM_EDGES_LIVE_G,
                                   float(self.num_edges))
        return delta

    # -- internals ------------------------------------------------------

    def _snapshot_old_out(self, vertices: np.ndarray,
                          old_out: Dict[int, np.ndarray]) -> NeighborBlock:
        """Current out-neighbors, recording first-touch pre-window state."""
        current = self.out.get(vertices)
        for v, nbrs in current.rows():
            old_out.setdefault(v, nbrs)
        return current

    def _apply_edges(self, src: np.ndarray, dst: np.ndarray,
                     old_out: Dict[int, np.ndarray], *, add: bool):
        """Apply one add- or remove-run; returns effective (src, dst)."""
        if len(src) == 0:
            return src, dst
        src, dst = unique_pairs(src, dst)
        uniq, inverse = np.unique(src, return_inverse=True)
        current = self._snapshot_old_out(uniq, old_out)
        # Membership of every (src, dst) in the live rows, as one isin
        # over row * radix + neighbor keys.
        radix = int(max(dst.max(), current.neighbors.max(initial=-1))) + 1
        present = np.isin(inverse * radix + dst, current.row_keys(radix))
        effective = ~present if add else present
        src, dst = src[effective], dst[effective]
        if len(src) == 0:
            return src, dst
        fwd = build_neighbor_block(src, dst, dedupe=True)
        rev = build_neighbor_block(dst, src, dedupe=True)
        if add:
            self.out.push(fwd)
            self.inc.push(rev)
            self.num_edges += len(src)
        else:
            self.out.remove(fwd)
            self.inc.remove(rev)
            self.num_edges -= len(src)
        return src, dst

    def _apply_vertex_dels(self, vertices: np.ndarray,
                           old_out: Dict[int, np.ndarray]):
        """Drop vertices with all incident edges; returns removed edges."""
        doomed = sorted_unique(vertices)
        outs = self._snapshot_old_out(doomed, old_out)
        ins = self.inc.get(doomed)
        # In-neighbors lose an out-edge: snapshot their pre-state too.
        in_union = np.setdiff1d(ins.neighbors, doomed)
        if len(in_union):
            self._snapshot_old_out(in_union, old_out)
        # Every incident edge once (an edge between two doomed vertices
        # shows up from both ends), in (src, dst) order.
        removed_src, removed_dst = unique_pairs(
            np.concatenate([outs.sources(), ins.neighbors]),
            np.concatenate([outs.neighbors, ins.sources()]))
        # Detach: v leaves the in-tables of its out-neighbors and the
        # out-tables of its in-neighbors, then both of v's own tables go.
        if outs.num_edges:
            self.inc.remove(build_neighbor_block(
                outs.neighbors, outs.sources(), dedupe=True))
        if ins.num_edges:
            self.out.remove(build_neighbor_block(
                ins.neighbors, ins.sources(), dedupe=True))
        self.out.drop(doomed)
        self.inc.drop(doomed)
        self.num_edges -= len(removed_src)
        return removed_src, removed_dst, doomed

    def _update_presence(self, delta: GraphDelta) -> None:
        """Maintain the live-vertex set; fill the delta's crossings."""
        became_present: List[int] = []
        for v in sorted_unique(np.concatenate(
                [delta.added_src, delta.added_dst])).tolist():
            if v not in self._present:
                self._present.add(v)
                became_present.append(v)
        candidates = sorted_unique(np.concatenate([
            delta.removed_src, delta.removed_dst, delta.dropped,
        ]))
        became_absent: List[int] = []
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
