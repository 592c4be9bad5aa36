"""A live, mutable graph resident on the parameter server.

:class:`StreamingGraph` owns two PS neighbor tables — out-edges and
in-edges — and applies ordered mutation batches from the ingest stream
to both, reporting exactly what *actually* changed as a
:class:`GraphDelta`.  "Actually" matters: re-adding a present edge or
removing an absent one is a no-op under the tables' set semantics, and
the incremental algorithms must only repair state for real changes or
their invariants drift.

The delta also snapshots the pre-window out-neighbor rows of every source
the window touched (pulled anyway for the presence check), which is
precisely the information delta-PageRank needs to repair its residual
invariant without rescanning the graph.

Per-vertex state is arrays indexed by vertex id — a presence mask here,
residuals and labels in the algorithms — and adjacency is CSR
(:class:`RowMemo`): a window costs array operations over what it
touched, not a Python object per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.common.batch import (
    in_sorted,
    sorted_difference,
    sorted_unique,
    unique_pairs,
)
from repro.common.errors import PSError
from repro.common.metrics import (
    STREAM_EDGES_ADDED,
    STREAM_EDGES_LIVE_G,
    STREAM_EDGES_REMOVED,
    STREAM_VERTICES_DROPPED,
    MetricsRegistry,
)
from repro.core.blocks import NeighborBlock, build_neighbor_block
from repro.ingest.mutations import (
    EDGE_ADD,
    EDGE_DEL,
    VERTEX_DEL,
    MutationBatch,
)

_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


def _empty_block() -> NeighborBlock:
    return build_neighbor_block(_NONE, _NONE)


def _cat(arrays: List[np.ndarray]) -> np.ndarray:
    """The int64 concatenation of ``arrays`` (empty for none)."""
    return np.concatenate([_NONE, *arrays])


@dataclass
class GraphDelta:
    """What one applied mutation window actually changed.

    ``old_out`` holds the *pre-window* out-neighbor row of every source
    the window touched — an edge run's sources (an ineffective add or
    remove included), each dropped vertex and each in-neighbor of one —
    as a block with ascending vertices; ``became_present`` /
    ``became_absent`` track vertices crossing the degree-0 boundary
    (presence = endpoint of at least one live edge, the convention of
    the batch algorithms).
    """

    added_src: np.ndarray
    added_dst: np.ndarray
    removed_src: np.ndarray
    removed_dst: np.ndarray
    dropped: np.ndarray
    old_out: NeighborBlock
    became_present: np.ndarray = field(default_factory=lambda: _NONE,
                                       init=False)
    became_absent: np.ndarray = field(default_factory=lambda: _NONE,
                                      init=False)

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
        metrics: optional registry for the ``streaming.*`` counters.
    """

    #: Prefix of the two PS tables (``{name}.out`` / ``{name}.in``).
    name = "stream"

    def __init__(self, psctx, num_vertices: int, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.psctx = psctx
        self.num_vertices = num_vertices
        self.out = psctx.create_neighbor_table(f"{self.name}.out",
                                               num_vertices)
        self.inc = psctx.create_neighbor_table(f"{self.name}.in",
                                               num_vertices)
        self.metrics = metrics
        self.num_edges = 0
        self._present = np.zeros(num_vertices, dtype=bool)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def present_vertices(self) -> np.ndarray:
        """Vertices that are an endpoint of at least one live edge."""
        return np.flatnonzero(self._present)

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

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def check_ids(self, mutations: MutationBatch) -> None:
        """Raise :class:`PSError` if an id of ``mutations`` lies outside
        ``[0, num_vertices)``."""
        for op, src, dst in mutations.runs():
            ids = src if op == VERTEX_DEL else np.concatenate([src, dst])
            if not 0 <= ids.min() <= ids.max() < self.num_vertices:
                bad = ids[(ids < 0) | (ids >= self.num_vertices)][:5]
                raise PSError(f"{self.out.meta.name}: mutation ids {bad} outside "
                              f"[0, {self.num_vertices})")

    def apply(self, batch: MutationBatch) -> GraphDelta:
        """Apply one ordered mutation batch; returns the effective delta.

        Every id is checked against ``num_vertices`` first: a bad one
        raises :class:`PSError` before anything is applied."""
        self.check_ids(batch)
        runs = batch.runs()
        added: List[tuple] = []
        removed: List[tuple] = []
        dropped: List[np.ndarray] = []
        snapshots: List[NeighborBlock] = []
        for op, src, dst in runs:
            if op == EDGE_ADD:
                added.append(self._apply_edges(src, dst, snapshots,
                                               add=True))
            elif op == EDGE_DEL:
                removed.append(self._apply_edges(src, dst, snapshots,
                                                 add=False))
            else:
                s, d, doomed = self._apply_vertex_dels(src, snapshots)
                removed.append((s, d))
                dropped.append(doomed)

        delta = GraphDelta(
            _cat([s for s, _d in added]), _cat([d for _s, d in added]),
            _cat([s for s, _d in removed]), _cat([d for _s, d in removed]),
            sorted_unique(_cat(dropped)),
            old_out=_first_touch(snapshots),
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
                          snapshots: List[NeighborBlock]) -> NeighborBlock:
        """Current out-neighbors, kept as a pre-window snapshot (the
        first one of a vertex wins, see :func:`_first_touch`)."""
        current = self.out.get(vertices)
        snapshots.append(current)
        return current

    def _apply_edges(self, src: np.ndarray, dst: np.ndarray,
                     snapshots: List[NeighborBlock], *, add: bool):
        """Apply one add- or remove-run; returns effective (src, dst)."""
        src, dst = unique_pairs(src, dst)
        # ``src`` is ascending: its distinct values and each pair's row
        # among them come from one neighbour mask.
        first = np.ones(len(src), dtype=bool)
        np.not_equal(src[1:], src[:-1], out=first[1:])
        inverse = np.cumsum(first) - 1
        current = self._snapshot_old_out(src[first], snapshots)
        # Membership of every (src, dst) in the live rows, as one search
        # of the row * radix + neighbor keys.
        radix = int(max(dst.max(), current.neighbors.max(initial=-1))) + 1
        present = in_sorted(current.row_keys(radix), inverse * radix + dst)
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
                           snapshots: List[NeighborBlock]):
        """Drop vertices with all incident edges; returns removed edges."""
        doomed = sorted_unique(vertices)
        outs = self._snapshot_old_out(doomed, snapshots)
        ins = self.inc.get(doomed)
        # In-neighbors lose an out-edge: snapshot their pre-state too.
        in_union = sorted_difference(ins.neighbors, doomed)
        if len(in_union):
            self._snapshot_old_out(in_union, snapshots)
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
        """Maintain the presence mask; fill the delta's crossings."""
        gained = sorted_unique(np.concatenate(
            [delta.added_src, delta.added_dst]))
        gained = gained[~self._present[gained]]
        self._present[gained] = True
        candidates = sorted_unique(np.concatenate([
            delta.removed_src, delta.removed_dst, delta.dropped,
        ]))
        lost = _NONE
        if len(candidates):
            total = (self.out.degrees(candidates)
                     + self.inc.degrees(candidates))
            lost = candidates[(total == 0) & self._present[candidates]]
            self._present[lost] = False
        delta.became_present = gained
        delta.became_absent = lost


def _first_touch(snapshots: List[NeighborBlock]) -> NeighborBlock:
    """Each vertex's row from the first snapshot that holds it, vertices
    ascending."""
    if not snapshots:
        return _empty_block()
    whole = NeighborBlock.concat(snapshots)
    _, first = np.unique(whole.vertices, return_index=True)
    return whole.take(first)


class RowMemo:
    """Rows of a vertex-keyed adjacency, each fetched at most once and
    kept as one CSR block: ``pos[v]`` is vertex ``v``'s row in it, -1
    until fetched.

    Args:
        num_vertices: the vertex-id space.
        fetch: the rows of sorted, distinct vertices as one block (one
            group call per fetch).
    """

    def __init__(self, num_vertices: int,
                 fetch: Callable[[np.ndarray], NeighborBlock]) -> None:
        self.fetch = fetch
        self.pos = np.full(num_vertices, -1, dtype=np.int64)
        self.block = _empty_block()

    def known(self) -> np.ndarray:
        """Mask of the vertices whose row has been fetched."""
        return self.pos >= 0

    def rows(self, vertices: np.ndarray) -> NeighborBlock:
        """The rows of ``vertices``, aligned with them; the ones not
        fetched yet are fetched first, together, in ascending order."""
        missing = vertices[self.pos[vertices] < 0]
        if len(missing):
            missing = sorted_unique(missing)
            fetched = self.fetch(missing)
            self.pos[missing] = np.arange(self.block.num_vertices,
                                          self.block.num_vertices
                                          + len(missing))
            self.block = NeighborBlock.concat([self.block, fetched])
        return self.block.take(self.pos[vertices])
