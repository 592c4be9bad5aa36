"""Incremental weakly connected components over a streaming graph.

Labels live in a PS vector (label = smallest vertex id in the component,
``-1`` for absent vertices).  Edge *adds* are cheap: min-label frontier
propagation restricted to the touched region floods the smaller label
through any newly merged component.  Edge *removes* are the hard case —
a removal may split a component — and are repaired with a bidirectional
search from the removed edge's endpoints over the *current* adjacency:
if the sides meet, the component survived and nothing changes; if one
side exhausts, the old component genuinely split and both sides are
relabeled with their own minima.

Cost model: adds cost O(affected frontier); a removal costs O(min side)
when the component survives and O(component) when it splits — still
local to the touched component, never a full-graph recompute.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.common.batch import sorted_unique, unique_pairs


class IncrementalComponents:
    """PS-resident component labels kept fresh across mutation windows.

    Args:
        graph: the live :class:`~repro.streaming.graph.StreamingGraph`.
        name: PS vector name for the label state.
        max_rounds: propagation-round budget per refresh.
    """

    def __init__(self, graph, *, name: str = "stream.cc",
                 max_rounds: int = 200) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.max_rounds = max_rounds
        self.labels = self.psctx.create_vector(
            name, graph.num_vertices, init=-1.0
        )
        self._scratch_seq = 0
        # Per-refresh adjacency memo: the graph is static between
        # :meth:`update` calls, so every vertex's neighborhood is pulled
        # at most once per refresh regardless of how many BFS levels or
        # pair checks revisit it.
        self._adj: Dict[int, np.ndarray] = {}
        # Driver-side view of labels written/read during one repair pass
        # (kept consistent by :meth:`_relabel`).
        self._labels_cache: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Full labeling from scratch (first window)."""
        self._adj = {}
        present = self.graph.present_vertices()
        if len(present):
            self.labels.set(present, present.astype(np.float64))
        rounds = self._propagate(self.labels, set(present.tolist()))
        return {"rounds": float(rounds)}

    def update(self, delta) -> Dict[str, float]:
        """Repair labels for one window's delta."""
        self._adj = {}
        rounds = 0
        repairs = 0
        if len(delta.became_present):
            self.labels.set(
                delta.became_present,
                delta.became_present.astype(np.float64),
            )
        gone = np.union1d(delta.became_absent, delta.dropped)
        if len(gone):
            self.labels.set(gone, np.full(len(gone), -1.0))
        gone_set = set(gone.tolist())

        # Removals first: every removed edge whose endpoints shared a
        # label may have split a component (or orphaned its old label).
        # ``verified`` dedupes work inside the window: once a full BFS
        # has re-anchored a component, later pairs touching it are free.
        if delta.num_removed:
            verified: Set[int] = set()
            pairs = unique_pairs(delta.removed_src, delta.removed_dst)
            live = list(zip(pairs[0].tolist(), pairs[1].tolist()))
            # Warm the adjacency memo and label cache for every endpoint
            # in one group call each; most pairs then resolve without
            # further PS traffic (reverse edge or shared neighbor).
            ends = sorted_unique(np.concatenate(pairs))
            ends = ends[~np.isin(ends, np.asarray(sorted(gone_set),
                                                  dtype=np.int64))]
            self._labels_cache = {}
            if len(ends):
                self._neighbors(ends)
                for v, l in zip(ends.tolist(), self.labels.pull(ends)):
                    self._labels_cache[int(v)] = float(l)
            # Pairs the pre-filter can't decide need a real search; run
            # them *together*, level-synchronously, so each BFS level
            # costs one shared adjacency fetch across all pairs instead
            # of one per pair.
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
            conn = (self._batch_connectivity(undecided)
                    if undecided else {})
            for u, w in live:
                repairs += self._repair_removal(
                    u, w, gone_set, verified, conn)

        # Adds second: flood the smaller label through merged components.
        if delta.num_added:
            frontier = set(sorted_unique(np.concatenate(
                [delta.added_src, delta.added_dst])).tolist())
            frontier -= gone_set
            rounds = self._propagate(self.labels, frontier)
        return {"rounds": float(rounds), "repairs": float(repairs)}

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def assignments(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, labels)`` for the present vertices."""
        present = self.graph.present_vertices()
        if len(present) == 0:
            return present, np.empty(0, dtype=np.int64)
        return present, self.labels.pull(present).astype(np.int64)

    def num_components(self) -> int:
        """Distinct components among present vertices."""
        _, labels = self.assignments()
        return len(np.unique(labels)) if len(labels) else 0

    def full_recompute(self) -> Tuple[np.ndarray, np.ndarray]:
        """From-scratch labeling on scratch PS state (cost yardstick)."""
        self._adj = {}  # a cold run pays its own adjacency pulls
        self._scratch_seq += 1
        name = f"{self.labels.name}.full{self._scratch_seq}"
        scratch = self.psctx.create_vector(
            name, self.graph.num_vertices, init=-1.0
        )
        present = self.graph.present_vertices()
        if len(present):
            scratch.set(present, present.astype(np.float64))
        self._propagate(scratch, set(present.tolist()))
        labels = (scratch.pull(present).astype(np.int64) if len(present)
                  else np.empty(0, dtype=np.int64))
        self.psctx.drop_matrix(name)
        return present, labels

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _neighbors(self, vertices: np.ndarray) -> List[np.ndarray]:
        """Memoized undirected adjacency (one group call for misses)."""
        missing = sorted(set(int(v) for v in vertices.tolist())
                         - self._adj.keys())
        if missing:
            ms = np.asarray(missing, dtype=np.int64)
            self._adj.update(self.graph.neighbors(ms).rows())
        return [self._adj[int(v)] for v in vertices.tolist()]

    def _propagate(self, labels, frontier: Set[int]) -> int:
        """Min-label flooding restricted to ``frontier``'s reach."""
        rounds = 0
        while frontier and rounds < self.max_rounds:
            vs = np.asarray(sorted(frontier), dtype=np.int64)
            own = labels.pull(vs)
            nbrs = self._neighbors(vs)
            lens = np.asarray([len(t) for t in nbrs], dtype=np.int64)
            frontier = set()
            if lens.sum() == 0:
                break
            flat = np.concatenate([t for t in nbrs if len(t)])
            nlab = labels.pull(flat)
            # Smallest neighbor label per non-empty row, in one pass: the
            # rows lie end to end, so each starts where the last ended.
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

    def _repair_removal(self, u: int, w: int, gone: Set[int],
                        verified: Set[int],
                        conn: Dict[Tuple[int, int],
                                   Tuple[bool, Set[int]]] | None = None
                        ) -> int:
        """Re-check one removed edge's component; returns 1 if repaired."""
        endpoints = [v for v in (u, w) if v not in gone]
        if not endpoints:
            return 0
        if len(endpoints) == 1:
            # One endpoint vanished: the survivor's component may have
            # split off or carry the gone vertex's id as a stale label;
            # one full sweep re-anchors it (skipped if already swept).
            v = endpoints[0]
            if v in verified:
                return 0
            comp = self._component(v)
            verified |= comp
            return self._relabel_if_stale(comp)
        if u in verified and w in verified:
            return 0
        lu = self._labels_cache[u]
        lw = self._labels_cache[w]
        if lu != lw:
            return 0  # already in different components
        # Cheap pre-check on the warmed memo: a surviving reverse edge
        # or a shared neighbor proves connectivity with no PS traffic.
        nu = set(self._adj[u].tolist())
        nw = set(self._adj[w].tolist())
        if w in nu or u in nw or (nu & nw):
            met, small = True, set()
        else:
            hit = None if conn is None else conn.get((u, w))
            met, small = (hit if hit is not None
                          else self._bidir_check(u, w))
        if met:
            # Still connected.  The shared label stays valid unless the
            # label vertex itself vanished this window.
            if lu not in gone:
                return 0
            comp = self._component(u)
            verified |= comp
            return self._relabel_if_stale(comp)
        # Genuine split; ``small`` is the exhausted side's full member
        # set — the cheap side, by construction of the alternating search.
        self._relabel(small)
        verified |= small
        other = w if w not in small else u
        if lu in gone or lu in small:
            # The big side lost its minimum; re-anchor it too.
            comp = self._component(other)
            verified |= comp
            self._relabel_if_stale(comp)
        return 1

    def _batch_connectivity(
        self, pairs: List[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], Tuple[bool, Set[int]]]:
        """Run many pair connectivity searches level-synchronously.

        Each pair runs the same alternating bidirectional search as
        :meth:`_bidir_check`, but all searches advance one level per
        iteration and the union of their frontier neighborhoods is
        prefetched into the memo with a single group call — PS rounds
        scale with the deepest search, not the number of pairs.
        """
        state: Dict[Tuple[int, int],
                    Tuple[Set[int], List[int], Set[int], List[int]]] = {}
        for u, w in pairs:
            state[(u, w)] = ({u}, [u], {w}, [w])
        out: Dict[Tuple[int, int], Tuple[bool, Set[int]]] = {}
        while state:
            need: Set[int] = set()
            for su, fu, sw, fw in state.values():
                need.update(fu if len(su) <= len(sw) else fw)
            missing = sorted(need - self._adj.keys())
            if missing:
                self._neighbors(np.asarray(missing, dtype=np.int64))
            for p in sorted(state):
                su, fu, sw, fw = state[p]
                if len(su) <= len(sw):
                    fu, met = self._expand(fu, su, sw)
                else:
                    fw, met = self._expand(fw, sw, su)
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

    def _bidir_check(self, u: int, w: int) -> Tuple[bool, Set[int]]:
        """Are ``u`` and ``w`` still connected?  Alternating expansion
        from both ends, always growing the smaller reach; returns
        ``(True, {})`` on contact or ``(False, members)`` with the
        exhausted side's full component when the edge removal split it.
        """
        seen_u: Set[int] = {u}
        seen_w: Set[int] = {w}
        fr_u: List[int] = [u]
        fr_w: List[int] = [w]
        while fr_u and fr_w:
            if len(seen_u) <= len(seen_w):
                fr_u, met = self._expand(fr_u, seen_u, seen_w)
            else:
                fr_w, met = self._expand(fr_w, seen_w, seen_u)
            if met:
                return True, set()
        return False, seen_u if not fr_u else seen_w

    def _expand(self, frontier: List[int], seen: Set[int],
                other_seen: Set[int]) -> Tuple[List[int], bool]:
        """One BFS level; reports contact with the opposite side."""
        vs = np.asarray(sorted(frontier), dtype=np.int64)
        nbrs = self._neighbors(vs)
        nxt: Set[int] = set()
        for t in nbrs:
            nxt.update(t.tolist())
        if nxt & other_seen:
            return [], True
        nxt -= seen
        seen |= nxt
        return sorted(nxt), False

    def _component(self, start: int) -> Set[int]:
        """Full membership of ``start``'s component (batched BFS)."""
        seen: Set[int] = {start}
        frontier = [start]
        while frontier:
            frontier, _ = self._expand(frontier, seen, set())
        return seen

    def _relabel(self, members: Set[int]) -> int:
        """Label a component by its minimum member id."""
        if not members:
            return 0
        ids = np.asarray(sorted(members), dtype=np.int64)
        want = float(ids[0])
        self.labels.set(ids, np.full(len(ids), want))
        for v in ids.tolist():
            if v in self._labels_cache:
                self._labels_cache[v] = want
        return 1

    def _relabel_if_stale(self, members: Set[int]) -> int:
        """Re-anchor a component on its minimum; no-op when already so."""
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
