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

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.batch import (
    distinct_ids,
    in_sorted,
    pair_keys,
    sorted_unique,
    unique_pairs,
)
from repro.core.blocks import intersect_counts
from repro.streaming.graph import RowMemo


def _contains(ids: np.ndarray, value: float) -> bool:
    """Whether sorted ``ids`` hold ``value`` (a vertex id or a label)."""
    return bool(in_sorted(ids, np.array([value]))[0])


class IncrementalComponents:
    """PS-resident component labels kept fresh across mutation windows.

    Args:
        graph: the live :class:`~repro.streaming.graph.StreamingGraph`.
    """

    #: PS vector name for the label state.
    vector_name = "stream.cc"
    #: Propagation-round budget per refresh.
    max_rounds = 200

    def __init__(self, graph) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.labels = self.psctx.create_vector(
            self.vector_name, graph.num_vertices, init=-1.0
        )
        self._scratch_seq = 0
        # Per-refresh adjacency memo: the graph is static between
        # :meth:`update` calls, so every vertex's neighborhood is pulled
        # at most once per refresh regardless of how many BFS levels or
        # pair checks revisit it.
        self._adj = self._memo()
        # Driver-side view, by vertex id, of the labels of the removed
        # edges' endpoints during one repair pass (kept consistent by
        # :meth:`_relabel` / :meth:`_relabel_if_stale`).
        self._labels_cache = np.full(graph.num_vertices, -1.0)

    def _memo(self) -> RowMemo:
        return RowMemo(self.graph.num_vertices, self.graph.neighbors)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Full labeling from scratch (first window)."""
        self._adj = self._memo()
        present = self.graph.present_vertices()
        if len(present):
            self.labels.set(present, present.astype(np.float64))
        rounds = self._propagate(self.labels, present)
        return {"rounds": float(rounds)}

    def update(self, delta) -> Dict[str, float]:
        """Repair labels for one window's delta."""
        self._adj = self._memo()
        rounds = 0
        repairs = 0
        if len(delta.became_present):
            self.labels.set(
                delta.became_present,
                delta.became_present.astype(np.float64),
            )
        gone = sorted_unique(np.concatenate([delta.became_absent,
                                             delta.dropped]))
        if len(gone):
            self.labels.set(gone, np.full(len(gone), -1.0))
        is_gone = np.zeros(self.graph.num_vertices, dtype=bool)
        is_gone[gone] = True

        # Removals first: every removed edge whose endpoints shared a
        # label may have split a component (or orphaned its old label).
        # ``verified`` dedupes work inside the window: once a full BFS
        # has re-anchored a component, later pairs touching it are free.
        if delta.num_removed:
            verified = np.zeros(self.graph.num_vertices, dtype=bool)
            us, ws = unique_pairs(delta.removed_src, delta.removed_dst)
            # Warm the adjacency memo and label cache for every endpoint
            # in one group call each; most pairs then resolve without
            # further PS traffic (reverse edge or shared neighbor).
            ends = sorted_unique(np.concatenate([us, ws]))
            ends = ends[~is_gone[ends]]
            if len(ends):
                self._adj.rows(ends)
                self._labels_cache[ends] = self.labels.pull(ends)
            both = ~(is_gone[us] | is_gone[ws])
            touching = np.zeros(len(us), dtype=bool)
            if both.any():
                touching[both] = self._touching(us[both], ws[both])
            # Pairs the pre-filter can't decide need a real search; run
            # them *together*, level-synchronously, so each BFS level
            # costs one shared adjacency fetch across all pairs instead
            # of one per pair.
            undecided = both & ~touching
            undecided[both] &= (self._labels_cache[us[both]]
                                == self._labels_cache[ws[both]])
            conn = self._searches(us[undecided], ws[undecided])
            for u, w, near in zip(us.tolist(), ws.tolist(),
                                  touching.tolist()):
                repairs += self._repair_removal(u, w, near, gone, is_gone,
                                                verified, conn)

        # Adds second: flood the smaller label through merged components.
        if delta.num_added:
            frontier = sorted_unique(np.concatenate(
                [delta.added_src, delta.added_dst]))
            rounds = self._propagate(self.labels,
                                     frontier[~is_gone[frontier]])
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
        return len(sorted_unique(labels))

    def full_recompute(self) -> Tuple[np.ndarray, np.ndarray]:
        """From-scratch labeling on scratch PS state (cost yardstick)."""
        self._adj = self._memo()  # a cold run pays its own adjacency pulls
        self._scratch_seq += 1
        name = f"{self.labels.name}.full{self._scratch_seq}"
        scratch = self.psctx.create_vector(
            name, self.graph.num_vertices, init=-1.0
        )
        present = self.graph.present_vertices()
        if len(present):
            scratch.set(present, present.astype(np.float64))
        self._propagate(scratch, present)
        labels = (scratch.pull(present).astype(np.int64) if len(present)
                  else np.empty(0, dtype=np.int64))
        self.psctx.drop_matrix(name)
        return present, labels

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _touching(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Per pair of memoized endpoints: adjacent, or sharing a
        neighbor — connected whatever else the window removed."""
        rows = self._adj.rows(sorted_unique(np.concatenate([us, ws])))
        left = np.searchsorted(rows.vertices, us)
        right = np.searchsorted(rows.vertices, ws)
        radix = int(max(rows.neighbors.max(initial=-1), us.max(),
                        ws.max())) + 1
        keys = rows.row_keys(radix)
        adjacent = (in_sorted(keys, left * radix + ws)
                    | in_sorted(keys, right * radix + us))
        return adjacent | (intersect_counts(rows, left, right)[0] > 0)

    def _propagate(self, labels, frontier: np.ndarray) -> int:
        """Min-label flooding restricted to the reach of ``frontier``
        (sorted, distinct)."""
        rounds = 0
        while len(frontier) and rounds < self.max_rounds:
            vs = frontier
            own = labels.pull(vs)
            nbrs = self._adj.rows(vs)
            lens = nbrs.degrees()
            frontier = frontier[:0]
            if lens.sum() == 0:
                break
            flat = nbrs.neighbors
            # Each neighbor's label, pulled once per distinct neighbor —
            # the request the PS agent would dedupe ``flat`` into.
            ids = distinct_ids(flat, self.graph.num_vertices)
            known = np.empty(self.graph.num_vertices)
            known[ids] = labels.pull(ids)
            nlab = known[flat]
            # Smallest neighbor label per non-empty row, in one pass: the
            # rows lie end to end, so each starts where the last ended.
            rows = np.flatnonzero(lens)
            lowest = np.minimum.reduceat(nlab, nbrs.indptr[rows])
            lower = lowest < own[rows]
            if lower.any():
                changed = np.zeros(len(vs), dtype=bool)
                changed[rows[lower]] = True
                labels.set(vs[changed], lowest[lower])
                frontier = distinct_ids(flat[np.repeat(changed, lens)],
                                        self.graph.num_vertices)
            rounds += 1
            self.psctx.barrier()
        return rounds

    def _repair_removal(self, u: int, w: int, near: bool, gone: np.ndarray,
                        is_gone: np.ndarray, verified: np.ndarray,
                        conn: Dict[Tuple[int, int],
                                   Tuple[bool, Optional[np.ndarray]]]
                        ) -> int:
        """Re-check one removed edge's component; returns 1 if repaired.
        ``near``: the endpoints are adjacent or share a neighbor."""
        endpoints = [v for v in (u, w) if not is_gone[v]]
        if not endpoints:
            return 0
        if len(endpoints) == 1:
            # One endpoint vanished: the survivor's component may have
            # split off or carry the gone vertex's id as a stale label;
            # one full sweep re-anchors it (skipped if already swept).
            v = endpoints[0]
            if verified[v]:
                return 0
            comp = self._component(v)
            verified[comp] = True
            return self._relabel_if_stale(comp)
        if verified[u] and verified[w]:
            return 0
        lu = self._labels_cache[u]
        lw = self._labels_cache[w]
        if lu != lw:
            return 0  # already in different components
        # A surviving reverse edge or a shared neighbor proves
        # connectivity with no PS traffic.
        if near:
            met, small = True, None
        else:
            hit = conn.get((u, w))
            met, small = (hit if hit is not None else self._searches(
                np.array([u]), np.array([w]))[(u, w)])
        if met:
            # Still connected.  The shared label stays valid unless the
            # label vertex itself vanished this window.
            if not _contains(gone, lu):
                return 0
            comp = self._component(u)
            verified[comp] = True
            return self._relabel_if_stale(comp)
        # Genuine split; ``small`` is the exhausted side's full member
        # set — the cheap side, by construction of the alternating search.
        self._relabel(small)
        verified[small] = True
        other = u if _contains(small, w) else w
        if _contains(gone, lu) or _contains(small, lu):
            # The big side lost its minimum; re-anchor it too.
            comp = self._component(other)
            verified[comp] = True
            self._relabel_if_stale(comp)
        return 1

    def _searches(self, us: np.ndarray, ws: np.ndarray
                  ) -> Dict[Tuple[int, int], Tuple[bool, Optional[np.ndarray]]]:
        """Are ``us[i]`` and ``ws[i]`` still connected, for every i?

        Each pair runs an alternating bidirectional search — every level
        grows the side with the smaller reach — and all searches advance
        one level per iteration, the union of their growing frontiers'
        neighborhoods fetched into the memo with a single group call:
        PS rounds scale with the deepest search, not the number of
        pairs.  Returns ``(True, None)`` per pair on contact, or
        ``(False, members)`` with the exhausted side's full component
        (sorted) when the edge removal split it.

        Side ``2i`` searches from ``us[i]`` and side ``2i + 1`` from
        ``ws[i]``; what a side has seen and its frontier are sorted keys
        ``side * n + vertex``, all searches in one array each.
        """
        n = self.graph.num_vertices
        pairs = np.arange(len(us))
        seen = pair_keys(n, np.arange(2 * len(us)),
                         np.stack([us, ws], axis=1).reshape(-1))
        front = seen
        out: Dict[Tuple[int, int], Tuple[bool, Optional[np.ndarray]]] = {}
        while len(pairs):
            size = np.bincount(seen // n, minlength=2 * len(us))
            grow = 2 * pairs + (size[2 * pairs] > size[2 * pairs + 1])
            growing = in_sorted(grow, front // n)
            picked = front[growing]
            rows = self._adj.rows(picked % n)
            nxt = sorted_unique(pair_keys(
                n, np.repeat(picked // n, rows.degrees()), rows.neighbors))
            # Contact: a vertex reached that the opposite side has seen.
            opposite = nxt + np.where(nxt // n % 2 == 0, n, -n)
            met = sorted_unique(nxt[in_sorted(seen, opposite)] // n // 2)
            fresh = nxt[~in_sorted(seen, nxt)
                        & ~in_sorted(met, nxt // n // 2)]
            seen = np.sort(np.concatenate([seen, fresh]))
            front = np.sort(np.concatenate([front[~growing], fresh]))
            going = sorted_unique(fresh // n // 2)
            ended = ~in_sorted(going, pairs)
            for i, g, hit in zip(pairs[ended].tolist(), grow[ended].tolist(),
                                 in_sorted(met, pairs[ended]).tolist()):
                if hit:
                    out[(int(us[i]), int(ws[i]))] = (True, None)
                else:  # side g exhausted: its seen set is the component
                    lo, hi = np.searchsorted(seen, [g * n, (g + 1) * n])
                    out[(int(us[i]), int(ws[i]))] = (False,
                                                     seen[lo:hi] - g * n)
            pairs = going
            seen = seen[in_sorted(pairs, seen // n // 2)]
            front = front[in_sorted(pairs, front // n // 2)]
        return out

    def _component(self, start: int) -> np.ndarray:
        """Full membership of ``start``'s component (batched BFS),
        sorted."""
        seen = np.zeros(self.graph.num_vertices, dtype=bool)
        seen[start] = True
        frontier = np.array([start])
        while len(frontier):
            nxt = sorted_unique(self._adj.rows(frontier).neighbors)
            frontier = nxt[~seen[nxt]]
            seen[frontier] = True
        return np.flatnonzero(seen)

    def _relabel(self, members: np.ndarray) -> int:
        """Label a component (sorted ids) by its minimum member id."""
        if not len(members):
            return 0
        want = float(members[0])
        self.labels.set(members, np.full(len(members), want))
        self._labels_cache[members] = want
        return 1

    def _relabel_if_stale(self, members: np.ndarray) -> int:
        """Re-anchor a component (sorted ids) on its minimum; no-op when
        already so."""
        if not len(members):
            return 0
        current = self.labels.pull(members)
        want = float(members[0])
        self._labels_cache[members] = want
        if (current == want).all():
            return 0
        self.labels.set(members, np.full(len(members), want))
        return 1
