"""Columnar edge / neighbor blocks — PSGraph's partition payloads.

PSGraph keeps graph data in RDDs whose elements are "edge or neighbor
table" (Sec. III-C).  For throughput the reproduction stores one columnar
block per partition: an :class:`EdgeBlock` (parallel src/dst[/weight]
arrays) or a :class:`NeighborBlock` (CSR neighbor table for the vertices
owned by the partition).  Both expose ``logical_nbytes`` so the memory and
shuffle meters see their true size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.common import parallel
from repro.common.batch import gather_segments, in_sorted, pair_keys
from repro.common.rng import choice_positions


@dataclass
class EdgeBlock:
    """A partition's edges as parallel arrays.

    Attributes:
        src: source vertex ids.
        dst: destination vertex ids.
        weight: optional edge weights (fast unfolding's weighted input).
    """

    src: np.ndarray
    dst: np.ndarray
    weight: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        """Edges in the block."""
        return len(self.src)

    @property
    def logical_nbytes(self) -> int:
        """Logical bytes (drives memory and shuffle metering)."""
        n = int(self.src.nbytes + self.dst.nbytes)
        if self.weight is not None:
            n += int(self.weight.nbytes)
        return n

    @classmethod
    def concat(cls, blocks: Sequence["EdgeBlock"]) -> "EdgeBlock":
        """The edges of ``blocks`` in order: the block itself when there
        is one."""
        if len(blocks) == 1:
            return blocks[0]
        weights = [b.weight for b in blocks]
        return cls(np.concatenate([b.src for b in blocks]),
                   np.concatenate([b.dst for b in blocks]),
                   None if weights[0] is None else np.concatenate(weights))

    def batches(self, batch_size: int) -> Iterator["EdgeBlock"]:
        """Yield consecutive sub-blocks of at most ``batch_size`` edges."""
        for start in range(0, self.num_edges, batch_size):
            sl = slice(start, start + batch_size)
            yield EdgeBlock(
                self.src[sl], self.dst[sl],
                self.weight[sl] if self.weight is not None else None,
            )


@dataclass
class NeighborBlock:
    """CSR neighbor tables for the vertices owned by one partition.

    ``neighbors[indptr[i]:indptr[i+1]]`` are the neighbors of
    ``vertices[i]`` (``weights`` aligned when present).
    """

    vertices: np.ndarray
    indptr: np.ndarray
    neighbors: np.ndarray
    weights: Optional[np.ndarray] = None

    #: Memo of :meth:`scatter_plan`; not a field (no part of equality,
    #: ``logical_nbytes`` or a pickled snapshot).
    _scatter_plan = None

    @property
    def num_vertices(self) -> int:
        """Vertices with at least one edge in this block."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Total adjacency entries in this block."""
        return len(self.neighbors)

    @property
    def logical_nbytes(self) -> int:
        """Logical bytes (drives memory and shuffle metering)."""
        n = int(self.vertices.nbytes + self.indptr.nbytes
                + self.neighbors.nbytes)
        if self.weights is not None:
            n += int(self.weights.nbytes)
        return n

    def degrees(self) -> np.ndarray:
        """Degree per owned vertex."""
        return np.diff(self.indptr)

    def scatter_plan(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, inverse)``: the distinct neighbors, ascending, and
        each adjacency entry's position among them — what scattering one
        value per entry onto its neighbor needs.  The block is immutable,
        so the sort runs once and the plan lives as long as the block (a
        cached partition keeps it, a lineage recompute derives it again).
        Host-side only: not part of :attr:`logical_nbytes`."""
        if self._scatter_plan is None:
            self._scatter_plan = np.unique(self.neighbors,
                                           return_inverse=True)
        return self._scatter_plan

    def rows(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Iterate ``(vertex, neighbor_array)`` pairs."""
        for i, v in enumerate(self.vertices.tolist()):
            yield v, self.neighbors[self.indptr[i]:self.indptr[i + 1]]

    def sources(self) -> np.ndarray:
        """Owning vertex of every adjacency entry (aligned with
        :attr:`neighbors`)."""
        return np.repeat(self.vertices, self.degrees())

    def row_keys(self, radix: int) -> np.ndarray:
        """``row position * radix + neighbor`` per adjacency entry: one
        integer per (row, neighbor) pair, ascending when rows are sorted.
        ``radix`` must exceed every neighbor id compared against."""
        keys = np.repeat(np.arange(self.num_vertices), self.degrees())
        keys *= radix
        keys += self.neighbors
        return keys

    def take(self, rows: np.ndarray) -> "NeighborBlock":
        """The rows at positions ``rows`` (any order, repeats allowed)."""
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        indptr, neighbors = gather_segments(self.neighbors, starts, lens)
        weights = (gather_segments(self.weights, starts, lens)[1]
                   if self.weights is not None else None)
        return NeighborBlock(self.vertices[rows], indptr, neighbors, weights)

    @classmethod
    def concat(cls, blocks: Sequence["NeighborBlock"]) -> "NeighborBlock":
        """All rows of the unweighted ``blocks`` (at least one), one block
        after the other."""
        indptr = np.zeros(sum(b.num_vertices for b in blocks) + 1,
                          dtype=np.int64)
        np.cumsum(np.concatenate([b.degrees() for b in blocks]),
                  out=indptr[1:])
        return cls(np.concatenate([b.vertices for b in blocks]), indptr,
                   np.concatenate([b.neighbors for b in blocks]))


def sample_neighbors(rng: np.random.Generator, vertices: np.ndarray,
                     starts: np.ndarray, degrees: np.ndarray,
                     neighbors: np.ndarray, k: int, replace: bool
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``k`` sampled neighbors of every row, from one draw kernel.

    Row ``i`` is ``neighbors[starts[i]:starts[i] + degrees[i]]`` and
    yields what ``rng.choice(row, k, replace=True)`` or ``rng.choice(row,
    min(k, len(row)), replace=False)`` yields, row after row from the same
    stream (:func:`repro.common.rng.choice_positions`).  An empty row
    samples from ``[vertices[i]]``, which draws nothing.  Returns
    ``(sampled ids, segment)``: the ids and the row each one belongs to.
    """
    segment, pos = choice_positions(rng, np.maximum(degrees, 1), k, replace)
    out = vertices[segment]
    full = degrees[segment] > 0
    out[full] = neighbors[starts[segment[full]] + pos[full]]
    return out, segment


def build_neighbor_block(targets: np.ndarray, others: np.ndarray,
                         weights: Optional[np.ndarray] = None,
                         dedupe: bool = False) -> NeighborBlock:
    """Group ``(target, other[, weight])`` tuples into a CSR block.

    Ids must be non-negative.  The pairs sort as one integer each
    (:func:`~repro.common.batch.pair_keys`); with weights the sort is
    stable, so equal pairs keep their input order.

    Args:
        dedupe: drop duplicate (target, other) pairs, keeping the first
            weight (used by common neighbor / triangle count which need
            set semantics).
    """
    if len(targets) == 0:
        empty = np.empty(0, dtype=np.int64)
        return NeighborBlock(
            empty, np.zeros(1, dtype=np.int64), empty,
            np.empty(0) if weights is not None else None,
        )
    radix = int(others.max()) + 1
    keys = pair_keys(radix, targets, others)
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
    if dedupe:
        keep = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        if weights is not None:
            weights = weights[keep]
    targets, others = np.divmod(keys, radix)
    first = np.ones(len(targets), dtype=bool)
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    indptr = np.append(starts, len(targets))
    return NeighborBlock(targets[starts], indptr, others, weights)


#: Fewest probes worth a chunk of their own.  On a 2-CPU x86 host a pool
#: submit + result of a no-op takes 30 µs, and the two threads also trade
#: the GIL between numpy calls: on 40 ``tg-psgraph`` calls cut to fewer
#: pairs, two chunks lost below ~9k probes a call (0.50 against 0.42 ms
#: at 4.8k) and won above ~10k (0.71 against 0.77 ms at 10.6k; 2.0
#: against 2.6 ms at 39k).  The full calls probe 46k-58k.
BREAK_EVEN = 8192


def intersect_counts(block: NeighborBlock, left: np.ndarray,
                     right: np.ndarray) -> Tuple[np.ndarray, int]:
    """``|row left[i] & row right[i]|`` for every pair of row positions.

    Rows must be sorted and duplicate-free (what the PS neighbor table
    returns).  The smaller row of each pair is expanded and probed, by one
    ``searchsorted``, against the block's ``row * radix + neighbor`` keys —
    ascending as they stand because rows are.  Also returns the galloping
    intersection's charge, ``2 * sum(min(deg_left, deg_right))``.

    The pairs are cut into contiguous chunks of about equal probe count,
    one per CPU with at least :data:`BREAK_EVEN` probes each, run by
    :func:`repro.common.parallel.map_chunks`.  Every count is one pair's
    and the charge is an integer sum, so the result is the one-chunk
    result for any cut.
    """
    deg = block.degrees()
    swap = deg[left] > deg[right]
    small = np.where(swap, right, left)
    large = np.where(swap, left, right)
    lens = deg[small]
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    radix = int(block.neighbors.max(initial=-1)) + 1
    keys = block.row_keys(radix)

    def count(bounds: Tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        part = lens[lo:hi]
        _indptr, probes = gather_segments(
            block.neighbors, block.indptr[small[lo:hi]], part
        )
        pair = np.repeat(np.arange(hi - lo), part)
        wanted = large[lo:hi][pair] * radix + probes
        return np.bincount(pair[in_sorted(keys, wanted)], minlength=hi - lo)

    chunks = max(1, min(parallel.WORKERS, total // BREAK_EVEN))
    cuts = np.searchsorted(ends, total * np.arange(1, chunks) // chunks)
    bounds = np.concatenate([[0], cuts, [len(lens)]]).tolist()
    counts = parallel.map_chunks(count, list(zip(bounds[:-1], bounds[1:])))
    return np.concatenate(counts), 2 * total
