"""Server-side storage structures of the parameter server.

"PS supports different data structures, e.g., sparse/dense vector,
sparse/dense matrix, CSR, vertex (with property), and neighbor table"
(Sec. III-A).  Each class here backs the partitions of one PS matrix on one
server:

* :class:`DenseRowStore` — dense rows for the keys a partition owns
  (vectors and row-partitioned matrices: PageRank state, K-core estimates,
  GraphSage features).
* :class:`SparseRowStore` — rows materialized on first touch (vertex
  properties over a huge sparse id space).
* :class:`ColumnShardStore` — a column slice of *all* rows (column-
  partitioned embeddings for LINE, GNN weight matrices), enabling
  server-side partial dot products.
* :class:`NeighborTableStore` — the adjacency rows of a partition's
  vertices as one CSR triple, read and written in whole blocks; the
  table's :class:`NeighborTableView` is every partition's rows as one CSR.

Every store reports ``nbytes`` so the owning server can charge its memory
grant, and supports ``snapshot``/``restore`` for HDFS checkpoints.  A dense
matrix is one :class:`DenseRowStore` laid out partition-major, a column-
sharded one a :class:`ColumnShardMatrix` laid out shard-major; partitions
are views of them (``part``), and a restore copies into the view.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.common.batch import (
    flat_row_index,
    gather_segments,
    pair_keys,
    scatter_add_rows,
    unique_pairs,
)
from repro.common.errors import PSError


class Store:
    """Interface shared by all server-side stores."""

    @property
    def nbytes(self) -> int:
        """Logical bytes currently held."""
        raise NotImplementedError

    def snapshot(self) -> object:
        """Picklable deep snapshot for checkpointing."""
        raise NotImplementedError

    def restore(self, state: object) -> None:
        """Restore from a snapshot produced by :meth:`snapshot`."""
        raise NotImplementedError


class DenseRowStore(Store):
    """Dense rows for an explicit set of distinct keys.

    Args:
        keys: the global key of each row.
        cols: row width (1 for vectors).
        dtype: element type.
        init: initial fill value.
    """

    def __init__(self, keys: np.ndarray, cols: int = 1,
                 dtype: np.dtype = np.float64, init: float = 0.0) -> None:
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        self.cols = cols
        self.array = np.full((len(self.keys), cols), init, dtype=dtype)
        #: ``_slot[key] - _base`` is the row of ``key``, whatever the key
        #: set; -1 marks a foreign key, the last entry any key past the end.
        #: Keys 0..n-1 (a range-partitioned matrix) need no table: ``None``,
        #: and ``key - _base`` is the row.
        self._slot = None
        rows = np.arange(len(self.keys))
        if not np.array_equal(self.keys, rows):
            self._slot = np.full(int(self.keys.max(initial=-1)) + 2, -1,
                                 dtype=np.int64)
            self._slot[self.keys] = rows
        self._base = 0

    def part(self, start: int, stop: int) -> "DenseRowStore":
        """Rows ``start:stop`` as a store of their own (views, nothing
        copied): a matrix is one store, a partition a run of it."""
        part = copy.copy(self)
        part.keys = self.keys[start:stop]
        part.array = self.array[start:stop]
        part._base = self._base + start
        return part

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        n = len(self.keys)
        if self._slot is None:
            idx = keys - self._base if self._base else keys
            # (one unsigned max: a negative row reads as one past the end)
            if not len(idx) or np.asarray(idx, dtype=np.int64).view(
                    np.uint64).max() < n:
                return idx
            bad = (idx < 0) | (idx >= n)
        else:
            idx = self._slot.take(keys, mode="clip")
            idx -= self._base
            bad = (idx < 0) | (idx >= n) | (keys < 0)
            if not bad.any():
                return idx
        raise PSError(f"keys not in partition: {keys[bad][:5]}...")

    def get_rows(self, keys: np.ndarray,
                 col: int | None = None) -> np.ndarray:
        """Rows for ``keys``; a single column when ``col`` is given."""
        idx = self._locate(keys)
        if col is None:
            return self.array.take(idx, axis=0)
        return self.array.reshape(-1).take(
            flat_row_index(idx, self.cols, col))

    def inc_rows(self, keys: np.ndarray, deltas: np.ndarray,
                 col: int | None = None) -> None:
        """Add ``deltas`` into the rows for ``keys`` (duplicates allowed)."""
        scatter_add_rows(self.array, self._locate(keys), deltas, col)

    def set_rows(self, keys: np.ndarray, values: np.ndarray,
                 col: int | None = None) -> None:
        """Overwrite rows for ``keys``."""
        idx = self._locate(keys)
        if col is None:
            self.array[idx] = values
        else:
            self.array[idx, col] = values

    def layout(self, full: np.ndarray) -> np.ndarray:
        """A full ``(rows, cols)`` array in this store's row order."""
        return full.take(self.keys, axis=0)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes + self.keys.nbytes)

    def snapshot(self) -> object:
        return {"keys": self.keys.copy(), "array": self.array.copy()}

    def restore(self, state: object) -> None:
        # Copied into place: a partition is a view of its matrix's array.
        self.array[...] = state["array"]


class SparseRowStore(Store):
    """Rows materialized on first write; reads of untouched rows are zero."""

    def __init__(self, cols: int = 1, dtype: np.dtype = np.float64) -> None:
        self.cols = cols
        self.dtype = np.dtype(dtype)
        self.rows: Dict[int, np.ndarray] = {}

    def get_rows(self, keys: np.ndarray,
                 col: int | None = None) -> np.ndarray:
        out = np.zeros((len(keys), self.cols), dtype=self.dtype)
        for i, k in enumerate(keys.tolist()):
            row = self.rows.get(k)
            if row is not None:
                out[i] = row
        if col is None:
            return out
        return out[:, col]

    def _row(self, key: int) -> np.ndarray:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = np.zeros(self.cols, dtype=self.dtype)
        return row

    def inc_rows(self, keys: np.ndarray, deltas: np.ndarray,
                 col: int | None = None) -> None:
        where = slice(None) if col is None else col
        for k, delta in zip(keys.tolist(), np.atleast_1d(deltas)):
            self._row(k)[where] += delta

    def set_rows(self, keys: np.ndarray, values: np.ndarray,
                 col: int | None = None) -> None:
        where = slice(None) if col is None else col
        for k, value in zip(keys.tolist(), np.atleast_1d(values)):
            self._row(k)[where] = value

    @property
    def nbytes(self) -> int:
        return len(self.rows) * (8 + self.cols * self.dtype.itemsize)

    def snapshot(self) -> object:
        return {k: v.copy() for k, v in self.rows.items()}

    def restore(self, state: object) -> None:
        self.rows = {k: v.copy() for k, v in state.items()}


class ColumnShardStore(Store):
    """A column slice of every row (axis=1 partitioning).

    The paper's LINE implementation "partitions the embedding vectors and
    context vectors by column ... so that we can calculate partial dot
    products on PS and merge them on the executor" (Sec. IV-D).  A shard
    holds columns ``col_keys`` for all ``rows`` rows.
    """

    def __init__(self, rows: int, col_keys: np.ndarray,
                 dtype: np.dtype = np.float32, init: float = 0.0) -> None:
        self.rows = rows
        self.col_keys = np.ascontiguousarray(col_keys, dtype=np.int64)
        self.array = np.full((rows, len(self.col_keys)), init, dtype=dtype)

    def get_row_slices(self, row_keys: np.ndarray) -> np.ndarray:
        """The local column slice of the requested rows."""
        return self.array.take(row_keys, axis=0)

    def inc_row_slices(self, row_keys: np.ndarray,
                       deltas: np.ndarray) -> None:
        """Add into the local slice of the requested rows."""
        scatter_add_rows(self.array, row_keys, deltas)

    def set_row_slices(self, row_keys: np.ndarray,
                       values: np.ndarray) -> None:
        """Overwrite the local slice of the requested rows."""
        self.array[row_keys] = values

    def partial_dot(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Partial dot products ``sum_c A[left, c] * A[right, c]`` per pair."""
        return np.einsum(
            "ij,ij->i", self.array.take(left, axis=0),
            self.array.take(right, axis=0),
        ).astype(np.float64)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes + self.col_keys.nbytes)

    def snapshot(self) -> object:
        return {"col_keys": self.col_keys.copy(), "array": self.array.copy()}

    def restore(self, state: object) -> None:
        # Copied into place: a shard is a view of its matrix's array.
        self.array[...] = state["array"]


class ColumnShardMatrix:
    """A column-sharded matrix as one shard-major array: shard ``p`` —
    columns ``bounds[p]:bounds[p + 1]`` of every row — is a contiguous
    ``rows x width`` block right after shard ``p - 1``'s, its server's
    :class:`ColumnShardStore` a view of it (:meth:`part`).  Range shards
    come in two widths at most, the wider first, so a full-row gather or
    scatter over shards ``lo..hi-1`` is one strided copy per width."""

    def __init__(self, rows: int, bounds: List[int],
                 dtype: np.dtype) -> None:
        self.rows, self.bounds = rows, bounds
        self.array = np.zeros(rows * bounds[-1], dtype=dtype)
        widths = np.diff(bounds)
        wide = int(np.count_nonzero(widths > widths[-1]))
        self._spans = [(0, wide), (wide, len(widths))]

    def part(self, start: int, stop: int) -> ColumnShardStore:
        """Columns ``start:stop`` — one shard — as a store of their own."""
        shard = ColumnShardStore.__new__(ColumnShardStore)
        shard.rows, shard.col_keys = self.rows, np.arange(start, stop)
        shard.array = self.array[self.rows * start:self.rows * stop].reshape(
            self.rows, stop - start)
        return shard

    def _runs(self, flat: np.ndarray, lo: int, hi: int):
        """``(columns, rows x shards x width view)`` of ``flat``, an array
        in this layout, per run of equal-width shards among ``lo..hi-1``."""
        for a, b in self._spans:
            a, b = max(a, lo), min(b, hi)
            if a < b:
                c0, c1 = self.bounds[a], self.bounds[b]
                yield slice(c0, c1), flat[self.rows * c0:self.rows * c1] \
                    .reshape(b - a, self.rows, (c1 - c0) // (b - a)) \
                    .transpose(1, 0, 2)

    def get_rows(self, keys: np.ndarray, out: np.ndarray,
                 lo: int, hi: int) -> None:
        """Rows ``keys`` of shards ``lo..hi-1`` into their ``out`` columns."""
        for cols, view in self._runs(self.array, lo, hi):
            out[:, cols] = view[keys].reshape(len(keys),
                                              cols.stop - cols.start)

    def set_rows(self, keys: np.ndarray, values: np.ndarray,
                 lo: int, hi: int) -> None:
        """Overwrite rows ``keys`` of shards ``lo..hi-1`` from ``values``."""
        for cols, view in self._runs(self.array, lo, hi):
            view[keys] = values[:, cols].reshape((len(keys),) + view.shape[1:])

    def inc_rows(self, keys: np.ndarray, values: np.ndarray,
                 lo: int, hi: int) -> None:
        """Add ``values`` to rows ``keys`` of shards ``lo..hi-1``, in order."""
        for cols, view in self._runs(self.array, lo, hi):
            shards, width = view.shape[1:]
            scatter_add_rows(
                view.transpose(1, 0, 2).reshape(-1, width),
                np.add.outer(keys, self.rows * np.arange(shards)).reshape(-1),
                values[:, cols].reshape(-1, width))

    def layout(self, full: np.ndarray) -> np.ndarray:
        """A full ``(rows, cols)`` array in this layout."""
        flat = np.empty(self.array.shape, dtype=full.dtype)
        for cols, view in self._runs(flat, 0, len(self.bounds) - 1):
            view[...] = full[:, cols].reshape(view.shape)
        return flat


class NeighborTableStore(Store):
    """Adjacency rows keyed by vertex, held as one CSR triple.

    "If the algorithm needs to get the adjacent vertices of a vertex
    frequently, the neighbor tables are stored on the PS" (Sec. III-A).

    ``vertices`` (ascending, every one with at least one neighbor),
    ``indptr`` and ``indices`` (ascending and duplicate-free within a
    row) are the only form a table has — in memory, on the wire and in a
    checkpoint.  Every operation takes and returns whole blocks.  Appends
    are only queued; the queue is folded in with one sort at
    :meth:`compact` or by the first operation that needs the rows, so a
    bulk build (many small pushes, then ``compact``) sorts once.
    """

    def __init__(self, view: "Optional[NeighborTableView]" = None) -> None:
        self._vertices = np.empty(0, dtype=np.int64)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)
        #: Queued appends as (source-per-entry, neighbor) array pairs.
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._pending_nbytes = 0
        #: The table's read view; every change of the rows drops it.
        self._view = view or NeighborTableView(0, lambda pid: None)

    def _sources(self) -> np.ndarray:
        return np.repeat(self._vertices, np.diff(self._indptr))

    def _set_pairs(self, sources: np.ndarray, neighbors: np.ndarray) -> None:
        """Install ``(source, neighbor)`` pairs already in key order."""
        first = np.ones(len(sources), dtype=bool)
        first[1:] = sources[1:] != sources[:-1]
        starts = np.flatnonzero(first)
        self._vertices = sources[starts]
        self._indptr = np.append(starts, len(sources))
        self._indices = neighbors
        self._view.drop()

    def _merge_pending(self) -> None:
        if not self._pending:
            return
        sources = np.concatenate(
            [self._sources()] + [s for s, _n in self._pending])
        neighbors = np.concatenate(
            [self._indices] + [n for _s, n in self._pending])
        self._pending = []
        self._pending_nbytes = 0
        self._set_pairs(*unique_pairs(sources, neighbors))

    def append_neighbors(self, vertices: np.ndarray, indptr: np.ndarray,
                         indices: np.ndarray) -> None:
        """Merge the block's rows into the tables (set union per vertex)."""
        if len(indices):
            self._pending.append(
                (np.repeat(vertices, np.diff(indptr)), indices)
            )
            self._pending_nbytes += int(vertices.nbytes + indices.nbytes)
            self._view.drop()

    def compact(self) -> None:
        """Fold queued appends into the CSR arrays now (the server's
        ``compact`` request; the other operations fold on their own)."""
        self._merge_pending()

    def remove_neighbors(self, vertices: np.ndarray, indptr: np.ndarray,
                         indices: np.ndarray) -> None:
        """Subtract the block's rows from the tables.

        Removing absent neighbors is a no-op (set semantics, mirroring
        the union of :meth:`append_neighbors`); a row emptied by the
        removal is deleted entirely.
        """
        self._merge_pending()
        if not len(indices) or not len(self._indices):
            return
        radix = int(max(indices.max(), self._indices.max())) + 1
        sources = self._sources()
        # The table's pair keys ascend (rows by vertex, each row sorted):
        # a removed pair is one search among them.
        table = pair_keys(radix, sources, self._indices)
        gone = pair_keys(radix, np.repeat(vertices, np.diff(indptr)),
                         indices)
        pos = np.minimum(table.searchsorted(gone), len(table) - 1)
        keep = np.ones(len(table), dtype=bool)
        keep[pos[table[pos] == gone]] = False
        self._set_pairs(sources[keep], self._indices[keep])

    def drop_vertices(self, vertices: np.ndarray) -> None:
        """Delete the adjacency rows of ``vertices`` (if present)."""
        self._merge_pending()
        sources = self._sources()
        keep = ~np.isin(sources, vertices)
        self._set_pairs(sources[keep], self._indices[keep])

    def _find_rows(self, vertices: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, lens)`` of each requested row; absent means empty."""
        self._merge_pending()
        return _search_rows(self._vertices, self._indptr[:-1],
                            np.diff(self._indptr), vertices)

    def get_neighbors(self, vertices: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the rows of ``vertices``, aligned with
        the request: duplicates allowed, an absent vertex is an empty row."""
        starts, lens = self._find_rows(vertices)
        return gather_segments(self._indices, starts, lens)

    def num_vertices(self) -> int:
        """Number of vertices with a stored row."""
        self._merge_pending()
        return len(self._vertices)

    @property
    def nbytes(self) -> int:
        return int(self._vertices.nbytes + self._indptr.nbytes
                   + self._indices.nbytes) + self._pending_nbytes

    def snapshot(self) -> object:
        self._merge_pending()
        return {"csr": (self._vertices.copy(), self._indptr.copy(),
                        self._indices.copy())}

    def restore(self, state: object) -> None:
        self._vertices, self._indptr, self._indices = (
            a.copy() for a in state["csr"]
        )
        self._pending = []
        self._pending_nbytes = 0
        self._view.drop()


def _search_rows(verts: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                 vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lens)`` of the rows of ``vertices`` among the rows of the
    ascending ``verts``; a vertex without a row gets an empty one."""
    if not len(verts):
        empty = np.zeros(len(vertices), dtype=np.int64)
        return empty, empty
    pos = verts.searchsorted(vertices)
    np.minimum(pos, len(verts) - 1, out=pos)
    return starts.take(pos), lens.take(pos) * (verts.take(pos) == vertices)


class NeighborTableView:
    """The read side of a neighbor table: one CSR over every partition.

    The partitions' stores stay the write side and the source of truth;
    this is their rows laid end to end under one vertex-ordered index, so
    a read is one search and one gather for the whole request.  Built by
    the first read after a change, dropped by every change; 8 B per table
    entry while it lives.  ``part(pid)`` is partition ``pid``'s store,
    ``None`` while its server does not hold it.
    """

    def __init__(self, num_partitions: int,
                 part: Callable[[int], Optional[NeighborTableStore]]
                 ) -> None:
        self.num_partitions = num_partitions
        self._part = part
        self._csr: Optional[Tuple[np.ndarray, ...]] = None

    def drop(self) -> None:
        """Forget the rows (a partition's changed)."""
        self._csr = None

    def find(self, vertices: np.ndarray, touched: Iterable[int]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, lens, flat)``: the row of ``vertices[i]`` is
        ``flat[starts[i]:starts[i] + lens[i]]``.  The partitions
        ``touched`` — the owners of the vertices — fold their queued
        appends first, as their own read would."""
        for pid in touched:
            store = self._part(pid)
            if store is not None:
                store._merge_pending()
        if self._csr is None:
            # (an empty store first: a table may have no partition held)
            stores = [NeighborTableStore()] + [
                s for s in map(self._part, range(self.num_partitions))
                if s is not None]
            verts = np.concatenate([s._vertices for s in stores])
            lens = np.concatenate([np.diff(s._indptr) for s in stores])
            order = np.argsort(verts)
            self._csr = (verts[order], (np.cumsum(lens) - lens)[order],
                         lens[order],
                         np.concatenate([s._indices for s in stores]))
        return _search_rows(*self._csr[:3], vertices) + (self._csr[3],)
