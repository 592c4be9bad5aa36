"""Array kernels for the dataflow and PS hot paths.

The simulator's costs are *simulated*, but the host-side work of moving a
partition through shuffle bucketing, combining and metering is real
Python, and at a million records per partition the interpreter — not the
cost model — dominates wall-clock.  PSGraph itself makes the analogous
move on the JVM: "the PS agent pulls and pushes data in primitive arrays"
(Sec. III), and related systems (Tencent's Spark network-embedding
pipeline, GraphTheta) attribute their throughput to keeping partitions in
primitive arrays instead of boxed records.

Everything here works on whole columns: stable bucketing by partition id,
segment gathers and reductions, CSR-form ragged columns, scatter-adds on
numpy's contiguous fast paths.

**Cost transparency is the contract.**  A column is a host-side
representation only: whatever stands in for boxed records must charge the
*identical* simulated costs, logical bytes, metrics and span sequence as
the records it replaces (:func:`accumulate_sequential`,
:meth:`RaggedColumn.boxed_nbytes`, ``dataflow.shuffle.ColumnBlock``,
:class:`RowBatch`) —
the simulated distinction between boxed and primitive processing stays
where it always was, in the cost model's ``cpu_record_s`` vs
``cpu_primitive_record_s`` and the explicit JVM-overhead multipliers.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.common.errors import PSError
from repro.common.sizeof import sizeof_array_lists, sizeof_scalar_rows

#: numpy ufuncs :func:`segment_reduce` folds with, by op name.
COMBINE_UFUNCS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def accumulate_sequential(start: float, step: float, n: int) -> float:
    """Result of adding ``step`` to ``start`` ``n`` times, sequentially.

    ``ufunc.accumulate`` applies IEEE additions one by one (no pairwise
    regrouping), so this is *bitwise identical* to the boxed per-record
    ``cost += step`` loop while running at C speed — batched metering must
    not perturb even the last float bit of simulated time.
    """
    if n <= 0:
        return start
    arr = np.empty(n + 1, dtype=np.float64)
    arr[0] = start
    arr[1:] = step
    return float(np.add.accumulate(arr)[-1])


# ----------------------------------------------------------------------
# vectorized bucketing & segment reduction
# ----------------------------------------------------------------------


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending — what plain
    ``np.unique(values)`` returns, as one sort and a neighbour mask:
    numpy 2.4 sends plain ``np.unique`` down a hash path that is 20-40x
    slower on id arrays (``return_inverse`` / ``return_index`` calls do
    not take it and stay ``np.unique``)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def distinct_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """:func:`sorted_unique` of ids in ``[0, n)``, as int64, from one mask
    of the id space instead of a sort."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def pair_keys(radix: int, first: np.ndarray,
              second: np.ndarray) -> np.ndarray:
    """``first * radix + second``: one sortable integer per pair of
    non-negative ids (``radix`` above every ``second``).  A negative id
    would alias another pair's key, so it raises like an oversized one."""
    if len(first):
        if int(first.min()) < 0 or int(second.min()) < 0:
            raise PSError("negative vertex ids have no pair key")
        if int(first.max()) >= (2 ** 63 - radix) // radix:
            raise PSError("vertex ids too large for pair keys")
    return first.astype(np.int64, copy=False) * radix + second


def unique_pairs(first: np.ndarray, second: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(first, second)`` pairs of two non-negative id
    arrays in lexicographic order — the columns of ``np.unique(np.stack(
    [first, second], axis=1), axis=0)``, as one integer sort over
    :func:`pair_keys` instead of a sort of void-typed rows."""
    radix = int(second.max(initial=0)) + 1
    keys = sorted_unique(pair_keys(radix, first, second))
    return np.divmod(keys, radix)


def in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Which ``needles`` occur in the ascending ``haystack`` — what
    ``np.isin(needles, haystack)`` returns, as one ``searchsorted``: isin
    sorts both sides, through plain ``np.unique``'s hash path on numpy
    2.4 (see :func:`sorted_unique`)."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    pos = np.minimum(np.searchsorted(haystack, needles), len(haystack) - 1)
    return haystack[pos] == needles


def sorted_difference(values: np.ndarray,
                      ascending: np.ndarray) -> np.ndarray:
    """The distinct ``values`` not in ``ascending`` (sorted, distinct),
    ascending — what ``np.setdiff1d(values, ascending)`` returns, as
    :func:`sorted_unique` and :func:`in_sorted`: setdiff1d sorts through
    plain ``np.unique``'s hash path too."""
    distinct = sorted_unique(values)
    return distinct[~in_sorted(ascending, distinct)]


def strictly_increasing(values: np.ndarray) -> bool:
    """Whether a 1-D array is already what :func:`sorted_unique` would
    return — one comparison pass, so sorted distinct ids (a block's
    vertices, a cache-miss subset) skip the sort."""
    return bool((values[1:] > values[:-1]).all())


def partition_order(pids: np.ndarray, num_partitions: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by partition id: ``(order, offsets)`` from one stable
    argsort, for every partition — empty ones too.

    ``order[offsets[r]:offsets[r + 1]]`` are the rows a ``pids == r`` mask
    selects, in original row order.  ``pids`` are ints in
    ``[0, num_partitions)``.
    """
    if num_partitions <= np.iinfo(np.int16).max:
        # numpy sorts 16-bit keys with a radix sort: O(n), still stable.
        pids = pids.astype(np.int16)
    order = np.argsort(pids, kind="stable")
    offsets = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(np.bincount(pids, minlength=num_partitions), out=offsets[1:])
    return order, offsets


def segment_index(starts: np.ndarray, lens: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, flat)``: ``flat[indptr[i]:indptr[i + 1]]`` are the
    indices ``starts[i]:starts[i] + lens[i]`` (segments may repeat,
    overlap, come in any order, or be empty)."""
    indptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    flat = np.repeat(starts - indptr[:-1], lens)
    flat += np.arange(len(flat))
    return indptr, flat


def gather_segments(values: np.ndarray, starts: np.ndarray,
                    lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i]:starts[i] + lens[i]]`` for every i.

    The CSR row gather: returns ``(indptr, gathered)`` with segment i at
    ``gathered[indptr[i]:indptr[i + 1]]``.
    """
    indptr, flat = segment_index(starts, lens)
    return indptr, values.take(flat)


class RaggedColumn:
    """A column of variable-length rows in CSR form: row ``i`` is
    ``values[indptr[i]:indptr[i + 1]]``.

    What a vertex table's list-of-arrays attribute (GraphX neighbor sets)
    is held and shuffled as; :meth:`row_nbytes` lets the meters size it as
    the boxed list it stands in for.
    """

    __slots__ = ("indptr", "values")

    def __init__(self, indptr: np.ndarray, values: np.ndarray) -> None:
        self.indptr = indptr
        self.values = values

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_lens(self) -> np.ndarray:
        """Entries per row."""
        return self.indptr[1:] - self.indptr[:-1]

    def row_nbytes(self) -> np.ndarray:
        """Logical bytes of each row's array."""
        return self.row_lens() * self.values.itemsize

    def boxed_nbytes(self, order: np.ndarray | None = None) -> int:
        """``sizeof`` of the list of row arrays this column stands in
        for — listed in ``order`` when given (the estimate samples)."""
        nbytes = self.row_nbytes()
        return int(sizeof_array_lists(
            nbytes if order is None else nbytes[order],
            np.zeros(1, dtype=np.int64), np.array([len(self)]))[0])

    def take(self, rows: np.ndarray) -> "RaggedColumn":
        """The rows at positions ``rows`` (any order, repeats allowed)."""
        starts = self.indptr[rows]
        return RaggedColumn(*gather_segments(
            self.values, starts, self.indptr[rows + 1] - starts))

    def slice(self, start: int, stop: int) -> "RaggedColumn":
        """Rows ``start:stop`` (their values a view)."""
        indptr = self.indptr[start:stop + 1]
        return RaggedColumn(indptr - indptr[0],
                            self.values[indptr[0]:indptr[-1]])

    @classmethod
    def concat(cls, columns: Sequence["RaggedColumn"]) -> "RaggedColumn":
        """All rows of ``columns``, one column after the other."""
        indptr = np.zeros(sum(len(c) for c in columns) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([c.row_lens() for c in columns]),
                  out=indptr[1:])
        return cls(indptr, np.concatenate([c.values for c in columns]))


class RowBatch:
    """Rows held as equal-length numeric columns: one dataflow record that
    stands for ``len(self)`` boxed tuples.

    What a per-edge algorithm output (CommonNeighbor's ``(src, dst,
    common)``) is scored, metered, collected and saved as.  ``len``, int
    indexing and iteration give the row tuples of Python scalars the
    batch stands for, so they compare and ``repr`` as those tuples do; a
    slice is a batch of views.  The meters charge it as those tuples:
    :func:`~repro.dataflow.taskctx.metered` one record per row, and
    ``sizeof`` (:meth:`logical_nbytes`) the boxed list.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns: np.ndarray) -> None:
        if not columns:
            raise ValueError("a row batch needs at least one column")
        for c in columns:
            if c.ndim != 1 or c.dtype.kind not in "biuf":
                raise ValueError(
                    f"row batch columns are 1-D numeric arrays, got "
                    f"{c.dtype} of shape {c.shape}")
            if len(c) != len(columns[0]):
                raise ValueError("row batch columns differ in length")
        self.columns = columns

    @property
    def row_width(self) -> int:
        """Values per row (the number of columns)."""
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[tuple]:
        return zip(*(c.tolist() for c in self.columns))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return RowBatch(*(c[index] for c in self.columns))
        return tuple(c[index].item() for c in self.columns)

    def logical_nbytes(self) -> int:
        """``sizeof`` of the list of row tuples this batch stands for."""
        return sizeof_scalar_rows(len(self), self.row_width)

    @classmethod
    def concat(cls, batches: Sequence["RowBatch"]) -> "RowBatch":
        """All rows of ``batches``, one batch after the other (a copy)."""
        widths = {b.row_width for b in batches}
        if len(widths) != 1:
            raise ValueError(f"cannot concatenate row batches of widths "
                             f"{sorted(widths)}")
        return cls(*(np.concatenate(cols)
                     for cols in zip(*(b.columns for b in batches))))


def iter_rows(records: Iterable[Any]) -> Iterator[Any]:
    """``records`` one per row: a :class:`RowBatch` yields its row
    tuples, anything else passes as it is."""
    for record in records:
        if type(record) is RowBatch:
            yield from record
        else:
            yield record


def count_rows(records: Iterable[Any]) -> int:
    """Rows in ``records``: a :class:`RowBatch` counts its length, any
    other record one."""
    return sum(len(r) if type(r) is RowBatch else 1 for r in records)


def gather_rows(records: List[Any]) -> Any:
    """Records gathered at the driver as one row sequence: a single
    :class:`RowBatch` when every record is one, else a list with every
    batch expanded into its rows."""
    kinds = set(map(type, records))
    if RowBatch not in kinds:
        return records
    if len(kinds) == 1:
        return RowBatch.concat(records)
    return list(iter_rows(records))


def take_rows(column: Any, rows: np.ndarray) -> Any:
    """Rows ``rows`` of a column: a 1-D / 2-D array or a
    :class:`RaggedColumn`."""
    if isinstance(column, RaggedColumn):
        return column.take(rows)
    return column.take(rows, axis=0)


#: Most flat element indices a scatter builds or keeps at a time (2 MiB of
#: int64 scratch); a larger one runs block by block.
SCATTER_BLOCK = 1 << 18


def flat_row_index(rows: np.ndarray, cols: int,
                   col: int | None = None) -> np.ndarray:
    """Where rows ``rows`` of a C-contiguous ``(n, cols)`` array sit in its
    flat 1-D view: every element of each row, row after row — or, with
    ``col``, that one column's element per row."""
    if col is not None:
        # range() bounds-checks and normalises a negative column exactly
        # as ``array[:, col]`` would.
        col = range(cols)[col]
        return rows * cols + col if cols > 1 else rows
    if cols == 1:
        return rows
    return np.add.outer(rows * cols, np.arange(cols)).reshape(-1)


def scatter_add_flat(target: np.ndarray, flat: np.ndarray,
                     values: np.ndarray) -> None:
    """Add ``values`` into the elements of ``target`` at positions ``flat``
    of its flat view, in order (repeated positions add up).

    This is the ``ufunc.at`` form numpy has a fast loop for: 1-D target,
    1-D index, 1-D values (numpy >= 1.25; several times slower on
    a 2-D target).  ``values`` is never cast here: numpy adds a float64
    value into a float32 element in float64 and rounds once, which
    pre-casting would turn into two roundings.
    """
    if not target.flags.c_contiguous:
        # The flat view would be a copy, and the adds would be lost.
        raise ValueError("scatter target must be C-contiguous")
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def scatter_add_rows(target: np.ndarray, rows: np.ndarray,
                     values: np.ndarray, col: int | None = None) -> None:
    """``np.add.at(target, rows, values)`` — ``np.add.at(target[:, col],
    rows, values)`` with ``col`` — bit for bit, for a 2-D ``target``.

    Whole rows go through :func:`scatter_add_flat` (the target must be
    C-contiguous).  Row after row is the order ``np.add.at`` itself visits
    the elements in, so each one sees the same sequence of float
    additions.
    """
    if col is not None:
        # One column is a 1-D target already; numpy's fast loop takes its
        # stride, and no index arithmetic beats that.
        np.add.at(target[:, col], rows, values)
        return
    if target.ndim != 2:
        raise ValueError("scatter_add_rows needs a 2-D target")
    rows = np.asarray(rows)
    cols = target.shape[1]
    if np.shape(values) != (len(rows), cols):
        values = np.broadcast_to(values, (len(rows), cols))
    step = max(1, SCATTER_BLOCK // cols)
    for lo in range(0, len(rows), step):
        scatter_add_flat(target, flat_row_index(rows[lo:lo + step], cols),
                         values[lo:lo + step])


def segment_reduce(keys: np.ndarray, values: np.ndarray,
                   op: str) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per distinct key with ``op`` ("add"/"min"/"max").

    Keys come back sorted ascending; within one key the values are folded
    in their original arrival order (stable sort + ``ufunc.reduceat``),
    matching the boxed per-record dict fold.  Value dtype is preserved.
    """
    try:
        ufunc = COMBINE_UFUNCS[op]
    except KeyError:
        raise ValueError(
            f"unknown combine op {op!r}; known: "
            f"{', '.join(sorted(COMBINE_UFUNCS))}"
        ) from None
    n = len(keys)
    if n == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1]
    )
    return sorted_keys[starts], ufunc.reduceat(sorted_values, starts, axis=0)


def h_index(targets: np.ndarray, values: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Per distinct target (ascending), the largest h such that at least h
    of its values are >= h: a target's values sorted descending, those
    still >= their 1-based rank."""
    order = np.lexsort((-values, targets))
    targets, values = targets[order], values[order]
    first = np.ones(len(targets), dtype=bool)
    first[1:] = targets[1:] != targets[:-1]
    segment = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    rank = np.arange(1, len(targets) + 1) - starts[segment]
    return targets[first], np.bincount(segment[values >= rank],
                                       minlength=len(starts))


def segment_mode(targets: np.ndarray, values: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Per distinct target (ascending), its most frequent value, ties
    going to the smallest: one sort by (target, value), then the runs of
    equal pairs — a target's first run of its longest length wins."""
    if not len(targets):
        return targets, values
    order = np.lexsort((values, targets))
    targets, values = targets[order], values[order]
    run = np.ones(len(targets), dtype=bool)
    run[1:] = (targets[1:] != targets[:-1]) | (values[1:] != values[:-1])
    runs = np.flatnonzero(run)
    counts = np.diff(runs, append=len(targets))
    run_targets = targets[runs]
    first = np.ones(len(runs), dtype=bool)
    first[1:] = run_targets[1:] != run_targets[:-1]
    heads = np.flatnonzero(first)
    longest = np.repeat(np.maximum.reduceat(counts, heads),
                        np.diff(heads, append=len(runs)))
    candidates = np.where(counts == longest, np.arange(len(runs)), len(runs))
    winners = np.minimum.reduceat(candidates, heads)
    return run_targets[heads], values[runs[winners]]


def louvain_move(ids: np.ndarray, own: np.ndarray, k: np.ndarray,
                 targets: np.ndarray, mcom: np.ndarray, mw: np.ndarray,
                 com_tot: np.ndarray, two_m: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """One Louvain move round over the vertices ``ids`` (ascending), whose
    communities are ``own`` and weighted degrees ``k``.

    Every message ``(target, neighbor community, weight)`` is grouped by
    ``(target, community)``; a target moves to the first candidate of
    maximal modularity gain when that beats staying.  Weights add up in
    arrival order within a group (a sequential ``bincount``), as a
    per-vertex scatter-add would.  ``com_tot[c]`` is community ``c``'s
    total weighted degree.

    Returns ``(moved, new)``: the positions in ``ids`` of the targets that
    move, ascending, and their new communities.
    """
    if len(targets) == 0:
        return np.empty(0, dtype=np.int64), mcom[:0]
    order = np.lexsort((mcom, targets))
    targets, mcom = targets[order], mcom[order]
    new_vertex = np.ones(len(targets), dtype=bool)
    new_vertex[1:] = targets[1:] != targets[:-1]
    new_group = new_vertex.copy()
    new_group[1:] |= mcom[1:] != mcom[:-1]
    # One row per (vertex, candidate community), candidates ascending.
    wsum = np.bincount(np.cumsum(new_group) - 1, weights=mw[order])
    cand = mcom[new_group]
    vertex = (np.cumsum(new_vertex) - 1)[new_group]
    first = np.flatnonzero(new_vertex[new_group])
    pos = np.searchsorted(ids, targets[new_vertex])
    own, kv = own[pos], k[pos]
    is_own = cand == own[vertex]
    tot = com_tot[cand.astype(np.int64)]
    tot[is_own] -= kv[vertex[is_own]]
    gains = wsum - tot * kv[vertex] / two_m
    own_gain = -(com_tot[own.astype(np.int64)] - kv) * kv / two_m
    own_gain[vertex[is_own]] = gains[is_own]
    best_gain = np.maximum.reduceat(gains, first)
    rows = np.arange(len(gains))
    best = np.minimum.reduceat(
        np.where(gains == best_gain[vertex], rows, len(rows)), first)
    moved = (best_gain > own_gain + 1e-12) & (cand[best] != own)
    return pos[moved], cand[best[moved]]


def modularity(src_com: np.ndarray, dst_com: np.ndarray,
               weights: np.ndarray) -> float:
    """Newman modularity of a partition, from each edge's endpoint
    communities and weight (every edge once; a self-loop counts twice
    towards its community's total, as in the adjacency matrix)."""
    m = float(weights.sum())
    if m == 0:
        return 0.0
    inside = float(weights[src_com == dst_com].sum())
    # Community totals add up edge by edge, sources then targets, and are
    # summed in order of first appearance (a dict filled in that order).
    ends = np.concatenate([src_com, dst_com])
    _coms, first, inverse = np.unique(ends, return_index=True,
                                      return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate([weights, weights]))
    two_m = 2.0 * m
    return (2.0 * inside / two_m
            - sum((tot / two_m) ** 2
                  for tot in totals[np.argsort(first)].tolist()))
