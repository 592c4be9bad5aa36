"""Unit tests for repro.common.batch and the O(1)/islice sizeof paths."""

import ast
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.common import batch as batch_module
from repro.common.batch import (
    SCATTER_BLOCK,
    RaggedColumn,
    accumulate_sequential,
    distinct_ids,
    flat_row_index,
    h_index,
    in_sorted,
    louvain_move,
    modularity,
    scatter_add_rows,
    segment_index,
    segment_mode,
    segment_reduce,
    sorted_difference,
    sorted_unique,
    unique_pairs,
)
from repro.common.errors import PSError
from repro.common.sizeof import (
    CONTAINER_ENTRY_BYTES,
    SCALAR_BYTES,
    sizeof,
    sizeof_records,
)
from repro.core.blocks import EdgeBlock, build_neighbor_block
from tests.conftest import ragged_rows, split_indices


class TestSplitAndReduce:
    def test_split_indices_matches_mask_loop(self):
        rng = np.random.default_rng(11)
        pids = rng.integers(0, 7, size=500)
        got = split_indices(pids)
        assert [pid for pid, _ in got] == np.unique(pids).tolist()
        for pid, idx in got:
            np.testing.assert_array_equal(idx, np.flatnonzero(pids == pid))
        assert split_indices(np.empty(0, dtype=np.int64)) == []

    @given(st.lists(st.integers(-2 ** 62, 2 ** 62) | st.integers(-5, 5),
                    max_size=60),
           st.sampled_from([np.int64, np.int32, np.int16]))
    def test_sorted_unique_is_plain_np_unique(self, values, dtype):
        values = np.asarray(values, dtype=np.int64).astype(dtype)
        before = values.copy()
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert np.array_equal(values, before)  # sorts a copy

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1) | st.sampled_from(
            [0, n - 1]), max_size=60))))
    @example((1, []))
    @example((5, [4, 0, 4, 0, 0]))
    def test_distinct_ids_is_sorted_unique(self, case):
        """Empty input, repeats and the ids 0 and n - 1: the mask over
        the id space gives what the sort gives, dtype included."""
        n, ids = case
        ids = np.asarray(ids, dtype=np.int64)
        got, want = distinct_ids(ids, n), sorted_unique(ids)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @given(st.lists(st.integers(-9, 9), max_size=30),
           st.lists(st.integers(-12, 12), max_size=30))
    def test_in_sorted_is_isin(self, haystack, needles):
        haystack = np.sort(np.asarray(haystack, dtype=np.int64))
        needles = np.asarray(needles, dtype=np.int64)
        assert (in_sorted(haystack, needles).tolist()
                == np.isin(needles, haystack).tolist())

    @given(st.lists(st.integers(-9, 9), max_size=30),
           st.lists(st.integers(-12, 12), max_size=30))
    def test_sorted_difference_is_setdiff1d(self, values, other):
        """Repeats, negatives and empty sides on both: dtype included."""
        values = np.asarray(values, dtype=np.int64)
        other = sorted_unique(np.asarray(other, dtype=np.int64))
        got, want = sorted_difference(values, other), np.setdiff1d(
            values, other)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_negative_ids_raise_instead_of_aliasing(self):
        # With radix 3, 5 * 3 - 1 is the key of (4, 2): the pairs came
        # back as (3, 2), (4, 2).
        with pytest.raises(PSError, match="negative"):
            unique_pairs(np.array([5, 3]), np.array([-1, 2]))
        with pytest.raises(PSError, match="negative"):
            unique_pairs(np.array([-1, 3]), np.array([2, 2]))
        with pytest.raises(PSError, match="negative"):
            build_neighbor_block(np.array([5, 3]), np.array([-1, 2]))

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_segment_reduce_matches_boxed_fold(self, op):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 40, size=1000).astype(np.int64)
        # Integer-valued floats: any summation order is exact, so the
        # comparison with the sequential boxed fold is bitwise.
        values = rng.integers(-50, 50, size=1000).astype(np.float64)
        fn = {"add": lambda a, b: a + b, "min": min, "max": max}[op]
        expect = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            expect[k] = fn(expect[k], v) if k in expect else v
        ukeys, reduced = segment_reduce(keys, values, op)
        assert ukeys.tolist() == sorted(expect)
        assert reduced.dtype == values.dtype
        for k, v in zip(ukeys.tolist(), reduced.tolist()):
            assert v == expect[k]

    def test_segment_reduce_2d(self):
        keys = np.asarray([3, 1, 3, 1, 2])
        values = np.arange(10.0).reshape(5, 2)
        ukeys, reduced = segment_reduce(keys, values, "add")
        np.testing.assert_array_equal(ukeys, [1, 2, 3])
        np.testing.assert_array_equal(reduced[0], values[1] + values[3])
        np.testing.assert_array_equal(reduced[2], values[0] + values[2])

    def test_segment_reduce_empty_and_errors(self):
        keys = np.empty(0, dtype=np.int64)
        ukeys, reduced = segment_reduce(keys, np.empty(0), "add")
        assert len(ukeys) == 0 and len(reduced) == 0
        with pytest.raises(ValueError):
            segment_reduce(np.arange(3), np.arange(3), "mul")


def _add_at(target, rows, values, col=None):
    """The expression scatter_add_rows replaces."""
    np.add.at(target if col is None else target[:, col], rows, values)


@st.composite
def scatter_cases(draw):
    """(target, rows, values, col): few rows and many indices, so most
    rows are hit repeatedly; magnitudes spread so every add rounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    k = draw(st.integers(0, 48))
    col = draw(st.none() | st.integers(-cols, cols - 1))
    target_dtype, value_dtype = (
        draw(st.sampled_from([np.float32, np.float64])) for _ in range(2))

    def noise(shape, dtype):
        scale = 10.0 ** rng.integers(-4, 5, size=shape)
        return (rng.standard_normal(shape) * scale).astype(dtype)

    rows = rng.integers(-n, n, size=k)
    values = noise((k,) if col is not None else (k, cols), value_dtype)
    return noise((n, cols), target_dtype), rows, values, col


class TestScatterAddRows:
    @settings(deadline=None, max_examples=150)
    @given(scatter_cases())
    def test_bitwise_equals_add_at(self, case):
        target, rows, values, col = case
        expect = target.copy()
        _add_at(expect, rows, values, col)
        scatter_add_rows(target, rows, values, col)
        assert target.tobytes() == expect.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(scatter_cases(), st.integers(1, 12))
    def test_blocks_do_not_change_a_bit(self, case, block):
        target, rows, values, col = case
        expect = target.copy()
        _add_at(expect, rows, values, col)
        old = batch_module.SCATTER_BLOCK
        batch_module.SCATTER_BLOCK = block
        try:
            scatter_add_rows(target, rows, values, col)
        finally:
            batch_module.SCATTER_BLOCK = old
        assert target.tobytes() == expect.tobytes()

    def test_scatter_larger_than_the_scratch_bound(self):
        rng = np.random.default_rng(5)
        k, cols = SCATTER_BLOCK // 3 + 1000, 4
        target = rng.standard_normal((50, cols)).astype(np.float32)
        rows = rng.integers(0, 50, size=k)
        values = rng.standard_normal((k, cols)).astype(np.float32)
        assert k * cols > SCATTER_BLOCK
        expect = target.copy()
        np.add.at(expect, rows, values)
        scatter_add_rows(target, rows, values)
        assert target.tobytes() == expect.tobytes()

    def test_float64_values_round_once_into_float32(self):
        # 1 + (2**-24 + 2**-50) sits just above a float32 tie: added in
        # float64 and rounded once, it goes up.  Pre-cast to float32 the
        # value is 2**-24, an exact tie, and the sum rounds back to 1.
        target = np.ones((1, 1), dtype=np.float32)
        value = np.array([[2.0 ** -24 + 2.0 ** -50]])
        scatter_add_rows(target, np.array([0]), value)
        assert target[0, 0] == np.float32(1.0) + np.float32(2.0 ** -23)
        assert np.float32(1.0) + value.astype(np.float32)[0, 0] == 1.0

    def test_broadcasts_values_like_add_at(self):
        target = np.zeros((3, 2))
        scatter_add_rows(target, np.array([0, 0, 2]), 1.0)
        scatter_add_rows(target, np.array([1]), np.array([5.0, 7.0]))
        assert target.tolist() == [[2.0, 2.0], [5.0, 7.0], [1.0, 1.0]]

    def test_rejects_what_numpy_rejects(self):
        target = np.zeros((3, 2))
        with pytest.raises(IndexError):
            scatter_add_rows(target, np.array([3]), np.ones((1, 2)))
        with pytest.raises(IndexError):
            scatter_add_rows(target, np.array([0]), np.ones(1), col=2)
        # A flat view of these would be a copy: the adds would be lost.
        with pytest.raises(ValueError):
            scatter_add_rows(target.T, np.array([0]), np.ones((1, 3)))
        with pytest.raises(ValueError):
            scatter_add_rows(np.zeros(3), np.array([0]), np.ones(1))

    @given(st.integers(1, 5), st.lists(st.integers(0, 6), max_size=12))
    def test_flat_row_index_is_where_the_rows_sit(self, cols, rows):
        rows = np.asarray(rows, dtype=np.int64)
        flat = np.arange(7 * cols).reshape(7, cols)
        assert np.array_equal(flat_row_index(rows, cols),
                              flat[rows].reshape(-1))
        for col in range(-cols, cols):
            assert np.array_equal(flat_row_index(rows, cols, col),
                                  flat[rows, col])


#: Files that may call ``np.<ufunc>.at`` themselves: every target there is
#: a 1-D array, already on numpy's fast path.
UFUNC_AT_1D_SITES = {
    "common/batch.py",
    "graphx/fast_unfolding.py",
    "core/algorithms/pagerank.py",
    "core/algorithms/fast_unfolding.py",
    "streaming/pagerank.py",
}


def test_row_scatters_go_through_the_kernel():
    """``np.<ufunc>.at`` on a 2-D or strided target misses numpy's fast
    path by 3-9x: a new scatter uses ``scatter_add_rows`` (or earns a
    place on the list above by being 1-D)."""
    root = Path(repro.__file__).parent
    stray = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name in UFUNC_AT_1D_SITES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "at"
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id in ("np", "numpy")):
                stray.append(f"{name}:{node.lineno}")
    assert not stray, f"use repro.common.batch.scatter_add_rows: {stray}"


class TestRaggedColumn:
    """CSR rows behave as the list of arrays they stand in for."""

    rows_lists = st.lists(st.lists(st.integers(0, 99), max_size=6),
                          max_size=40)

    @staticmethod
    def _column(rows):
        lens = [len(r) for r in rows]
        return RaggedColumn(
            np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
            np.asarray([x for r in rows for x in r], dtype=np.int64))

    @given(rows_lists, st.lists(st.integers(0, 39), max_size=50))
    def test_take_concat_and_list_round_trip(self, rows, picks):
        col = self._column(rows)
        assert len(col) == len(rows)
        assert [r.tolist() for r in ragged_rows(col)] == rows
        picks = np.asarray([p for p in picks if p < len(rows)],
                           dtype=np.int64)
        taken = col.take(picks)
        assert [r.tolist() for r in ragged_rows(taken)] \
            == [rows[p] for p in picks.tolist()]
        for a, b in [(0, len(rows)), (len(rows) // 3, len(rows) // 2)]:
            assert [r.tolist() for r in ragged_rows(col.slice(a, b))] \
                == rows[a:b]
        both = RaggedColumn.concat([col, taken])
        assert [r.tolist() for r in ragged_rows(both)] \
            == rows + [rows[p] for p in picks.tolist()]

    @given(rows_lists)
    def test_boxed_nbytes_is_sizeof_of_the_row_list(self, rows):
        col = self._column(rows)
        assert col.boxed_nbytes() == sizeof(ragged_rows(col))
        order = np.random.default_rng(len(rows)).permutation(len(rows))
        assert col.boxed_nbytes(order) \
            == sizeof([ragged_rows(col)[i] for i in order])

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)),
                    max_size=12))
    def test_segment_index_walks_segment_after_segment(self, segments):
        starts = np.asarray([a for a, _n in segments], dtype=np.int64)
        lens = np.asarray([n for _a, n in segments], dtype=np.int64)
        want = [i for a, n in segments for i in range(a, a + n)]
        indptr, flat = segment_index(starts, lens)
        assert flat.tolist() == want
        assert indptr.tolist() == [0, *np.cumsum(lens).tolist()]


def _h_index(values: np.ndarray) -> int:
    """The parent's per-vertex loop: largest h with h values >= h."""
    values = np.sort(values)[::-1]
    h = 0
    for i, v in enumerate(values, start=1):
        if v >= i:
            h = i
        else:
            break
    return h


def _mode(values: np.ndarray) -> float:
    """Label propagation's per-vertex loop: the most frequent label, ties
    to the smallest."""
    vals, counts = np.unique(values, return_counts=True)
    return vals[counts == counts.max()].min()


@pytest.mark.parametrize("kernel, loop", [(h_index, _h_index),
                                          (segment_mode, _mode)],
                         ids=["h_index", "segment_mode"])
@given(st.lists(st.lists(st.integers(-1, 12), max_size=14), max_size=12),
       st.randoms(use_true_random=False))
@example([[4, 2, 4, 2, 7]], Random(0))
@example([[-1], [5], [-1, -1, 3], [3, -1, -1, 3]], Random(0))
def test_segment_kernel_equals_the_loop(kernel, loop, rows, random):
    """Messages ``(target, value)`` in any arrival order, targets with
    gaps; a target without messages has no row."""
    pairs = [(3 * t + 1, float(v)) for t, r in enumerate(rows) for v in r]
    random.shuffle(pairs)
    targets = np.asarray([t for t, _v in pairs], dtype=np.int64)
    values = np.asarray([v for _t, v in pairs], dtype=np.float64)
    uids, got = kernel(targets, values)
    want = {3 * t + 1: loop(np.asarray(r, dtype=np.float64))
            for t, r in enumerate(rows) if r}
    assert dict(zip(uids.tolist(), got.tolist())) == want
    assert uids.tolist() == sorted(want)


def _move_loop(ids, com, k, targets, mcom, mw, com_tot, two_m,
               parity=None):
    """The per-vertex Louvain move both systems ran before the kernel, in
    place on ``com``, with ``com_tot`` a dict of community totals; with
    ``parity`` only the targets of that id parity move (GraphX's round)."""
    order = np.argsort(targets, kind="stable")
    targets, mcom, mw = targets[order], mcom[order], mw[order]
    uids, starts = np.unique(targets, return_index=True)
    bounds = np.append(starts, len(targets))
    moves = 0
    pos = np.searchsorted(ids, uids)
    for j, v in enumerate(uids.tolist()):
        if parity is not None and v % 2 != parity:
            continue
        i = pos[j]
        coms = mcom[bounds[j]:bounds[j + 1]]
        ws = mw[bounds[j]:bounds[j + 1]]
        cand, inverse = np.unique(coms, return_inverse=True)
        wsum = np.zeros(len(cand))
        np.add.at(wsum, inverse, ws)
        own = com[i]
        kv = k[i]
        gains = np.empty(len(cand))
        for c_idx, c in enumerate(cand.tolist()):
            tot = com_tot.get(c, 0.0)
            if c == own:
                tot -= kv
            gains[c_idx] = wsum[c_idx] - tot * kv / two_m
        own_pos = np.flatnonzero(cand == own)
        own_gain = (
            gains[own_pos[0]] if len(own_pos)
            else -(com_tot.get(own, kv) - kv) * kv / two_m
        )
        best = int(np.argmax(gains))
        if gains[best] > own_gain + 1e-12 and cand[best] != own:
            com[i] = cand[best]
            moves += 1
    return moves


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 40), st.integers(1, 300),
       st.integers(0, 1))
def test_vectorised_louvain_round_equals_the_loop(seed, n, m, parity):
    """GraphX's call: random float-weighted multigraphs, messages in any
    order, one id parity moving.  Communities and move count are bitwise
    those of the per-vertex loop (sums add in arrival order)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.uniform(0.05, 3.0, m)
    k = np.zeros(n)
    np.add.at(k, src, w)
    np.add.at(k, dst, w)
    ids = np.flatnonzero(k > 0)
    # A state some rounds in: vertices already share communities.
    com = rng.choice(ids, len(ids)).astype(np.float64)
    full = np.zeros(n)
    full[ids] = com
    totals = np.zeros(n)
    np.add.at(totals, com.astype(np.int64), k[ids])
    as_dict = {float(c): float(totals[int(c)]) for c in np.unique(com)}
    targets = np.concatenate([dst, src])
    mcom = np.concatenate([full[src], full[dst]])
    mw = np.concatenate([w, w])
    shuffled = rng.permutation(len(targets))
    targets, mcom, mw = targets[shuffled], mcom[shuffled], mw[shuffled]
    two_m = float(w.sum()) * 2.0
    want = com.copy()
    want_moves = _move_loop(ids, want, k[ids], targets, mcom, mw, as_dict,
                            two_m, parity)
    mine = targets % 2 == parity
    moved, new = louvain_move(ids, com, k[ids], targets[mine], mcom[mine],
                              mw[mine], totals, two_m)
    got = com.copy()
    got[moved] = new
    assert len(moved) == want_moves
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=8),
                min_size=1, max_size=12),
       st.booleans(), st.randoms(use_true_random=False))
@example([[0, 5, 5, 1], [2], [9, 2, 2, 9, 4]], False, Random(0))
@example([[7, 0, 7], [2, 2]], True, Random(1))
def test_louvain_move_on_a_psgraph_block(rows, weighted, random):
    """PSGraph's call: one CSR block (vertex ``t`` has id ``2t``) whose
    neighbor lists are unsorted, repeat ids and may hold the vertex itself;
    messages in block order, unit or float weights, no parity filter, and
    every community given as its index into the block's pulled community
    ids.  The kernel moves what the loop moves, ascending."""
    vertices = 2 * np.arange(len(rows))
    lens = np.array([len(r) for r in rows])
    neighbors = np.array([v for r in rows for v in r])
    ws = (np.array([random.uniform(0.25, 4.0) for _ in neighbors])
          if weighted else np.ones(len(neighbors)))
    k = np.add.reduceat(ws, np.append(0, np.cumsum(lens)[:-1]))
    com_of = np.array([float(random.randrange(24)) for _ in range(24)])
    # Few distinct totals, so that gains tie.
    totals = np.array([random.choice([1.0, 2.0, 6.0]) for _ in range(24)])
    two_m = float(totals.sum())
    targets = np.repeat(vertices, lens)
    ncoms, own = com_of[neighbors], com_of[vertices]
    want = own.copy()
    want_moves = _move_loop(vertices, want, k, targets, ncoms, ws,
                            dict(enumerate(totals.tolist())), two_m)
    cand_ids, index = np.unique(np.concatenate([ncoms, own]),
                                return_inverse=True)
    moved, new = louvain_move(vertices, index[len(ncoms):], k, targets,
                              index[:len(ncoms)], ws,
                              totals[cand_ids.astype(np.int64)], two_m)
    got = own.copy()
    got[moved] = cand_ids[new]
    assert len(moved) == want_moves
    assert np.all(np.diff(moved) > 0)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("margin, moves", [(5e-13, False), (2e-12, True)])
def test_louvain_move_needs_a_gain_above_1e_12(margin, moves):
    """Vertex 0 is alone in community 0, so staying gains 0; joining
    community 1 gains ``1 - tot * k / 2m = margin``."""
    moved, new = louvain_move(np.array([0]), np.array([0.0]), np.ones(1),
                              np.array([0]), np.array([1.0]), np.ones(1),
                              np.array([1.0, 1.0 - margin]), 1.0)
    assert moved.tolist() == ([0] if moves else [])
    assert new.tolist() == ([1.0] if moves else [])


def test_louvain_move_without_messages_moves_nothing():
    moved, new = louvain_move(np.arange(3), np.arange(3.0), np.ones(3),
                              np.empty(0, dtype=np.int64), np.empty(0),
                              np.empty(0), np.ones(3), 6.0)
    assert len(moved) == len(new) == 0


def _newman(src, dst, w, com):
    """Q from the dense adjacency matrix: sum over vertex pairs in one
    community of ``A_ij - k_i k_j / 2m``, over ``2m`` (a self-loop is
    ``2w`` on the diagonal)."""
    n = len(com)
    a = np.zeros((n, n))
    np.add.at(a, (src, dst), w)
    np.add.at(a, (dst, src), w)
    k = a.sum(axis=1)
    two_m = a.sum()
    same = com[:, None] == com[None, :]
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                          st.floats(0.1, 5.0)), min_size=1, max_size=40),
       st.lists(st.integers(0, 4), min_size=10, max_size=10))
@example([(3, 3, 1.0), (3, 3, 1.0), (0, 7, 2.5)], [0] * 10)
@example([(1, 2, 1.0), (2, 1, 1.0), (4, 4, 0.5)], list(range(10)))
def test_modularity_is_newmans_formula(edges, labels):
    """Weighted multigraphs with self-loops and duplicate edges; vertex
    ``v`` has id ``3v + 2`` and community ``5 * label + 7``, so both id
    spaces have gaps."""
    src = np.array([3 * s + 2 for s, _d, _w in edges])
    dst = np.array([3 * d + 2 for _s, d, _w in edges])
    w = np.array([x for _s, _d, x in edges])
    com = np.zeros(30, dtype=np.int64)
    com[3 * np.arange(10) + 2] = 5 * np.array(labels) + 7
    assert modularity(com[src], com[dst], w) == pytest.approx(
        _newman(src, dst, w, com), rel=1e-12, abs=1e-12)


def test_modularity_of_no_weight_is_zero():
    none = np.empty(0, dtype=np.int64)
    assert modularity(none, none, np.empty(0)) == 0.0
    assert modularity(np.array([1]), np.array([1]), np.zeros(1)) == 0.0


class TestAccumulateSequential:
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 1000])
    def test_bitwise_matches_python_loop(self, n):
        step = 1.5e-6
        start = 0.123456
        acc = start
        for _ in range(n):
            acc += step
        assert accumulate_sequential(start, step, n) == acc


class TestSizeofStreaming:
    """The islice satellite: same estimates, no full materialization."""

    @pytest.mark.parametrize("n", [0, 5, 32, 33, 100, 2049])
    def test_dict_estimate_unchanged(self, n):
        d = {i: float(i) for i in range(n)}
        items = list(d.items())
        # Reference: the original formula over the materialized list.
        if n == 0:
            expect = CONTAINER_ENTRY_BYTES
        elif n <= 32:
            expect = (CONTAINER_ENTRY_BYTES + n * CONTAINER_ENTRY_BYTES
                      + sum(sizeof(x) for x in items))
        else:
            step = max(1, n // 32)
            sample = items[::step][:32]
            body = int(sum(sizeof(x) for x in sample) / len(sample) * n)
            expect = (CONTAINER_ENTRY_BYTES + n * CONTAINER_ENTRY_BYTES
                      + body)
        assert sizeof(d) == expect

    def test_set_estimate_scales(self):
        small = sizeof({1, 2, 3})
        big = sizeof(set(range(1000)))
        assert big > small
        assert big == sizeof(frozenset(range(1000)))


# ---------------------------------------------------------------------------
# sizeof: the exact-type fast path against the isinstance chain it shortcuts
# ---------------------------------------------------------------------------


def _chain_sizeof(obj):
    """The isinstance chain alone (no fast path), as the reference."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return SCALAR_BYTES
    hint = getattr(obj, "logical_nbytes", None)
    if hint is not None:
        return int(hint() if callable(hint) else hint)
    if isinstance(obj, dict):
        return _chain_items(list(obj.items()))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _chain_items(list(obj))
    slots = getattr(obj, "__dict__", None)
    if slots:
        return CONTAINER_ENTRY_BYTES + sum(
            _chain_sizeof(v) for v in slots.values())
    return SCALAR_BYTES


def _chain_items(items):
    count = len(items)
    if count == 0:
        return CONTAINER_ENTRY_BYTES
    if count <= 32:
        body = sum(_chain_sizeof(x) for x in items)
    else:
        sample = items[::max(1, count // 32)][:32]
        body = int(sum(_chain_sizeof(x) for x in sample)
                   / len(sample) * count)
    return CONTAINER_ENTRY_BYTES + count * CONTAINER_ENTRY_BYTES + body


class _IntSub(int):
    pass


class _TupleSub(tuple):
    pass


class _ListSub(list):
    logical_nbytes = 24  # a subclass may carry a hint; a plain list cannot


class _ArraySub(np.ndarray):
    pass


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 40, 2 ** 40),
    st.floats(allow_nan=False), st.text(max_size=5),
    st.integers(0, 9).map(_IntSub),
    st.integers(0, 9).map(np.int64),
    st.integers(0, 40).map(lambda n: np.arange(n, dtype=np.float32)),
    st.integers(0, 6).map(lambda n: np.arange(n).view(_ArraySub)),
    st.integers(0, 6).map(
        lambda n: EdgeBlock(np.arange(n), np.arange(n))),
    st.integers(0, 6).map(
        lambda n: build_neighbor_block(np.arange(n) // 2, np.arange(n))),
)
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=40), st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_TupleSub),
        st.lists(inner, max_size=4).map(_ListSub),
        st.dictionaries(st.integers(0, 50), inner, max_size=4),
    ),
    max_leaves=60,
)


class TestSizeofFastPath:
    @settings(deadline=None, max_examples=200)
    @given(_NESTED)
    def test_equals_isinstance_chain(self, obj):
        assert sizeof(obj) == _chain_sizeof(obj)
        if type(obj) is list:
            assert sizeof_records(obj) == _chain_sizeof(obj)
