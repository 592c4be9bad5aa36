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
    flat_row_index,
    h_index,
    in_sorted,
    scatter_add_rows,
    segment_index,
    segment_mode,
    segment_reduce,
    sorted_unique,
    split_indices,
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

    @given(st.lists(st.integers(-9, 9), max_size=30),
           st.lists(st.integers(-12, 12), max_size=30))
    def test_in_sorted_is_isin(self, haystack, needles):
        haystack = np.sort(np.asarray(haystack, dtype=np.int64))
        needles = np.asarray(needles, dtype=np.int64)
        assert (in_sorted(haystack, needles).tolist()
                == np.isin(needles, haystack).tolist())

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
        assert [r.tolist() for r in col.to_list()] == rows
        picks = np.asarray([p for p in picks if p < len(rows)],
                           dtype=np.int64)
        taken = col.take(picks)
        assert [r.tolist() for r in taken.to_list()] \
            == [rows[p] for p in picks.tolist()]
        for a, b in [(0, len(rows)), (len(rows) // 3, len(rows) // 2)]:
            assert [r.tolist() for r in col.slice(a, b).to_list()] \
                == rows[a:b]
        both = RaggedColumn.concat([col, taken])
        assert [r.tolist() for r in both.to_list()] \
            == rows + [rows[p] for p in picks.tolist()]

    @given(rows_lists)
    def test_boxed_nbytes_is_sizeof_of_the_row_list(self, rows):
        col = self._column(rows)
        assert col.boxed_nbytes() == sizeof(col.to_list())
        order = np.random.default_rng(len(rows)).permutation(len(rows))
        assert col.boxed_nbytes(order) \
            == sizeof([col.to_list()[i] for i in order])

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
