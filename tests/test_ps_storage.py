"""Direct unit + property tests of the PS server-side stores and psFuncs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.conftest import table_block

from repro.common.errors import PSError
from repro.common.sizeof import sizeof
from repro.ps.partitioner import make_ps_partitioner
from repro.ps import psfunc as psfunc_module
from repro.ps.psfunc import PartialDot, RankOneUpdate
from repro.ps.storage import (
    ColumnShardStore,
    DenseRowStore,
    NeighborTableStore,
    SparseRowStore,
)


class TestDenseRowStore:
    def test_get_set_inc(self):
        s = DenseRowStore(np.array([2, 5, 9]), cols=2)
        s.set_rows(np.array([5]), np.array([[1.0, 2.0]]))
        s.inc_rows(np.array([5, 5]), np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(
            s.get_rows(np.array([5]))[0], [3.0, 4.0]
        )

    def test_column_ops(self):
        s = DenseRowStore(np.array([0, 1]), cols=3)
        s.set_rows(np.array([1]), np.array([7.0]), col=2)
        assert s.get_rows(np.array([1]), col=2)[0] == 7.0
        assert s.get_rows(np.array([1]))[0].tolist() == [0.0, 0.0, 7.0]

    def test_missing_key_raises(self):
        s = DenseRowStore(np.array([0, 2]), cols=1)
        with pytest.raises(PSError):
            s.get_rows(np.array([1]))
        with pytest.raises(PSError):
            s.get_rows(np.array([99]))

    def test_get_returns_copy(self):
        s = DenseRowStore(np.array([0]), cols=1)
        row = s.get_rows(np.array([0]))
        row[0] = 42.0
        assert s.get_rows(np.array([0]))[0] == 0.0

    def test_init_value(self):
        s = DenseRowStore(np.array([0, 1]), cols=2, init=-1.0)
        assert (s.array == -1.0).all()

    def test_snapshot_restore(self):
        s = DenseRowStore(np.array([0, 1]), cols=1)
        s.set_rows(np.array([1]), np.array([5.0]))
        snap = s.snapshot()
        s.set_rows(np.array([1]), np.array([9.0]))
        s.restore(snap)
        assert s.get_rows(np.array([1]))[0] == 5.0

    def test_nbytes(self):
        s = DenseRowStore(np.arange(10), cols=4)
        assert s.nbytes == 10 * 4 * 8 + 10 * 8

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 9), st.floats(-5, 5)),
                    max_size=30))
    def test_inc_matches_numpy(self, updates):
        s = DenseRowStore(np.arange(10), cols=1)
        ref = np.zeros(10)
        for k, v in updates:
            s.inc_rows(np.array([k]), np.array([v]))
            ref[k] += v
        np.testing.assert_allclose(s.array[:, 0], ref)


def _locate_by_search(store, keys):
    """The binary search every key set used to go through."""
    idx = np.searchsorted(store.keys, keys)
    if (idx >= len(store.keys)).any() or (store.keys[idx] != keys).any():
        raise PSError("keys not in partition")
    return idx


class TestRowAddressing:
    @settings(deadline=None, max_examples=120)
    @given(st.sampled_from(["range", "hash", "hash-range"]),
           st.integers(1, 90), st.integers(1, 9), st.data())
    def test_locate_equals_binary_search(self, kind, size, parts, data):
        part = make_ps_partitioner(kind, size, parts)
        key_sets = [part.keys_of_partition(pid)
                    for pid in range(part.num_partitions)]
        whole = DenseRowStore(np.concatenate(key_sets))
        start = 0
        for own_keys in key_sets:
            store = DenseRowStore(own_keys)
            # The same partition as a run of the matrix-wide store: it
            # shares the matrix's key table and answers for its own keys.
            run = whole.part(start, start + len(own_keys))
            start += len(own_keys)
            picks = data.draw(st.lists(st.integers(-3, size + 3),
                                       max_size=12))
            keys = np.asarray(picks, dtype=np.int64)
            own = np.isin(keys, store.keys)
            for s in (store, run):
                assert np.array_equal(s._locate(keys[own]),
                                      _locate_by_search(s, keys[own]))
                # Foreign, negative, past-the-end and off-stride keys.
                for key in keys[~own]:
                    with pytest.raises(PSError):
                        s._locate(np.array([key]))
                if not own.all():
                    with pytest.raises(PSError):
                        s._locate(keys)

    def test_a_part_is_a_view_and_restore_copies_into_it(self):
        whole = DenseRowStore(np.array([4, 0, 2, 5, 1, 3]), cols=2)
        part = whole.part(2, 5)
        assert part.keys.tolist() == [2, 5, 1]
        assert np.shares_memory(part.array, whole.array)
        part.set_rows(np.array([5]), np.array([[7.0, 8.0]]))
        assert whole.get_rows(np.array([5])).tolist() == [[7.0, 8.0]]
        state = part.snapshot()
        whole.inc_rows(np.array([5, 4]), np.ones((2, 2)))
        part.restore(state)
        assert np.shares_memory(part.array, whole.array)
        assert whole.get_rows(np.array([5, 4])).tolist() == [
            [7.0, 8.0], [1.0, 1.0]]
        assert part.nbytes == 3 * (8 + 16)
        with pytest.raises(PSError):
            part.get_rows(np.array([4]))

    def test_single_key_and_empty_partitions(self):
        one = DenseRowStore(np.array([7]))
        assert one._locate(np.array([7, 7])).tolist() == [0, 0]
        for key in (6, 8, -7):
            with pytest.raises(PSError):
                one._locate(np.array([key]))
        empty = DenseRowStore(np.empty(0, dtype=np.int64))
        assert len(empty._locate(np.empty(0, dtype=np.int64))) == 0
        with pytest.raises(PSError):
            empty._locate(np.array([0]))

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([np.float32, np.float64]),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_inc_and_get_equal_the_indexing_forms(self, dtype, cols, seed):
        rng = np.random.default_rng(seed)
        store = DenseRowStore(np.arange(3, 30, 3), cols=cols, dtype=dtype)
        store.array[:] = rng.standard_normal(store.array.shape)
        keys = store.keys[rng.integers(0, len(store.keys), size=25)]
        idx = np.searchsorted(store.keys, keys)
        for col in [None, *range(cols)]:
            deltas = rng.standard_normal(
                (25, cols) if col is None else 25)  # float64 either way
            expect = store.array.copy()
            np.add.at(expect if col is None else expect[:, col], idx, deltas)
            store.inc_rows(keys, deltas, col)
            assert store.array.tobytes() == expect.tobytes()
            got = store.get_rows(keys, col)
            want = expect[idx] if col is None else expect[idx, col]
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, store.array)


class TestSparseRowStore:
    def test_untouched_rows_read_zero(self):
        s = SparseRowStore(cols=3)
        out = s.get_rows(np.array([100, 5]))
        assert out.shape == (2, 3)
        assert (out == 0).all()

    def test_inc_materializes(self):
        s = SparseRowStore(cols=2)
        s.inc_rows(np.array([7]), np.array([[1.0, 2.0]]))
        assert s.get_rows(np.array([7]))[0].tolist() == [1.0, 2.0]
        assert s.nbytes == 8 + 2 * 8

    def test_set_and_col(self):
        s = SparseRowStore(cols=2)
        s.set_rows(np.array([1]), np.array([4.0]), col=1)
        assert s.get_rows(np.array([1]), col=1)[0] == 4.0

    def test_snapshot_is_independent(self):
        s = SparseRowStore(cols=1)
        s.set_rows(np.array([3]), np.array([1.0]))
        snap = s.snapshot()
        s.set_rows(np.array([3]), np.array([2.0]))
        s.restore(snap)
        assert s.get_rows(np.array([3]))[0] == 1.0


class TestColumnShardStore:
    def test_slices(self):
        s = ColumnShardStore(rows=4, col_keys=np.array([2, 3]))
        s.set_row_slices(np.array([1]), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(
            s.get_row_slices(np.array([1]))[0], [1.0, 2.0]
        )

    def test_inc_accumulates_duplicates(self):
        s = ColumnShardStore(rows=3, col_keys=np.array([0]))
        s.inc_row_slices(np.array([1, 1]), np.ones((2, 1)))
        assert s.get_row_slices(np.array([1]))[0, 0] == 2.0

    def test_partial_dot(self):
        s = ColumnShardStore(rows=3, col_keys=np.array([0, 1]),
                             dtype=np.float64)
        s.set_row_slices(np.arange(3), np.arange(6).reshape(3, 2))
        got = s.partial_dot(np.array([0, 1]), np.array([2, 2]))
        # row0 . row2 = 0*4 + 1*5 = 5 ; row1 . row2 = 2*4 + 3*5 = 23
        np.testing.assert_allclose(got, [5.0, 23.0])

    def test_snapshot_restore(self):
        s = ColumnShardStore(rows=2, col_keys=np.array([0]))
        s.set_row_slices(np.array([0]), np.array([[9.0]]))
        snap = s.snapshot()
        s.set_row_slices(np.array([0]), np.array([[1.0]]))
        s.restore(snap)
        assert s.get_row_slices(np.array([0]))[0, 0] == 9.0


def _rows(store, vertices):
    """Rows of ``vertices`` as lists, read through the block API."""
    indptr, indices = store.get_neighbors(np.asarray(vertices, np.int64))
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def _write(method, rows):
    block = table_block(rows)
    method(block.vertices, block.indptr, block.neighbors)


class TestNeighborTableStore:
    def test_merge_dedupes_and_sorts(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {1: [5, 3]})
        _write(s.append_neighbors, {1: [3, 7], 0: [9, 9]})
        assert _rows(s, [1, 0]) == [[3, 5, 7], [9]]

    def test_get_aligns_with_request(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {4: [1, 2, 3], 1: [2]})
        indptr, indices = s.get_neighbors(np.array([4, 9, 1, 4]))
        assert indptr.tolist() == [0, 3, 3, 4, 7]
        assert indices.tolist() == [1, 2, 3, 2, 1, 2, 3]
        assert s.num_vertices() == 2

    def test_empty_store_and_empty_request(self):
        s = NeighborTableStore()
        assert _rows(s, [3, 3]) == [[], []]
        assert s.get_neighbors(np.array([3]))[0].tolist() == [0, 0]
        _write(s.append_neighbors, {3: [1]})
        assert _rows(s, []) == []
        assert s.get_neighbors(np.empty(0, np.int64))[0].tolist() == [0]

    def test_empty_rows_are_not_stored(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {1: [], 2: [5]})
        assert s.num_vertices() == 1
        _write(s.remove_neighbors, {2: [5]})
        assert s.num_vertices() == 0
        assert s.nbytes == NeighborTableStore().nbytes

    def test_nbytes_counts_queued_appends_and_csr(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {1: [2, 3], 4: [5]})
        assert s.nbytes > NeighborTableStore().nbytes
        s.compact()
        # vertices + indptr + indices of a 2-row, 3-entry CSR.
        assert s.nbytes == 8 * (2 + 3 + 3)

    def test_write_after_compact_keeps_compacted_rows(self):
        # Compaction once froze the rows into a second form that writes
        # forgot to reopen; there is one form now, and writes land in it.
        s = NeighborTableStore()
        _write(s.append_neighbors, {1: [2]})
        s.compact()
        _write(s.append_neighbors, {3: [4], 1: [0]})
        assert _rows(s, [1, 3]) == [[0, 2], [4]]
        s.compact()
        _write(s.remove_neighbors, {1: [2]})
        assert _rows(s, [1, 3]) == [[0], [4]]

    def test_snapshot_is_csr_and_restores(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {7: [2, 3], 1: [9]})
        snap = s.snapshot()  # queued appends are folded in first
        vertices, indptr, indices = snap["csr"]
        assert vertices.tolist() == [1, 7]
        assert indptr.tolist() == [0, 1, 3]
        assert indices.tolist() == [9, 2, 3]
        _write(s.append_neighbors, {7: [4]})
        restored = NeighborTableStore()
        restored.restore(snap)
        assert _rows(restored, [7, 1]) == [[2, 3], [9]]
        assert restored.nbytes == 8 * (2 + 3 + 3)

    @given(st.dictionaries(st.integers(0, 30), st.lists(
        st.integers(0, 40), max_size=8), max_size=12),
        st.dictionaries(st.integers(0, 35), st.lists(
            st.integers(0, 45), max_size=6), max_size=8))
    def test_remove_keeps_what_isin_kept(self, rows, gone):
        """A removed pair found by one search among the table's ascending
        pair keys: the rows ``np.isin`` over every table key left."""
        s = NeighborTableStore()
        _write(s.append_neighbors, rows)
        s.compact()
        sources, indices = s._sources(), s._indices
        block = table_block(gone)
        if len(block.neighbors) and len(indices):
            radix = int(max(block.neighbors.max(), indices.max())) + 1
            keep = ~np.isin(sources * radix + indices,
                            block.sources() * radix + block.neighbors)
            sources, indices = sources[keep], indices[keep]
        _write(s.remove_neighbors, gone)
        assert s._sources().tolist() == sources.tolist()
        assert s._indices.tolist() == indices.tolist()

    def test_huge_ids_raise_instead_of_wrapping(self):
        s = NeighborTableStore()
        _write(s.append_neighbors, {2 ** 40: [2 ** 40]})
        with pytest.raises(PSError):
            s.compact()


_VERTEX = st.integers(0, 6)
_ROWS = st.dictionaries(_VERTEX, st.lists(st.integers(0, 12), max_size=5),
                        max_size=4)


class NeighborTableMachine(RuleBasedStateMachine):
    """Random interleavings of the bulk operations against a dict of sets."""

    def __init__(self):
        super().__init__()
        self.store = NeighborTableStore()
        self.model: dict = {}

    @rule(rows=_ROWS)
    def append(self, rows):
        _write(self.store.append_neighbors, rows)
        for v, ns in rows.items():
            if ns:
                self.model.setdefault(v, set()).update(ns)

    @rule(rows=_ROWS)
    def remove(self, rows):
        _write(self.store.remove_neighbors, rows)
        for v, ns in rows.items():
            left = self.model.get(v, set()) - set(ns)
            self.model.pop(v, None)
            if left:
                self.model[v] = left

    @rule(vertices=st.lists(_VERTEX, max_size=3))
    def drop(self, vertices):
        self.store.drop_vertices(np.asarray(vertices, np.int64))
        for v in vertices:
            self.model.pop(v, None)

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def snapshot_restore(self):
        fresh = NeighborTableStore()
        fresh.restore(self.store.snapshot())
        self.store = fresh

    @rule(vertices=st.lists(st.integers(0, 8), max_size=6))
    def get(self, vertices):
        """Duplicate and absent vertices in one request."""
        expect = [sorted(self.model.get(v, ())) for v in vertices]
        assert _rows(self.store, vertices) == expect

    @invariant()
    def counts_and_bytes_match_model(self):
        assert self.store.num_vertices() == len(self.model)
        entries = sum(len(ns) for ns in self.model.values())
        # After num_vertices() nothing is queued: exactly the CSR arrays.
        assert self.store.nbytes == 8 * (2 * len(self.model) + 1 + entries)


TestNeighborTableMachine = NeighborTableMachine.TestCase
TestNeighborTableMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)


class TestPsFuncsDirect:
    def test_partial_dot_merge_sums_shards(self):
        rng = np.random.default_rng(0)
        full = rng.standard_normal((5, 6))
        shard_a = ColumnShardStore(5, np.array([0, 1, 2]))
        shard_b = ColumnShardStore(5, np.array([3, 4, 5]))
        shard_a.array[:] = full[:, :3]
        shard_b.array[:] = full[:, 3:]
        f = PartialDot(np.array([0, 1]), np.array([2, 3]))
        merged = f.merge([f.apply(shard_a), f.apply(shard_b)])
        expect = np.einsum("ij,ij->i", full[[0, 1]], full[[2, 3]])
        np.testing.assert_allclose(merged, expect, rtol=1e-6)

    @given(st.integers(1, 40), st.integers(0, 9),
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_partial_dot_merge_equals_the_stacked_sum(self, shards, n,
                                                      dtype, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        partials = [None if data.draw(st.booleans())
                    else (rng.standard_normal(n) * 1e3).astype(dtype)
                    for _ in range(shards)]
        before = [None if p is None else p.copy() for p in partials]
        got = PartialDot([], []).merge(partials)
        valid = [p for p in partials if p is not None]
        want = (np.sum(np.stack(valid), axis=0) if valid
                else np.sum(valid, axis=0))
        assert (got.dtype, got.shape, got.tobytes()) == (
            want.dtype, want.shape, want.tobytes())
        for p, q in zip(partials, before):  # the partials stay as they were
            assert (p is None) == (q is None)
            assert p is None or np.array_equal(p, q)

    def test_rank_one_update_shardwise_equals_full(self):
        rng = np.random.default_rng(1)
        full = rng.standard_normal((4, 4))
        shard_a = ColumnShardStore(4, np.array([0, 1]), dtype=np.float64)
        shard_b = ColumnShardStore(4, np.array([2, 3]), dtype=np.float64)
        shard_a.array[:] = full[:, :2]
        shard_b.array[:] = full[:, 2:]
        left, right = np.array([0]), np.array([2])
        g = np.array([0.5])
        f = RankOneUpdate(left, right, g)
        f.apply(shard_a)
        f.apply(shard_b)
        ref = full.copy()
        old0 = ref[0].copy()
        ref[0] += 0.5 * ref[2]
        ref[2] += 0.5 * old0
        got = np.hstack([shard_a.array, shard_b.array])
        np.testing.assert_allclose(got, ref, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [None, 16])
    def test_rank_one_update_overlapping_pairs_bitwise(self, dtype, block,
                                                       monkeypatch):
        """Order-1 LINE: ``left`` and ``right`` index the same rows, with
        repeats — with the request's plan kept, and (tiny block) too large
        to keep.  The property below draws the rest."""
        if block:
            monkeypatch.setattr(psfunc_module, "SCATTER_BLOCK", block)
        rng = np.random.default_rng(6)
        rows, pairs = 9, 40
        left = rng.integers(0, rows, size=pairs)
        right = rng.integers(0, rows, size=pairs)
        g = rng.standard_normal(pairs) * 0.3
        # the widths of a dim-8 matrix on 3 servers
        _assert_rank_one_is_two_add_ats(
            rows, left, right, g, [(w, dtype) for w in (3, 2, 3)], rng)

    @given(st.integers(1, 12), st.data())
    def test_rank_one_update_is_two_add_ats(self, rows, data):
        """Any pairs (none, repeated, ``left is right``), float64
        coefficients, one request over shards of several widths and
        dtypes, and a block bound below, at and above the size of one of
        its scatters: every shard ends byte for byte where the two
        ``np.add.at`` calls leave it."""
        draw = data.draw
        keys = st.lists(st.integers(0, rows - 1), max_size=30)
        left = np.array(draw(keys), dtype=np.int64)
        right = (left if draw(st.booleans()) else np.array(draw(
            st.lists(st.integers(0, rows - 1), min_size=len(left),
                     max_size=len(left))), dtype=np.int64))
        shards = draw(st.lists(st.tuples(
            st.integers(1, 8), st.sampled_from([np.float32, np.float64])),
            min_size=1, max_size=4))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        g = rng.standard_normal(len(left)) * draw(
            st.sampled_from([1e-3, 0.3, 1e3]))
        block = draw(st.one_of(
            st.none(), st.integers(1, 100),
            st.tuples(st.sampled_from(shards), st.integers(-1, 1)).map(
                lambda sd: 2 * len(left) * sd[0][0] + sd[1])))
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(psfunc_module, "SCATTER_BLOCK", block)
            _assert_rank_one_is_two_add_ats(rows, left, right, g, shards,
                                            rng)

    def test_request_bytes_ignore_the_cached_plan(self):
        left, right = np.arange(6), np.arange(6)[::-1].copy()
        shard = ColumnShardStore(6, np.arange(3))
        dot = PartialDot(left, right)
        update = RankOneUpdate(left, right, np.full(6, 0.5))
        for func, nbytes in ((dot, 8 + 48 + 48), (update, 8 + 48 + 48 + 48)):
            assert sizeof(func) == nbytes
            func.apply(shard)
            assert sizeof(func) == nbytes

    def test_column_shard_ops_equal_the_indexing_forms(self):
        rng = np.random.default_rng(7)
        shard = ColumnShardStore(8, np.arange(3))
        shard.array[:] = rng.standard_normal((8, 3))
        rows = rng.integers(0, 8, size=30)
        deltas = rng.standard_normal((30, 3))  # float64 into float32
        expect = shard.array.copy()
        np.add.at(expect, rows, deltas)
        shard.inc_row_slices(rows, deltas)
        assert shard.array.tobytes() == expect.tobytes()
        got = shard.get_row_slices(rows)
        assert got.tobytes() == expect[rows].tobytes()
        assert not np.shares_memory(got, shard.array)
        other = rng.integers(0, 8, size=30)
        want = np.einsum("ij,ij->i", expect[rows], expect[other])
        assert np.array_equal(shard.partial_dot(rows, other),
                              want.astype(np.float64))


def _assert_rank_one_is_two_add_ats(rows, left, right, g, shards, rng):
    """One ``RankOneUpdate`` applied to a shard of each ``(width, dtype)``
    in turn: each must end byte for byte where two ``np.add.at`` calls
    leave it — left's adds of the right rows, then right's of the left
    rows as they were before either."""
    func = RankOneUpdate(left, right, g)
    for width, dtype in shards:
        shard = ColumnShardStore(rows, np.arange(width), dtype=dtype)
        shard.array[:] = rng.standard_normal(shard.array.shape)
        expect = shard.array.copy()
        left_old = expect[left]
        coeff = g[:, None].astype(dtype)
        np.add.at(expect, left, coeff * expect[right])
        np.add.at(expect, right, coeff * left_old)
        func.apply(shard)
        assert shard.array.tobytes() == expect.tobytes()
