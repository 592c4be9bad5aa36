"""Direct unit + property tests of the PS server-side stores and psFuncs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.conftest import table_block

from repro.common.errors import PSError
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
        assert s.degree(np.array([1, 4, 9, 4])).tolist() == [1, 3, 0, 3]
        assert s.num_vertices() == 2

    def test_empty_store_and_empty_request(self):
        s = NeighborTableStore()
        assert _rows(s, [3, 3]) == [[], []]
        assert s.degree(np.array([3])).tolist() == [0]
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
        assert self.store.degree(
            np.asarray(vertices, np.int64)).tolist() == [len(r) for r in expect]

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
