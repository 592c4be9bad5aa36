"""The batched draw kernel against the per-pool numpy calls it replaces.

``repro.common.rng.bounded_draws`` and ``choice_positions`` make every
neighbour draw of a sampling hop in one pass over the generator's stream.
They must return what one ``rng.integers(0, e)`` per bound, or one
``rng.choice`` per pool, returns on the installed numpy, and leave the
generator where those calls leave it.  Each property here holds the
kernel to that loop, then compares the generators' next draws:

- pools of size 1, pools no larger than ``k`` and pools far larger;
- pool sizes near ``2**31``, where about half of the words are rejected
  and drawn again;
- numpy's tail-shuffle regime (``p > 10,000`` and ``k > p // 50``);
- sampling with replacement, and bounds up to ``2**32``.

``_sample_walks`` is held to DeepWalk's per-walker loop, which it
replaced, and to walks recorded from that loop.  Example counts follow the
hypothesis profile (``tests/conftest.py``): small in tier-1, ``deep`` in
the ``sampling`` entry of the ``smoke`` CI matrix.
"""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import bounded_draws, choice_positions
from repro.core.algorithms.deepwalk import _sample_walks
from repro.core.blocks import NeighborBlock

seeds = st.integers(0, 2**32 - 1)


def loop_choice(rng, sizes, k, replace):
    """``(row, pos)`` from one ``rng.choice`` per pool."""
    rows, pos = [], []
    for i, p in enumerate(sizes):
        chosen = rng.choice(p, size=k if replace else min(k, p),
                            replace=replace)
        rows += [i] * len(chosen)
        pos += chosen.tolist()
    return rows, pos


def assert_same_draws(sizes, k, replace, seed):
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = loop_choice(want_rng, sizes, k, replace)
    row, pos = choice_positions(got_rng, np.asarray(sizes, dtype=np.int64),
                                k, replace)
    assert row.dtype == pos.dtype == np.int64
    assert (row.tolist(), pos.tolist()) == want
    assert got_rng.integers(0, 2**63) == want_rng.integers(0, 2**63)


@given(st.lists(st.one_of(st.just(1), st.integers(1, 12),
                          st.integers(13, 5_000)), max_size=40),
       st.integers(1, 25), seeds)
def test_choice_without_replacement(sizes, k, seed):
    assert_same_draws(sizes, k, False, seed)


@given(st.lists(st.integers(2**31 - 64, 2**31 + 64), max_size=12),
       st.integers(1, 12), seeds)
def test_choice_from_pools_near_2_31(sizes, k, seed):
    assert_same_draws(sizes, k, False, seed)


@given(st.lists(st.one_of(st.integers(10_001, 14_000), st.integers(1, 40)),
                min_size=1, max_size=4),
       st.integers(1, 400), seeds)
def test_choice_in_the_tail_shuffle_regime(sizes, k, seed):
    # numpy shuffles a tail of arange(p) when p > 10,000 and k > p // 50
    # (k >= 201 here), else runs Floyd's algorithm.
    assert_same_draws(sizes, k, False, seed)


@given(st.lists(st.one_of(st.just(1), st.integers(1, 2**31 + 64)),
                max_size=30),
       st.integers(1, 12), seeds)
def test_choice_with_replacement(sizes, k, seed):
    assert_same_draws(sizes, k, True, seed)


@given(st.lists(st.one_of(st.integers(0, 3), st.integers(1, 1_000),
                          st.integers(2**31 - 64, 2**31 + 64),
                          st.integers(2**32 - 64, 2**32)), max_size=60),
       seeds)
def test_bounded_draws(bounds, seed):
    # Bounds 0 and 1 draw nothing and give 0, as a walker on a vertex
    # without neighbors is left out of DeepWalk's draw.
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = [int(want_rng.integers(0, e)) if e > 1 else 0 for e in bounds]
    got = bounded_draws(got_rng, np.asarray(bounds, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want
    assert got_rng.integers(0, 2**63) == want_rng.integers(0, 2**63)


@pytest.mark.parametrize("replace", [False, True])
def test_empty_input_draws_nothing(replace):
    rng = np.random.default_rng(3)
    row, pos = choice_positions(rng, np.zeros(0, dtype=np.int64), 5, replace)
    assert row.tolist() == pos.tolist() == []
    assert bounded_draws(rng, []).tolist() == []
    assert rng.integers(0, 2**63) == np.random.default_rng(3).integers(
        0, 2**63)


def test_a_bound_above_2_32_is_refused():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        bounded_draws(np.random.default_rng(0), [2**32 + 1])


# ----------------------------------------------------------------------
# DeepWalk's walks
# ----------------------------------------------------------------------


def table(rows):
    """A neighbor table whose ``get`` returns ``rows`` aligned to ids."""
    def get(ids):
        lens = [len(rows[v]) for v in ids.tolist()]
        return NeighborBlock(
            ids, np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
            np.concatenate([rows[v] for v in ids.tolist()]
                           + [np.empty(0)]).astype(np.int64))
    return SimpleNamespace(get=get)


def loop_walks(adj, vertices, length, per_vertex, rng):
    """DeepWalk's walks as one ``rng.integers`` per walker and step."""
    current = np.repeat(vertices, per_vertex)
    walks = np.empty((len(current), length), dtype=np.int64)
    walks[:, 0] = current
    for step in range(1, length):
        uniq, inverse = np.unique(current, return_inverse=True)
        tables = adj.get(uniq)
        starts = tables.indptr[inverse].tolist()
        degrees = tables.degrees()[inverse].tolist()
        nxt = np.empty(len(current), dtype=np.int64)
        for i, (start, degree) in enumerate(zip(starts, degrees)):
            if degree == 0:
                nxt[i] = current[i]
                continue
            nxt[i] = tables.neighbors[start + rng.integers(0, degree)]
        current = nxt
        walks[:, step] = current
    return walks


def random_rows(seed, n):
    """``n`` rows of 0–5 neighbors (repeats allowed); row 0 is empty."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 6, n) * (rng.random(n) > 0.25)
    lens[0] = 0
    return [rng.integers(0, n, int(m)) for m in lens]


@given(seeds, st.integers(1, 30), st.integers(1, 6), st.integers(1, 3),
       seeds)
def test_walks_equal_the_per_walker_loop(graph_seed, n, length, per_vertex,
                                         seed):
    adj = table(random_rows(graph_seed, n))
    starts = np.arange(n, dtype=np.int64)
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = loop_walks(adj, starts, length, per_vertex, want_rng)
    got = _sample_walks(adj, starts, length, per_vertex, got_rng)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.integers(0, 2**63) == want_rng.integers(0, 2**63)


def test_walks_match_the_recorded_walks():
    # Recorded from the per-walker loop (``loop_walks``) before the kernel
    # replaced it: the walks' CRC-32 and the generator's next draw.
    rng = np.random.default_rng(7)
    walks = _sample_walks(table(random_rows(2020, 40)),
                          np.arange(40, dtype=np.int64), 8, 3, rng)
    assert walks.shape == (120, 8)
    assert zlib.crc32(walks.tobytes()) == 1749441084
    assert int(rng.integers(0, 2**32)) == 4088978477
