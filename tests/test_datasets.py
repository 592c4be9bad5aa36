"""Tests for the synthetic dataset generators and Tencent stand-ins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.common.textcodec import encode_rows
from repro.datasets import generators
from repro.datasets.generators import (
    community_graph,
    powerlaw_graph,
    vertex_features,
)
from repro.datasets.tencent import (
    ds1_spec,
    ds2_spec,
    ds3_spec,
    generate_ds3_gnn,
    generate_edges,
    write_edges,
)
from repro.hdfs.filesystem import Hdfs
from tests.conftest import digest


class TestPowerlaw:
    def test_shape_and_range(self):
        src, dst = powerlaw_graph(100, 500, seed=1)
        assert len(src) == len(dst) == 500
        assert src.min() >= 0 and src.max() < 100
        assert (src != dst).all()  # no self loops

    def test_deterministic_per_seed(self):
        a = powerlaw_graph(50, 200, seed=5)
        b = powerlaw_graph(50, 200, seed=5)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_different_seeds_differ(self):
        a = powerlaw_graph(50, 200, seed=5)
        b = powerlaw_graph(50, 200, seed=6)
        assert not ((a[0] == b[0]).all() and (a[1] == b[1]).all())

    def test_degree_distribution_is_skewed(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_DEGREE_SHARE", 0.02)
        src, dst = powerlaw_graph(2000, 30000, seed=2)
        deg = np.bincount(np.concatenate([src, dst]))
        assert deg.max() > 5 * deg[deg > 0].mean()

    def test_default_cap_still_leaves_hubs(self):
        src, dst = powerlaw_graph(2000, 30000, seed=2)
        deg = np.bincount(np.concatenate([src, dst]))
        assert deg.max() > 3 * deg[deg > 0].mean()

    def test_max_degree_share_enforced(self):
        share = generators.MAX_DEGREE_SHARE
        src, dst = powerlaw_graph(5000, 60000, seed=3)
        deg = np.bincount(np.concatenate([src, dst]))
        # Statistical cap: max degree close to share * endpoints.
        assert deg.max() < share * 2 * len(src) * 1.5

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            powerlaw_graph(1, 10)
        with pytest.raises(ConfigError):
            powerlaw_graph(10, 0)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 200), st.integers(1, 500))
    def test_always_valid_edges(self, n, m):
        src, dst = powerlaw_graph(n, m, seed=7)
        assert len(src) == m
        assert ((src >= 0) & (src < n)).all()
        assert ((dst >= 0) & (dst < n)).all()


def community_graph_per_edge(num_vertices, num_communities, *,
                             avg_degree, mixing, seed):
    """``community_graph`` as it drew each destination with its own
    ``rng.integers`` call: the reference the one-draw form is held to."""
    rng = make_rng(seed)
    communities = rng.integers(0, num_communities, size=num_vertices)
    members = [np.flatnonzero(communities == c)
               for c in range(num_communities)]
    num_edges = max(1, int(num_vertices * avg_degree / 2))
    src = rng.integers(0, num_vertices, size=num_edges)
    outside = rng.random(num_edges) < mixing
    dst = np.empty(num_edges, dtype=np.int64)
    for i, s in enumerate(src.tolist()):
        if outside[i]:
            dst[i] = rng.integers(0, num_vertices)
        else:
            pool = members[communities[s]]
            dst[i] = pool[rng.integers(0, len(pool))]
    keep = src != dst
    return src[keep], dst[keep], communities


#: ``digest((src, dst, communities))`` of ``community_graph`` on the DS3
#: shape (20 communities, DS3's average degree, ``DEFAULT_SEED``), by
#: scale and mixing, computed while each destination had its own draw;
#: 0.15 is ``generate_ds3_gnn``'s mixing.
DS3_COMMUNITY_PINS = {
    (1e-3, 0.0): "7616b3dbc160651b",
    (1e-3, 0.15): "5e97c5181d59a430",
    (1e-3, 1.0): "700d6435f4e58cc2",
    (5e-4, 0.0): "202fe06a7476d4a2",
    (5e-4, 0.15): "5cf0158d554f668c",
    (5e-4, 1.0): "f056881a177a852e",
}
#: ``digest(generate_ds3_gnn(ds3_spec(scale)))``, computed at the same time.
DS3_GNN_PINS = {1e-3: "7685f17904c3295f", 5e-4: "9814561190afc4a6"}


class TestCommunityGraph:
    @pytest.mark.parametrize("scale,mixing", sorted(DS3_COMMUNITY_PINS))
    def test_ds3_shape_matches_pin(self, scale, mixing):
        spec = ds3_spec(scale)
        out = community_graph(
            spec.num_vertices, 20,
            avg_degree=2.0 * spec.num_edges / spec.num_vertices,
            mixing=mixing, seed=DEFAULT_SEED)
        assert digest(out) == DS3_COMMUNITY_PINS[scale, mixing]

    @pytest.mark.parametrize("scale", sorted(DS3_GNN_PINS))
    def test_ds3_gnn_bundle_matches_pin(self, scale):
        assert digest(generate_ds3_gnn(ds3_spec(scale))) == \
            DS3_GNN_PINS[scale]

    def test_one_vertex_communities_match_pin(self):
        # A one-vertex community draws from a pool of one: a draw with
        # high 1, which consumes no bits.
        out = community_graph(40, 30, avg_degree=4.0, mixing=0.3, seed=3)
        assert (np.bincount(out[2], minlength=30) == 1).sum() == 11
        assert digest(out) == "c5471312a06fa31a"
        # One vertex in all: every edge is a self-loop and is dropped.
        out = community_graph(1, 1, avg_degree=4.0, mixing=0.3, seed=0)
        assert len(out[0]) == 0
        assert digest(out) == "149bed0f1ba3ab5f"

    @settings(deadline=None)
    @given(st.integers(1, 300), st.integers(1, 40), st.floats(0.5, 12.0),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.integers(0, 2 ** 32))
    def test_one_draw_equals_per_edge_draws(self, n, k, avg_degree, mixing,
                                            seed):
        k = min(k, n)
        got = community_graph(n, k, avg_degree=avg_degree, mixing=mixing,
                              seed=seed)
        want = community_graph_per_edge(n, k, avg_degree=avg_degree,
                                        mixing=mixing, seed=seed)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert a.tolist() == b.tolist()

    def test_returns_ground_truth(self):
        src, dst, comm = community_graph(200, 4, seed=1)
        assert len(comm) == 200
        assert set(np.unique(comm)) <= set(range(4))

    def test_mixing_zero_keeps_edges_internal(self):
        src, dst, comm = community_graph(200, 4, mixing=0.0, seed=2)
        assert (comm[src] == comm[dst]).all()

    def test_high_mixing_crosses_communities(self):
        src, dst, comm = community_graph(300, 3, mixing=1.0, seed=3)
        cross = (comm[src] != comm[dst]).mean()
        assert cross > 0.4

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            community_graph(10, 0)
        with pytest.raises(ConfigError):
            community_graph(10, 2, mixing=1.5)


class TestFeatures:
    def test_shapes_and_types(self):
        comm = np.array([0, 1, 2, 0, 1])
        feats, labels = vertex_features(comm, 8, 3, seed=1)
        assert feats.shape == (5, 8)
        assert feats.dtype == np.float32
        assert labels.tolist() == [0, 1, 2, 0, 1]

    def test_labels_wrap_by_classes(self):
        comm = np.array([0, 1, 2, 3])
        _f, labels = vertex_features(comm, 4, 2, seed=1)
        assert labels.tolist() == [0, 1, 0, 1]

    def test_low_noise_separable(self):
        comm = np.repeat(np.arange(3), 50)
        feats, labels = vertex_features(comm, 16, 3, noise=0.1, seed=2)
        # Nearest-centroid classification should be nearly perfect.
        centroids = np.stack([feats[labels == c].mean(axis=0)
                              for c in range(3)])
        d = ((feats[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == labels).mean() > 0.95


class TestSpecs:
    def test_edges_per_vertex_ratios(self):
        assert ds1_spec(1e-4).num_edges / ds1_spec(1e-4).num_vertices == \
            pytest.approx(13.75, rel=0.01)
        assert ds2_spec(1e-4).num_edges / ds2_spec(1e-4).num_vertices == \
            pytest.approx(70, rel=0.01)
        assert ds3_spec(1e-2).num_edges / ds3_spec(1e-2).num_vertices == \
            pytest.approx(100 / 30, rel=0.01)

    def test_minimum_sizes(self):
        tiny = ds1_spec(1e-12)
        assert tiny.num_vertices >= 64
        assert tiny.num_edges >= 256

    def test_generate_edges_matches_spec(self):
        spec = ds1_spec(2e-6)
        src, dst = generate_edges(spec, seed=1)
        assert len(src) == spec.num_edges
        assert max(src.max(), dst.max()) < spec.num_vertices

    def test_ds3_gnn_bundle(self):
        spec = ds3_spec(1e-4)
        src, dst, feats, labels = generate_ds3_gnn(spec, 8, 4, seed=1)
        assert feats.shape[0] == spec.num_vertices
        assert labels.max() < 4
        assert max(src.max(), dst.max()) < spec.num_vertices


class TestWriteEdges:
    def test_files_and_lines(self):
        fs = Hdfs(metrics=MetricsRegistry())
        src = np.arange(10)
        dst = np.arange(10) + 1
        write_edges(fs, "/e", src, dst, num_files=3)
        files = fs.listdir("/e")
        assert len(files) == 3
        lines = [l for f in files for l in fs.read_lines(f, cost=None)]
        assert len(lines) == 10
        assert lines[0].count("\t") == 1

    def test_weighted_format(self):
        fs = Hdfs(metrics=MetricsRegistry())
        write_edges(fs, "/w", np.array([1]), np.array([2]),
                    num_files=1, weights=np.array([0.25]))
        line = fs.read_lines("/w/part-00000", cost=None)[0]
        assert line.split("\t") == ["1", "2", "0.250000"]

    @pytest.mark.parametrize("id_dtype", [np.int64, np.int32, np.uint64])
    @pytest.mark.parametrize("w_dtype", [None, np.float64, np.float32])
    def test_bytes_match_numpy_scalar_format(self, id_dtype, w_dtype):
        """The files are the bytes the numpy-scalar f-strings give, for
        ids past 2**31 (negative ones and each dtype's extremes too) and
        weights that need rounding."""
        rng = np.random.default_rng(5)
        info = np.iinfo(id_dtype)
        src = np.concatenate([rng.integers(0, 1 << 20, 40),
                              [0, 2**31 - 1, 2**31, 2**40 + 3]])
        if id_dtype is np.int32:
            src = src[src < 2**31]
        src = np.concatenate([src.astype(id_dtype),
                              np.array([info.min, info.max], dtype=id_dtype)])
        if info.min < 0:
            src = np.concatenate([src, -src[:8]])
        dst = src[::-1].copy()
        weights = None
        if w_dtype is not None:
            weights = np.concatenate([
                rng.random(len(src) - 4),
                [0.0000005, 0.1234565, 2.5e-7, 123456.7891235],
            ]).astype(w_dtype)
        fs = Hdfs(metrics=MetricsRegistry())
        write_edges(fs, "/b", src, dst, num_files=3, weights=weights)
        for i in range(3):
            sl = slice(i, None, 3)
            if weights is None:
                want = [f"{s}\t{d}" for s, d in zip(src[sl], dst[sl])]
            else:
                want = [f"{s}\t{d}\t{w:.6f}" for s, d, w
                        in zip(src[sl], dst[sl], weights[sl])]
            assert fs.read_bytes(f"/b/part-{i:05d}") == \
                "".join(line + "\n" for line in want).encode()

    @settings(deadline=None)
    @given(st.sampled_from([np.int64, np.int32, np.uint64, np.int8,
                            np.uint16]),
           st.integers(0, 12), st.sampled_from([None, np.float64,
                                                np.float32]),
           st.sampled_from([b"", b"-e\t", b"-v\t"]), st.data())
    def test_encoded_rows_equal_fstring_lines(self, dtype, rows, w_dtype,
                                              marker, data):
        info = np.iinfo(dtype)
        ints = st.lists(st.integers(int(info.min), int(info.max)),
                        min_size=rows, max_size=rows)
        src = np.asarray(data.draw(ints), dtype=dtype)
        dst = np.asarray(data.draw(ints), dtype=dtype)
        if w_dtype is None:
            got = encode_rows(marker + b"%d\t%d\n", [src, dst])
            want = [f"{s}\t{d}" for s, d in zip(src, dst)]
        else:
            weights = np.asarray(data.draw(st.lists(
                st.floats(-1e9, 1e9, width=np.finfo(w_dtype).bits),
                min_size=rows, max_size=rows)), dtype=w_dtype)
            got = encode_rows(marker + b"%d\t%d\t%.6f\n",
                              [src, dst, weights])
            want = [f"{s}\t{d}\t{w:.6f}"
                    for s, d, w in zip(src, dst, weights)]
        assert got == "".join(
            marker.decode() + line + "\n" for line in want).encode()
