"""Tests for the synthetic dataset generators and Tencent stand-ins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry
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

    def test_degree_distribution_is_skewed(self):
        src, dst = powerlaw_graph(2000, 30000, seed=2,
                                  max_degree_share=0.02)
        deg = np.bincount(np.concatenate([src, dst]))
        assert deg.max() > 5 * deg[deg > 0].mean()

    def test_default_cap_still_leaves_hubs(self):
        src, dst = powerlaw_graph(2000, 30000, seed=2)
        deg = np.bincount(np.concatenate([src, dst]))
        assert deg.max() > 3 * deg[deg > 0].mean()

    def test_max_degree_share_enforced(self):
        share = 0.002
        src, dst = powerlaw_graph(5000, 60000, seed=3,
                                  max_degree_share=share)
        deg = np.bincount(np.concatenate([src, dst]))
        # Statistical cap: max degree close to share * endpoints.
        assert deg.max() < share * 2 * len(src) * 1.5

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            powerlaw_graph(1, 10)
        with pytest.raises(ConfigError):
            powerlaw_graph(10, 0)
        with pytest.raises(ConfigError):
            powerlaw_graph(10, 10, max_degree_share=0)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 200), st.integers(1, 500))
    def test_always_valid_edges(self, n, m):
        src, dst = powerlaw_graph(n, m, seed=7)
        assert len(src) == m
        assert ((src >= 0) & (src < n)).all()
        assert ((dst >= 0) & (dst < n)).all()


class TestCommunityGraph:
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
        lines = [l for f in files for l in fs.read_lines(f)]
        assert len(lines) == 10
        assert lines[0].count("\t") == 1

    def test_weighted_format(self):
        fs = Hdfs(metrics=MetricsRegistry())
        write_edges(fs, "/w", np.array([1]), np.array([2]),
                    num_files=1, weights=np.array([0.25]))
        line = fs.read_lines("/w/part-00000")[0]
        assert line.split("\t") == ["1", "2", "0.250000"]

    @pytest.mark.parametrize("id_dtype", [np.int64, np.int32, np.uint64])
    @pytest.mark.parametrize("w_dtype", [None, np.float64, np.float32])
    def test_bytes_match_numpy_scalar_format(self, id_dtype, w_dtype):
        """Lines are formatted from Python scalars; the files are the
        bytes the numpy-scalar f-strings give, for ids past 2**31 and
        weights that need rounding."""
        rng = np.random.default_rng(5)
        src = np.concatenate([rng.integers(0, 1 << 20, 40),
                              [0, 2**31 - 1, 2**31, 2**40 + 3]])
        if id_dtype is np.int32:
            src = src[src < 2**31]
        src = src.astype(id_dtype)
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
            assert fs.read_lines(f"/b/part-{i:05d}") == want
