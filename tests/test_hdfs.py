"""Unit tests for the simulated HDFS."""

import numpy as np
import pytest

from repro.common.costs import CostModel
from repro.common.errors import (
    FileAlreadyExistsError,
    FileNotFoundOnHdfsError,
    HdfsError,
)
from repro.common.metrics import HDFS_BYTES_READ, HDFS_BYTES_WRITTEN, MetricsRegistry
from repro.common.simclock import TaskCost
from repro.hdfs.filesystem import Hdfs


@pytest.fixture
def fs():
    return Hdfs(metrics=MetricsRegistry())


class TestReadWrite:
    def test_text_roundtrip(self, fs):
        fs.write_text("/data/a.txt", ["one", "two"], overwrite=False)
        assert fs.read_lines("/data/a.txt", cost=None) == ["one", "two"]

    def test_bytes_roundtrip(self, fs):
        fs.write_bytes("/b", b"\x00\x01")
        assert fs.read_bytes("/b") == b"\x00\x01"

    def test_pickle_snapshot_is_deep_copy(self, fs):
        obj = {"v": np.arange(4)}
        fs.write_pickle("/ckpt/p0", obj, overwrite=False)
        obj["v"][0] = 99
        loaded = fs.read_pickle("/ckpt/p0", cost=None)
        assert loaded["v"][0] == 0

    def test_overwrite_required_for_existing(self, fs):
        fs.write_text("/x", "a", overwrite=False)
        with pytest.raises(FileAlreadyExistsError):
            fs.write_text("/x", "b", overwrite=False)
        fs.write_text("/x", "b", overwrite=True)
        assert fs.read_bytes("/x") == b"b"

    def test_missing_file_raises(self, fs):
        with pytest.raises(FileNotFoundOnHdfsError):
            fs.read_bytes("/nope")

    def test_empty_path_rejected(self, fs):
        with pytest.raises(HdfsError):
            fs.write_text("", "x", overwrite=False)

    def test_path_normalization(self, fs):
        fs.write_text("a/b/", "x", overwrite=False)
        assert fs.exists("/a/b")
        assert fs.read_bytes("/a/b/") == b"x"


class TestNamespace:
    def test_listdir_sorted(self, fs):
        fs.write_text("/d/2", "b", overwrite=False)
        fs.write_text("/d/1", "a", overwrite=False)
        fs.write_text("/other", "c", overwrite=False)
        assert fs.listdir("/d") == ["/d/1", "/d/2"]

    def test_input_files_is_the_file_or_the_files_under_it(self, fs):
        fs.write_text("/in/part-1", "b", overwrite=False)
        fs.write_text("/in/part-0", "a", overwrite=False)
        assert fs.input_files("/in/part-1") == ["/in/part-1"]
        assert fs.input_files("/in") == ["/in/part-0", "/in/part-1"]
        with pytest.raises(FileNotFoundOnHdfsError, match="/missing"):
            fs.input_files("/missing")
        # ... which a caller of the local filesystem's API catches too.
        assert issubclass(FileNotFoundOnHdfsError, FileNotFoundError)

    def test_delete_removes_one_file(self, fs):
        fs.write_text("/d/a", "1", overwrite=False)
        fs.write_text("/d/b", "2", overwrite=False)
        fs.delete("/d/a")
        assert fs.listdir("/d") == ["/d/b"]
        fs.delete("/d/b")
        assert fs.listdir("/d") == []

    def test_delete_missing_raises(self, fs):
        with pytest.raises(FileNotFoundOnHdfsError):
            fs.delete("/ghost")


class TestMetering:
    def test_write_charges_replicated_disk_time(self):
        cm = CostModel(disk_write_bps=100.0, disk_read_bps=100.0)
        fs = Hdfs(cost_model=cm)
        cost = TaskCost()
        fs.write_text("/a", "x" * 100, overwrite=False, cost=cost)
        assert cost.disk_s == pytest.approx(3.0)

    def test_read_charges_disk_time_once(self):
        cm = CostModel(disk_write_bps=100.0, disk_read_bps=100.0)
        fs = Hdfs(cost_model=cm)
        fs.write_bytes("/a", b"x" * 100)
        cost = TaskCost()
        fs.read_bytes("/a", cost=cost)
        assert cost.disk_s == pytest.approx(1.0)

    def test_metrics_counters(self, fs):
        fs.write_bytes("/a", b"x" * 10)
        fs.read_bytes("/a")
        assert fs.metrics.get(HDFS_BYTES_WRITTEN) == 30  # 3x replication
        assert fs.metrics.get(HDFS_BYTES_READ) == 10
