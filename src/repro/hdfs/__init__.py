"""Simulated HDFS: in-memory block filesystem with metered IO."""

from repro.hdfs.filesystem import Hdfs, HdfsFile

__all__ = ["Hdfs", "HdfsFile"]
