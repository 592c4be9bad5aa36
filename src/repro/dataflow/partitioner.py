"""Partitioners for keyed RDDs.

A partitioner maps a record key to a reduce-partition index.  Hash
partitioning is Spark's default and is what GraphX uses for its vertex and
edge tables.  ``partition_array`` is the vectorized fast path for numpy
integer keys, which the graph algorithms use to bucket millions of edges
without a Python-level loop.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.errors import ConfigError


class Partitioner:
    """Maps keys to ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ConfigError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        """Partition index for a single key."""
        raise NotImplementedError

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized partition indices for an array of integer keys."""
        return np.fromiter(
            (self.partition(k) for k in keys), dtype=np.int64, count=len(keys)
        )

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and (
            self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: ``hash(key) mod n`` (non-negative)."""

    def partition(self, key: Any) -> int:
        return hash(key) % self.num_partitions

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        if np.issubdtype(keys.dtype, np.integer):
            return (keys % self.num_partitions).astype(np.int64)
        return super().partition_array(keys)
