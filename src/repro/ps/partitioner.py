"""Model partitioners for the parameter server.

"The graph data frequently accessed are partitioned over several machines.
For vectors and matrices, PS partitions them by row index and column index.
For graph vertex and neighbor table, PS partitions them by vertex index.
We implement hash partition, range partition, and hash-range partition"
(Sec. III-A).

A PS partitioner maps a model *key* (row index for ``axis=0`` matrices and
vertex tables; column index for ``axis=1`` matrices) to one of
``num_partitions`` model partitions; partitions are assigned to servers
round-robin.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError


class PSPartitioner:
    """Maps model keys in ``[0, size)`` to partitions ``[0, num_partitions)``."""

    def __init__(self, size: int, num_partitions: int) -> None:
        if size <= 0:
            raise ConfigError("model size must be positive")
        if num_partitions <= 0:
            raise ConfigError("num_partitions must be positive")
        self.size = size
        self.num_partitions = min(num_partitions, size)

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized partition indices."""
        raise NotImplementedError

    def keys_of_partition(self, pid: int) -> np.ndarray:
        """All keys living in partition ``pid`` (ascending)."""
        raise NotImplementedError


class HashPSPartitioner(PSPartitioner):
    """``key mod n`` — spreads hot keys, ignores locality."""

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        return (keys % self.num_partitions).astype(np.int64)

    def keys_of_partition(self, pid: int) -> np.ndarray:
        return np.arange(pid, self.size, self.num_partitions, dtype=np.int64)


class RangePSPartitioner(PSPartitioner):
    """Contiguous key ranges — locality-friendly, skew-prone."""

    def __init__(self, size: int, num_partitions: int) -> None:
        super().__init__(size, num_partitions)
        n = self.num_partitions
        base = size // n
        extra = size % n
        bounds = [0]
        for i in range(n):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
        #: partition ``i`` holds keys in ``[bounds[i], bounds[i+1])``.
        self.bounds = np.asarray(bounds, dtype=np.int64)

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        return (np.searchsorted(self.bounds, keys, side="right") - 1).astype(
            np.int64
        )

    def keys_of_partition(self, pid: int) -> np.ndarray:
        return np.arange(self.bounds[pid], self.bounds[pid + 1],
                         dtype=np.int64)


class HashRangePSPartitioner(PSPartitioner):
    """Hybrid-range partitioning [Ghandeharizadeh & DeWitt, PVLDB 1990].

    Keys are first scattered into buckets by a cheap hash, and buckets are
    then range-assigned to partitions — combining hash's load balance with
    range's bulk-transfer friendliness.  Concretely: the key space is split
    into ``num_partitions * buckets_per_partition`` contiguous chunks and
    chunk ``c`` goes to partition ``c mod num_partitions``.
    """

    def __init__(self, size: int, num_partitions: int,
                 buckets_per_partition: int = 8) -> None:
        super().__init__(size, num_partitions)
        if buckets_per_partition <= 0:
            raise ConfigError("buckets_per_partition must be positive")
        self.num_buckets = self.num_partitions * buckets_per_partition
        self.bucket_size = max(1, -(-size // self.num_buckets))

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        return ((keys // self.bucket_size) % self.num_partitions).astype(
            np.int64
        )

    def keys_of_partition(self, pid: int) -> np.ndarray:
        all_keys = np.arange(self.size, dtype=np.int64)
        return all_keys[self.partition_array(all_keys) == pid]


#: Registry used by :meth:`repro.ps.context.PSContext.create_matrix`.
PARTITIONERS = {
    "hash": HashPSPartitioner,
    "range": RangePSPartitioner,
    "hash-range": HashRangePSPartitioner,
}


def make_ps_partitioner(kind: str, size: int,
                        num_partitions: int) -> PSPartitioner:
    """Create a partitioner by name ("hash", "range", "hash-range")."""
    try:
        cls = PARTITIONERS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown partition kind {kind!r}; choose from "
            f"{sorted(PARTITIONERS)}"
        ) from None
    return cls(size, num_partitions)
