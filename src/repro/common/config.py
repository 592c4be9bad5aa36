"""Cluster and job configuration.

Mirrors the resource allocations of the paper's evaluation (Sec. V): a job
asks Yarn for N Spark executors of a given memory grant and, for PSGraph,
M parameter servers of a given grant.  Because the reproduction scales the
datasets down by a factor ``f``, the same ``f`` is applied to the per-
container memory grants via :meth:`ClusterConfig.scaled`, preserving the
memory-pressure behaviour (which executor OOMs and which does not).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.costs import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import ConfigError

GB = 1024 ** 3
MB = 1024 ** 2


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one simulated job's resources.

    Attributes:
        num_executors: number of Spark executor containers.
        executor_mem_bytes: memory grant per executor.
        num_servers: number of parameter-server containers (0 = no PS).
        server_mem_bytes: memory grant per parameter server.
        cost_model: hardware constants for the simulated cluster.

    An executor runs one task at a time, and an RDD created without a
    partition count gets one partition per executor.
    """

    num_executors: int = 4
    executor_mem_bytes: int = 4 * GB
    num_servers: int = 0
    server_mem_bytes: int = 0
    cost_model: CostModel = DEFAULT_COST_MODEL

    def __post_init__(self) -> None:
        if self.num_executors <= 0:
            raise ConfigError("num_executors must be positive")
        if self.num_servers < 0:
            raise ConfigError("num_servers must be non-negative")
        if self.executor_mem_bytes <= 0:
            raise ConfigError("executor_mem_bytes must be positive")
        if self.num_servers > 0 and self.server_mem_bytes <= 0:
            raise ConfigError("server_mem_bytes must be positive with PS")

    def scaled(self, factor: float) -> "ClusterConfig":
        """Scale per-container memory grants by ``factor`` (dataset scaling).

        Container *counts* are preserved — the paper's parallelism stays —
        while memory shrinks with the dataset so the OOM boundary is kept.
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return replace(
            self,
            executor_mem_bytes=max(1, int(self.executor_mem_bytes * factor)),
            server_mem_bytes=(
                max(1, int(self.server_mem_bytes * factor))
                if self.num_servers > 0
                else 0
            ),
        )


def psgraph_config_ds1() -> ClusterConfig:
    """Paper's PSGraph allocation for DS1: 100 executors (20GB) + 20 PS (15GB)."""
    return ClusterConfig(
        num_executors=100,
        executor_mem_bytes=20 * GB,
        num_servers=20,
        server_mem_bytes=15 * GB,
    )


def graphx_config_ds1() -> ClusterConfig:
    """Paper's GraphX allocation for DS1: 100 executors (55GB)."""
    return ClusterConfig(num_executors=100, executor_mem_bytes=55 * GB)


def psgraph_config_ds2() -> ClusterConfig:
    """Paper's PSGraph allocation for DS2: 300 executors (30GB) + 200 PS (30GB)."""
    return ClusterConfig(
        num_executors=300,
        executor_mem_bytes=30 * GB,
        num_servers=200,
        server_mem_bytes=30 * GB,
    )


def graphx_config_ds2() -> ClusterConfig:
    """Paper's GraphX allocation for DS2: 500 executors (55GB)."""
    return ClusterConfig(num_executors=500, executor_mem_bytes=55 * GB)


def psgraph_config_ds3() -> ClusterConfig:
    """Paper's PSGraph allocation for DS3: 30 executors + 30 PS, 10GB each."""
    return ClusterConfig(
        num_executors=30,
        executor_mem_bytes=10 * GB,
        num_servers=30,
        server_mem_bytes=10 * GB,
    )


def euler_config_ds3() -> ClusterConfig:
    """Paper's Euler allocation for DS3: 90 executors (50GB)."""
    return ClusterConfig(num_executors=90, executor_mem_bytes=50 * GB)
