"""PSGraphContext — the top-level session object of PSGraph.

Wires together the two contexts of Listing 1 (``SparkContext.getOrCreate();
PSContext.getOrCreate()``): a Spark dataflow context for computation and a
parameter-server context for model storage, sharing one Yarn, one HDFS, one
RPC fabric and one metrics registry.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.batch import RowBatch
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry
from repro.dataflow.context import SparkContext
from repro.dataflow.dataframe import DataFrame
from repro.hdfs.filesystem import Hdfs
from repro.obs.tracer import NOOP_TRACER, NoopTracer
from repro.ps.context import PSContext


class PSGraphContext:
    """One PSGraph session: Spark executors + parameter servers.

    Args:
        cluster: resource allocation (executors and servers) + cost model.
        sync_mode: PS synchronization protocol ("bsp" or "asp").
        app_name: label for the driver container.
        hdfs: optionally share an existing filesystem (e.g. with a baseline
            system reading the same input).
        tracer: sim-time span tracer (see :mod:`repro.obs`); the default
            no-op tracer records nothing and costs nothing.
        checkpoint_interval: PS auto-checkpoint policy — every Nth barrier
            (or completed iteration, for recovery-aware algorithms)
            snapshots every model to HDFS; 0 disables periodic
            checkpoints (see docs/fault-tolerance.md).
    """

    def __init__(self, cluster: ClusterConfig, *, sync_mode: str = "bsp",
                 app_name: str = "psgraph",
                 hdfs: Hdfs | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: NoopTracer = NOOP_TRACER,
                 checkpoint_interval: int = 0) -> None:
        self.cluster = cluster
        self.spark = SparkContext(
            cluster, app_name=app_name, hdfs=hdfs, metrics=metrics,
            tracer=tracer,
        )
        self.ps = PSContext(self.spark, sync_mode=sync_mode,
                            checkpoint_interval=checkpoint_interval)
        self._stopped = False

    # -- conveniences --------------------------------------------------------

    @property
    def hdfs(self) -> Hdfs:
        """The shared filesystem."""
        return self.spark.hdfs

    @property
    def metrics(self) -> MetricsRegistry:
        """The shared metrics registry."""
        return self.spark.metrics

    @property
    def tracer(self) -> NoopTracer:
        """The session's span tracer (no-op unless one was passed in)."""
        return self.spark.tracer

    def sim_time(self) -> float:
        """Simulated job time so far, in seconds (driver clock)."""
        return self.spark.sim_time()

    def sync_clocks(self) -> float:
        """Barrier driver + executors + servers; returns the time."""
        self.spark.sync_clocks()
        return self.ps.barrier()

    def create_dataframe(self, rows: Sequence[tuple] | RowBatch,
                         schema: Sequence[str]) -> DataFrame:
        """Listing 1's ``SparkContext.createDataFrame``: driver rows, as
        tuples or one :class:`~repro.common.batch.RowBatch` of columns,
        one partition per executor.  Every row must be as wide as
        ``schema``."""
        widths = ({rows.row_width} if type(rows) is RowBatch
                  else set(map(len, rows)))
        if widths - {len(schema)}:
            raise ConfigError(
                f"rows of width {sorted(widths)} under the "
                f"{len(schema)}-column schema {list(schema)}")
        return DataFrame(self.spark.parallelize(rows), schema)

    def stop(self) -> None:
        """Release every container of the session."""
        if self._stopped:
            return
        self._stopped = True
        self.ps.stop()
        self.spark.stop()

    def __enter__(self) -> "PSGraphContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
