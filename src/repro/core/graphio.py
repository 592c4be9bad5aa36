"""GraphIO: loading inputs from and saving results to HDFS (Listing 1)."""

from __future__ import annotations

from repro.core.context import PSGraphContext
from repro.dataflow.dataframe import DataFrame
from repro.dataflow.rdd import RDD


class GraphIO:
    """Static helpers mirroring the paper's ``GraphIO.load`` / ``save``."""

    @staticmethod
    def load(ctx: PSGraphContext, path: str, *, weighted: bool = False,
             num_partitions: int | None = None) -> RDD:
        """Load an HDFS edge list as an RDD of EdgeBlocks."""
        from repro.core.ops import load_edges

        return load_edges(
            ctx.spark, path, weighted=weighted,
            num_partitions=num_partitions,
        )

    @staticmethod
    def save(df: DataFrame, path: str) -> None:
        """Save a result DataFrame as tab-separated text on HDFS."""
        df.rdd.map(
            lambda row: "\t".join(str(v) for v in row)
        ).save_as_text_file(path)
