"""Base class for PSGraph algorithms (Listing 1's ``GraphAlgo``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.core.context import PSGraphContext
from repro.dataflow.dataframe import DataFrame
from repro.dataflow.rdd import RDD


@dataclass
class AlgorithmResult:
    """Uniform result wrapper: a DataFrame plus run statistics.

    Attributes:
        output: the algorithm's result table.
        iterations: supersteps / epochs executed.
        stats: free-form per-algorithm numbers (losses, counts, ...).
    """

    output: DataFrame
    iterations: int
    stats: Dict[str, Any]


class GraphAlgorithm:
    """One PSGraph algorithm: ``transform(dataset) -> DataFrame``.

    Subclasses configure themselves in ``__init__`` and implement
    :meth:`transform`, which receives an RDD of
    :class:`~repro.core.blocks.EdgeBlock` (what ``GraphIO.load`` returns)
    and the session context.
    """

    #: Human-readable algorithm name (set by subclasses).
    name = "algorithm"

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        """Run the algorithm on the edge dataset."""
        raise NotImplementedError

    def _unique_name(self, ctx: PSGraphContext, base: str) -> str:
        """A matrix name not yet used in this PS context."""
        candidate = base
        i = 0
        existing = set(ctx.ps.matrix_names())
        while candidate in existing:
            i += 1
            candidate = f"{base}-{i}"
        return candidate
