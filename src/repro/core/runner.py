"""GraphRunner — Listing 1's end-to-end driver program.

Mirrors the paper's example: create the contexts, load the graph from the
data source, run the algorithm, save the generated model::

    runner = GraphRunner(ctx)
    result = runner.run(PageRank(), "/input/edges", "/output/ranks")

Each phase (load / transform / save) is timed into the ``runner.*``
histograms and traced on the driver's "phases" track.
"""

from __future__ import annotations

from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.context import PSGraphContext
from repro.core.graphio import GraphIO


class GraphRunner:
    """Loads input, runs one algorithm, optionally saves the output."""

    def __init__(self, ctx: PSGraphContext) -> None:
        self.ctx = ctx

    def _phase(self, name: str):
        """Sim-clock timer for one runner phase (``runner.<name>`` hist)."""
        return self.ctx.metrics.timer(f"runner.{name}",
                                      self.ctx.spark.driver_clock)

    def run(self, algo: GraphAlgorithm, input_path: str,
            output_path: str | None = None, *,
            weighted: bool = False,
            num_partitions: int | None = None) -> AlgorithmResult:
        """Execute ``algo`` over the HDFS edge list at ``input_path``.

        Args:
            algo: a configured :class:`GraphAlgorithm`.
            input_path: HDFS directory (or file) of edge lines.
            output_path: when given, the result DataFrame is saved there.
            weighted: parse a third weight column (fast unfolding input).
            num_partitions: RDD partitions for the edge dataset.
        """
        tracer = self.ctx.tracer
        clock = self.ctx.spark.driver_clock
        algo_name = type(algo).__name__

        with tracer.clock_span("driver", "phases", "load", clock,
                               {"input": input_path}), \
                self._phase("load_s"):
            graph = GraphIO.load(
                self.ctx, input_path, weighted=weighted,
                num_partitions=num_partitions,
            )
        with tracer.clock_span("driver", "phases", "transform", clock,
                               {"algorithm": algo_name}), \
                self._phase("transform_s"):
            result = algo.transform(self.ctx, graph)
        if output_path is not None:
            with tracer.clock_span("driver", "phases", "save", clock,
                                   {"output": output_path}), \
                    self._phase("save_s"):
                GraphIO.save(result.output, output_path)
        return result
