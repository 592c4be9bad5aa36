"""Vertex-value propagation on the parameter server: K-core, connected
components and label propagation as one BSP loop.

Neighbor tables stay in the executors' RDD partitions and one value per
vertex lives in a PS vector; each round pulls the neighbors' values,
applies a row operator and writes back the rows that changed, until none
does ("The implementation of K-core is similar to PageRank", Sec. V
footnote).  The algorithms differ in their seed and row operator only:

* K-core — degrees, then the h-index of the neighbors' estimates, which
  converges to the core number (Lü et al., 2016);
* connected components (an extension: GraphX ships it) — vertex ids, then
  the neighbors' minimum, converging in O(diameter) rounds;
* label propagation ("detects densely connected community", Sec. II-B) —
  vertex ids, then the neighbors' most frequent label, ties broken toward
  the smaller label for determinism.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.batch import h_index, segment_mode
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import NeighborBlock
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    max_vertex_id,
    push_degrees,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Each CSR entry's row.  A neighbor-table row is never empty, so the
    segment kernels return one value for every row, in row order."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class Propagation(GraphAlgorithm):
    """The BSP loop: seed a PS vector, refine every vertex's value from
    its neighbors' until none changes (or ``max_iterations`` rounds ran),
    emit ``(vertex, value)`` rows.  Subclasses name the vector, the output
    column and the stat, and implement :meth:`refine`; :meth:`seed` writes
    vertex ids unless overridden."""

    #: PS vector base name, output value column and stats key.
    vector = ""
    column = ""
    stats_key = ""
    #: Whether the stat counts distinct values (else emitted vertices).
    distinct = True
    #: PS partitioner kind for the value vector.
    partition = "range"

    def __init__(self, max_iterations: int = 50) -> None:
        self.max_iterations = max_iterations

    def seed(self, ctx: PSGraphContext, tables: RDD, n: int):
        """Create the value vector and write every vertex's start value
        (its id)."""
        values = ctx.ps.create_vector(
            self._unique_name(ctx, self.vector), n,
            partition=self.partition, init=-1.0,
        )

        def init(it: Iterator[NeighborBlock]) -> None:
            for block in it:
                if block.num_vertices:
                    values.set(block.vertices,
                               block.vertices.astype(np.float64))

        tables.foreach_partition(init)
        return values

    def refine(self, neighbor_values: np.ndarray, indptr: np.ndarray,
               own: np.ndarray) -> np.ndarray:
        """Every row's next value from its neighbors' values (CSR rows)
        and its own."""
        raise NotImplementedError

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        tables = to_neighbor_tables(dataset, symmetric=True,
                                    dedupe=True).cache()
        values = self.seed(ctx, tables, max_vertex_id(dataset) + 1)
        ctx.ps.barrier()
        cost_model = ctx.cluster.cost_model

        def step(it: Iterator[NeighborBlock]) -> int:
            changed = 0
            for block in it:
                if block.num_vertices == 0:
                    continue
                neighbor_values = values.pull(block.neighbors)
                own = values.pull(block.vertices)
                charge_primitive_compute(cost_model, len(block.neighbors))
                new = self.refine(neighbor_values, block.indptr, own)
                moved = new != own
                if moved.any():
                    values.set(block.vertices[moved], new[moved])
                    changed += int(moved.sum())
            return changed

        iterations = 0
        for _ in range(self.max_iterations):
            changed = sum(tables.foreach_partition(step))
            ctx.ps.barrier()
            iterations += 1
            if changed == 0:
                break

        def emit(it: Iterator[NeighborBlock]) -> list:
            rows = []
            for block in it:
                if block.num_vertices:
                    vals = values.pull(block.vertices).astype(np.int64)
                    rows.extend(zip(block.vertices.tolist(), vals.tolist()))
            return rows

        rows = [r for part in tables.foreach_partition(emit) for r in part]
        output = ctx.create_dataframe(rows, ["vertex", self.column])
        tables.unpersist()
        count = len({v for _u, v in rows} if self.distinct else rows)
        return AlgorithmResult(output, iterations,
                               stats={self.stats_key: count})


class KCore(Propagation):
    """PSGraph K-core (coreness of every vertex): estimates start at the
    degree and shrink to the h-index of the neighbors' estimates.

    Args:
        max_iterations: iteration budget (the h-index operator usually
            converges in a few dozen rounds).
    """

    name = "kcore"
    vector = "kcore"
    column = "coreness"
    stats_key = "num_vertices"
    distinct = False

    def seed(self, ctx: PSGraphContext, tables: RDD, n: int):
        cores = ctx.ps.create_vector(
            self._unique_name(ctx, self.vector), n, partition=self.partition
        )
        push_degrees(tables, cores)
        return cores

    def refine(self, neighbor_values, indptr, own):
        _rows, h = h_index(_row_ids(indptr), neighbor_values)
        return np.minimum(h, own)


class ConnectedComponents(Propagation):
    """PSGraph weakly connected components (min-label propagation).

    Args:
        max_iterations: round budget (component diameter bounds the need).
    """

    name = "connected-components"
    vector = "cc-labels"
    column = "component"
    stats_key = "num_components"

    def refine(self, neighbor_values, indptr, own):
        return np.minimum(np.minimum.reduceat(neighbor_values, indptr[:-1]),
                          own)


class LabelPropagation(Propagation):
    """PSGraph label propagation for community detection.

    Args:
        max_iterations: iteration budget (LPA converges quickly or
            oscillates; a small budget is standard).
    """

    name = "label-propagation"
    vector = "lpa-labels"
    column = "label"
    stats_key = "num_labels"
    partition = "hash"

    def __init__(self, max_iterations: int = 10) -> None:
        super().__init__(max_iterations)

    def refine(self, neighbor_values, indptr, own):
        return segment_mode(_row_ids(indptr), neighbor_values)[1]
