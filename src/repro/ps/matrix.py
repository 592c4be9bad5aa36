"""Client-side handles for PS-resident models.

These are the objects algorithm code holds: thin, picklable-free views that
route every operation through the PS agent.  Mirrors the paper's
``PSContext.matrix(row, col, DataType)`` handle from Listing 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ps.agent import check_rows
from repro.ps.meta import MatrixMeta
from repro.ps.psfunc import PartialDot, PsFunc, RankOneUpdate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.blocks import NeighborBlock
    from repro.ps.context import PSContext


class PSMatrix:
    """Handle to a row-partitioned (axis=0) matrix on the PS."""

    def __init__(self, psctx: "PSContext", meta: MatrixMeta) -> None:
        self.psctx = psctx
        self.meta = meta

    @property
    def name(self) -> str:
        """Matrix name."""
        return self.meta.name

    @property
    def shape(self) -> tuple:
        """(rows, cols)."""
        return (self.meta.rows, self.meta.cols)

    def pull(self, keys: np.ndarray, col: int | None = None) -> np.ndarray:
        """Rows (or one column of them) for ``keys``."""
        return self.psctx.agent.pull(self.meta, keys, col)

    def push(self, keys: np.ndarray, deltas: np.ndarray,
             col: int | None = None) -> None:
        """Increment rows for ``keys``."""
        self.psctx.agent.push(self.meta, keys, deltas, col)

    def set(self, keys: np.ndarray, values: np.ndarray,
            col: int | None = None) -> None:
        """Overwrite rows for ``keys``."""
        self.psctx.agent.set(self.meta, keys, values, col)

    def psfunc(self, func: PsFunc) -> Any:
        """Run a server-side UDF over every partition; merged result."""
        return self.psctx.agent.psfunc(self.meta, func)

    def apply_gradients(self, grad: np.ndarray) -> None:
        """Ship a full-shape gradient to the server-side optimizer."""
        self.psctx.agent.apply_gradients(self.meta, grad)

    def to_numpy(self) -> np.ndarray:
        """Assemble the whole matrix at the caller (driver convenience)."""
        return self.psctx.agent.pull_all(self.meta)


class PSVector(PSMatrix):
    """Handle to a 1-column matrix; its one column is read and written as
    1-d arrays."""

    def pull(self, keys: np.ndarray) -> np.ndarray:
        return self.psctx.agent.pull(self.meta, keys, 0)

    def push(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        self.psctx.agent.push(self.meta, keys, deltas, 0)

    def set(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.psctx.agent.set(self.meta, keys, values, 0)

    def to_numpy(self) -> np.ndarray:
        return self.psctx.agent.pull_all(self.meta)[:, 0]


class PSEmbedding(PSMatrix):
    """Handle to a column-sharded (axis=1) matrix.

    Supports the LINE path of Sec. IV-D: server-side partial dot products
    and rank-one updates, so full embedding rows never cross the network
    during training.
    """

    def pull_rows(self, row_keys: np.ndarray) -> np.ndarray:
        """Full embedding rows (concatenated column slices)."""
        return self.psctx.agent.pull_rows_full(self.meta, row_keys)

    def push_rows(self, row_keys: np.ndarray, deltas: np.ndarray) -> None:
        """Increment full embedding rows."""
        self.psctx.agent.push_rows_full(self.meta, row_keys, deltas)

    def dot(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Server-side dot products ``A[left_i] . A[right_i]`` per pair."""
        return self.psctx.agent.psfunc(self.meta, PartialDot(
            check_rows(self.meta, left), check_rows(self.meta, right)))

    def rank_one_update(self, left: np.ndarray, right: np.ndarray,
                        coeffs: np.ndarray) -> None:
        """Server-side symmetric rank-one SGD update per pair."""
        self.psctx.agent.psfunc(self.meta, RankOneUpdate(
            check_rows(self.meta, left), check_rows(self.meta, right),
            coeffs))


class PSNeighborTable:
    """Handle to a PS-resident adjacency store (Sec. III-A, IV-B)."""

    def __init__(self, psctx: "PSContext", meta: MatrixMeta) -> None:
        self.psctx = psctx
        self.meta = meta

    def push(self, block: "NeighborBlock") -> None:
        """Merge the block's rows into the PS tables (set union)."""
        self.psctx.agent.push_neighbors(self.meta, block)

    def remove(self, block: "NeighborBlock") -> None:
        """Subtract the block's rows from the PS tables (set semantics)."""
        self.psctx.agent.remove_neighbors(self.meta, block)

    def drop(self, vertices: np.ndarray) -> None:
        """Delete the adjacency tables of ``vertices`` entirely."""
        self.psctx.agent.drop_vertices(self.meta, vertices)

    def get(self, vertices: np.ndarray) -> "NeighborBlock":
        """One block whose rows align with ``vertices``: sorted,
        duplicate-free neighbors; repeated vertices repeat their row and
        a vertex without a table has an empty one."""
        return self.psctx.agent.get_neighbors(self.meta, vertices)

    def degrees(self, vertices: np.ndarray) -> np.ndarray:
        """Neighbor counts for ``vertices``."""
        return self.psctx.agent.degrees(self.meta, vertices)

    def compact(self) -> None:
        """Freeze into read-optimized CSR form."""
        self.psctx.agent.compact(self.meta)

    def checkpoint(self) -> None:
        """Snapshot every partition to HDFS."""
        self.psctx.checkpoint_matrix(self.meta.name)
