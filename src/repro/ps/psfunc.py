"""psFunc — user-defined functions executed on the parameter servers.

"users can customize their operators via a user-defined function, called
psFunc" (Sec. III-A).  A psFunc runs once per model partition *on the server
holding it*, sees the raw store, and returns a partial result; the agent
merges the partials.  Moving computation to the data is what makes the
paper's LINE implementation cheap (partial dot products, Sec. IV-D) and is
how the server-side Adam/AdaGrad optimizers are built (Sec. IV-E).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.common.batch import (
    SCATTER_BLOCK,
    flat_row_index,
    scatter_add_flat,
    scatter_add_rows,
)
from repro.common.errors import PSError
from repro.common.sizeof import CONTAINER_ENTRY_BYTES
from repro.ps.storage import ColumnShardStore


def _check_pairs(*arrays: np.ndarray) -> None:
    """Every pair has both its rows (and its coefficient): arrays of
    different lengths are refused before a request is sent."""
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise PSError(f"pair arrays of lengths {lengths}")


class PsFunc:
    """Base class for server-side UDFs.

    Subclasses implement :meth:`apply` (runs on each server, once per
    partition of the target matrix) and :meth:`merge` (runs on the caller,
    folding partials into the final result).  ``flops`` lets the simulation
    charge server compute time.
    """

    def apply(self, store: Any) -> Any:
        """Run on one partition's store; returns a partial result."""
        raise NotImplementedError

    def merge(self, partials: List[Any]) -> Any:
        """Fold partials into the final result (default: first non-None)."""
        for p in partials:
            if p is not None:
                return p
        return None

    def flops(self, store: Any) -> float:
        """Estimated floating point operations of one apply (for costing)."""
        nbytes = getattr(store, "nbytes", 0)
        return nbytes / 8.0


class RandomInit(PsFunc):
    """Fill a store with uniform noise in ``[-scale, scale)``.

    Each partition derives its stream from ``seed`` and its first key so the
    global initialization is deterministic regardless of server layout.
    """

    def __init__(self, seed: int, scale: float = 0.1) -> None:
        self.seed = seed
        self.scale = scale

    def apply(self, store: Any) -> None:
        if isinstance(store, ColumnShardStore):
            salt = int(store.col_keys[0]) if len(store.col_keys) else 0
            shape = store.array.shape
            target = store.array
        else:
            salt = int(store.keys[0]) if len(store.keys) else 0
            shape = store.array.shape
            target = store.array
        rng = np.random.default_rng(self.seed * 2654435761 % (2 ** 63) + salt)
        target[:] = (rng.random(shape, dtype=np.float64) * 2 - 1) * self.scale


class PartialDot(PsFunc):
    """Per-pair partial dot products on a column-sharded matrix.

    The building block of LINE-on-PS: each server computes
    ``sum_c A[i, c] * A[j, c]`` over its local columns ``c``; the agent sums
    the partials to obtain full dot products without moving embeddings.
    """

    def __init__(self, left: Sequence[int], right: Sequence[int]) -> None:
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        _check_pairs(self.left, self.right)

    def logical_nbytes(self) -> int:
        """Request bytes: the index pairs."""
        return CONTAINER_ENTRY_BYTES + self.left.nbytes + self.right.nbytes

    def apply(self, store: ColumnShardStore) -> np.ndarray:
        return store.partial_dot(self.left, self.right)

    def merge(self, partials: List[np.ndarray]) -> np.ndarray:
        """The shard partials summed in shard order, in place: what
        ``np.sum(valid, axis=0)`` returns bit for bit (an axis-0 reduce
        adds row after row), without first stacking the partials into
        one more ``(P, n)`` copy."""
        valid = [p for p in partials if p is not None]
        if not valid or valid[0].size == 1:
            # No partial: np.sum's 0.0.  One pair: its partials stack
            # into one contiguous column, which numpy sums pairwise.
            return np.sum(valid, axis=0)
        out = valid[0].copy()
        for p in valid[1:]:
            out += p
        return out

    def flops(self, store: ColumnShardStore) -> float:
        return 2.0 * len(self.left) * store.array.shape[1]


class RankOneUpdate(PsFunc):
    """Symmetric rank-one SGD update on a column-sharded matrix.

    For each pair ``(i, j)`` with coefficient ``g``::

        A[i, :] += g * A[j, :]
        A[j, :] += g * A[i_old, :]

    Entirely local per column shard: only indices and coefficients cross the
    network (the LINE update path of Sec. IV-D).
    """

    def __init__(self, left: Sequence[int], right: Sequence[int],
                 coeffs: Sequence[float]) -> None:
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        _check_pairs(self.left, self.right, self.coeffs)
        #: The request's plan, shared by its shard applies, per shard
        #: width and dtype: the rows to gather, the coefficient of every
        #: gathered element and the flat positions of its adds.
        self._plans: Dict[tuple, Tuple[np.ndarray, ...]] = {}

    def logical_nbytes(self) -> int:
        """Request bytes: the index pairs and coefficients, not the plan."""
        return (CONTAINER_ENTRY_BYTES + self.left.nbytes + self.right.nbytes
                + self.coeffs.nbytes)

    def apply(self, store: ColumnShardStore) -> None:
        arr = store.array
        pairs, width = len(self.left), arr.shape[1]
        if 2 * pairs * width > SCATTER_BLOCK:
            # Too large to keep indices for: column by column, no flat
            # index.  An element sees only its column's adds, so it gets
            # the row-wise sequence: both sides read, then left's, right's.
            g = self.coeffs.astype(arr.dtype)
            for c in range(width):
                col = arr[:, c]
                to_left = g * col.take(self.right)
                to_right = g * col.take(self.left)
                scatter_add_rows(arr, self.left, to_left, col=c)
                scatter_add_rows(arr, self.right, to_right, col=c)
            return
        sources, scale, flat = self._plan(width, arr.dtype)
        # One gather of the rows as they were before any add, one
        # contiguous multiply (a width-wide broadcast is several times
        # slower), and one scatter in the order of the column branch's
        # adds: left's, then right's.
        values = arr.take(sources, axis=0).reshape(-1)
        np.multiply(scale, values, out=values)
        scatter_add_flat(arr, flat, values)

    def _plan(self, width: int, dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        plan = self._plans.get((width, dtype))
        if plan is None:
            g = self.coeffs.astype(dtype)
            plan = self._plans[width, dtype] = (
                np.concatenate([self.right, self.left]),
                np.repeat(np.concatenate([g, g]), width),
                flat_row_index(np.concatenate([self.left, self.right]),
                               width))
        return plan

    def flops(self, store: ColumnShardStore) -> float:
        return 4.0 * len(self.left) * store.array.shape[1]
