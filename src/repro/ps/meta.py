"""Matrix metadata shared by PS context, agents and servers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.ps.partitioner import PSPartitioner

#: Storage kinds accepted by :meth:`repro.ps.context.PSContext.create_matrix`.
STORAGE_KINDS = ("dense", "sparse", "column", "neighbor")


@dataclass
class MatrixMeta:
    """Static description of one PS matrix.

    Attributes:
        name: unique matrix name within the PSContext.
        rows: number of rows (vertices for graph models).
        cols: row width (1 for vectors; embedding dim for LINE).
        dtype: element dtype.
        axis: 0 = partition by row key (default), 1 = partition by column
            (LINE embeddings, GNN weights — enables server-side dots).
        storage: one of ``dense``, ``sparse``, ``column``, ``neighbor``.
        partitioner: maps keys (rows for axis=0, cols for axis=1) to
            partitions; partition ``p`` lives on server ``p mod S``.
        init: initial fill value for dense storage.
        optimizer: optional server-side optimizer spec (see
            :mod:`repro.ps.optimizer`); enables ``push_gradients``.
    """

    name: str
    rows: int
    cols: int
    dtype: np.dtype
    axis: int
    storage: str
    partitioner: PSPartitioner
    init: float = 0.0
    optimizer: Optional[object] = None
    num_servers: int = field(default=1)
    #: The matrix-wide store the PS context allocates at registration —
    #: the one :class:`~repro.ps.storage.DenseRowStore` (partition-major)
    #: or :class:`~repro.ps.storage.ColumnShardMatrix` (shard-major) whose
    #: views the servers' partitions are (``part_offsets[p]:part_offsets[p
    #: + 1]`` are partition ``p``'s rows, or its columns), or a neighbor
    #: table's :class:`~repro.ps.storage.NeighborTableView`; ``None`` for
    #: the storage kind that exists per partition only.
    data: Optional[object] = field(default=None, init=False, repr=False,
                                   compare=False)
    part_offsets: Optional[list] = field(default=None, init=False,
                                         repr=False, compare=False)
    #: A column-sharded matrix's shard widths, ``diff(part_offsets)``.
    part_widths: Optional[np.ndarray] = field(default=None, init=False,
                                              repr=False, compare=False)
    #: The optimizer's state over the whole matrix, flat in ``data``'s
    #: layout with one step count per partition (see :meth:`part_state`).
    opt_state: Optional[Dict[str, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_partitions(self) -> int:
        """Number of model partitions."""
        return self.partitioner.num_partitions

    def part_ends(self) -> List[int]:
        """Where each partition starts (and the last ends) in the flat
        layout of ``data``."""
        unit = self.cols if self.axis == 0 else self.rows
        return [unit * offset for offset in self.part_offsets]

    def part_state(self, pid: int) -> Optional[Dict[str, np.ndarray]]:
        """Partition ``pid``'s optimizer state, as views of
        :attr:`opt_state` (``None`` without an optimizer)."""
        if self.opt_state is None:
            return None
        width = self.part_offsets[pid + 1] - self.part_offsets[pid]
        shape = (width, self.cols) if self.axis == 0 else (self.rows, width)
        start, stop = self.part_ends()[pid:pid + 2]
        return {name: (whole[pid:pid + 1] if name in self.optimizer.counters
                       else whole[start:stop].reshape(shape))
                for name, whole in self.opt_state.items()}

    @cached_property
    def owners(self) -> List[int]:
        """:meth:`server_of` of every partition, by partition id."""
        return [self.server_of(pid) for pid in range(self.num_partitions)]

    def server_of(self, pid: int) -> int:
        """Index of the server holding partition ``pid``.

        Mixed (not plain modulo) so partition schemes that are themselves
        modular do not alias whole key ranges onto one server.  The
        multiplier is prime, so ``pid -> server`` stays a bijection over
        any ``num_servers`` consecutive partition ids — matching the real
        system's balanced partition-to-server assignment.
        """
        return (pid * 2654435761) % self.num_servers
