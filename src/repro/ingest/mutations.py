"""Typed graph-mutation records for the streaming ingest path.

The paper's pipeline argument (Sec. I) is about graphs that *change*:
friendship edges appear and disappear, accounts are deleted.  The ingest
edge therefore carries three record kinds instead of bare ``(src, dst)``
tuples:

====  ==============================================================
op    meaning
====  ==============================================================
+e    edge add ``(src, dst)``
-e    edge remove ``(src, dst)``
-v    vertex remove ``src`` (``dst`` is unused and set to -1)
====  ==============================================================

On the HDFS landing files edge *adds* keep the legacy ``src<TAB>dst``
encoding, so a landed history of adds reads as an ordinary edge list;
removals are prefixed marker lines (``-e``/``-v``), which the batch edge
reader (:func:`repro.core.ops.parse_edge_bytes`) refuses with a
``GraphLoadError`` naming the file and line: a removal is not an edge.

On the stream itself the records travel as a :class:`MutationBatch`:
three columns (op code, ``src``, ``dst``) from the producer to the
streaming graph, so a base graph of millions of edges is three arrays,
not millions of tuples.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.common.batch import RowBatch
from repro.common.textcodec import encode_rows

EDGE_ADD = "+e"
EDGE_DEL = "-e"
VERTEX_DEL = "-v"

#: All valid mutation opcodes; a batch's op column holds their positions.
OPS = (EDGE_ADD, EDGE_DEL, VERTEX_DEL)
_CODES = {op: code for code, op in enumerate(OPS)}
#: Each op's landing line, as an :func:`encode_rows` template.
_LANDING_LINES = {EDGE_ADD: b"%d\t%d\n", EDGE_DEL: b"-e\t%d\t%d\n",
                  VERTEX_DEL: b"-v\t%d\n"}


class Mutation(NamedTuple):
    """One typed mutation record on the edge stream."""

    op: str
    src: int
    dst: int  # -1 for vertex removals


class MutationBatch(RowBatch):
    """Mutations as three columns: ``op`` (int8, a position in
    :data:`OPS`), ``src`` and ``dst`` (int64, ``dst`` -1 for a vertex
    removal).

    The form the stream travels in from the topic's log to
    :meth:`~repro.streaming.graph.StreamingGraph.apply`.  Int indexing
    gives a :class:`Mutation` row, a slice is a batch of views, and ``+``
    concatenates.
    """

    __slots__ = ()

    def __init__(self, op: np.ndarray, src: np.ndarray,
                 dst: np.ndarray) -> None:
        super().__init__(op, src, dst)

    @property
    def op(self) -> np.ndarray:
        return self.columns[0]

    @property
    def src(self) -> np.ndarray:
        return self.columns[1]

    @property
    def dst(self) -> np.ndarray:
        return self.columns[2]

    @classmethod
    def of(cls, op: str, src: np.ndarray, dst: np.ndarray) -> "MutationBatch":
        """One op for every row of the endpoint arrays (copied)."""
        src = np.array(src, dtype=np.int64).reshape(-1)
        dst = np.array(dst, dtype=np.int64).reshape(-1)
        return cls(np.full(len(src), _CODES[op], dtype=np.int8), src, dst)

    @classmethod
    def concat(cls, batches: Sequence["MutationBatch"]) -> "MutationBatch":
        """All rows of ``batches`` in order: the batch itself when there
        is one, an empty batch when there is none."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.of(EDGE_ADD, (), ())
        return super().concat(batches)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MutationBatch(*(c[index] for c in self.columns))
        op, src, dst = super().__getitem__(index)
        return Mutation(OPS[op], src, dst)

    def __add__(self, other: "MutationBatch") -> "MutationBatch":
        return MutationBatch.concat([self, other])

    def take(self, rows: np.ndarray) -> "MutationBatch":
        """The rows at positions ``rows``, in that order (a copy)."""
        return MutationBatch(*(c[rows] for c in self.columns))

    def runs(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """The maximal same-op runs as ``(op, src, dst)`` triples in
        stream order (their arrays are views).

        Applying the runs in order is equivalent to applying the
        mutations one by one: ops only interact through shared vertices,
        and order *within* a run is irrelevant for set-semantics adds and
        removes.
        """
        if not len(self):
            return []
        cuts = (np.flatnonzero(self.op[1:] != self.op[:-1]) + 1).tolist()
        starts, ends = [0, *cuts], [*cuts, len(self)]
        codes = self.op[starts].tolist()
        return [(OPS[code], self.src[lo:hi], self.dst[lo:hi])
                for code, lo, hi in zip(codes, starts, ends)]

    def encode(self) -> bytes:
        """The landing file's bytes, one line per row: ``src<TAB>dst`` for
        an add, ``-e<TAB>src<TAB>dst`` for a remove, ``-v<TAB>src`` for a
        vertex remove."""
        return b"".join(
            encode_rows(_LANDING_LINES[op],
                        [src] if op == VERTEX_DEL else [src, dst])
            for op, src, dst in self.runs())


def edge_adds(src: np.ndarray, dst: np.ndarray) -> MutationBatch:
    """Edge-add records for parallel endpoint arrays."""
    return MutationBatch.of(EDGE_ADD, src, dst)


def edge_dels(src: np.ndarray, dst: np.ndarray) -> MutationBatch:
    """Edge-remove records for parallel endpoint arrays."""
    return MutationBatch.of(EDGE_DEL, src, dst)


def vertex_dels(vertices: np.ndarray) -> MutationBatch:
    """Vertex-remove records."""
    vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
    return MutationBatch.of(VERTEX_DEL, vertices,
                            np.full(len(vertices), -1, dtype=np.int64))
