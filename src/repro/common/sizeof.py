"""Logical size estimation for metering memory and network transfers.

The simulation charges memory and bandwidth in *logical* bytes — the size the
data would occupy in a compact serialized form — rather than CPython object
sizes, which would make the cost model hostage to interpreter internals.
Runtime-specific bloat (e.g. JVM object overhead for GraphX's materialized
tables) is applied as an explicit multiplier from the cost model at the call
site, which keeps the knob visible and documented.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

import numpy as np

#: Logical size of one boxed scalar (a long / double on the wire).
SCALAR_BYTES = 8
#: Per-container overhead of a tuple/list/dict entry (length + pointers).
CONTAINER_ENTRY_BYTES = 8
#: Sample size used when estimating a large homogeneous collection.
_SAMPLE = 32


def sizeof(obj: Any) -> int:
    """Best-effort logical byte size of ``obj``.

    numpy arrays are exact (``nbytes``); strings and bytes are exact; scalars
    cost :data:`SCALAR_BYTES`; containers are estimated from a sample of their
    elements so that metering a million-element partition costs O(1).
    """
    # Exact-type dispatch first: records are overwhelmingly plain ints,
    # floats, tuples, lists and arrays, and the isinstance chain below
    # (which subclasses still take) costs several failed checks each.
    kind = type(obj)
    if kind is int or kind is float or kind is bool:
        return SCALAR_BYTES
    if kind is tuple:
        return _sizeof_items(obj, len(obj))
    if kind is list:
        return _sizeof_list(obj)
    if kind is np.ndarray:
        return int(obj.nbytes)
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return SCALAR_BYTES
    # Objects with a size hint cooperate with the meter (EdgeBlock,
    # NeighborBlock, ...): checked before the generic container scans so
    # a million-edge block meters in O(1) from its arrays.
    hint = getattr(obj, "logical_nbytes", None)
    if hint is not None:
        return int(hint() if callable(hint) else hint)
    if isinstance(obj, dict):
        return _sizeof_stream(obj.items(), len(obj))
    if isinstance(obj, list):
        return _sizeof_list(obj)
    if isinstance(obj, tuple):
        return _sizeof_items(obj, len(obj))
    if isinstance(obj, (set, frozenset)):
        return _sizeof_stream(obj, len(obj))
    slots = getattr(obj, "__dict__", None)
    if slots:
        return CONTAINER_ENTRY_BYTES + sum(sizeof(v) for v in slots.values())
    return SCALAR_BYTES


def _sizeof_items(items: list, count: int) -> int:
    """Estimate a homogeneous sequence from a bounded sample."""
    if count == 0:
        return CONTAINER_ENTRY_BYTES
    if count <= _SAMPLE:
        # A plain loop: records are mostly 2-tuples, and a generator per
        # tuple costs more than sizing both of its elements.
        body = 0
        for x in items:
            body += sizeof(x)
    else:
        step = max(1, count // _SAMPLE)
        sample = items[::step][:_SAMPLE]
        body = int(sum(sizeof(x) for x in sample) / len(sample) * count)
    return CONTAINER_ENTRY_BYTES + count * CONTAINER_ENTRY_BYTES + body


def _sizeof_list(items: list) -> int:
    """A list of row batches — records carrying a ``row_width``, as
    :class:`~repro.common.batch.RowBatch` does — is sized as the one flat
    list of all their rows; any other list by :func:`_sizeof_items`."""
    width = getattr(items[0], "row_width", None) if items else None
    if width is not None and all(
            getattr(x, "row_width", None) == width for x in items):
        return sizeof_scalar_rows(sum(len(x) for x in items), width)
    return _sizeof_items(items, len(items))


def sizeof_scalar_rows(rows: int, width: int) -> int:
    """:func:`sizeof` of a list of ``rows`` tuples of ``width`` scalars
    each, without building it: what :func:`_sizeof_items` returns for
    that list (every scalar is :data:`SCALAR_BYTES`, so the sample mean
    is exact)."""
    row = CONTAINER_ENTRY_BYTES + width * (CONTAINER_ENTRY_BYTES
                                           + SCALAR_BYTES)
    return CONTAINER_ENTRY_BYTES + rows * (CONTAINER_ENTRY_BYTES + row)


def _sizeof_stream(items: Iterable[Any], count: int) -> int:
    """Estimate a homogeneous iterable from a bounded sample.

    Same sample indices (and therefore the same estimate) as
    :func:`_sizeof_items`, but drawn with ``itertools.islice`` so metering
    a large dict or set never materializes a full copy of it.
    """
    if count == 0:
        return CONTAINER_ENTRY_BYTES
    if count <= _SAMPLE:
        body = sum(sizeof(x) for x in items)
    else:
        step = max(1, count // _SAMPLE)
        sample = list(itertools.islice(items, 0, step * _SAMPLE, step))
        body = int(sum(sizeof(x) for x in sample) / len(sample) * count)
    return CONTAINER_ENTRY_BYTES + count * CONTAINER_ENTRY_BYTES + body


def sizeof_array_lists(row_nbytes: np.ndarray, starts: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """:func:`sizeof` of many lists of numpy arrays, from byte sizes alone.

    List ``i`` holds the ``counts[i]`` arrays whose sizes are
    ``row_nbytes[starts[i]:starts[i] + counts[i]]``.  The result is what
    :func:`_sizeof_items` returns for each — the same sample positions
    and the same float arithmetic past :data:`_SAMPLE` entries — without
    a Python object per array: how a CSR block meters as the boxed rows
    it stands in for.
    """
    prefix = np.zeros(len(row_nbytes) + 1, dtype=np.int64)
    np.cumsum(row_nbytes, out=prefix[1:])
    body = prefix[starts + counts] - prefix[starts]
    big = np.flatnonzero(counts > _SAMPLE)
    if len(big):
        step = counts[big] // _SAMPLE
        at = starts[big, None] + step[:, None] * np.arange(_SAMPLE)
        body[big] = (row_nbytes[at].sum(axis=1) / _SAMPLE
                     * counts[big]).astype(np.int64)
    return CONTAINER_ENTRY_BYTES + counts * CONTAINER_ENTRY_BYTES + body


def sizeof_records(records: Any) -> int:
    """Logical size of an iterable of records already materialized as a list."""
    if isinstance(records, np.ndarray):
        return int(records.nbytes)
    if isinstance(records, list):
        return _sizeof_list(records)
    return sizeof(records)
