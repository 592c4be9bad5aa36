"""Functional ops for torchlite: concat, segment aggregation, losses.

These are the graph-specific building blocks of GraphSage (Sec. IV-E):
``segment_mean``/``segment_max`` aggregate sampled neighbor representations
per target vertex, ``concat`` joins the vertex's own representation with the
aggregated neighborhood, and ``cross_entropy`` drives the supervised vertex
classification task of Table I.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.common.batch import scatter_add_rows, segment_reduce
from repro.torchlite.tensor import Tensor


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Differentiable concatenation of 2-d tensors along the columns."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.data.shape[1] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> List[np.ndarray]:
        return list(np.split(g, splits, axis=1))

    return Tensor._make(data, tensors, backward)


def segment_mean(data: Tensor, segment_ids: np.ndarray,
                 num_segments: int) -> Tensor:
    """Mean of rows sharing a segment id (the GraphSage mean aggregator).

    Rows of ``data`` belong to segments given by ``segment_ids``; the output
    has ``num_segments`` rows, each the mean of its member rows (zero for
    empty segments).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(
        np.float64
    )
    safe = np.maximum(counts, 1.0)
    out = np.zeros((num_segments, data.data.shape[1]))
    scatter_add_rows(out, segment_ids, data.data)
    out /= safe[:, None]

    def backward(g: np.ndarray):
        return (g.take(segment_ids, axis=0)
                / safe.take(segment_ids)[:, None],)

    return Tensor._make(out, (data,), backward)


def segment_max(data: Tensor, segment_ids: np.ndarray,
                num_segments: int) -> Tensor:
    """Per-segment elementwise max (the GraphSage pooling aggregator)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments, data.data.shape[1]))
    present, maxima = segment_reduce(segment_ids, data.data, "max")
    out[present] = maxima
    # Winners: rows whose value equals the segment max get the gradient.
    winner = data.data == out.take(segment_ids, axis=0)

    def backward(g: np.ndarray):
        return (g.take(segment_ids, axis=0) * winner,)

    return Tensor._make(out, (data,), backward)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax, numerically stabilized."""
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    softmax = np.exp(out)

    def backward(g: np.ndarray):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return Tensor._make(out, (logits,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between row logits and integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.data.shape[0]
    logp = log_softmax(logits)
    picked = logp[np.arange(n), labels]
    return -picked.sum() * (1.0 / n)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label (plain numpy)."""
    pred = np.asarray(logits).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())
