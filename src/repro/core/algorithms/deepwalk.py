"""DeepWalk embeddings on the parameter server.

An extension beyond the paper's evaluated algorithms: Sec. II-B cites
DeepWalk and node2vec as the canonical vertex-embedding methods, and both
fit PSGraph's architecture naturally — the *adjacency lives on the PS* (as
in common neighbor), executors sample random walks by pulling neighbor
arrays in batches, and the skip-gram model trains with the same
column-sharded embedding matrix, server-side partial dot products, and
rank-one updates as LINE (Sec. IV-D).  Each step moves to a uniform
neighbor, as DeepWalk's walks do.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.common.batch import RowBatch
from repro.common.rng import DEFAULT_SEED, bounded_draws, derive_seed
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.context import PSGraphContext
from repro.core.ops import (
    charge_primitive_compute,
    max_vertex_id,
    push_neighbor_tables,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD
from repro.dataflow.taskctx import current_task_context
from repro.ps.psfunc import RandomInit


class DeepWalk(GraphAlgorithm):
    """PSGraph DeepWalk: random-walk + skip-gram vertex embeddings.

    Args:
        dim: embedding dimension.
        walk_length: vertices per walk.
        walks_per_vertex: walks started from each vertex per epoch.
        window: skip-gram window (pairs within +-window).
        negative: negative samples per positive pair.
        lr: SGD learning rate.
        epochs: passes over all start vertices.
        seed: RNG seed.
    """

    name = "deepwalk"

    def __init__(self, dim: int = 16, walk_length: int = 8,
                 walks_per_vertex: int = 2, window: int = 2,
                 negative: int = 5, lr: float = 0.05, epochs: int = 1,
                 seed: int = DEFAULT_SEED) -> None:
        self.dim = dim
        self.walk_length = walk_length
        self.walks_per_vertex = walks_per_vertex
        self.window = window
        self.negative = negative
        self.lr = lr
        self.epochs = epochs
        self.seed = seed

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        n = max_vertex_id(dataset) + 1
        adj = ctx.ps.create_neighbor_table(
            self._unique_name(ctx, "dw-adj"), n
        )
        tables = to_neighbor_tables(dataset, symmetric=True, dedupe=True)
        push_neighbor_tables(tables, adj)
        adj.compact()
        emb = ctx.ps.create_embedding(
            self._unique_name(ctx, "dw-emb"), rows=2 * n, dim=self.dim
        )
        emb.psfunc(RandomInit(self.seed, scale=0.5 / self.dim))
        ctx.ps.barrier()

        starts = tables.map_partitions(
            lambda it: [b.vertices for b in it if b.num_vertices]
        ).cache()
        params = self  # captured below
        cost_model = ctx.cluster.cost_model

        def train_partition(epoch: int,
                            it: Iterator[np.ndarray]) -> tuple:
            tctx = current_task_context()
            pid = tctx.partition_id if tctx else 0
            rng = np.random.default_rng(
                derive_seed(params.seed, "deepwalk", epoch, pid)
            )
            loss = 0.0
            pairs = 0
            for vertices in it:
                walks = _sample_walks(
                    adj, vertices, params.walk_length,
                    params.walks_per_vertex, rng,
                )
                # Walk sampling + pair extraction burn CPU even when no
                # trainable pair comes out (tiny partitions, window >
                # walk length), so charge before the emptiness check —
                # the `continue` path must not be a free ride.
                charge_primitive_compute(cost_model, walks.size)
                centers, contexts = _skipgram_pairs(walks, params.window)
                if len(centers) == 0:
                    continue
                loss += _sgd(emb, centers, contexts, n, params, rng)
                pairs += len(centers) * (1 + params.negative)
            return loss, pairs

        epoch_losses: List[float] = []
        for epoch in range(self.epochs):
            parts = starts.foreach_partition(
                lambda it, e=epoch: train_partition(e, it)
            )
            ctx.ps.barrier()
            total = sum(l for l, _c in parts)
            count = max(1, sum(c for _l, c in parts))
            epoch_losses.append(total / count)

        vertices = np.arange(n, dtype=np.int64)
        vectors = emb.pull_rows(vertices)
        schema = ["vertex"] + [f"e{i}" for i in range(self.dim)]
        output = ctx.create_dataframe(RowBatch(vertices, *vectors.T), schema)
        starts.unpersist()
        return AlgorithmResult(
            output, self.epochs,
            stats={"epoch_losses": epoch_losses, "embedding": emb},
        )


def _sample_walks(adj, vertices: np.ndarray, length: int, per_vertex: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Batched random walks: one PS neighbor pull per step."""
    current = np.repeat(vertices, per_vertex)
    walks = np.empty((len(current), length), dtype=np.int64)
    walks[:, 0] = current
    for step in range(1, length):
        uniq, inverse = np.unique(current, return_inverse=True)
        tables = adj.get(uniq)
        starts = tables.indptr[inverse]
        degrees = tables.degrees()[inverse]
        # A walker on a vertex without neighbors stays and draws nothing.
        nxt = current.copy()
        moving = degrees > 0
        nxt[moving] = tables.neighbors[
            starts[moving] + bounded_draws(rng, degrees[moving])]
        current = nxt
        walks[:, step] = current
    return walks


def _skipgram_pairs(walks: np.ndarray, window: int
                    ) -> tuple:
    """(center, context) pairs within the window, over all walks."""
    centers: List[np.ndarray] = []
    contexts: List[np.ndarray] = []
    length = walks.shape[1]
    for offset in range(1, window + 1):
        if offset >= length:
            break
        a = walks[:, :-offset].ravel()
        b = walks[:, offset:].ravel()
        centers.append(a)
        contexts.append(b)
        centers.append(b)
        contexts.append(a)
    if not centers:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return np.concatenate(centers), np.concatenate(contexts)


def _sgd(emb, centers: np.ndarray, contexts: np.ndarray, n: int,
         params: DeepWalk, rng: np.random.Generator) -> float:
    """One skip-gram SGD step on the PS (dots + rank-one updates)."""
    k = params.negative
    neg = rng.integers(0, n, size=len(centers) * k)
    left = np.concatenate([centers, np.repeat(centers, k)])
    right = np.concatenate([contexts, neg]) + n  # context rows
    labels = np.zeros(len(left))
    labels[:len(centers)] = 1.0
    dots = emb.dot(left, right)
    p = 1.0 / (1.0 + np.exp(-np.clip(dots, -30, 30)))
    g = params.lr * (labels - p)
    emb.rank_one_update(left, right, g)
    eps = 1e-12
    return -float(
        (labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
        .sum()
    )
