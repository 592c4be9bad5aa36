"""LINE graph embedding on the parameter server (Sec. IV-D).

Each vertex has "an embedding vector itself and a context vector when the
vertex is a 'context' of other vertices"; both are column-partitioned
across servers so that dot products and SGD updates run server-side:

* **layout** — one column-sharded PS matrix with ``2n`` rows: row ``v`` is
  the embedding ``u_v`` and row ``n+v`` the context ``c_v``.  Columns are
  range-split across servers, so every server holds the *same dimensions*
  of all vectors (Fig. 4's column partitioning);
* **dots on PS** — second-order proximity needs ``sigma(u_i . c_j)``; the
  executor sends index pairs, every server returns partial dot products
  over its columns, and the agent sums them (``PartialDot``);
* **updates on PS** — the SGD step for a pair with coefficient ``g`` is a
  symmetric rank-one update applied locally per column shard
  (``RankOneUpdate``): only indices and coefficients cross the network,
  never embedding vectors.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.common.batch import RowBatch, scatter_add_rows
from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import EdgeBlock
from repro.core.context import PSGraphContext
from repro.core.ops import charge_primitive_compute, max_vertex_id
from repro.dataflow.rdd import RDD
from repro.dataflow.taskctx import current_task_context
from repro.ps.psfunc import RandomInit


class Line(GraphAlgorithm):
    """PSGraph LINE (first- or second-order proximity).

    Args:
        dim: embedding dimension (the paper uses 128 on DS1).
        order: 1 = first-order proximity (u.u), 2 = second-order (u.c).
        negative: negative samples per positive edge.
        lr: SGD learning rate.
        epochs: passes over the edge set.
        batch_size: edges per PS round trip.
        seed: RNG seed for init and negative sampling.
    """

    name = "line"

    def __init__(self, dim: int = 16, order: int = 2, negative: int = 5,
                 lr: float = 0.025, epochs: int = 3, batch_size: int = 2048,
                 seed: int = DEFAULT_SEED, use_psfunc: bool = True) -> None:
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        self.dim = dim
        self.order = order
        self.negative = negative
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        #: The paper's optimization (Sec. IV-D): dots and updates run on
        #: the servers.  False pulls/pushes whole embedding rows instead —
        #: the "communication-intensive" baseline the paper moves away
        #: from; kept for the ablation bench.
        self.use_psfunc = use_psfunc

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        n = max_vertex_id(dataset) + 1
        emb = ctx.ps.create_embedding(
            self._unique_name(ctx, "line-emb"), rows=2 * n, dim=self.dim
        )
        emb.psfunc(RandomInit(self.seed, scale=0.5 / self.dim))
        # Degree^0.75 negative-sampling distribution (word2vec style).
        degrees = _out_degrees(dataset, n)
        noise = degrees.astype(np.float64) ** 0.75
        # What ``rng.choice(n, size, p=noise / noise.sum())`` rebuilds on
        # every call: one ``searchsorted`` of ``rng.random(size)`` into it
        # draws the same indices from the same stream.
        cdf = None
        if noise.sum() > 0:
            cdf = (noise / noise.sum()).cumsum()
            cdf /= cdf[-1]
        dataset = dataset.cache()

        order = self.order
        negative = self.negative
        lr = self.lr
        batch_size = self.batch_size
        seed = self.seed
        use_psfunc = self.use_psfunc
        cost_model = ctx.cluster.cost_model
        ctx_offset = n if order == 2 else 0

        def sgd_pairs(left: np.ndarray, right: np.ndarray,
                      labels: np.ndarray) -> float:
            """One SGD step over index pairs; returns summed loss."""
            if use_psfunc:
                dots = emb.dot(left, right)
            else:
                uids, inverse = np.unique(
                    np.concatenate([left, right]), return_inverse=True
                )
                rows = emb.pull_rows(uids)
                li = inverse[:len(left)]
                ri = inverse[len(left):]
                left_rows = rows.take(li, axis=0)
                right_rows = rows.take(ri, axis=0)
                dots = np.einsum("ij,ij->i", left_rows, right_rows)
            charge_primitive_compute(cost_model, len(left))
            p = 1.0 / (1.0 + np.exp(-np.clip(dots, -30, 30)))
            g = lr * (labels - p)
            if use_psfunc:
                emb.rank_one_update(left, right, g)
            else:
                deltas = np.zeros_like(rows)
                scatter_add_rows(deltas, li, g[:, None] * right_rows)
                scatter_add_rows(deltas, ri, g[:, None] * left_rows)
                emb.push_rows(uids, deltas)
            eps = 1e-12
            return -float(
                (labels * np.log(p + eps)
                 + (1 - labels) * np.log(1 - p + eps)).sum()
            )

        def train_partition(epoch: int, it: Iterator[EdgeBlock]) -> tuple:
            tctx = current_task_context()
            pid = tctx.partition_id if tctx else 0
            rng = np.random.default_rng(
                derive_seed(seed, "line", epoch, pid)
            )
            loss = 0.0
            pairs = 0
            for block in it:
                for batch in block.batches(batch_size):
                    b = batch.num_edges
                    if b == 0:
                        continue
                    neg_dst = (rng.choice(n, size=b * negative)
                               if cdf is None else cdf.searchsorted(
                                   rng.random(b * negative), side="right"))
                    left = np.concatenate(
                        [batch.src, np.repeat(batch.src, negative)]
                    )
                    right = np.concatenate(
                        [batch.dst, neg_dst]
                    ) + ctx_offset
                    labels = np.zeros(len(left))
                    labels[:b] = 1.0
                    loss += sgd_pairs(left, right, labels)
                    pairs += len(left)
            return loss, pairs

        epoch_losses: List[float] = []
        epoch_sim_times: List[float] = []
        for epoch in range(self.epochs):
            t0 = ctx.sim_time()
            parts = dataset.foreach_partition(
                lambda it, e=epoch: train_partition(e, it)
            )
            ctx.ps.barrier()
            epoch_sim_times.append(ctx.sim_time() - t0)
            total_loss = sum(l for l, _c in parts)
            total_pairs = max(1, sum(c for _l, c in parts))
            epoch_losses.append(total_loss / total_pairs)

        vertices = np.arange(n, dtype=np.int64)
        vectors = emb.pull_rows(vertices)
        schema = ["vertex"] + [f"e{i}" for i in range(self.dim)]
        output = ctx.create_dataframe(RowBatch(vertices, *vectors.T), schema)
        dataset.unpersist()
        return AlgorithmResult(
            output, self.epochs,
            stats={
                "epoch_losses": epoch_losses,
                "epoch_sim_times": epoch_sim_times,
                "embedding": emb,
            },
        )


def _out_degrees(dataset: RDD, n: int) -> np.ndarray:
    """Total degree per vertex over the edge blocks."""
    def scan(it: Iterator[EdgeBlock]) -> np.ndarray:
        deg = np.zeros(n, dtype=np.int64)
        for b in it:
            deg += np.bincount(b.src, minlength=n)
            deg += np.bincount(b.dst, minlength=n)
        return deg

    parts = dataset.foreach_partition(scan)
    return np.sum(parts, axis=0)


def link_prediction_score(embeddings: np.ndarray, pos_src: np.ndarray,
                          pos_dst: np.ndarray, rng: np.random.Generator
                          ) -> float:
    """AUC-style sanity score: P(dot(pos) > dot(random)) over edge pairs.

    Used by tests and examples to show LINE embeddings carry structure:
    0.5 is chance, 1.0 is perfect separation.
    """
    n = len(embeddings)
    neg_src = rng.integers(0, n, size=len(pos_src))
    neg_dst = rng.integers(0, n, size=len(pos_src))
    pos = np.einsum("ij,ij->i", embeddings[pos_src], embeddings[pos_dst])
    neg = np.einsum("ij,ij->i", embeddings[neg_src], embeddings[neg_dst])
    return float((pos > neg).mean() + 0.5 * (pos == neg).mean())
