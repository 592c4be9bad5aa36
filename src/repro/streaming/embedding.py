"""Online embedding refresh restricted to changed neighborhoods.

Batch LINE (Sec. IV-D) retrains every vertex each run.  On a stream that
is wasteful: a mutation window only changes the first-order structure of
the vertices it touches, so only *their* embeddings are stale.  This
module keeps a column-sharded PS embedding warm by re-running the LINE
step — server-side partial dots and rank-one SGD updates, embeddings
never leave the servers — over positive pairs drawn from the *changed*
neighborhoods plus seeded negatives, instead of the whole graph.

``full_refresh`` runs the same pass over every present vertex and is the
``recompute_cost_full`` yardstick for the window cost model.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.rng import derive_seed


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class OnlineEmbeddingRefresh:
    """LINE-style first-order embeddings kept fresh across windows.

    Args:
        graph: the live :class:`~repro.streaming.graph.StreamingGraph`.
        dim: embedding dimensionality.
        seed: base seed for init and per-window negative sampling.
        lr: SGD learning rate.
        negatives: negative samples per positive pair.
        epochs: SGD passes per refresh.
    """

    #: PS embedding name.
    embedding_name = "stream.emb"

    def __init__(self, graph, dim: int = 8, *, seed: int = 7,
                 lr: float = 0.05, negatives: int = 2,
                 epochs: int = 1) -> None:
        self.graph = graph
        self.psctx = graph.psctx
        self.dim = dim
        self.seed = seed
        self.lr = lr
        self.negatives = negatives
        self.epochs = epochs
        self.emb = self.psctx.create_embedding(
            self.embedding_name, graph.num_vertices, dim)
        self._window = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Random init + one full training pass (first window)."""
        from repro.ps.psfunc import RandomInit

        self.emb.psfunc(RandomInit(self.seed))
        return self.full_refresh()

    def update(self, delta) -> Dict[str, float]:
        """Retrain only the vertices whose neighborhoods changed."""
        self._window += 1
        touched = delta.touched()  # sorted, distinct
        dirty = touched[self.graph._present[touched]]
        return self._train(dirty, salt=f"w{self._window}")

    def full_refresh(self) -> Dict[str, float]:
        """Retrain every present vertex (cost yardstick)."""
        self._window += 1
        return self._train(self.graph.present_vertices(),
                           salt=f"full{self._window}")

    def full_recompute(self) -> Dict[str, float]:
        """Engine-facing alias: the full pass *is* the recompute."""
        return self.full_refresh()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _train(self, vertices: np.ndarray, *, salt: str
               ) -> Dict[str, float]:
        """One LINE pass over ``vertices``'s current neighborhoods."""
        if len(vertices) == 0:
            return {"pairs": 0.0, "trained": 0.0}
        present = self.graph.present_vertices()
        outs = self.graph.out.get(vertices)
        pos_l, pos_r = outs.sources(), outs.neighbors
        rng = np.random.default_rng(derive_seed(self.seed, salt))
        pairs = 0
        for _ in range(self.epochs):
            if len(pos_l):
                self._sgd_step(pos_l, pos_r, label=1.0)
                pairs += len(pos_l)
            if len(pos_l) and self.negatives and len(present) > 1:
                neg_l = np.repeat(pos_l, self.negatives)
                neg_r = present[rng.integers(
                    0, len(present), size=len(neg_l))]
                keep = neg_l != neg_r
                if keep.any():
                    self._sgd_step(neg_l[keep], neg_r[keep], label=0.0)
                    pairs += int(keep.sum())
            self.psctx.barrier()
        return {"pairs": float(pairs), "trained": float(len(vertices))}

    def _sgd_step(self, left: np.ndarray, right: np.ndarray, *,
                  label: float) -> None:
        """Logistic rank-one step, entirely server-side."""
        dots = self.emb.dot(left, right)
        g = self.lr * (label - _sigmoid(dots))
        self.emb.rank_one_update(left, right, g)
