"""GraphSage on the parameter server (Sec. IV-E, Fig. 5).

The three PS-resident models of Fig. 5: vertex features ``X`` and neighbor
tables ``A`` partitioned by vertex id, and the layer weights ``W`` sharded
by column with a *server-side* Adam optimizer (built on psFunc, per the
paper).  Training follows the paper's steps: the driver traces the model
into a ScriptModule and pushes the initial weights to the PS; executors
load the ScriptModule, push features and neighbor tables built by the Spark
groupBy pipeline, and then per batch pull the current weights, sample 2-hop
neighborhoods from the PS, pull the needed features, run
forward/backward in torchlite (the embedded "PyTorch"), and push gradients
back to the PS optimizer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.core.algorithms.base import AlgorithmResult, GraphAlgorithm
from repro.core.blocks import sample_neighbors
from repro.core.context import PSGraphContext
from repro.core.ops import (
    max_vertex_id,
    push_neighbor_tables,
    to_neighbor_tables,
)
from repro.dataflow.rdd import RDD
from repro.dataflow.taskctx import current_task_context
from repro.ps.optimizer import Adam
from repro.torchlite.functional import (
    concat,
    cross_entropy,
    segment_max,
    segment_mean,
)
from repro.torchlite.nn import Linear, LSTMCell, Module
from repro.torchlite.script import ScriptModule
from repro.torchlite.tensor import Tensor


class SageNet(Module):
    """Two-layer GraphSage with mean or pooling aggregators.

    Layer k: ``h_k(v) = relu(W_k . concat(h_{k-1}(v),
    AGG{h_{k-1}(u), u in N(v)}))`` — the concat + fully-connected form of
    the paper's step 4; the final layer emits class logits.  ``AGG`` is
    the mean aggregator, or the max-pooling aggregator of Hamilton et al.
    (an elementwise max over per-neighbor MLP outputs) — the paper's
    step 3 lists "mean aggregator, LSTM aggregator, and pooling
    aggregator".
    """

    def __init__(self, in_dim: int, hidden: int, num_classes: int,
                 seed: int = 0, aggregator: str = "mean") -> None:
        super().__init__()
        if aggregator not in ("mean", "pool", "lstm"):
            raise ValueError(f"unknown aggregator {aggregator!r}")
        rng = np.random.default_rng(seed)
        self.aggregator = aggregator
        if aggregator == "pool":
            # Per-neighbor transforms applied before the elementwise max.
            self.pool1 = Linear(in_dim, in_dim, rng=rng)
        elif aggregator == "lstm":
            # Unrolled over the (padded) neighbor sequence; requires the
            # sampler to emit exactly ``fanout`` neighbors per vertex.
            self.lstm1 = LSTMCell(in_dim, in_dim, rng=rng)
        self.layer1 = Linear(2 * in_dim, hidden, rng=rng)
        if aggregator == "pool":
            self.pool2 = Linear(hidden, hidden, rng=rng)
        elif aggregator == "lstm":
            self.lstm2 = LSTMCell(hidden, hidden, rng=rng)
        self.layer2 = Linear(2 * hidden, num_classes, rng=rng)

    def _agg(self, x: Tensor, seg: np.ndarray, num: int,
             level: int) -> Tensor:
        if self.aggregator == "mean":
            return segment_mean(x, seg, num)
        if self.aggregator == "pool":
            pool = self.pool1 if level == 1 else self.pool2
            return segment_max(pool(x).relu(), seg, num)
        # LSTM: uniform sequence length per segment (padded sampling).
        if num == 0 or x.shape[0] % num != 0:
            raise ValueError(
                "lstm aggregator needs padded, uniform neighbor samples"
            )
        steps = x.shape[0] // num
        lstm = self.lstm1 if level == 1 else self.lstm2
        return lstm.run_sequence(x, num, steps)

    def forward(self, x_b: Tensor, x_n1: Tensor, seg1: np.ndarray,
                x_n2: Tensor, seg2: np.ndarray) -> Tensor:
        """Logits for a batch.

        Args:
            x_b: features of the batch vertices (B, F).
            x_n1: features of their sampled 1-hop neighbors (M1, F).
            seg1: for each 1-hop row, the index of its batch vertex.
            x_n2: features of the sampled 2-hop neighbors (M2, F).
            seg2: for each 2-hop row, the index of its 1-hop parent row.
        """
        num_b = x_b.shape[0]
        num_n1 = x_n1.shape[0]
        h1_b = self.layer1(
            concat([x_b, self._agg(x_n1, seg1, num_b, level=1)])
        ).relu()
        h1_n1 = self.layer1(
            concat([x_n1, self._agg(x_n2, seg2, num_n1, level=1)])
        ).relu()
        return self.layer2(
            concat([h1_b, self._agg(h1_n1, seg1, num_b, level=2)])
        )


def make_sage(in_dim: int, hidden: int, num_classes: int,
              seed: int = 0, aggregator: str = "mean") -> SageNet:
    """Top-level factory so ScriptModule blobs are picklable."""
    return SageNet(in_dim, hidden, num_classes, seed, aggregator)


class GraphSage(GraphAlgorithm):
    """PSGraph GraphSage: supervised vertex classification.

    Args:
        features: (n, F) float vertex features.
        labels: (n,) int labels.
        hidden: hidden width.
        num_classes: label cardinality (inferred when None).
        fanouts: (S1, S2) neighbor sample sizes for k=1, 2 hops.
        aggregator: "mean" or "pool" (GraphSage aggregator architecture).
        epochs / batch_size / lr: training schedule.
        labeled_fraction: fraction of present vertices with usable labels
            (production tasks label a small subset; the paper's WeChat Pay
            label count is unreported — EXPERIMENTS.md documents the 2%
            default used for Table I).
        seed: RNG seed.
    """

    name = "graphsage"
    #: Share of the labeled vertices used for training (the rest evaluate).
    train_fraction = 0.7

    def __init__(self, features: np.ndarray, labels: np.ndarray, *,
                 hidden: int = 32, num_classes: int | None = None,
                 fanouts: Tuple[int, int] = (10, 5), epochs: int = 3,
                 batch_size: int = 512, lr: float = 0.01,
                 labeled_fraction: float = 1.0,
                 aggregator: str = "mean",
                 seed: int = DEFAULT_SEED) -> None:
        self.features = np.asarray(features, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.hidden = hidden
        self.num_classes = num_classes or int(self.labels.max()) + 1
        self.fanouts = fanouts
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.labeled_fraction = labeled_fraction
        self.aggregator = aggregator
        self.seed = seed

    # ------------------------------------------------------------------

    def transform(self, ctx: PSGraphContext, dataset: RDD
                  ) -> AlgorithmResult:
        n = max_vertex_id(dataset) + 1
        in_dim = self.features.shape[1]
        prep_start = ctx.sim_time()

        # -- preprocessing: the Spark pipeline of Table I ----------------
        adj = ctx.ps.create_neighbor_table(
            self._unique_name(ctx, "sage-adj"), n
        )
        blocks = to_neighbor_tables(dataset, symmetric=True, dedupe=True)
        push_neighbor_tables(blocks, adj)
        adj.compact()
        feats = ctx.ps.create_matrix(
            self._unique_name(ctx, "sage-x"), n, in_dim,
            dtype=np.float32, partition="range",
        )
        label_vec = ctx.ps.create_vector(
            self._unique_name(ctx, "sage-y"), n, init=-1.0
        )
        self._push_features(ctx, feats, label_vec, n)
        ctx.ps.barrier()

        # -- driver traces the model and pushes initial weights to PS ----
        blob = ScriptModule.trace(
            make_sage, in_dim=in_dim, hidden=self.hidden,
            num_classes=self.num_classes, seed=self.seed,
            aggregator=self.aggregator,
        )
        params = self._create_weight_matrices(ctx, blob)
        preprocess_time = ctx.sim_time() - prep_start

        # -- training nodes split over partitions -------------------------
        rng = np.random.default_rng(self.seed)
        present = self._present(dataset, n)
        ids = np.flatnonzero(present)
        rng.shuffle(ids)
        if self.labeled_fraction < 1.0:
            ids = ids[:max(2, int(len(ids) * self.labeled_fraction))]
        cut = int(len(ids) * self.train_fraction)
        train_ids, test_ids = np.sort(ids[:cut]), np.sort(ids[cut:])
        p = dataset.num_partitions
        train_parts = ctx.spark.parallelize(
            [train_ids[i::p] for i in range(p)], p
        ).cache()

        fanouts = self.fanouts
        batch_size = self.batch_size
        pad_samples = self.aggregator == "lstm"
        seed = self.seed
        blob_bytes = blob.to_bytes()
        param_names = list(params)

        def run_batch(node_ids: np.ndarray, epoch: int, train: bool
                      ) -> Tuple[float, int, int]:
            """Pull weights, sample, pull feats, train/eval one batch."""
            model = ScriptModule.from_bytes(blob_bytes).instantiate()
            state = {
                name: params[name].to_numpy().reshape(
                    model.state_dict()[name].shape
                )
                for name in param_names
            }
            model.load_state_dict(state)
            brng = np.random.default_rng(
                derive_seed(seed, "batch", epoch, int(node_ids[0]))
            )
            x_b, x_n1, seg1, x_n2, seg2 = _sample_and_pull(
                adj, feats, node_ids, fanouts, brng, pad=pad_samples
            )
            y = label_vec.pull(node_ids).astype(np.int64)
            logits = model(
                Tensor(x_b), Tensor(x_n1), seg1, Tensor(x_n2), seg2
            )
            # Forward + backward FLOPs of the two dense layers over every
            # involved row (the embedded-PyTorch compute of Fig. 5).
            tctx = current_task_context()
            if tctx is not None:
                rows = len(x_b) + len(x_n1) + len(x_n2)
                weights = sum(
                    p.data.size for p in model.parameters()
                )
                factor = 6 if train else 2
                tctx.cost.cpu_s += (
                    ctx.cluster.cost_model.flop_time(
                        factor * rows * weights
                    )
                )
            loss = cross_entropy(logits, y)
            correct = int(
                (logits.data.argmax(axis=1) == y).sum()
            )
            if train:
                model.zero_grad()
                loss.backward()
                grads = {
                    name: t.grad for name, t in model.named_parameters()
                }
                for name in param_names:
                    params[name].apply_gradients(
                        grads[name].reshape(params[name].shape)
                    )
            return float(loss.item()) * len(node_ids), correct, len(node_ids)

        max_batches = max(
            1, -(-max(1, len(train_ids) // p) // batch_size)
        )

        epoch_losses: List[float] = []
        epoch_sim_times: List[float] = []
        # GNN training tolerates inter-partition inconsistency
        # (Sec. III-B), so a failed server reloads only its own
        # checkpoints and the epoch is NOT redone (relaxed mode).
        ctx.ps.recovery_mode = "relaxed"
        ctx.ps.start_iterations()
        for epoch in range(self.epochs):
            t0 = ctx.sim_time()
            loss_sum = 0.0
            count = 0
            for step in range(max_batches):
                def train_step(it: Iterator[np.ndarray],
                               e=epoch, s=step) -> Tuple[float, int, int]:
                    out = (0.0, 0, 0)
                    for node_arr in it:
                        batch = node_arr[s * batch_size:(s + 1) * batch_size]
                        if len(batch) == 0:
                            continue
                        l, c, m = run_batch(batch, e, train=True)
                        out = (out[0] + l, out[1] + c, out[2] + m)
                    return out

                parts = train_parts.foreach_partition(train_step)
                ctx.ps.barrier()
                loss_sum += sum(x[0] for x in parts)
                count += sum(x[2] for x in parts)
            epoch_losses.append(loss_sum / max(1, count))
            epoch_sim_times.append(ctx.sim_time() - t0)
            ctx.ps.complete_iteration()

        # -- evaluation ----------------------------------------------------
        test_acc = self._evaluate(ctx, run_batch, test_ids, p)
        output = ctx.create_dataframe(
            [(len(train_ids), len(test_ids), test_acc)],
            ["train_nodes", "test_nodes", "accuracy"],
        )
        train_parts.unpersist()
        return AlgorithmResult(
            output, self.epochs,
            stats={
                "accuracy": test_acc,
                "epoch_losses": epoch_losses,
                "epoch_sim_times": epoch_sim_times,
                "preprocess_sim_time": preprocess_time,
                "num_train": len(train_ids),
                "num_test": len(test_ids),
            },
        )

    # ------------------------------------------------------------------

    def _push_features(self, ctx: PSGraphContext, feats, label_vec,
                       n: int) -> None:
        """Executors read feature shards from HDFS and push them to PS."""
        p = ctx.cluster.num_executors
        base = "/input/sage-features"
        for i in range(p):
            sl = np.arange(i, n, p)
            ctx.hdfs.write_pickle(
                f"{base}/part-{i:05d}",
                (sl, self.features[sl], self.labels[sl]),
                overwrite=True,
            )
        hdfs = ctx.hdfs

        def push(idx_it: Iterator[int]) -> None:
            from repro.dataflow.taskctx import current_task_context

            tctx = current_task_context()
            for i in idx_it:
                ids, x, y = hdfs.read_pickle(
                    f"{base}/part-{i:05d}",
                    cost=tctx.cost if tctx else None,
                )
                feats.set(ids, x)
                label_vec.set(ids, y.astype(np.float64))

        ctx.spark.parallelize(range(p), p).foreach_partition(push)

    def _create_weight_matrices(self, ctx: PSGraphContext,
                                blob: ScriptModule) -> Dict[str, object]:
        """One column-sharded PS matrix (server-side Adam) per parameter."""
        params: Dict[str, object] = {}
        for name, array in blob.state.items():
            arr2d = array if array.ndim == 2 else array.reshape(1, -1)
            m = ctx.ps.create_matrix(
                self._unique_name(ctx, f"sage-{name}"),
                arr2d.shape[0], arr2d.shape[1], dtype=np.float64,
                axis=1, storage="column", optimizer=Adam(lr=self.lr),
                num_partitions=min(arr2d.shape[1], ctx.ps.num_servers),
            )
            ctx.ps.agent.set_rows_full(
                m.meta, np.arange(arr2d.shape[0]), arr2d
            )
            params[name] = m
        return params

    def _present(self, dataset: RDD, n: int) -> np.ndarray:
        def scan(it) -> np.ndarray:
            mask = np.zeros(n, dtype=bool)
            for b in it:
                mask[b.src] = True
                mask[b.dst] = True
            return mask

        out = np.zeros(n, dtype=bool)
        for m in dataset.foreach_partition(scan):
            out |= m
        return out

    def _evaluate(self, ctx: PSGraphContext, run_batch, test_ids: np.ndarray,
                  p: int) -> float:
        test_parts = ctx.spark.parallelize(
            [test_ids[i::p] for i in range(p)], p
        )

        def eval_step(it: Iterator[np.ndarray]) -> Tuple[int, int]:
            correct = 0
            total = 0
            for node_arr in it:
                if len(node_arr) == 0:
                    continue
                _l, c, m = run_batch(node_arr, epoch=-1, train=False)
                correct += c
                total += m
            return correct, total

        parts = test_parts.foreach_partition(eval_step)
        correct = sum(c for c, _t in parts)
        total = max(1, sum(t for _c, t in parts))
        return correct / total


def _sample_and_pull(adj, feats, node_ids: np.ndarray,
                     fanouts: Tuple[int, int],
                     rng: np.random.Generator, pad: bool):
    """Sample a 2-hop neighborhood from the PS and pull its features.

    With ``pad=True`` every vertex contributes *exactly* ``fanout``
    neighbors (sampling with replacement below the fanout) — the uniform
    sequences the LSTM aggregator unrolls over.

    Returns:
        ``(x_b, x_n1, seg1, x_n2, seg2)`` matching :meth:`SageNet.forward`.
    """
    s1, s2 = fanouts

    def sample(ids: np.ndarray, size: int):
        """Every vertex's draws in request order -> (sampled ids, segment)."""
        block = adj.get(ids)
        return sample_neighbors(rng, block.vertices, block.indptr[:-1],
                                block.degrees(), block.neighbors, size,
                                replace=pad)

    n1, seg1_arr = sample(node_ids, s1)
    n2, seg2_arr = sample(n1, s2)
    # One batched feature pull for every distinct vertex involved.
    all_ids = np.concatenate([node_ids, n1, n2])
    all_feats = feats.pull(all_ids).astype(np.float64)
    x_b = all_feats[:len(node_ids)]
    x_n1 = all_feats[len(node_ids):len(node_ids) + len(n1)]
    x_n2 = all_feats[len(node_ids) + len(n1):]
    return x_b, x_n1, seg1_arr, x_n2, seg2_arr
