"""Euler baseline (Alibaba's graph learning system) for Table I.

The paper compares PSGraph against Euler on GraphSage and attributes the
gap to two mechanisms, both modelled here at the mechanism level:

* **Disk-through sequential preprocessing** — "Euler has a strict
  constraint on the graph data so that the original graph data needs
  complex preprocessing.  These operations are executed sequentially and
  individually, meaning that every operation needs to read data from disk
  and write output to disk" (Sec. V-B3): an index-mapping pass and a
  data-to-JSON pass each run on a *single* worker reading and writing HDFS
  (JSON inflating the bytes), followed by a quick parallel partitioning
  pass.  8 hours at paper scale vs PSGraph's 12 in-pipeline minutes.

* **Per-vertex RPC sampling during training** — Euler's graph engine
  serves ``sampleNeighbor``/``getFeature`` calls per vertex; every 2-hop
  sample pays an RPC round trip, where PSGraph batches one PS pull per
  batch.  200 s/epoch vs 7 s/epoch at k=2.

Model quality is *not* handicapped: training uses the same torchlite
GraphSage with synchronous gradient averaging, so accuracy lands where
PSGraph's does (91.5 % vs 91.6 % in Table I).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.common.config import ClusterConfig
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.common.simclock import TaskCost, barrier
from repro.core.blocks import (
    NeighborBlock,
    build_neighbor_block,
    sample_neighbors,
)
from repro.core.ops import parse_edge_bytes
from repro.hdfs.filesystem import Hdfs
from repro.torchlite.functional import cross_entropy
from repro.torchlite.optim import AdamOptimizer
from repro.torchlite.script import ScriptModule
from repro.torchlite.tensor import Tensor
from repro.yarn.resource_manager import ResourceManager

#: Bytes-per-edge of Euler's JSON interchange format relative to the
#: 16-byte binary pair (measured JSON graph dumps run ~6-10x).
JSON_INFLATION = 8.0


class EulerSystem:
    """A simulated Euler deployment: workers + graph-engine shards.

    The graph is one undirected, deduplicated :class:`NeighborBlock` and
    the features stay in the caller's dtype until a batch gathers its
    rows.  :meth:`stop` releases the containers, drops the graph, features
    and labels, and deletes the files :meth:`preprocess` wrote.

    The system owns its filesystem (:attr:`hdfs`, where the caller writes
    the raw input) and the registry of its HDFS and YARN meters
    (:attr:`metrics`).

    Args:
        cluster: worker count and memory (the paper gives Euler 90
            executors on DS3).
        seed: root of the split, epoch-order and sampling generators.
    """

    #: Per-call latency of the graph engine (sampleNeighbor / getFeature
    #: round trip), in sim-seconds.
    sample_rpc_latency_s = 4e-4
    #: Per-record CPU of the preprocessing scripts.  The paper reports
    #: 4 hours of index mapping for 100 M edges (~144 us/record) —
    #: script-language row processing, not a compiled engine.
    preprocess_cpu_s_per_record = 1e-4
    #: Share of the (labeled) vertices :meth:`train_graphsage` trains on;
    #: the rest evaluate.
    train_fraction = 0.7

    def __init__(self, cluster: ClusterConfig, *,
                 seed: int = DEFAULT_SEED) -> None:
        self.cluster = cluster
        self.metrics = MetricsRegistry()
        self.hdfs = Hdfs(cluster.cost_model, self.metrics)
        self.rm = ResourceManager(self.metrics)
        self.workers = self.rm.request_many(
            "euler-worker", cluster.num_executors, cluster.executor_mem_bytes
        )
        self.driver = self.rm.request(
            "euler-driver", cluster.executor_mem_bytes, name="euler-driver"
        )
        self.seed = seed
        # In-memory state after preprocess().
        self._block: NeighborBlock | None = None
        self._features: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._outputs: Tuple[str, ...] = ()  # the files preprocess wrote

    # ------------------------------------------------------------------
    # preprocessing (the 8-hour column of Table I)
    # ------------------------------------------------------------------

    def preprocess(self, edges_path: str, features: np.ndarray,
                   labels: np.ndarray, workdir: str = "/euler"
                   ) -> Dict[str, float]:
        """Run the three sequential disk-through passes over the edge
        file ``edges_path``, or the files under it.

        Returns:
            Simulated seconds per pass plus the total.

        Raises:
            FileNotFoundOnHdfsError: if the path names no file, before
                any clock moves.
        """
        self.driver.ensure_alive()
        edge_files = self.hdfs.input_files(edges_path)
        mapped_path = f"{workdir}/mapped-edges"
        meta_path = f"{workdir}/graph-json-meta"
        self._outputs = (mapped_path, meta_path)
        cm = self.cluster.cost_model
        worker = self.workers[0]

        # Pass 1 — index mapping: read every raw edge file, build the
        # vertex id map, write remapped binary edges.  Single worker.
        t0 = worker.clock.now_s
        cost = TaskCost()
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for path in edge_files:
            edges = parse_edge_bytes(self.hdfs.read_bytes(path, cost=cost))
            src_parts.append(edges.src)
            dst_parts.append(edges.dst)
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        # Script-speed row processing: parse, hash, remap, re-emit.
        cost.cpu_s += len(src) * self.preprocess_cpu_s_per_record
        mapped = np.stack([src, dst], axis=1)
        self.hdfs.write_pickle(mapped_path, mapped, overwrite=True, cost=cost)
        worker.clock.advance(cost.total_s)
        index_mapping_s = worker.clock.now_s - t0

        # Pass 2 — data-to-JSON: read the mapped edges and features, write
        # the inflated JSON interchange file.  Single worker again.
        t1 = worker.clock.now_s
        cost = TaskCost()
        self.hdfs.read_pickle(mapped_path, cost=cost)
        binary_bytes = mapped.nbytes + features.nbytes + labels.nbytes
        json_bytes = int(binary_bytes * JSON_INFLATION)
        cost.cpu_s += cm.serialization_time(json_bytes) * 4  # text encode
        # Script-speed JSON emission per edge and per feature row.
        cost.cpu_s += (
            (len(src) + len(features)) * self.preprocess_cpu_s_per_record
        )
        cost.disk_s += cm.disk_write_time(json_bytes * self.hdfs.replication)
        self.hdfs.write_pickle(
            meta_path, {"bytes": json_bytes}, overwrite=True)
        worker.clock.advance(cost.total_s)
        json_s = worker.clock.now_s - t1

        # Pass 3 — JSON partitioning: parallel split into worker shards.
        t2 = max(w.clock.now_s for w in self.workers)
        per_worker = json_bytes / len(self.workers)
        for w in self.workers:
            w.clock.advance_to(worker.clock.now_s)
            w.clock.advance(
                cm.disk_read_time(per_worker)
                + cm.disk_write_time(per_worker)
            )
        barrier([w.clock for w in self.workers] + [self.driver.clock])
        partition_s = self.driver.clock.now_s - t2

        # Materialize the graph for training.
        self._block = _adjacency_block(src, dst)
        self._features = np.asarray(features)
        self._labels = np.asarray(labels, dtype=np.int64)
        return {
            "index_mapping_s": index_mapping_s,
            "json_transform_s": json_s,
            "partition_s": partition_s,
            "total_s": index_mapping_s + json_s + partition_s,
        }

    # ------------------------------------------------------------------
    # training (the 200 s/epoch column of Table I)
    # ------------------------------------------------------------------

    def train_graphsage(self, blob: ScriptModule, *, epochs: int = 3,
                        batch_size: int = 512,
                        fanouts: Tuple[int, int] = (10, 5),
                        lr: float = 0.01,
                        labeled_fraction: float = 1.0
                        ) -> Dict[str, object]:
        """Train GraphSage with per-vertex RPC sampling costs.

        Returns:
            ``{"epoch_sim_times", "epoch_losses", "accuracy"}``.
        """
        self.driver.ensure_alive()
        if self._features is None:
            raise RuntimeError("preprocess() must run before training")
        cm = self.cluster.cost_model
        feats = self._features
        rng = np.random.default_rng(self.seed)
        present = self._block.vertices.copy()
        rng.shuffle(present)
        if labeled_fraction < 1.0:
            present = present[:max(2, int(len(present) * labeled_fraction))]
        cut = int(len(present) * self.train_fraction)
        train_ids = np.sort(present[:cut])
        test_ids = np.sort(present[cut:])
        model = blob.instantiate()
        opt = AdamOptimizer(model.parameters(), lr=lr)
        s1, s2 = fanouts
        feat_bytes = feats.shape[1] * 8
        n_workers = len(self.workers)
        weight_bytes = sum(p.data.nbytes for p in model.parameters())

        def charge_batch(num_nodes: int) -> float:
            """Simulated seconds one worker spends on its batch slice."""
            sample_calls = num_nodes * (1 + s1)          # 2-hop sampling
            feat_calls = num_nodes * (1 + s1 + s1 * s2)  # per-vertex fetch
            rpc = (sample_calls + feat_calls) * self.sample_rpc_latency_s
            net = cm.network_time(feat_calls * feat_bytes)
            compute = cm.flop_time(
                num_nodes * (1 + s1 + s1 * s2) * feats.shape[1] * 20
            )
            # Synchronous gradient exchange across workers.
            allreduce = cm.network_time(2 * weight_bytes)
            return rpc + net + compute + allreduce

        epoch_losses: List[float] = []
        epoch_times: List[float] = []
        for epoch in range(epochs):
            t0 = self.driver.clock.now_s
            order = train_ids.copy()
            np.random.default_rng(
                derive_seed(self.seed, "euler-epoch", epoch)
            ).shuffle(order)
            loss_sum = 0.0
            for start in range(0, len(order), batch_size):
                batch = order[start:start + batch_size]
                loss = self._train_batch(model, opt, batch, fanouts, epoch)
                loss_sum += loss * len(batch)
                per_worker = -(-len(batch) // n_workers)
                dt = charge_batch(per_worker)
                for w in self.workers:
                    w.clock.advance(dt)
                barrier([w.clock for w in self.workers])
            barrier([w.clock for w in self.workers] + [self.driver.clock])
            epoch_times.append(self.driver.clock.now_s - t0)
            epoch_losses.append(loss_sum / max(1, len(order)))

        accuracy = self._evaluate(model, test_ids, fanouts)
        return {
            "epoch_sim_times": epoch_times,
            "epoch_losses": epoch_losses,
            "accuracy": accuracy,
            "num_train": len(train_ids),
            "num_test": len(test_ids),
        }

    # ------------------------------------------------------------------

    def _sample(self, ids: np.ndarray, fanout: int,
                rng: np.random.Generator
                ) -> Tuple[np.ndarray, np.ndarray]:
        block = self._block
        vertices, indptr, nbrs = block.vertices, block.indptr, block.neighbors
        pos = np.searchsorted(vertices, ids)
        hit = pos < len(vertices)
        hit[hit] = vertices[pos[hit]] == ids[hit]
        # A missing id reads indptr[0] == 0 twice: an empty row.
        lo = indptr[np.where(hit, pos, 0)]
        hi = indptr[np.where(hit, pos + 1, 0)]
        return sample_neighbors(rng, ids, lo, hi - lo, nbrs, fanout,
                                replace=False)

    def _forward(self, model, ids: np.ndarray,
                 fanouts: Tuple[int, int], rng: np.random.Generator):
        n1, seg1 = self._sample(ids, fanouts[0], rng)
        n2, seg2 = self._sample(n1, fanouts[1], rng)
        feats = self._features
        return model(
            Tensor(feats[ids].astype(np.float64)),
            Tensor(feats[n1].astype(np.float64)), seg1,
            Tensor(feats[n2].astype(np.float64)), seg2,
        )

    def _train_batch(self, model, opt, batch: np.ndarray,
                     fanouts: Tuple[int, int], epoch: int) -> float:
        rng = np.random.default_rng(
            derive_seed(self.seed, "euler-batch", epoch, int(batch[0]))
        )
        logits = self._forward(model, batch, fanouts, rng)
        loss = cross_entropy(logits, self._labels[batch])
        opt.zero_grad()
        loss.backward()
        opt.step()
        return float(loss.item())

    def _evaluate(self, model, test_ids: np.ndarray,
                  fanouts: Tuple[int, int]) -> float:
        if len(test_ids) == 0:
            return 0.0
        rng = np.random.default_rng(derive_seed(self.seed, "euler-eval"))
        correct = 0
        for start in range(0, len(test_ids), 1024):
            batch = test_ids[start:start + 1024]
            logits = self._forward(model, batch, fanouts, rng)
            correct += int(
                (logits.data.argmax(axis=1) == self._labels[batch]).sum()
            )
        return correct / len(test_ids)

    def sim_time(self) -> float:
        """Current driver sim-time in seconds."""
        return self.driver.clock.now_s

    def stop(self) -> None:
        """Release the containers, the graph, the features and the labels,
        and delete the files :meth:`preprocess` wrote (the caller's input
        stays).  A second call does nothing."""
        for w in self.workers:
            self.rm.release(w)
        self.rm.release(self.driver)
        self._block = self._features = self._labels = None
        outputs, self._outputs = self._outputs, ()
        for path in outputs:
            if self.hdfs.exists(path):
                self.hdfs.delete(path)


def _adjacency_block(src: np.ndarray, dst: np.ndarray) -> NeighborBlock:
    """The undirected, deduplicated graph as one CSR block (vertices and
    rows ascending)."""
    others = np.concatenate([dst, src])
    # An id at or above isqrt(2 ** 63) would wrap its pair key.
    if len(others) and (int(others.min()) < 0
                        or int(others.max()) >= 3_037_000_499):
        raise ValueError("vertex ids must be >= 0 and fit a pair key")
    return build_neighbor_block(np.concatenate([src, dst]), others,
                                dedupe=True)
