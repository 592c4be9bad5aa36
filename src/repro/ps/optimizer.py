"""Server-side gradient descent optimizers.

"we implement more advanced gradient descent optimizers on PS, such as
AdaGrad and Adam, using the user-defined function psFunc provided by PS"
(Sec. IV-E).  An optimizer spec is attached to a matrix at creation time;
each server keeps the optimizer *state* (momenta, accumulators) next to the
partition it owns, so ``push_gradients`` ships only gradients — never
optimizer state — over the network.

A matrix's state is laid out like its parameters (:meth:`Optimizer.
init_shared_state`): one flat array per entry over every partition, one
step count per partition; a partition's state is views of it, so one
:meth:`Optimizer.step` can update a run of partitions at the same step
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

import numpy as np


class Optimizer:
    """Base optimizer: subclasses update ``param`` in place from ``grad``."""

    #: State entries that count steps: one element per partition, which
    #: every step of the partition increments.
    counters: ClassVar[Tuple[str, ...]] = ()

    def init_state(self, shape: tuple, dtype: np.dtype) -> Dict[str, np.ndarray]:
        """Fresh per-partition state arrays."""
        return {}

    def init_shared_state(self, size: int, dtype: np.dtype,
                          parts: int) -> Dict[str, np.ndarray]:
        """Fresh state of ``parts`` partitions of ``size`` elements in all,
        laid end to end: flat arrays, one count per partition."""
        state = self.init_state((size,), dtype)
        for name in self.counters:
            state[name] = np.zeros(parts, dtype=state[name].dtype)
        return state

    def step(self, param: np.ndarray, grad: np.ndarray,
             state: Dict[str, np.ndarray]) -> None:
        """Apply one update in place."""
        raise NotImplementedError

    def flops_per_element(self) -> float:
        """Rough FLOPs per parameter element, for sim-time costing."""
        return 2.0


@dataclass
class SGD(Optimizer):
    """Plain stochastic gradient descent: ``p -= lr * g``."""

    lr: float = 0.01

    def step(self, param: np.ndarray, grad: np.ndarray,
             state: Dict[str, np.ndarray]) -> None:
        param -= self.lr * grad


@dataclass
class Momentum(Optimizer):
    """SGD with heavy-ball momentum."""

    lr: float = 0.01
    momentum: float = 0.9

    def init_state(self, shape: tuple, dtype: np.dtype) -> Dict[str, np.ndarray]:
        return {"v": np.zeros(shape, dtype=dtype)}

    def step(self, param: np.ndarray, grad: np.ndarray,
             state: Dict[str, np.ndarray]) -> None:
        v = state["v"]
        v *= self.momentum
        v += grad
        param -= self.lr * v

    def flops_per_element(self) -> float:
        return 4.0


@dataclass
class AdaGrad(Optimizer):
    """AdaGrad: per-coordinate learning rates from squared-gradient sums."""

    lr: float = 0.05
    eps: float = 1e-8

    def init_state(self, shape: tuple, dtype: np.dtype) -> Dict[str, np.ndarray]:
        return {"g2": np.zeros(shape, dtype=np.float64)}

    def step(self, param: np.ndarray, grad: np.ndarray,
             state: Dict[str, np.ndarray]) -> None:
        g2 = state["g2"]
        g2 += grad.astype(np.float64) ** 2
        param -= (self.lr * grad / (np.sqrt(g2) + self.eps)).astype(
            param.dtype
        )

    def flops_per_element(self) -> float:
        return 6.0


@dataclass
class Adam(Optimizer):
    """Adam with bias correction."""

    counters: ClassVar[Tuple[str, ...]] = ("t",)

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def init_state(self, shape: tuple, dtype: np.dtype) -> Dict[str, np.ndarray]:
        return {
            "m": np.zeros(shape, dtype=np.float64),
            "v": np.zeros(shape, dtype=np.float64),
            "t": np.zeros(1, dtype=np.int64),
        }

    def step(self, param: np.ndarray, grad: np.ndarray,
             state: Dict[str, np.ndarray]) -> None:
        g = grad.astype(np.float64)
        state["t"] += 1  # one count per partition the step spans, all equal
        t = int(state["t"][0])
        m, v = state["m"], state["v"]
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        param -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
            param.dtype
        )

    def flops_per_element(self) -> float:
        return 10.0
