"""Autograd tensors — the reproduction's stand-in for embedded PyTorch.

The paper embeds PyTorch in Spark through JNI so that "PyTorch performs
forward calculation and backward propagation with Autograd mechanism"
(Sec. III-C).  :class:`Tensor` provides that mechanism on numpy: a dynamic
tape of operations, reverse-mode differentiation via topological sort, and
the op set GraphSage needs (matmul, concat, segment-mean aggregation,
activations, cross-entropy).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.batch import scatter_add_flat


class Tensor:
    """A numpy array with a gradient tape.

    Attributes:
        data: the underlying float array.
        requires_grad: participate in autograd.
        grad: accumulated gradient after :meth:`backward` (or None).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    def item(self) -> float:
        """The scalar value of a 0-d/1-element tensor."""
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self) -> None:
        """Reverse-mode differentiation from this scalar tensor (seed
        gradient 1)."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar tensor")
        grad = np.ones_like(self.data)
        # Topological order of the tape reachable from self.
        order: List[Tensor] = []
        seen = set()

        def visit(t: "Tensor") -> None:
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    if p.requires_grad and id(p) not in seen:
                        stack.append((p, False))

        visit(self)
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf: expose the accumulated gradient to the user.
                node._accumulate(g)
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _wrap(other)
        data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.data.shape),
                    _unbroadcast(g, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other) -> "Tensor":
        other = _wrap(other)
        data = self.data * other.data

        def backward(g):
            return (_unbroadcast(g * other.data, self.data.shape),
                    _unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = _wrap(other)
        data = self.data @ other.data

        def backward(g):
            return (g @ other.data.T, self.data.T @ g)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def __getitem__(self, idx) -> "Tensor":
        """Row/element gather, differentiable (scatter-add backward)."""
        data = self.data[idx]

        def backward(g):
            out = np.zeros(self.data.shape)
            # Whatever ``idx`` is, it picks these flat positions of
            # ``out``, in the order ``np.add.at(out, idx, g)`` visits them.
            picked = np.arange(out.size).reshape(out.shape)[idx]
            scatter_add_flat(out, picked.reshape(-1),
                             np.broadcast_to(g, picked.shape))
            return (out,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self) -> "Tensor":
        """Sum of every element, differentiable."""
        data = self.data.sum()

        def backward(g):
            return (np.broadcast_to(np.asarray(g), self.data.shape).copy(),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        return Tensor._make(
            self.data * mask, (self,), lambda g: (g * mask,)
        )

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid."""
        s = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        return Tensor._make(s, (self,), lambda g: (g * s * (1 - s),))

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        t = np.tanh(self.data)
        return Tensor._make(t, (self,), lambda g: (g * (1 - t * t),))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=i, keepdims=True)
    return g
