"""Neural-network modules for torchlite.

The user-facing layer of the embedded deep-learning runtime: the paper's
users "write PyTorch script and generate PyTorch model" (Sec. IV-E); here
they compose :class:`Module` subclasses and ship them to executors as
:class:`repro.torchlite.script.ScriptModule` blobs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.torchlite.tensor import Tensor


class Module:
    """Base class: tracks parameters and submodules by attribute name."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Tensor]:
        """All trainable tensors, depth-first."""
        out = list(self._parameters.values())
        for m in self._modules.values():
            out.extend(m.parameters())
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """``(dotted_name, tensor)`` pairs, depth-first."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays by dotted name."""
        params = dict(self.named_parameters())
        for name, array in state.items():
            params[name].data[...] = array

    def forward(self, *args, **kwargs):
        """Compute the module output (subclass hook)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            xavier_uniform(rng, in_features, out_features),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class LSTMCell(Module):
    """A standard LSTM cell (input/forget/cell/output gates).

    Used by the GraphSage LSTM aggregator (the paper's step 3 lists
    "mean aggregator, LSTM aggregator, and pooling aggregator"): the cell
    is unrolled over a vertex's sampled-neighbor sequence and the final
    hidden state is the aggregated neighborhood representation.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_ih = Tensor(
            xavier_uniform(rng, input_dim, 4 * hidden_dim),
            requires_grad=True,
        )
        self.w_hh = Tensor(
            xavier_uniform(rng, hidden_dim, 4 * hidden_dim),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(4 * hidden_dim), requires_grad=True)

    def forward(self, x_t: Tensor, h: Tensor, c: Tensor):
        """One step: returns ``(h_next, c_next)``."""
        gates = x_t @ self.w_ih + h @ self.w_hh + self.bias
        hd = self.hidden_dim
        i = gates[:, 0 * hd:1 * hd].sigmoid()
        f = gates[:, 1 * hd:2 * hd].sigmoid()
        g = gates[:, 2 * hd:3 * hd].tanh()
        o = gates[:, 3 * hd:4 * hd].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def run_sequence(self, x: Tensor, batch: int, steps: int) -> Tensor:
        """Unroll over ``x`` of shape (batch*steps, input_dim).

        Row ``b*steps + t`` is element ``t`` of sequence ``b``; returns the
        final hidden state (batch, hidden_dim).
        """
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        c = Tensor(np.zeros((batch, self.hidden_dim)))
        idx = np.arange(batch) * steps
        for t in range(steps):
            h, c = self.forward(x[idx + t], h, c)
        return h
