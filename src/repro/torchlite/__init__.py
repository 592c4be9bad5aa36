"""torchlite: numpy autograd engine standing in for embedded PyTorch."""

from repro.torchlite.functional import (
    accuracy,
    concat,
    cross_entropy,
    log_softmax,
    segment_max,
    segment_mean,
)
from repro.torchlite.nn import (
    Linear,
    LSTMCell,
    Module,
    xavier_uniform,
)
from repro.torchlite.optim import AdamOptimizer, LocalOptimizer, SGDOptimizer
from repro.torchlite.script import ScriptModule
from repro.torchlite.tensor import Tensor

__all__ = [
    "AdamOptimizer",
    "LSTMCell",
    "Linear",
    "LocalOptimizer",
    "Module",
    "ScriptModule",
    "SGDOptimizer",
    "Tensor",
    "accuracy",
    "concat",
    "cross_entropy",
    "log_softmax",
    "segment_max",
    "segment_mean",
    "xavier_uniform",
]
