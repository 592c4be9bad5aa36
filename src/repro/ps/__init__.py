"""Distributed parameter server: servers, agents, psFunc, sync, recovery."""

from repro.ps.context import PSContext
from repro.ps.matrix import PSEmbedding, PSMatrix, PSNeighborTable, PSVector
from repro.ps.meta import MatrixMeta
from repro.ps.optimizer import SGD, AdaGrad, Adam, Momentum, Optimizer
from repro.ps.partitioner import (
    HashPSPartitioner,
    HashRangePSPartitioner,
    PSPartitioner,
    RangePSPartitioner,
    make_ps_partitioner,
)
from repro.ps.psfunc import PartialDot, PsFunc, RandomInit, RankOneUpdate
from repro.ps.server import PSServer
from repro.ps.sync import SyncController

__all__ = [
    "AdaGrad",
    "Adam",
    "HashPSPartitioner",
    "HashRangePSPartitioner",
    "MatrixMeta",
    "Momentum",
    "Optimizer",
    "PSContext",
    "PSEmbedding",
    "PSMatrix",
    "PSNeighborTable",
    "PSPartitioner",
    "PSServer",
    "PSVector",
    "PartialDot",
    "PsFunc",
    "RandomInit",
    "RangePSPartitioner",
    "RankOneUpdate",
    "SGD",
    "SyncController",
    "make_ps_partitioner",
]
