"""Shared fixtures for the test suite."""

import hashlib

import numpy as np
import pytest
from hypothesis import settings

from repro.common.config import ClusterConfig
from repro.core.blocks import NeighborBlock
from repro.core.context import PSGraphContext
from repro.dataflow.context import SparkContext
from repro.obs.tracer import NOOP_TRACER


# Example counts for property tests that do not pin their own: ``default``
# keeps tier-1 under a minute, ``--hypothesis-profile deep`` is what the
# ``smoke`` CI matrix runs (and asserts the example count of).
settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
# (registering under the loaded name applies it; load_profile here would
# override a --hypothesis-profile given on the command line)


def make_context(num_executors: int = 4, executor_mem: int | None = None,
                 tracer=NOOP_TRACER, **kwargs) -> SparkContext:
    """A small SparkContext for tests; unlimited memory unless given."""
    cluster = ClusterConfig(
        num_executors=num_executors,
        executor_mem_bytes=executor_mem if executor_mem else 1 << 40,
        **kwargs,
    )
    return SparkContext(cluster, tracer=tracer)


def make_psg(num_executors: int = 3, num_servers: int = 2,
             tracer=NOOP_TRACER) -> PSGraphContext:
    """A small PSGraphContext for tests; memory never binds."""
    return PSGraphContext(ClusterConfig(
        num_executors=num_executors, executor_mem_bytes=1 << 40,
        num_servers=num_servers, server_mem_bytes=1 << 40,
    ), tracer=tracer)


def table_block(rows: dict) -> NeighborBlock:
    """A neighbor block with ``{vertex: neighbors}`` rows, in dict order and
    exactly as given (unsorted or repeated neighbors stay that way)."""
    lens = [len(ns) for ns in rows.values()]
    return NeighborBlock(
        np.asarray(list(rows), dtype=np.int64),
        np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        np.asarray([n for ns in rows.values() for n in ns], dtype=np.int64),
    )


def digest(obj) -> str:
    """Short hash of nested tuples / lists of arrays and plain values
    (arrays by dtype, shape and bytes; anything else by ``repr``): what
    the ledger's result documents hold an array or an output to."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()[:16]


def block_rows(block: NeighborBlock) -> list:
    """The block's rows as lists, aligned with ``block.vertices``."""
    return [nbrs.tolist() for _v, nbrs in block.rows()]


@pytest.fixture
def sc():
    ctx = make_context()
    yield ctx
    ctx.stop()


@pytest.fixture
def psg():
    ctx = make_psg()
    yield ctx
    ctx.stop()
