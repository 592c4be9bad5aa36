"""Host threads for pure kernels inside one task body.

The simulator runs its tasks one after another in one process (DESIGN.md);
only a kernel that touches no simulator state and spends its time in
GIL-releasing numpy calls may split its input here.  The caller thread
runs the first chunk and a process-wide pool, created on first use, runs
the rest; results come back in chunk order, so a caller that combines
them in that order gets the one-chunk answer.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: CPUs this process may run on (not ``OMP_NUM_THREADS``, which sizes BLAS).
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pool: Optional[ThreadPoolExecutor] = None


def map_chunks(fn: Callable[[T], R], chunks: Sequence[T]) -> List[R]:
    """``[fn(c) for c in chunks]``, the chunks after the first on the pool."""
    global _pool
    if len(chunks) == 1:
        return [fn(chunks[0])]
    if _pool is None:
        _pool = ThreadPoolExecutor(WORKERS - 1,
                                   thread_name_prefix="repro-kernel")
    futures = [_pool.submit(fn, c) for c in chunks[1:]]
    return [fn(chunks[0])] + [f.result() for f in futures]
