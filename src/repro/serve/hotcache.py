"""Hot-key result cache for the serving plane.

A thin serving-facing layer over :class:`repro.ps.cache.PullCache` with
the capacity bound always on: under Zipfian skew a cache holding a few
percent of the key space absorbs the majority of lookups, so the PS only
sees the cold tail.  Unlike the training-path pull caches the hot cache
is *not* epoch-scoped — no barriers run while serving, so entries live
until LRU pressure evicts them (epoch is pinned to 0 with staleness 0).

Counters land in the shared registry under the ``serve.cache.*`` names so
the metrics dump and reports can show hit rate and eviction churn; the
wrapped cache's own ``ps.cache.evictions`` counter is left unwired here
to keep the training-path and serving-path eviction counts separate.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.metrics import (
    SERVE_CACHE_EVICTIONS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    MetricsRegistry,
)
from repro.ps.cache import PullCache


class HotKeyCache:
    """Capacity-bounded LRU cache of served rows.

    Args:
        capacity: maximum cached rows (>= 1); typically a few percent of
            the key space.
        metrics: optional shared registry for the ``serve.cache.*``
            counters.
    """

    def __init__(self, capacity: int,
                 metrics: Optional[MetricsRegistry]) -> None:
        self._cache = PullCache(staleness=0, capacity=capacity)
        self._metrics = metrics

    def lookup(self, keys: np.ndarray
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Split ``keys`` into cached and missing.

        Returns ``(mask, values)`` aligned with ``keys``; ``mask[i]`` True
        when the row came from cache.
        """
        stats = self._cache.stats
        hits, misses = stats.hits, stats.misses
        found = self._cache.lookup(np.asarray(keys), None, epoch=0)
        if self._metrics is not None:
            self._metrics.inc(SERVE_CACHE_HITS, stats.hits - hits)
            self._metrics.inc(SERVE_CACHE_MISSES, stats.misses - misses)
        return found

    def store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert freshly pulled rows, evicting LRU entries when full."""
        before = self._cache.stats.evictions
        self._cache.store(keys, None, values, epoch=0)
        if self._metrics is not None:
            evicted = self._cache.stats.evictions - before
            if evicted:
                self._metrics.inc(SERVE_CACHE_EVICTIONS, evicted)

    def clear(self) -> None:
        """Drop every entry (after a recovery rollback the rows may be stale)."""
        self._cache.clear()

    @property
    def stats(self):
        """The underlying :class:`repro.ps.cache.CacheStats`."""
        return self._cache.stats
