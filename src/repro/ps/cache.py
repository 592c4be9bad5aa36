"""Agent-side pull cache with bounded staleness and optional capacity.

Angel's PS agents cache pulled model partitions so that repeated reads of
slow-changing values (out-degrees, converged ranks, frozen neighbor tables)
skip the network.  The cache is epoch-scoped: entries are valid for
``staleness`` sync epochs after the pull, then expire — under BSP with
``staleness=0`` every barrier invalidates everything, recovering exact
semantics; larger staleness trades freshness for traffic, the same dial as
SSP-style training.

Capacity is a second, independent bound: with ``capacity`` set the cache
keeps at most that many entries and evicts least-recently-used ones
(lookup hits and fresh stores both refresh recency).  The default
(``capacity=None``) keeps the historical unbounded behavior for training
loops; the serving plane's hot-key cache always bounds it.  Evictions are
counted in :class:`CacheStats` and, when a metrics registry is attached,
in the ``ps.cache.evictions`` counter.

Everything is arrays, so a call costs a handful of numpy operations
whatever the number of keys: entries live in *slots* — a row table per
cached column plus the slot's key, column, pull epoch and recency stamp —
and each column maps row id -> slot through a dense index (keys are PS
row ids, ``0 <= key < rows``, so the index is at most one int per row of
the matrix).  Recency is a stamp from one counter: a hit or a store
stamps its rows in key order, and the least recently used entries are
the smallest stamps.

Opt-in per matrix via ``PSContext.enable_pull_cache(name, staleness=...,
capacity=...)``; writes through the same agent invalidate the writer's
cached rows so a worker always sees its own updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.batch import sorted_unique, strictly_increasing
from repro.common.errors import ConfigError, PSError
from repro.common.metrics import PS_CACHE_EVICTIONS, MetricsRegistry

#: Stamp of a slot that holds nothing: never the least recently used.
_NEVER = np.iinfo(np.int64).max
#: Key of slot 0, where the index sends every uncached row id.
_NO_KEY = np.iinfo(np.int64).min


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cached matrix."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of key lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _grown(array: np.ndarray, length: int, fill) -> np.ndarray:
    out = np.full((length,) + array.shape[1:], fill, dtype=array.dtype)
    out[:len(array)] = array
    return out


class PullCache:
    """Per-matrix (key, column) -> (row, epoch) cache.

    Args:
        staleness: entries pulled at epoch ``e`` are served until epoch
            ``e + staleness`` (inclusive).
        capacity: maximum entries kept; ``None`` (default) is unbounded.
            When full, the least-recently-used entry is evicted.
        metrics: optional registry; evictions increment
            :data:`~repro.common.metrics.PS_CACHE_EVICTIONS`.
    """

    def __init__(self, staleness: int = 0, capacity: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError("capacity must be >= 1 (or None)")
        self.staleness = staleness
        self.capacity = capacity
        self.metrics = metrics
        self.stats = CacheStats()
        self._clock = 0
        self.clear()

    def clear(self) -> None:
        """Drop everything (e.g. after a strict recovery rollback)."""
        self._cols: List[Optional[int]] = []
        #: per column: row id -> slot (0 = not cached) and rows by slot.
        self._index: Dict[Optional[int], np.ndarray] = {}
        self._rows: Dict[Optional[int], np.ndarray] = {}
        self._slot_key = np.full(1, _NO_KEY)
        self._slot_col = np.zeros(1, dtype=np.int64)
        self._epochs = np.zeros(1, dtype=np.int64)
        self._stamps = np.full(1, _NEVER)
        self._free = np.empty(0, dtype=np.int64)
        self._size = 0
        #: no live entry was pulled before this epoch: while it is fresh,
        #: a lookup skips the per-row staleness test.
        self._oldest_epoch = math.inf

    def _ticks(self, n: int) -> np.ndarray:
        """The next ``n`` recency stamps."""
        self._clock += n
        return np.arange(self._clock - n, self._clock)

    def _find(self, index: np.ndarray, keys: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, cached)`` of ``keys`` under one column's index.
        Clipping sends an out-of-range key to some in-range key's slot;
        comparing the slot's own key unmasks it (and slot 0)."""
        slots = index.take(keys, mode="clip")
        return slots, self._slot_key.take(slots) == keys

    def lookup(self, keys: np.ndarray, col: Optional[int],
               epoch: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Split ``keys`` into (hit_mask, values_for_hits).

        Returns:
            ``(mask, values)``: ``mask[i]`` True when ``keys[i]`` was served
            from cache; ``values`` is a fresh array aligned with ``keys``
            (undefined rows where the mask is False; ``None`` when nothing
            of ``col`` was ever cached).  Hits refresh LRU recency.
        """
        index = self._index.get(col)
        if index is None:
            self.stats.misses += len(keys)
            return np.zeros(len(keys), dtype=bool), None
        slots, mask = self._find(index, keys)
        if epoch - self._oldest_epoch > self.staleness:
            stale = mask & (epoch - self._epochs.take(slots) > self.staleness)
            if stale.any():
                self._release(sorted_unique(slots[stale]))
                mask &= ~stale
        hits = int(np.count_nonzero(mask))
        self.stats.hits += hits
        self.stats.misses += len(keys) - hits
        if hits and self.capacity is not None:
            self._stamps[slots[mask]] = self._ticks(hits)
        return mask, self._rows[col].take(slots, axis=0)

    def store(self, keys: np.ndarray, col: Optional[int],
              values: np.ndarray, epoch: int) -> None:
        """Cache freshly pulled rows (evicting LRU entries when bounded)."""
        keys, values = np.asarray(keys), np.asarray(values)
        if not len(keys):
            return
        ticks = self._ticks(len(keys))
        if not strictly_increasing(keys):
            # A repeated key keeps its last row; recency is input order.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            last = np.append(keys[1:] != keys[:-1], True)
            order = order[last]
            keys, values, ticks = keys[last], values[order], ticks[order]
        if keys[0] < 0:
            raise PSError("pull-cache keys are row ids, >= 0")
        index = self._index.get(col)
        if self.capacity is not None and len(keys) > self.capacity:
            # More rows than the cache holds: every older entry goes, and
            # of these only the ``capacity`` most recent stay.
            cached = (0 if index is None else
                      int(np.count_nonzero(self._find(index, keys)[1])))
            evicted = self._size - cached + len(keys) - self.capacity
            self.clear()
            self._count_evictions(evicted)
            newest = np.sort(np.argsort(ticks)[-self.capacity:])
            keys, values, ticks = keys[newest], values[newest], ticks[newest]
            index = None
        if index is None:
            self._cols.append(col)
            index = np.zeros(0, dtype=np.int64)
        if keys[-1] >= len(index):
            index = _grown(index, max(int(keys[-1]) + 1, 2 * len(index)), 0)
        self._index[col] = index
        slots = index[keys]
        new = slots == 0
        n_new = int(np.count_nonzero(new))
        if n_new:
            if n_new < len(keys):
                # Rows already cached are stamped before the eviction
                # below chooses its victims: it must not take them.
                self._stamps[slots[~new]] = ticks[~new]
            fresh = self._take_slots(n_new)
            slots[new] = fresh
            index[keys[new]] = fresh
            self._slot_key[fresh] = keys[new]
            self._slot_col[fresh] = self._cols.index(col)
            self._size += n_new
        rows = self._rows.get(col)
        if rows is None:
            rows = self._rows[col] = np.zeros(
                (len(self._stamps),) + values.shape[1:], dtype=values.dtype)
        rows[slots] = values
        self._epochs[slots] = epoch
        self._stamps[slots] = ticks
        self._oldest_epoch = min(self._oldest_epoch, epoch)

    def invalidate(self, keys: np.ndarray) -> None:
        """Drop cached rows for written keys (all columns); the cost
        follows the keys written, not the size of the cache."""
        keys = np.asarray(keys)
        for index in self._index.values():
            slots, cached = self._find(index, keys)
            if cached.any():
                self._release(sorted_unique(slots[cached]))

    def _take_slots(self, n: int) -> np.ndarray:
        """``n`` slots holding nothing: released ones first, then new
        ones while the bound allows, then those of the least recently
        used entries."""
        short = n - len(self._free)
        have = len(self._stamps)
        want = max(2 * have, have + short)
        if self.capacity is not None:
            want = min(want, self.capacity + 1)  # slot 0 holds no entry
        if short > 0 and want > have:
            self._slot_key = _grown(self._slot_key, want, _NO_KEY)
            self._slot_col = _grown(self._slot_col, want, 0)
            self._epochs = _grown(self._epochs, want, 0)
            self._stamps = _grown(self._stamps, want, _NEVER)
            for col, rows in self._rows.items():
                self._rows[col] = _grown(rows, want, 0)
            self._free = np.concatenate([self._free, np.arange(have, want)])
            short = n - len(self._free)
        if short > 0:
            self._release(np.argpartition(self._stamps, short - 1)[:short])
            self._count_evictions(short)
        slots, self._free = self._free[:n], self._free[n:]
        return slots

    def _release(self, slots: np.ndarray) -> None:
        """Empty distinct live ``slots`` and unindex their keys."""
        keys, owner = self._slot_key[slots], self._slot_col[slots]
        for cid, col in enumerate(self._cols):
            self._index[col][keys[owner == cid]] = 0
        self._stamps[slots] = _NEVER
        self._free = np.concatenate([self._free, slots])
        self._size -= len(slots)

    def _count_evictions(self, evicted: int) -> None:
        self.stats.evictions += evicted
        if self.metrics is not None:
            self.metrics.inc(PS_CACHE_EVICTIONS, evicted)
