"""Streaming quantile sketch with O(1) memory per series.

A DDSketch-style log-bucketed sketch: values are mapped to exponentially
sized buckets so any percentile query carries a bounded *relative* error
(``alpha``, default 1%).  High-volume histograms (per-request latencies in
long simulated runs) switch to this sketch once their exact sample buffer
exceeds a cap, keeping memory bounded while p50/p95/p99 stay accurate to
within the configured relative error.

Everything here is pure float arithmetic on sim-derived values — no wall
clock, no randomness — so sketched percentiles are bit-for-bit
reproducible across seeded double-runs (the ``repro.lint`` harness diffs
them).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np


class QuantileSketch:
    """Log-bucketed streaming quantiles with bounded relative error.

    Non-positive values (rare for the latency/byte series this backs,
    but legal) land in a dedicated underflow bucket that reports the
    tracked exact minimum.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_buckets", "_zero",
                 "_count", "_min", "_max", "_max_buckets")

    def __init__(self, alpha: float = 0.01,
                 max_buckets: int = 2048) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha out of range: {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero = 0            # count of values <= 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._max_buckets = max_buckets

    # -- ingest ------------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observation of ``value`` into the sketch."""
        v = float(value)
        self._count += 1
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if v <= 0.0:
            self._zero += 1
            return
        key = math.ceil(math.log(v) / self._log_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + 1
        if len(self._buckets) > self._max_buckets:
            self._collapse_lowest()

    def add_many(self, values: Sequence[float]) -> None:
        """Fold every value in: the state ``add`` leaves after the same
        values one by one, from a handful of array operations.

        Bucket keys are ``ceil(log(v) / log(gamma))`` computed with
        ``np.log``, which can differ from ``math.log`` in the last bit; a
        key whose quotient lies within 1e-9 of an integer — the only place
        that bit can move the ``ceil`` — is derived again with ``math.log``,
        so every key is the scalar path's.  Bucket counts are integers, so
        their order of addition is free; only the collapse policy depends on
        arrival order, and a batch that could push the sketch past
        ``max_buckets`` goes through ``add`` value by value instead.
        """
        v = np.asarray(values, dtype=np.float64)
        if not len(v):
            return
        lowest, highest = float(v.min()), float(v.max())
        positive = v if lowest > 0.0 else v[v > 0.0]
        quotient = np.log(positive) / self._log_gamma
        keys = np.ceil(quotient)
        for i in np.flatnonzero(
                np.abs(quotient - np.rint(quotient)) < 1e-9).tolist():
            keys[i] = math.ceil(math.log(positive[i]) / self._log_gamma)
        # Count per key: a bincount over the keys' own span.
        keys = keys.astype(np.int64)
        first = int(keys.min()) if len(keys) else 0
        counts = np.bincount(keys - first)
        present = np.flatnonzero(counts)
        keys, counts = (present + first).tolist(), counts[present].tolist()
        buckets = self._buckets
        if (len(buckets) + sum(k not in buckets for k in keys)
                > self._max_buckets):
            for x in v.tolist():
                self.add(x)
            return
        self._count += len(v)
        self._zero += len(v) - len(positive)
        self._min = min(self._min, lowest)
        self._max = max(self._max, highest)
        for key, n in zip(keys, counts):
            buckets[key] = buckets.get(key, 0) + n

    def _collapse_lowest(self) -> None:
        """Merge the two lowest buckets (DDSketch collapse policy)."""
        keys = sorted(self._buckets)
        lo, nxt = keys[0], keys[1]
        self._buckets[nxt] += self._buckets.pop(lo)

    # -- queries -----------------------------------------------------------

    def _bucket_value(self, key: int) -> float:
        """Representative value for bucket ``key`` (geometric midpoint)."""
        upper = self._gamma ** key
        return 2.0 * upper / (1.0 + self._gamma)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), within relative error.

        Exact at the extremes: q=0 returns the tracked minimum, q=100 the
        tracked maximum; everything in between is clamped to that range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        rank = (q / 100.0) * (self._count - 1)
        seen = float(self._zero)
        if rank < seen:
            return max(self._min, 0.0) if self._zero < self._count \
                else self._min
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if rank < seen:
                return min(max(self._bucket_value(key), self._min),
                           self._max)
        return self._max

    def count_above(self, threshold: float) -> int:
        """Number of observations strictly greater than ``threshold``.

        Resolved at bucket granularity: a bucket counts as "above" when
        its representative value exceeds the threshold, so the answer
        carries the sketch's relative error at the boundary bucket.
        """
        t = float(threshold)
        if self._count == 0 or t >= self._max:
            return 0
        if t < self._min:
            return self._count
        total = 0
        for key, n in self._buckets.items():
            if self._bucket_value(key) > t:
                total += n
        if t < 0.0:
            total += self._zero
        return total
