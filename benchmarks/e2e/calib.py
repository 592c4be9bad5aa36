"""Calibrated host clock: slice -> probe -> slice.

This host's speed drifts (one PageRank-DS1 cell: 2.65-4.83 s over twelve
back-to-back repeats, ``process_time`` tracking wall, steal flat), so raw
seconds of identical code move 8-14 % between sets of runs.  The clock
here brackets every timed *slice* (one public call made by the benchmark)
with a fixed-work *probe* and reports

    calibrated_s = slice_s * PROBE_REF_S / mean(adjacent probes)

i.e. seconds as they would read on the reference host state.  A slice
longer than :data:`PROBE_GAP_S` is split at task boundaries by
:meth:`Clock.checkpoint` (called from a task hook the benchmark adds to
each SparkContext it creates), each segment normalised by its own pair
of probes.  ``gc.collect()`` runs before each slice, outside the clock.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Probe duration on the reference host state: ``min`` of 200 probes on
#: the container the benchmark was defined on (``python3 calib.py`` read
#: 0.091588 and 0.092249 on two tries).  Frozen: changing it rescales
#: every calibrated second ever recorded.
PROBE_REF_S = 0.092

#: A slice is split (at task boundaries) once its last probe is older
#: than this; normalisation holds with probes up to ~8 s apart.
PROBE_GAP_S = 2.0

#: A probe younger than this is reused, so back-to-back short slices
#: share one probe instead of paying ~0.1 s each.
PROBE_REUSE_S = 0.5

_PY_ITERS = 250_000
_NP_SIZE = 120_000
_NP_ROUNDS = 3
_KEYS = np.random.default_rng(12345).integers(0, _NP_SIZE // 4, _NP_SIZE)
_VALUES = np.arange(_NP_SIZE, dtype=np.float64)


def probe_ops() -> int:
    """Operations one probe performs (constant: the probe is fixed work)."""
    return _PY_ITERS + _NP_ROUNDS * 3 * _NP_SIZE


def probe() -> float:
    """Run the fixed probe once; returns its raw duration in seconds.

    Half interpreter work (dict/int loop, what the PS request path and
    the schedulers spend their time on), half numpy kernels (argsort,
    fancy index, unique — the columnar paths).  All buffers are module
    constants or die before return, so repeated probes do not grow the
    heap.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(_PY_ITERS):
        k = (i * 7919) & 1023
        acc += table.get(k, 0) ^ i
        table[k] = acc & 0xFFFF
    for _ in range(_NP_ROUNDS):
        order = np.argsort(_KEYS, kind="stable")
        gathered = _VALUES[order]
        uniq = np.unique(_KEYS)
        acc += int(gathered[0]) + len(uniq)
    return time.perf_counter() - t0


@dataclass
class SliceTime:
    """One timed slice: raw and calibrated seconds."""

    name: str
    raw_s: float
    cal_s: float


@dataclass
class Clock:
    """Slice/probe/gc protocol plus the ``bench.*`` self-metrics.

    ``timer`` and ``probe_fn`` are injectable so the unit test can apply
    a synthetic slowdown to both.
    """

    probe_fn: Callable[[], float] = probe
    timer: Callable[[], float] = time.perf_counter
    ref_s: float = PROBE_REF_S
    probes: List[float] = field(default_factory=list)
    slices: List[SliceTime] = field(default_factory=list)
    segment_max_s: float = 0.0
    _segments: List[Tuple[float, float, float]] = field(default_factory=list)
    _seg_start: float = 0.0
    _last_probe_s: float = 0.0
    _probe_end: float = 0.0
    _in_slice: bool = False

    def _probe(self) -> float:
        if self.probes and self.timer() - self._probe_end < PROBE_REUSE_S:
            return self.probes[-1]
        self.probes.append(self.probe_fn())
        self._probe_end = self.timer()
        return self.probes[-1]

    def slice(self, name: str, fn: Callable, *args, **kwargs):
        """Time one public call; returns whatever ``fn`` returns.

        A call that raises is timed all the same (a simulated OOM is a
        result, and its seconds were spent).
        """
        gc.collect()
        self._last_probe_s = self._probe()
        self._segments = []
        self._in_slice = True
        self._seg_start = self.timer()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.timer()
            self._in_slice = False
            self._close_segment(end, self._probe())
            raw = sum(s for s, _b, _a in self._segments)
            cal = sum(s * self.ref_s / ((b + a) / 2.0)
                      for s, b, a in self._segments)
            self.slices.append(SliceTime(name, raw, cal))

    def _close_segment(self, end: float, after: float) -> None:
        span = end - self._seg_start
        self._segments.append((span, self._last_probe_s, after))
        self.segment_max_s = max(self.segment_max_s, span)
        self._last_probe_s = after

    def checkpoint(self) -> None:
        """Called at a task boundary inside a slice: once the last probe
        is older than PROBE_GAP_S, close the segment with a probe (whose
        own time stays off the slice)."""
        if not self._in_slice:
            return
        now = self.timer()
        if now - self._seg_start < PROBE_GAP_S:
            return
        self._close_segment(now, self._probe())
        self._seg_start = self.timer()

    def self_metrics(self) -> Dict[str, float]:
        """Harness health, reported beside ``host_s`` and never gated."""
        med = statistics.median(self.probes)
        q = statistics.quantiles(self.probes, n=4) if len(
            self.probes) >= 2 else [med, med, med]
        return {
            "bench.probe_median_s": med,
            "bench.probe_spread": (q[2] - q[0]) / med,
            "bench.slice_max_s": self.segment_max_s,
        }


def measure_ref(n: int = 200) -> float:
    """``min`` of ``n`` probes — the value frozen in PROBE_REF_S."""
    return min(probe() for _ in range(n))


if __name__ == "__main__":
    print(f"PROBE_REF_S = {measure_ref():.6f}  ({probe_ops()} ops/probe)")
