"""Staleness / race detection by replaying PS access spans.

GraphTheta-style flexible sync strategies (and our own ASP mode) are
exactly where stale-read and lost-update hazards hide: two workers touch
the same PS matrix in overlapping sim-time windows with no synchronization
edge between them.  This module replays the spans a
:class:`~repro.obs.tracer.Tracer` recorded during a run and applies a
happens-before check:

* **accesses** are the client-side ``ps.*`` spans (executor task rows and
  the driver's ``ps-agent`` row) — each tagged with the matrix (and
  column, when the operation is column-scoped) it touched;
* **fences** are global synchronization points: the end of every dataflow
  stage (the scheduler barriers all live executor clocks) and every BSP
  iteration barrier of :class:`~repro.ps.sync.SyncController`.  ASP
  iteration marks are *not* fences — that is the point of ASP;
* access ``a`` happens-before ``b`` iff they are on the same component in
  program order, or a fence separates them.

Two accesses to the same matrix location conflict when neither
happens-before the other, they come from different components, and at
least one writes.  Conflicts classify as:

* ``stale-read`` — a read concurrent with a write: the reader may observe
  the pre-write value (bounded staleness under ASP);
* ``lost-update`` — two concurrent writes where at least one is a
  destructive ``set``-style overwrite.  Concurrent *increments*
  (``push``-family ops) commute on the server and are not reported.

The detector is deliberately a reporting tool, not a gate: Pregel-style
algorithms tolerate bounded intra-stage staleness by design.  The
determinism harness surfaces the windows so a reviewer can decide whether
they are accepted semantics or a bug.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.tracer import INSTANT, Span

#: Fence kinds (for diagnostics).
FENCE_STAGE = "stage-barrier"
FENCE_BARRIER = "bsp-barrier"

#: Client-side PS operations that only read server state.
READ_OPS = {"pull", "pull_slices", "get_neighbors", "degrees",
            "table_size"}

#: Client-side PS operations that write server state.
WRITE_OPS = {"push", "set", "push_slices", "set_slices", "push_neighbors",
             "apply_gradients", "psfunc", "compact"}

#: Writes that are commutative increments: concurrent ones merge cleanly.
COMMUTATIVE_OPS = {"push", "push_slices", "push_neighbors"}


@dataclass(frozen=True)
class PsAccess:
    """One client-side PS matrix access reconstructed from a span."""

    component: str
    op: str
    matrix: str
    col: int | None
    start_s: float
    end_s: float

    @property
    def is_write(self) -> bool:
        """Whether the access mutates server state."""
        return self.op in WRITE_OPS

    @property
    def is_commutative(self) -> bool:
        """Whether concurrent instances of this write merge cleanly."""
        return self.op in COMMUTATIVE_OPS

    def describe(self) -> str:
        loc = self.matrix if self.col is None else \
            f"{self.matrix}[col={self.col}]"
        return (f"{self.component} {self.op} {loc} "
                f"@[{self.start_s:.6f}, {self.end_s:.6f}]")


@dataclass(frozen=True)
class RaceReport:
    """One hazard: a pair of unsynchronized conflicting accesses."""

    kind: str  # "stale-read" | "lost-update"
    matrix: str
    a: PsAccess
    b: PsAccess
    count: int = 1

    def describe(self) -> str:
        more = f" (+{self.count - 1} more like this)" if self.count > 1 \
            else ""
        return (f"{self.kind} on `{self.matrix}`: {self.a.describe()} "
                f"unordered with {self.b.describe()}{more}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "matrix": self.matrix,
            "a": self.a.describe(),
            "b": self.b.describe(),
            "count": self.count,
        }


def extract_accesses(spans: Iterable[Span]) -> List[PsAccess]:
    """Client-side PS accesses from a recorded span list.

    Server-side spans (the ``ops`` track of ``ps-server-*`` components)
    show the *serialized* order the simulator happened to execute in; the
    logical concurrency lives in the client-side spans, which is what a
    race is about.
    """
    out: List[PsAccess] = []
    for span in spans:
        if span.kind == INSTANT or not span.name.startswith("ps."):
            continue
        if span.track == "ops":  # server-side view
            continue
        tags = span.tags or {}
        matrix = tags.get("matrix")
        if not isinstance(matrix, str):
            continue
        op = span.name[3:]
        if op not in READ_OPS and op not in WRITE_OPS:
            continue
        col = tags.get("col")
        out.append(PsAccess(
            span.component, op, matrix,
            int(col) if col is not None else None,
            span.start_s, span.end_s,
        ))
    out.sort(key=lambda a: (a.start_s, a.end_s, a.component, a.op))
    return out


def extract_fences(spans: Iterable[Span]) -> List[Tuple[float, str]]:
    """Global synchronization points, sorted by time.

    Stage ends are fences because the DAG scheduler barriers every live
    executor clock at the end of a stage; BSP iteration marks are fences
    because :meth:`SyncController.barrier` aligns executors *and* servers.
    ASP iteration marks are intentionally not fences.
    """
    fences: List[Tuple[float, str]] = []
    for span in spans:
        if span.component != "driver":
            continue
        if span.track == "stages" and span.kind != INSTANT:
            fences.append((span.end_s, FENCE_STAGE))
        elif span.track == "iterations" and span.kind == INSTANT:
            if (span.tags or {}).get("mode") == "bsp":
                fences.append((span.start_s, FENCE_BARRIER))
    fences.sort()
    return fences


def _fence_between(times: Sequence[float], lo: float, hi: float) -> bool:
    """Whether some fence time t satisfies ``lo <= t <= hi``."""
    if lo > hi:
        return False
    i = bisect_left(times, lo)
    return i < len(times) and times[i] <= hi


def happens_before(a: PsAccess, b: PsAccess,
                   fence_times: Sequence[float]) -> bool:
    """Whether ``a`` happens-before ``b`` under the fence set.

    Same-component accesses are ordered by program order (the simulator
    runs one component's operations serially on its own clock); cross-
    component ordering needs a fence between the two windows.
    """
    if a.end_s > b.start_s:
        return False
    if a.component == b.component:
        return True
    return _fence_between(fence_times, a.end_s, b.start_s)


def _conflict_kind(a: PsAccess, b: PsAccess) -> str | None:
    """Classify a concurrent pair; None when it is not a hazard."""
    if not (a.is_write or b.is_write):
        return None
    if a.is_write and b.is_write:
        if a.is_commutative and b.is_commutative:
            return None  # concurrent increments merge on the server
        return "lost-update"
    return "stale-read"


def _same_location(a: PsAccess, b: PsAccess) -> bool:
    """Column-scoped ops on different columns touch disjoint locations."""
    if a.matrix != b.matrix:
        return False
    return a.col is None or b.col is None or a.col == b.col


def find_races(accesses: Sequence[PsAccess],
               fences: Sequence[Tuple[float, str]]) -> List[RaceReport]:
    """Find unsynchronized conflicting PS access pairs among ``accesses``
    (:func:`extract_accesses` of a span list) ordered by ``fences``
    (:func:`extract_fences`).

    Reports are deduplicated per (matrix, kind, op pair) — which pair of
    *operations* conflicts, not which executors happened to collide — and
    the ``count`` field carries how many concrete windows matched.
    """
    fence_times = sorted(t for t, _kind in fences)

    by_matrix: Dict[str, List[PsAccess]] = {}
    for acc in sorted(accesses,
                      key=lambda a: (a.start_s, a.end_s, a.component)):
        by_matrix.setdefault(acc.matrix, []).append(acc)

    found: Dict[Tuple, RaceReport] = {}
    for matrix, accs in by_matrix.items():
        for i, a in enumerate(accs):
            # Once a fence separates `a` from everything later, program
            # order + that fence orders all remaining pairs: stop early.
            nxt = bisect_left(fence_times, a.end_s)
            horizon = fence_times[nxt] if nxt < len(fence_times) else None
            for b in accs[i + 1:]:
                if horizon is not None and b.start_s >= horizon:
                    break
                if a.component == b.component:
                    continue
                if not _same_location(a, b):
                    continue
                if happens_before(a, b, fence_times) \
                        or happens_before(b, a, fence_times):
                    continue
                kind = _conflict_kind(a, b)
                if kind is None:
                    continue
                key = (matrix, kind, tuple(sorted([a.op, b.op])))
                prior = found.get(key)
                if prior is None:
                    found[key] = RaceReport(kind, matrix, a, b)
                else:
                    found[key] = RaceReport(
                        prior.kind, prior.matrix, prior.a, prior.b,
                        prior.count + 1,
                    )
    return sorted(found.values(),
                  key=lambda r: (r.matrix, r.kind,
                                 r.a.start_s, r.b.start_s))
