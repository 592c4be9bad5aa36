"""Host-time layer trace, recorded from outside the program.

The traced pass wraps the public methods at each layer boundary (table
:data:`LAYERS`) and records one span per call: name, layer, start, end,
parent, and the cell it ran in.  Spans stay in memory and are written as
a Chrome trace when the benchmark ends.  A layer's *self* time is its
spans' duration minus the part their child spans cover, so self times
over all layers — plus the remainder outside any wrapped method — add up
to the traced body exactly (the conservation law the unit test checks).

Nothing under ``src/`` changes: wrappers are installed by
:func:`patch` on the class attributes and removed afterwards, leaving
every attribute the very object it was before.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (layer, "module:Class" or "module", methods).  ``None`` = every public
#: function defined on the class itself.  A bare module patches module
#: functions, which only callers going through the module attribute see —
#: the benchmark's own calls do.
LAYERS: List[Tuple[str, str, Optional[Sequence[str]]]] = [
    ("dataflow.scheduler", "repro.dataflow.scheduler:DAGScheduler",
     ["run_job", "run_stage"]),
    ("dataflow.shuffle", "repro.dataflow.shuffle:ShuffleService",
     ["write", "read"]),
    ("ps.agent", "repro.ps.agent:PSAgent", None),
    ("ps.cache", "repro.ps.cache:PullCache",
     ["lookup", "store", "invalidate"]),
    # The PS agent dispatches to server handlers itself (its private
    # _invoke, counted under ps.agent) and asks the fabric only for
    # injected faults, so on the PS path this layer is near zero.
    ("net.rpc", "repro.net.rpc:RpcEnv", ["call", "check_fault"]),
    ("ps.server", "repro.ps.server:PSServer", None),
    ("ps.storage", "repro.ps.storage:DenseRowStore",
     ["get_rows", "inc_rows", "set_rows"]),
    ("ps.storage", "repro.ps.storage:SparseRowStore",
     ["get_rows", "inc_rows", "set_rows"]),
    ("ps.storage", "repro.ps.storage:ColumnShardStore",
     ["get_row_slices", "inc_row_slices", "set_row_slices", "partial_dot"]),
    ("ps.storage", "repro.ps.storage:NeighborTableStore",
     ["append_neighbors", "remove_neighbors", "drop_vertices",
      "get_neighbors", "compact"]),
    ("ps.master", "repro.ps.master:PSMaster", ["health_check", "recover"]),
    ("ps.master", "repro.ps.context:PSContext",
     ["checkpoint_matrix", "checkpoint_all", "rollback"]),
    ("hdfs", "repro.hdfs.filesystem:Hdfs",
     ["write_bytes", "write_text", "write_pickle", "read_bytes",
      "read_pickle"]),
    ("torchlite", "repro.torchlite.nn:Module", ["__call__"]),
    ("torchlite", "repro.torchlite.tensor:Tensor", ["backward"]),
    ("torchlite", "repro.torchlite.optim:SGDOptimizer", ["step"]),
    ("torchlite", "repro.torchlite.optim:AdamOptimizer", ["step"]),
    ("torchlite", "repro.torchlite.script:ScriptModule", None),
    ("torchlite", "repro.torchlite.functional", ["cross_entropy"]),
    ("core.algorithms", "repro.core.algorithms.pagerank:PageRank",
     ["transform"]),
    ("core.algorithms",
     "repro.core.algorithms.common_neighbor:CommonNeighbor", ["transform"]),
    ("core.algorithms", "repro.core.algorithms.graphsage:GraphSage",
     ["transform"]),
    ("core.algorithms", "repro.core.algorithms.line:Line", ["transform"]),
    ("core.algorithms", "repro.core.graphio:GraphIO", None),
    ("graphx", "repro.graphx.graph:Graph", ["from_edges"]),
    ("graphx", "repro.graphx.algorithms",
     ["pagerank", "kcore", "triangle_count", "common_neighbor"]),
    ("graphx", "repro.graphx.fast_unfolding", ["fast_unfolding"]),
    ("eulersim", "repro.eulersim.euler:EulerSystem",
     ["preprocess", "train_graphsage"]),
    ("serve", "repro.serve.plane:ServingPlane", ["run"]),
    ("streaming", "repro.streaming.engine:StreamingEngine",
     ["run_window", "bootstrap"]),
    ("streaming", "repro.streaming.graph:StreamingGraph", ["apply"]),
    ("streaming", "repro.streaming.pagerank:IncrementalPageRank",
     ["bootstrap", "update", "full_recompute", "ranks"]),
    ("streaming", "repro.streaming.components:IncrementalComponents",
     ["bootstrap", "update", "full_recompute"]),
    ("streaming", "repro.streaming.embedding:OnlineEmbeddingRefresh",
     ["bootstrap", "update", "full_recompute"]),
    ("ingest", "repro.ingest.kafka:EdgeStreamConsumer", ["poll"]),
    ("obs", "repro.obs.tracer:NoopTracer", None),
]

#: Layer names in report order (``<layer>.host_calls`` / ``.host_self_s``).
LAYER_NAMES: List[str] = list(dict.fromkeys(layer for layer, _t, _m in LAYERS))

#: Layer of the clock's probes during the traced pass: recorded so that a
#: probe taken inside a slice is no layer's self time; never reported.
PROBE_LAYER = "bench.probe"


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def resolve(target: str):
    """The class or module a ``LAYERS`` target names."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _public_functions(owner) -> List[str]:
    return [name for name, attr in vars(owner).items()
            if not name.startswith("_") and (
                inspect.isfunction(attr)
                or isinstance(attr, (staticmethod, classmethod)))]


@contextmanager
def patch(owner, name: str,
          make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for the ``with`` body.

    ``owner`` is a class or a module; static- and classmethods keep their
    descriptor kind.  On exit the attribute is the original object again.
    """
    original = vars(owner)[name]
    if isinstance(original, (staticmethod, classmethod)):
        wrapped = type(original)(make(original.__func__))
    else:
        wrapped = make(original)
    setattr(owner, name, wrapped)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory span log with parent links and per-layer self time."""

    def __init__(self, timer: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.timer = timer
        #: (name, layer, start_s, end_s, parent_index, cell)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.cell = ""

    def wrapper(self, name: str, layer: str
                ) -> Callable[[Callable], Callable]:
        """``make`` argument for :func:`patch`: record one span per call."""
        spans, stack, timer = self.spans, self._stack, self.timer

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, layer, timer(), 0.0,
                              stack[-1] if stack else -1, self.cell])
                stack.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][3] = timer()
            traced.__wrapped__ = fn
            return traced
        return make

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every method of :data:`LAYERS` for the ``with`` body."""
        with ExitStack() as stack:
            for layer, target, methods in LAYERS:
                owner = resolve(target)
                short = target.rpartition(":")[2].rpartition(".")[2]
                for method in (methods if methods is not None
                               else _public_functions(owner)):
                    stack.enter_context(patch(
                        owner, method,
                        self.wrapper(f"{short}.{method}", layer)))
            yield self

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer ``(self seconds, calls)`` over every recorded span."""
        child_s = [0.0] * len(self.spans)
        for _n, _l, start, end, parent, _c in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for (_n, layer, start, end, _p, _c), covered in zip(self.spans,
                                                            child_s):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - covered
            calls[layer] = calls.get(layer, 0) + 1
        return self_s, calls

    def write_chrome_trace(self, path: str, max_events: int = 200_000
                           ) -> int:
        """Write spans as Chrome ``X`` events (µs); returns events written.

        One serial thread, so nested spans render as a flame graph and
        ``repro.obs.export.validate_chrome_trace`` accepts the file.  A
        body with more than ``max_events`` spans keeps the outermost ones
        (dropping the deepest levels first keeps nesting valid).
        """
        depth = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[4] >= 0:
                depth[i] = depth[span[4]] + 1
        keep_depth = max(depth, default=0)
        while keep_depth > 0 and sum(
                1 for d in depth if d <= keep_depth) > max_events:
            keep_depth -= 1
        t0 = self.spans[0][2] if self.spans else 0.0
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": "benchmarks/e2e traced pass"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
        ]
        for (name, layer, start, end, parent, cell), d in zip(self.spans,
                                                              depth):
            if d > keep_depth:
                continue
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name, "cat": layer,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"cell": cell, "parent": parent},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return len(events) - 2
