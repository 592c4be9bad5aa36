"""Exact determinism: a run as a list of stage segments.

Cross-system comparisons (GraphX vs PS, Table I/II of the paper) are only
trustworthy if a seeded run is bit-for-bit repeatable — "Experimental
Analysis of Distributed Graph Systems" shows how easily uncontrolled
nondeterminism invalidates benchmark numbers.  :func:`segments` turns a
run record (:func:`~repro.obs.record.build_record`) into an ordered list
of ``(label, events)``:

* the spans in recorded order (:func:`span_event`); a segment ends after
  each span on the ``stages`` track and is labelled by its name
  (``stage 3 (shuffle-0)``), and spans after the last stage form one more;
* one segment per top-level key of the result document, labelled by the
  key, holding every leaf as ``path = repr`` — strings included;
* one segment holding the metrics dump.

Two runs are equal when their events are equal: there is no tolerance,
and NaN and infinities compare by their exact form.
:func:`check_determinism` runs a registered workload twice with the same
seed on fresh contexts and names the first diverging event, with the
three before it.  ``tests/determinism_ledger.json`` is one ledger line
per pinned run: each registered workload at ``DEFAULT_SEED`` and each cell
the tests and the paper-verdict benchmarks pin.  A line holds every
segment's digest (:func:`digests`); :func:`ledger_diff` names the first
segment a run moved, prints its first events now and the line that would
replace the pinned one.

The first run's spans are also replayed through the
:mod:`repro.obs.races` happens-before detector; its windows are
reported, not gated.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import MB, ClusterConfig
from repro.common.metrics import MetricsRegistry
from repro.common.rng import DEFAULT_SEED, derive_seed
from repro.obs.export import spans_from_json
from repro.obs.races import RaceReport, find_races
from repro.obs.record import build_record
from repro.obs.tracer import Span, Tracer

#: A workload: ``fn(seed, tracer, metrics) -> result document``.
Workload = Callable[[int, Tracer, MetricsRegistry], Dict[str, object]]

#: A labelled run of events (see :func:`segments`).
Segment = Tuple[str, List[str]]

#: Registered workloads by CLI name.
WORKLOADS: Dict[str, Workload] = {}

#: The form of an event past the end of the shorter run.
END = "<end of run>"


def workload(name: str) -> Callable[[Workload], Workload]:
    """Decorator registering a determinism workload under ``name``."""
    def deco(fn: Workload) -> Workload:
        WORKLOADS[name] = fn
        return fn
    return deco


def span_event(span: Span) -> Tuple:
    """The comparable form of one span: where, what, when, and its tags
    as sorted ``(key, repr)`` pairs."""
    tags = tuple(sorted(
        (k, repr(v)) for k, v in (span.tags or {}).items()
    ))
    return (span.component, span.track, span.name, span.kind,
            span.start_s, span.end_s, tags)


def _leaves(path: str, value: object, out: List[str]) -> List[str]:
    """Every leaf under ``value`` as ``path = repr``; an empty container
    is a leaf too."""
    if isinstance(value, dict) and value:
        for k in sorted(value):
            _leaves(f"{path}.{k}", value[k], out)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            _leaves(f"{path}[{i}]", v, out)
    else:
        out.append(f"{path} = {value!r}")
    return out


def segments(record: Dict[str, object]) -> List[Segment]:
    """A run record (as a ``--record`` file loads) as labelled segments."""
    out: List[Segment] = []
    events: List[str] = []
    for span in spans_from_json(record["spans"]):  # type: ignore[arg-type]
        events.append(repr(span_event(span)))
        if span.track == "stages":
            out.append((span.name, events))
            events = []
    if events:
        out.append(("after the last stage", events))
    doc = sorted(set(record) - {"schema", "spans", "metrics"})
    return out + [(key, _leaves(key, record[key], [])) for key in doc] \
        + [("metrics", _leaves("metrics", record["metrics"], []))]


def digests(segs: List[Segment]) -> List[str]:
    """One CRC-32 (8 hex digits) per segment: a ledger entry."""
    texts = ("\n".join([label, *events]) for label, events in segs)
    return [f"{zlib.crc32(text.encode()):08x}" for text in texts]


def run_record(doc: Dict[str, object], tracer: Tracer,
               metrics: MetricsRegistry) -> Dict[str, object]:
    """The run record of ``doc``, ``tracer`` and ``metrics`` in the form a
    ``--record`` file loads as (tuples read back as lists, and so on)."""
    return json.loads(json.dumps(build_record(doc, tracer, metrics)))


def run_workload(name: str, seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Run one registered workload on a fresh context; return its run
    record."""
    tracer, metrics = Tracer(), MetricsRegistry()
    return run_record(WORKLOADS[name](seed, tracer, metrics), tracer, metrics)


def ledger_line(key: str, pinned: List[str]) -> str:
    """One line of the ledger file: ``key`` and its segment digests."""
    return f"  {json.dumps(key)}: {json.dumps(pinned)}"


def ledger_diff(key: str, record: Dict[str, object],
                pinned: Optional[List[str]]) -> Optional[str]:
    """``None`` when ``record``'s digests are the ``pinned`` ledger line.
    Otherwise the first segment that moved (a stage label, a result key
    or ``metrics``), its first five events in this run, and the line that
    would replace the pinned one."""
    segs = segments(record)
    now = digests(segs)
    if now == pinned:
        return None
    if pinned is None:
        head = [f"{key}: no ledger line"]
    else:
        i = next(i for i, (a, b) in enumerate(zip(now + [END], pinned + [END]))
                 if a != b)
        label, events = segs[i] if i < len(segs) else (END, [])
        head = [f"{key}: segment {i} ({label}) moved; its first events now:"]
        head += [f"    {e}" for e in events[:5]]
    return "\n".join(head + ["replacement line:", ledger_line(key, now)])


# ----------------------------------------------------------------------
# the double run
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """The first event at which two runs differ."""

    index: int                  # position in the flattened event list
    labels: Tuple[str, str]     # each run's segment label there
    events: Tuple[str, str]     # each run's event (or :data:`END`)
    before: List[str]           # up to three equal events before it


def first_divergence(one: List[Segment],
                     two: List[Segment]) -> Optional[Divergence]:
    """Where two segment lists first differ, or ``None`` if equal.  Labels
    and segment ends follow from the events, so only events compare."""
    a, b = ([(label, e) for label, events in segs for e in events]
            for segs in (one, two))
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else (b[i][0], END)
        y = b[i] if i < len(b) else (a[i][0], END)
        if x[1] != y[1]:
            return Divergence(i, (x[0], y[0]), (x[1], y[1]),
                              [f"[{lb}] {e}" for lb, e in a[max(0, i - 3):i]])
    return None


@dataclass
class DeterminismReport:
    """Verdict of one double run: run 1's segment digests, the first
    divergence (if any) and the races observed in run 1."""

    workload: str
    seed: int
    digests: List[str]
    divergence: Optional[Divergence]
    races: List[RaceReport]

    @property
    def ok(self) -> bool:
        """Pass/fail verdict (races report, they do not fail the check)."""
        return self.divergence is None

    def describe(self) -> str:
        lines = [f"determinism[{self.workload}] seed={self.seed}: "
                 + ("PASS" if self.ok else "FAIL")
                 + f" ({len(self.digests)} segments)"]
        d = self.divergence
        if d is not None:
            lines.append(f"  first diverging event (#{d.index}):")
            lines += [f"    {line}" for line in d.before]
            lines += [f"  > run {n} [{label}] {event}" for n, label, event
                      in zip((1, 2), d.labels, d.events)]
        if self.races:
            lines.append(f"  {len(self.races)} unsynchronized PS access "
                         "pattern(s) observed (informational):")
            lines += [f"    {r.describe()}" for r in self.races[:8]]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "ok": self.ok,
                "races": [r.to_dict() for r in self.races]}


def check_determinism(name: str,
                      seed: int = DEFAULT_SEED) -> DeterminismReport:
    """Run ``name`` twice with ``seed`` and compare every event."""
    one, two = run_workload(name, seed), run_workload(name, seed)
    segs = segments(one)
    return DeterminismReport(
        workload=name, seed=seed, digests=digests(segs),
        divergence=first_divergence(segs, segments(two)),
        races=find_races(spans_from_json(one["spans"])),  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# built-in workloads (small, seconds-scale: these run twice in CI)
# ----------------------------------------------------------------------

#: Workloads that are ``repro`` command lines, run in memory through the
#: CLI's own pipelines (:func:`repro.cli.execute`) with ``--seed`` added.
#: In memory no local file is written: ``--output`` saves the result
#: table (ranks, or common-neighbor overlaps through ``GraphIO.save``) to
#: simulated HDFS so the document carries its digest, and ``--record``'s
#: path only switches the collector on.
CLI_WORKLOADS: Dict[str, str] = {
    "common-neighbor": "run common-neighbor --vertices 400 --edges 3000 "
                       "--output overlaps.tsv",
    "pagerank": "run pagerank --vertices 400 --edges 3000 --iterations 8 "
                "--output ranks.tsv",
    "chaos-pagerank": "run pagerank --vertices 400 --edges 3000 "
                      "--iterations 8 --output ranks.tsv --chaos",
    "telemetry-chaos-pagerank": "run pagerank --vertices 400 --edges 3000 "
                                "--iterations 8 --output ranks.tsv --chaos "
                                "--record record.json",
    "serve-chaos": "serve --vertices 400 --edges 3000 --iterations 4 "
                   "--requests 12000 --chaos --record record.json",
    "streaming-window": "stream --vertices 300 --edges 1200 --windows 3 "
                        "--embedding",
}


def cli_argv(name: str, seed: int) -> List[str]:
    """The full command line of CLI workload ``name`` at ``seed``."""
    return (CLI_WORKLOADS[name].split()
            + "--executors 4 --servers 2 --executor-gb 0.25 "
              "--server-gb 0.25 --seed".split() + [str(seed)])


def _cli_workload(name: str) -> Workload:
    def run(seed: int, tracer: Tracer, metrics: MetricsRegistry
            ) -> Dict[str, object]:
        from repro.cli import execute  # repro.cli imports this module

        return execute(cli_argv(name, seed), tracer, metrics)
    return run


WORKLOADS.update((name, _cli_workload(name)) for name in CLI_WORKLOADS)


def _small_cluster() -> ClusterConfig:
    return ClusterConfig(
        num_executors=4, executor_mem_bytes=256 * MB,
        num_servers=2, server_mem_bytes=256 * MB,
    )


@workload("graphsage")
def _graphsage(seed: int, tracer: Tracer, metrics: MetricsRegistry
               ) -> Dict[str, object]:
    """GraphSage quickstart: one training epoch on a community graph."""
    from repro.core.algorithms.graphsage import GraphSage
    from repro.core.context import PSGraphContext
    from repro.core.ops import edges_from_arrays
    from repro.datasets.generators import community_graph, vertex_features

    gseed = derive_seed(seed, "lint-graphsage")
    src, dst, comm = community_graph(
        100, 3, avg_degree=8, mixing=0.05, seed=gseed)
    feats, labels = vertex_features(
        comm, 8, 3, noise=0.8, seed=derive_seed(gseed, "features"))
    with PSGraphContext(_small_cluster(), app_name="lint-graphsage",
                        metrics=metrics, tracer=tracer) as ctx:
        edges = edges_from_arrays(ctx.spark, src, dst)
        result = GraphSage(
            feats, labels, hidden=8, epochs=1, batch_size=32, lr=0.05,
            seed=seed,
        ).transform(ctx, edges)
        return {
            "accuracy": float(result.stats["accuracy"]),
            "losses": [float(x) for x in result.stats["epoch_losses"]],
            "sim_time_s": ctx.sim_time(),
        }


@workload("graphx")
def _graphx(seed: int, tracer: Tracer, metrics: MetricsRegistry
            ) -> Dict[str, object]:
    """The GraphX baseline's join pipeline: every shuffle form it has.

    PageRank (array attrs), K-core (the collect join), fast unfolding
    (the broadcast join, weighted) and triangle count (neighbor-set
    attrs) on one power-law graph — the spans carry every shuffle's
    bytes, records and local / remote split, so a change to how the
    joins run on the host must reproduce this workload span for span.
    """
    import numpy as np

    from repro.dataflow.context import SparkContext
    from repro.datasets.generators import powerlaw_graph
    from repro.graphx import algorithms as gx
    from repro.graphx.fast_unfolding import fast_unfolding
    from repro.graphx.graph import Graph

    gseed = derive_seed(seed, "lint-graphx")
    src, dst = powerlaw_graph(400, 3000, seed=gseed)
    weight = np.random.default_rng(gseed).uniform(0.25, 4.0, len(src))
    ctx = SparkContext(_small_cluster(), app_name="lint-graphx",
                       metrics=metrics, tracer=tracer)
    try:
        _ids, ranks, supersteps = gx.pagerank(
            Graph.from_edges(ctx, src, dst), max_iterations=3, tol=0.0)
        _ids, cores, core_rounds = gx.kcore(
            Graph.from_edges(ctx, src, dst), max_iterations=4)
        communities, modularity, move_rounds = fast_unfolding(
            ctx, src, dst, weight, num_passes=2, max_move_iterations=3)
        triangles = gx.triangle_count(Graph.from_edges(ctx, src, dst))
        return {
            "supersteps": float(supersteps),
            "ranks_checksum": float(ranks.sum()),
            "core_rounds": float(core_rounds),
            "cores_checksum": float(cores.sum()),
            "communities": float(len(np.unique(communities))),
            "modularity": modularity,
            "move_rounds": float(move_rounds),
            "triangles": float(triangles),
            "sim_time_s": ctx.sim_time(),
        }
    finally:
        ctx.stop()


@workload("psgraph-tables")
def _psgraph_tables(seed: int, tracer: Tracer, metrics: MetricsRegistry
                    ) -> Dict[str, object]:
    """PSGraph's groupBy (``to_neighbor_tables``) in every form, with a
    lost map output.

    CommonNeighbor with a checkpoint, TriangleCount (cached tables) and
    weighted FastUnfolding on one power-law graph; an executor dies as
    the first groupBy's map stage ends, so the block shuffle's write, its
    merged read and the lineage re-write of the lost blocks all emit
    spans — bytes, records and the local / remote split included.
    """
    import numpy as np

    from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
    from repro.common.metrics import TASKS_FAILED
    from repro.core.algorithms import (
        CommonNeighbor,
        FastUnfolding,
        TriangleCount,
    )
    from repro.core.context import PSGraphContext
    from repro.core.runner import GraphRunner
    from repro.datasets.generators import powerlaw_graph
    from repro.datasets.tencent import write_edges

    gseed = derive_seed(seed, "lint-psgraph-tables")
    src, dst = powerlaw_graph(400, 3000, seed=gseed)
    weight = np.random.default_rng(gseed).uniform(0.25, 4.0, len(src))
    with PSGraphContext(_small_cluster(), app_name="lint-psgraph-tables",
                        metrics=metrics, tracer=tracer) as ctx:
        write_edges(ctx.hdfs, "/input/edges", src, dst, num_files=8)
        write_edges(ctx.hdfs, "/input/weighted", src, dst, num_files=8,
                    weights=weight)
        # 8 tasks find the largest vertex id, 8 more write the groupBy's
        # map outputs: the kill lands between its map and reduce stage.
        engine = ChaosEngine(FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=16),
        ], seed=seed), ctx.spark, ctx.ps).attach()
        runner = GraphRunner(ctx)
        try:
            common = runner.run(CommonNeighbor(checkpoint=True),
                                "/input/edges", num_partitions=8)
            overlaps = common.output.rdd.collect()
        finally:
            engine.detach()
        triangles = runner.run(TriangleCount(), "/input/edges",
                               num_partitions=8)
        louvain = runner.run(
            FastUnfolding(num_passes=2, max_move_iterations=3),
            "/input/weighted", weighted=True, num_partitions=8)
        return {
            "faults_fired": float(len(engine.fired)),
            "tasks_failed": metrics.get(TASKS_FAILED),
            "overlap_checksum": float(sum(r[2] for r in overlaps)),
            "triangles": float(triangles.stats["triangles"]),
            "modularity": float(louvain.stats["modularity"]),
            "moves": float(louvain.stats["moves"]),
            "sim_time_s": ctx.sim_time(),
        }
