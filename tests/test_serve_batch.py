"""A generated request stream is columns, and a request is a row view.

``RequestGenerator.generate`` returns a :class:`RequestBatch` that the
serving plane reads as it is.  These tests hold a generated batch and the
same rows built into a batch by hand (``tests.conftest.request_batch``,
whose name tables number tenants and models in their own order) to the
same decisions, pin what a generated request costs in memory, and check
that writing a row's times reaches the next run — the re-anchoring the
end-to-end benchmark does before every serving pass.
Example counts follow the hypothesis profile (``tests/conftest.py``).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, FaultSchedule, FaultSpec
from repro.common.config import MB, ClusterConfig
from repro.common.errors import ConfigError
from repro.common.metrics import SERVE_DEGRADED_LATENCY_H, SERVE_LATENCY_H
from repro.core.context import PSGraphContext
from repro.serve import RequestGenerator, ServingPlane, TenantSpec
from repro.serve.workload import default_tenants
from tests.conftest import drop_rows, request_batch

KEYS = 40
MODELS = ("serve.a", "serve.b")


def fields(request):
    return (request.seq, request.tenant, request.model, request.key,
            request.arrival_s, request.deadline_s, request.priority)


def hand_built(batch):
    """The batch's rows, built into a batch of their own by hand."""
    return request_batch([fields(r) for r in batch])


def histogram_state(hist):
    return (hist.count, hist.sum, hist.min, hist.max,
            [hist.percentile(q) for q in (0.0, 50.0, 99.0, 100.0)])


def run_plane(tenants, requests, kill_after=None, **plane_args):
    """One plane over ``requests`` on a fresh context: its report, drop log
    and everything it left in the registry."""
    cluster = ClusterConfig(num_executors=2, executor_mem_bytes=256 * MB,
                            num_servers=2, server_mem_bytes=256 * MB)
    with PSGraphContext(cluster) as ctx:
        for model in MODELS:
            ctx.ps.create_vector(model, KEYS).set(
                np.arange(KEYS), np.arange(KEYS, dtype=np.float64))
        ctx.ps.checkpoint_all()
        plane = ServingPlane(ctx.ps, tenants, **plane_args)
        engine = None
        if kill_after is not None:
            engine = ChaosEngine(FaultSchedule([FaultSpec(
                "kill_server", index=0, after_tasks=kill_after,
                task_kind="serve")], seed=0), ctx.spark, ctx.ps).attach()
        try:
            report = plane.run(requests)
        finally:
            if engine is not None:
                engine.detach()
        metrics = ctx.metrics
        return {
            "report": report.to_dict(),
            "drops": drop_rows(report.drop_records),
            "counters": sorted(metrics.snapshot().items()),
            "gauges": metrics.gauge_snapshot(),
            "latency": histogram_state(metrics.histogram(SERVE_LATENCY_H)),
            "degraded": histogram_state(
                metrics.histogram(SERVE_DEGRADED_LATENCY_H)),
            "sim_s": ctx.sim_time(),
        }


@st.composite
def workloads(draw):
    """A generator small enough that a few dozen arrivals fill the queue,
    empty a bucket and outlive their deadlines, and a plane that lists
    the tenants in its own order (so its ids are not the batch's codes)."""
    tenants = [
        TenantSpec(
            name=f"t{i}", model=draw(st.sampled_from(MODELS)),
            weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
            priority=draw(st.integers(1, 3)),
            deadline_s=draw(st.sampled_from([0.04, 0.3, 5.0])),
            rate_limit=draw(st.sampled_from([0.0, 0.0, 50.0])),
            burst=draw(st.integers(1, 6)))
        for i in range(draw(st.integers(1, 3)))]
    generator = RequestGenerator(
        tenants, key_space=KEYS, zipf_s=draw(st.sampled_from([0.0, 1.1])),
        rate=draw(st.sampled_from([200.0, 2000.0])),
        seed=draw(st.integers(0, 2 ** 16)))
    batch = generator.generate(draw(st.integers(0, 150)),
                               start_s=draw(st.sampled_from([0.0, 0.3])))
    plane_args = dict(queue_capacity=draw(st.integers(1, 12)),
                      batch_size=draw(st.integers(1, 6)),
                      cache_capacity=draw(st.integers(1, 10)))
    kill_after = draw(st.one_of(st.none(), st.integers(1, 6)))
    return draw(st.permutations(tenants)), batch, kill_after, plane_args


@given(workloads())
def test_generated_batch_equals_the_same_requests_built_by_hand(case):
    tenants, batch, kill_after, plane_args = case
    by_hand = run_plane(tenants, hand_built(batch), kill_after, **plane_args)
    generated = run_plane(tenants, batch, kill_after, **plane_args)
    for field in by_hand:
        assert generated[field] == by_hand[field], field
    assert generated["report"]["offered"] == len(batch)


def two_model_tenants():
    """The stock tenants, the second one on its own model."""
    feeds, reco = default_tenants("a")
    return [feeds, replace(reco, model="b")]


def test_generated_batch_retains_at_most_64_bytes_per_request():
    generator = RequestGenerator(two_model_tenants(),
                                 key_space=10_000, seed=1)
    generator.generate(1_000)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = generator.generate(100_000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(batch) == 100_000
    assert retained / len(batch) <= 64


def test_row_writes_reach_the_next_run():
    tenants = [TenantSpec(name="t", model=MODELS[0], deadline_s=5.0)]
    batch = RequestGenerator(tenants, key_space=KEYS, rate=500.0,
                             seed=3).generate(400)
    before = run_plane(tenants, batch)
    for r in batch:  # move the traffic 100 s later, with 10 ms budgets
        r.arrival_s = 100.0 + r.arrival_s
        r.deadline_s = r.arrival_s + 0.01
    assert batch.arrival_s.min() >= 100.0
    after = run_plane(tenants, batch)
    assert after == run_plane(tenants, hand_built(batch))
    assert before["report"]["end_s"] < 100.0 < after["report"]["end_s"]
    assert "deadline" not in before["report"]["drops"]
    assert after["report"]["drops"]["deadline"] > 0


@pytest.mark.parametrize("spec", [TenantSpec(name="ghost", model=MODELS[0]),
                                  TenantSpec(name="t", model="nope")])
def test_batch_with_unknown_tenant_or_model_is_rejected(spec):
    batch = RequestGenerator([spec], key_space=KEYS, seed=1).generate(10)
    with pytest.raises(ConfigError, match="unknown tenant or model"):
        run_plane([TenantSpec(name="t", model=MODELS[0])], batch)


def test_request_is_a_row_view():
    batch = RequestGenerator(two_model_tenants(), key_space=KEYS,
                             seed=2).generate(5)
    rows = [fields(r) for r in batch]
    assert rows == [fields(r) for r in hand_built(batch)]
    assert rows[0] == (0, batch.tenants[batch.tenant[0]],
                       batch.models[batch.model[0]], int(batch.key[0]),
                       float(batch.arrival_s[0]), float(batch.deadline_s[0]),
                       int(batch.priority[0]))
    assert fields(batch[-1]) == rows[4]
    with pytest.raises(IndexError):
        batch[5]
    view = batch[2]
    view.deadline_s = 7.5
    assert batch.deadline_s[2] == 7.5 and batch[2].deadline_s == 7.5
