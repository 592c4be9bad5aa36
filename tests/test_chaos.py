"""Tests for repro.chaos: fault schedules, the engine, and recovery."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosEngine,
    FaultSchedule,
    FaultSpec,
    InjectedRpcTimeout,
)
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError, RpcError
from repro.common.metrics import (
    CHAOS_FAULTS,
    CONTAINERS_RESTARTED,
    PS_PINGS_FAILED,
)
from repro.dataflow.context import SparkContext
from repro.dataflow.partitioner import HashPartitioner
from repro.ps.context import PSContext
from tests.conftest import attached, make_context


def make_ps_cluster(num_executors=2, num_servers=3, **kwargs):
    cluster = ClusterConfig(
        num_executors=num_executors, executor_mem_bytes=1 << 40,
        num_servers=num_servers, server_mem_bytes=1 << 40,
    )
    spark = SparkContext(cluster)
    return spark, PSContext(spark, **kwargs)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("set_fire_to_rack")

    def test_kill_needs_a_trigger(self):
        with pytest.raises(ConfigError):
            FaultSpec("kill_executor", index=0)

    def test_kill_rejects_both_triggers(self):
        with pytest.raises(ConfigError):
            FaultSpec("kill_server", index=0, after_tasks=3, at_epoch=2)

    def test_slow_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("slow_executor", after_tasks=1, factor=0.5)

    def test_rpc_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultSpec("rpc_drop", count=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("rpc_timeout", delay_s=-1.0)

    def test_matches_rpc_globs(self):
        f = FaultSpec("rpc_drop", endpoint="ps-server-*", method="push")
        assert f.matches_rpc("ps-server-2", "push")
        assert not f.matches_rpc("ps-server-2", "pull")
        assert not f.matches_rpc("executor-1", "push")


def schedule_dict(sched):
    """The JSON layout ``FaultSchedule.from_dict`` reads."""
    return {"faults": [asdict(f) for f in sched.faults], "seed": sched.seed}


class TestFaultSchedule:
    def test_json_round_trip(self):
        sched = FaultSchedule([
            FaultSpec("kill_executor", index=1, after_tasks=5),
            FaultSpec("rpc_timeout", endpoint="ps-server-*",
                      method="push", delay_s=2.0, count=3),
            FaultSpec("slow_executor", index=0, at_epoch=2,
                      factor=4.0, duration_tasks=10),
        ], seed=42)
        back = FaultSchedule.from_json(json.dumps(schedule_dict(sched)))
        assert back == sched
        assert back.seed == 42
        assert len(back) == 3

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "sched.json")
        sched = FaultSchedule([FaultSpec("kill_server", index=0,
                                         at_epoch=3)])
        with open(path, "w") as f:
            json.dump(schedule_dict(sched), f)
        assert FaultSchedule.load(path) == sched

    def test_dicts_coerced_to_specs(self):
        sched = FaultSchedule([{"kind": "kill_executor", "index": 1,
                                "after_tasks": 2}])
        assert isinstance(sched.faults[0], FaultSpec)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_json("not json {")
        with pytest.raises(ConfigError):
            FaultSchedule.from_json('{"no_faults": []}')
        with pytest.raises(ConfigError):
            FaultSchedule.from_json('{"faults": [{"bogus_field": 1}]}')

    def test_random_is_seed_deterministic(self):
        a = FaultSchedule.random(7, num_executors=4, num_servers=2)
        b = FaultSchedule.random(7, num_executors=4, num_servers=2)
        c = FaultSchedule.random(8, num_executors=4, num_servers=2)
        assert a == b
        assert c != a

    def test_random_without_servers_skips_server_kills(self):
        sched = FaultSchedule.random(3, num_faults=20, num_executors=4,
                                     num_servers=0)
        assert all(f.kind != "kill_server" for f in sched)
        assert all(f.kind in FAULT_KINDS for f in sched)


class TestChaosEngineSpark:
    def test_kill_server_requires_ps(self):
        ctx = make_context(num_executors=2)
        try:
            sched = FaultSchedule([FaultSpec("kill_server", index=0,
                                             after_tasks=1)])
            with pytest.raises(ConfigError):
                ChaosEngine(sched, ctx, None)
        finally:
            ctx.stop()

    def test_at_epoch_requires_ps(self):
        ctx = make_context(num_executors=2)
        try:
            sched = FaultSchedule([FaultSpec("kill_executor", index=0,
                                             at_epoch=1)])
            with pytest.raises(ConfigError):
                ChaosEngine(sched, ctx, None)
        finally:
            ctx.stop()

    def test_kill_executor_fires_and_job_recovers(self):
        ctx = make_context(num_executors=3)
        try:
            sched = FaultSchedule([FaultSpec("kill_executor", index=1,
                                             after_tasks=3)])
            with attached(ChaosEngine(sched, ctx, None)) as engine:
                got = sorted(ctx.parallelize(range(30), 6).map(
                    lambda x: x * 2).collect())
            assert got == [x * 2 for x in range(30)]
            assert [f.kind for f in engine.fired] == ["kill_executor"]
            assert engine.fired[0].tasks_seen >= 3
            assert ctx.metrics.get(CHAOS_FAULTS) == 1
        finally:
            ctx.stop()

    def test_task_kind_filter_counts_only_matching_tasks(self):
        ctx = make_context(num_executors=3)
        try:
            sched = FaultSchedule([FaultSpec(
                "kill_executor", index=2, after_tasks=2,
                task_kind="result",
            )])
            with attached(ChaosEngine(sched, ctx, None)) as engine:
                # A shuffle stage runs map tasks first; only result tasks
                # may satisfy the trigger.
                ctx.parallelize([(i % 3, 1) for i in range(30)], 6) \
                    .partition_by(HashPartitioner(6)).collect()
            assert len(engine.fired) == 1
        finally:
            ctx.stop()

    def test_slow_executor_stretches_sim_time(self):
        times = {}
        for label, faults in (("clean", []),
                              ("slow", [FaultSpec("slow_executor", index=0,
                                                  after_tasks=1,
                                                  factor=50.0)])):
            ctx = make_context(num_executors=2)
            try:
                with attached(ChaosEngine(FaultSchedule(faults), ctx, None)):
                    ctx.parallelize(range(4000), 8).map(
                        lambda x: x + 1).count()
                times[label] = ctx.sim_time()
            finally:
                ctx.stop()
        assert times["slow"] > times["clean"] * 2

    def test_slowdown_restored_after_duration(self):
        ctx = make_context(num_executors=2)
        try:
            sched = FaultSchedule([FaultSpec(
                "slow_executor", index=1, after_tasks=1, factor=8.0,
                duration_tasks=2,
            )])
            with attached(ChaosEngine(sched, ctx, None)):
                ctx.parallelize(range(40), 8).count()
                assert ctx.executors[1].slowdown == 1.0
        finally:
            ctx.stop()

    def test_detach_restores_slowdown_and_injector(self):
        ctx = make_context(num_executors=2)
        try:
            sched = FaultSchedule([
                FaultSpec("slow_executor", index=0, after_tasks=1,
                          factor=9.0),
                FaultSpec("rpc_drop", endpoint="nothing-matches"),
            ])
            engine = ChaosEngine(sched, ctx, None).attach()
            ctx.parallelize(range(8), 4).count()
            assert ctx.executors[0].slowdown == 9.0
            assert ctx.rpc.fault_injector is not None
            engine.detach()
            engine.detach()  # idempotent
            assert ctx.executors[0].slowdown == 1.0
            assert ctx.rpc.fault_injector is None
        finally:
            ctx.stop()

    def test_second_rpc_injector_rejected(self):
        ctx = make_context(num_executors=2)
        try:
            ctx.rpc.fault_injector = lambda *_: 0.0
            sched = FaultSchedule([FaultSpec("rpc_drop")])
            with pytest.raises(ConfigError):
                ChaosEngine(sched, ctx, None).attach()
        finally:
            ctx.rpc.fault_injector = None
            ctx.stop()

    def test_report_and_describe(self):
        ctx = make_context(num_executors=2)
        try:
            sched = FaultSchedule([FaultSpec("kill_executor", index=0,
                                             after_tasks=1)])
            with attached(ChaosEngine(sched, ctx, None)) as engine:
                ctx.parallelize(range(8), 4).count()
            report = engine.report()
            assert report["scheduled"] == 1
            assert report["fired"][0]["kind"] == "kill_executor"
            assert "kill_executor" in engine.describe()
        finally:
            ctx.stop()


class TestChaosEngineRpc:
    def test_rpc_drop_triggers_recovery_retry(self):
        spark, ps = make_ps_cluster()
        try:
            v = ps.create_vector("v", 40)
            sched = FaultSchedule([FaultSpec(
                "rpc_drop", endpoint="ps-server-*", method="push",
            )])
            with attached(ChaosEngine(sched, spark, ps)) as engine:
                v.push(np.arange(40), np.ones(40))
            # The injected drop was transparently retried (the agent asks
            # the master to recover, finds no dead server, and re-issues).
            np.testing.assert_allclose(v.to_numpy(), 1.0)
            assert [f.kind for f in engine.fired] == ["rpc_drop"]
        finally:
            ps.stop()
            spark.stop()

    def test_rpc_timeout_charges_driver_clock(self):
        spark, ps = make_ps_cluster()
        try:
            v = ps.create_vector("v", 40)
            sched = FaultSchedule([FaultSpec(
                "rpc_timeout", endpoint="ps-server-*", method="push",
                delay_s=3.0,
            )])
            t0 = spark.sim_time()
            with attached(ChaosEngine(sched, spark, ps)):
                v.push(np.arange(40), np.ones(40))
            assert spark.sim_time() >= t0 + 3.0
            np.testing.assert_allclose(v.to_numpy(), 1.0)
        finally:
            ps.stop()
            spark.stop()

    def test_a_dropped_ping_is_not_a_death(self):
        """Every ping dropped on two live servers: the master restarts
        nothing, and the push made after the checkpoint survives a
        relaxed recovery."""
        spark, ps = make_ps_cluster(num_servers=2)
        try:
            v = ps.create_vector("v", 40)
            ps.checkpoint_matrix("v")
            v.push(np.arange(40), np.ones(40))
            sched = FaultSchedule([FaultSpec("rpc_drop", method="ping",
                                             count=4)])
            with attached(ChaosEngine(sched, spark, ps)) as engine:
                assert ps.master.health_check() == []
                assert ps.master.recover("relaxed") == []
            assert [f.kind for f in engine.fired] == ["rpc_drop"] * 4
            assert ps.master.recoveries == 0
            assert spark.metrics.get(PS_PINGS_FAILED) == 4
            assert spark.metrics.get(CONTAINERS_RESTARTED) == 0
            np.testing.assert_allclose(v.to_numpy(), 1.0)
        finally:
            ps.stop()
            spark.stop()

    def test_a_timed_out_ping_charges_the_driver_clock(self):
        spark, ps = make_ps_cluster(num_servers=2)
        try:
            sched = FaultSchedule([FaultSpec(
                "rpc_timeout", method="ping", count=2, delay_s=0.5,
            )])
            t0 = spark.driver_clock.now_s
            with attached(ChaosEngine(sched, spark, ps)):
                assert ps.master.health_check() == []
            assert spark.driver_clock.now_s == pytest.approx(
                t0 + 2 * (ps.master.health_check_cost_s + 0.5))
            assert ps.master.recoveries == 0
        finally:
            ps.stop()
            spark.stop()

    def test_rpc_drop_without_auto_recover_propagates(self):
        spark, ps = make_ps_cluster()
        try:
            ps.auto_recover = False
            v = ps.create_vector("v", 40)
            sched = FaultSchedule([FaultSpec(
                "rpc_drop", endpoint="ps-server-*", method="push",
            )])
            with attached(ChaosEngine(sched, spark, ps)):
                with pytest.raises(RpcError):
                    v.push(np.arange(40), np.ones(40))
        finally:
            ps.stop()
            spark.stop()

    def test_after_calls_and_count_window(self):
        spark, ps = make_ps_cluster(num_servers=1)
        try:
            ps.auto_recover = False
            # One partition -> one RPC call per push, so the call counter
            # maps 1:1 onto push() invocations.
            v = ps.create_vector("v", 10, num_partitions=1)
            sched = FaultSchedule([FaultSpec(
                "rpc_drop", endpoint="ps-server-*", method="push",
                after_calls=1, count=2,
            )])
            with attached(ChaosEngine(sched, spark, ps)) as engine:
                keys, ones = np.arange(10), np.ones(10)
                v.push(keys, ones)  # call 1: before the window
                for _ in range(2):  # calls 2-3: injected failures
                    with pytest.raises(RpcError):
                        v.push(keys, ones)
                v.push(keys, ones)  # call 4: window exhausted
                assert [f.detail["call"] for f in engine.fired] == [2, 3]
            np.testing.assert_allclose(v.to_numpy(), 2.0)
        finally:
            ps.stop()
            spark.stop()

    def test_injected_timeout_is_rpc_error(self):
        exc = InjectedRpcTimeout("t", delay_s=1.5)
        assert isinstance(exc, RpcError)
        assert exc.delay_s == 1.5


class TestChaosEndToEnd:
    def test_pagerank_survives_kills_with_correct_ranks(self):
        """A seeded executor kill + PS server kill mid-PageRank completes
        with the same final ranks as the clean run."""
        from repro.core.algorithms import PageRank
        from repro.core.context import PSGraphContext
        from repro.core.runner import GraphRunner
        from repro.datasets.generators import powerlaw_graph
        from repro.datasets.tencent import write_edges

        src, dst = powerlaw_graph(200, 1200, seed=11)
        cluster = ClusterConfig(
            num_executors=3, executor_mem_bytes=1 << 40,
            num_servers=2, server_mem_bytes=1 << 40,
        )
        ranks = {}
        for label in ("clean", "chaos"):
            with PSGraphContext(cluster, app_name=f"chaos-e2e-{label}",
                                checkpoint_interval=1) as ctx:
                write_edges(ctx.hdfs, "/input/edges", src, dst,
                            num_files=3)
                engine = None
                if label == "chaos":
                    sched = FaultSchedule([
                        FaultSpec("kill_executor", index=1,
                                  after_tasks=15),
                        FaultSpec("kill_server", index=0, at_epoch=3),
                    ], seed=5)
                    engine = ChaosEngine(sched, ctx.spark, ctx.ps).attach()
                try:
                    result = GraphRunner(ctx).run(
                        PageRank(max_iterations=6, tol=1e-9),
                        "/input/edges",
                    )
                finally:
                    if engine is not None:
                        engine.detach()
                ranks[label] = dict(result.output.rdd.collect())
                if label == "chaos":
                    assert len(engine.fired) == 2
                    assert ctx.ps.master.recoveries >= 1
        assert ranks["chaos"].keys() == ranks["clean"].keys()
        np.testing.assert_allclose(
            [ranks["chaos"][k] for k in sorted(ranks["clean"])],
            [ranks["clean"][k] for k in sorted(ranks["clean"])],
        )

    def test_recovery_cheaper_than_lineage_recompute(self):
        """Table II extension: PSGraph checkpoint-recovery sim-time is
        strictly below GraphX's full-lineage recompute."""
        from dataclasses import replace

        from repro.experiments.cells import run_cells
        from repro.experiments.table2 import (
            RECOVERY_CELLS,
            with_recovery_cost,
        )

        rows = with_recovery_cost(run_cells(
            [replace(c, scale=3e-6) for c in RECOVERY_CELLS]))
        by_key = {(r.system, r.algorithm): r for r in rows}
        ps_cost = by_key[("PSGraph", "PageRank/recovery")] \
            .extra["recovery_sim_s"]
        gx_cost = by_key[("GraphX", "PageRank/recovery")] \
            .extra["recovery_sim_s"]
        assert 0.0 < ps_cost < gx_cost
        # Recovery must not change the answer, for either system.
        for system in ("PSGraph", "GraphX"):
            assert by_key[(system, "PageRank/recovery")] \
                .extra["ranks_checksum"] == pytest.approx(
                    by_key[(system, "PageRank/clean")]
                    .extra["ranks_checksum"])
