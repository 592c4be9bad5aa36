"""Deeper tests of the shuffle service, scheduler and cost accounting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.config import ClusterConfig
from repro.common.costs import CostModel
from repro.common.errors import PSGraphError, StageFailedError
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_RECORDS,
    TASKS_FAILED,
)
from repro.common.simclock import TaskCost
from repro.core.ops import edges_from_arrays, to_neighbor_tables
from repro.dataflow.context import SparkContext
from repro.dataflow.partitioner import HashPartitioner
from repro.dataflow.shuffle import (
    ColumnBlock,
    ShuffleOutputLostError,
    ShuffleService,
)
from repro.datasets.generators import powerlaw_graph
from repro.obs.tracer import NOOP_TRACER, Tracer
from tests.conftest import make_context


class TestShuffleService:
    def _service_and_executors(self, n=2, mem=1 << 30):
        ctx = make_context(num_executors=n, executor_mem=mem)
        return ctx, ctx.shuffle_service

    def test_write_read_roundtrip(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            cost = TaskCost()
            svc.write(sid, 0, ctx.executors[0],
                      {0: [("a", 1)], 1: [("b", 2)]}, cost)
            svc.write(sid, 1, ctx.executors[1], {0: [("c", 3)]}, cost)
            got = svc.read(sid, 0, 2, ctx.executors[0], TaskCost())
            assert sorted(got) == [("a", 1), ("c", 3)]
        finally:
            ctx.stop()

    def test_read_missing_output_raises(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[0], {0: [(1, 1)]}, TaskCost())
            with pytest.raises(ShuffleOutputLostError) as lost:
                svc.read(sid, 0, 2, ctx.executors[0], TaskCost())
            assert lost.value.map_partition == 1
        finally:
            ctx.stop()

    def test_dead_owner_invalidates(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[1], {0: [(1, 1)]}, TaskCost())
            assert svc.has_output(sid, 0, ctx.live_executor_map())
            # The container dies without anyone telling the service: the
            # files are still registered, their owner is not alive.
            ctx.resource_manager.kill(ctx.executors[1].container, "test")
            assert not svc.has_output(sid, 0, ctx.live_executor_map())
            cost = TaskCost()
            with pytest.raises(ShuffleOutputLostError):
                svc.read(sid, 0, 1, ctx.executors[0], cost)
            assert cost.total_s == 0.0
        finally:
            ctx.stop()

    def test_invalidate_executor_drops_outputs(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[0], {0: [(1, 1)]}, TaskCost())
            svc.write(sid, 1, ctx.executors[1], {0: [(2, 2)]}, TaskCost())
            assert svc.invalidate_executor(ctx.executors[0].id) == 1
            assert not 0 in svc._outputs.get(sid, {})
            assert 1 in svc._outputs.get(sid, {})
        finally:
            ctx.stop()

    def test_remote_fraction_charges_network(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            payload = {0: [(i, i) for i in range(100)]}
            svc.write(sid, 0, ctx.executors[1], dict(payload), TaskCost())
            local = TaskCost()
            svc.read(sid, 0, 1, ctx.executors[1], local)
            remote = TaskCost()
            svc.read(sid, 0, 1, ctx.executors[0], remote)
            assert remote.net_s > local.net_s
            assert remote.disk_s == pytest.approx(local.disk_s)
        finally:
            ctx.stop()

    def test_spill_bounds_buffer(self):
        cm = CostModel()
        ctx = make_context(num_executors=1, executor_mem=10_000)
        try:
            svc = ShuffleService(cm, None)
            big = {0: [np.zeros(5000)]}  # 40KB logical > capacity
            svc.write(ctx.next_shuffle_id(), 0, ctx.executors[0], big,
                      TaskCost())  # must not OOM: buffer capped at 50%
        finally:
            ctx.stop()

    def test_metrics_track_bytes(self, sc):
        sc.parallelize([(i % 3, i) for i in range(100)]) \
            .partition_by(HashPartitioner(3)).count()
        assert sc.metrics.get(SHUFFLE_BYTES_WRITTEN) > 0
        assert sc.metrics.get(SHUFFLE_BYTES_READ) > 0


class TestColumnBlockShuffle:
    """A map output written as one :class:`ColumnBlock` charges, meters
    and fails exactly like the dict of boxed ``[keys, values]`` buckets it
    stands for — and reads back as the same rows in the same order."""

    #: (owner executor, keys, values) per map partition; reduce = key % 3.
    MAPS = [
        (0, [3, 1, 4, 6, 7], [0.5, 1.5, 2.5, 3.5, 4.5]),
        (1, [2, 5], [9.0, 8.0]),
        (2, [], []),
        (1, [0, 9, 1], [7.0, 6.0, 5.0]),
    ]

    def _write_all(self, ctx, sid, blocks, maps=None):
        costs = []
        for mp, (owner, keys, values) in enumerate(self.MAPS):
            if maps is not None and mp not in maps:
                continue
            keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if blocks:
                out = ColumnBlock.bucketed((keys, values), keys % 3, 3, ())
            else:
                out = {r: [keys[keys % 3 == r], values[keys % 3 == r]]
                       for r in np.unique(keys % 3).tolist()}
            cost = TaskCost()
            ctx.shuffle_service.write(sid, mp, ctx.executors[owner], out,
                                      cost)
            costs.append(cost)
        return costs

    @staticmethod
    def _counters(ctx):
        snapshot = ctx.metrics.snapshot()
        return {k: v for k, v in snapshot.items() if "shuffle" in k}

    def test_charges_and_rows_equal_the_boxed_form(self):
        seen = {}
        for blocks in (False, True):
            ctx = make_context(num_executors=3)
            try:
                sid = ctx.next_shuffle_id()
                writes = self._write_all(ctx, sid, blocks)
                reads, rows = [], []
                for r in range(3):
                    cost = TaskCost()
                    got = ctx.shuffle_service.read(
                        sid, r, len(self.MAPS), ctx.executors[r], cost)
                    if not blocks:
                        got = (np.concatenate(got[0::2]),
                               np.concatenate(got[1::2]))
                    reads.append(cost)
                    rows.append([col.tolist() for col in got])
                seen[blocks] = (writes, reads, rows, self._counters(ctx))
            finally:
                ctx.stop()
        assert seen[True] == seen[False]
        assert seen[True][2][1] == [[1, 4, 7, 1], [1.5, 2.5, 4.5, 5.0]]

    def test_missing_output_names_the_lowest_lost_partition(self):
        ctx = make_context(num_executors=3)
        try:
            sid = ctx.next_shuffle_id()
            self._write_all(ctx, sid, blocks=True, maps=(0, 3))
            with pytest.raises(ShuffleOutputLostError) as lost:
                ctx.shuffle_service.read(sid, 0, 4, ctx.executors[0],
                                         TaskCost())
            assert lost.value.map_partition == 1
        finally:
            ctx.stop()

    @pytest.mark.parametrize("read_before_death", [False, True])
    def test_dead_owner_is_found_before_anything_is_charged(
            self, read_before_death):
        ctx = make_context(num_executors=3)
        try:
            sid = ctx.next_shuffle_id()
            svc = ctx.shuffle_service
            self._write_all(ctx, sid, blocks=True)
            if read_before_death:  # the merged form is already built
                svc.read(sid, 0, 4, ctx.executors[0], TaskCost())
            # Owner of maps 1 and 3 dies without the service being told.
            ctx.resource_manager.kill(ctx.executors[1].container, "test")
            cost = TaskCost()
            read_bytes = ctx.metrics.get(SHUFFLE_BYTES_READ)
            with pytest.raises(ShuffleOutputLostError) as lost:
                svc.read(sid, 1, 4, ctx.executors[0], cost)
            assert lost.value.map_partition == 1
            assert cost.total_s == 0.0
            assert ctx.metrics.get(SHUFFLE_BYTES_READ) == read_bytes
        finally:
            ctx.stop()

    def test_killed_owner_then_rewrite_reads_again(self):
        ctx = make_context(num_executors=3)
        try:
            sid = ctx.next_shuffle_id()
            svc = ctx.shuffle_service
            self._write_all(ctx, sid, blocks=True)
            before = [c.tolist() for c in svc.read(
                sid, 1, 4, ctx.executors[0], TaskCost())]
            ctx.kill_executor(1)
            assert not 1 in svc._outputs.get(sid, {})
            assert 0 in svc._outputs.get(sid, {})
            with pytest.raises(ShuffleOutputLostError):
                svc.read(sid, 1, 4, ctx.executors[0], TaskCost())
            ctx.restart_executor(1)
            self._write_all(ctx, sid, blocks=True, maps=(1, 3))
            after = [c.tolist() for c in svc.read(
                sid, 1, 4, ctx.executors[0], TaskCost())]
            assert after == before
            svc.drop_shuffle(sid)
            assert not 0 in svc._outputs.get(sid, {})
        finally:
            ctx.stop()


class TestSchedulerRecovery:
    def test_mid_stage_executor_death_retries(self):
        ctx = make_context(num_executors=3)
        try:
            state = {"killed": False}

            def hook(_s, _p, kind):
                if kind == "result" and not state["killed"]:
                    state["killed"] = True
                    ctx.kill_executor(1)

            ctx.add_task_hook(hook)
            got = sorted(ctx.parallelize(range(30), 6).map(
                lambda x: x * 2).collect())
            assert got == [x * 2 for x in range(30)]
            assert ctx.metrics.get(TASKS_FAILED) >= 0
        finally:
            ctx.stop()

    def test_shuffle_lost_recomputed_between_actions(self):
        ctx = make_context(num_executors=3)
        try:
            rdd = ctx.parallelize([(i % 5, 1) for i in range(50)], 6) \
                .partition_by(HashPartitioner(5)) \
                .map_partitions(lambda it: [sum(v for _k, v in it)])
            first = rdd.collect()
            # Kill every executor's shuffle files.
            for i in range(3):
                ctx.kill_executor(i)
            second = rdd.collect()
            assert first == second == [10] * 5
        finally:
            ctx.stop()

    def test_all_executors_dead_no_auto_restart(self):
        cluster = ClusterConfig(num_executors=2,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster)
        ctx.auto_restart_executors = False
        try:
            ctx.kill_executor(0)
            ctx.kill_executor(1)
            with pytest.raises(RuntimeError):
                ctx.parallelize([1, 2]).collect()
        finally:
            ctx.stop()

    def test_failover_without_auto_restart(self):
        cluster = ClusterConfig(num_executors=3,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster)
        ctx.auto_restart_executors = False
        try:
            ctx.kill_executor(0)
            got = sorted(ctx.parallelize(range(12), 6).collect())
            assert got == list(range(12))
            # Dead executor was routed around, not restarted.
            assert ctx.executors[0].container.restarts == 0
        finally:
            ctx.stop()

    def test_run_stage_custom_tasks(self, sc):
        results = sc.scheduler.run_stage(
            5, lambda p, tctx: p * p, kind="custom-test"
        )
        assert results == [0, 1, 4, 9, 16]

    def test_failover_spreads_across_survivors(self):
        # The dead executor's partitions must not all stack onto one
        # neighbor (skew): failover re-mixes over the live executors.
        cluster = ClusterConfig(num_executors=4,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster)
        ctx.auto_restart_executors = False
        try:
            victim = 1
            orphans = [
                p for p in range(200)
                if ((p * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF) % 4
                == victim
            ]
            assert len(orphans) > 10
            ctx.kill_executor(victim)
            landed = {ctx.executor_for_partition(p).index
                      for p in orphans}
            assert victim not in landed
            assert len(landed) > 1
        finally:
            ctx.stop()

    def test_failed_restart_falls_back_to_failover(self):
        # If the resource manager cannot actually revive the container,
        # placement must verify liveness and route around it instead of
        # handing work to a dead executor.
        ctx = make_context(num_executors=3)
        try:
            victim_p = next(
                p for p in range(100)
                if ((p * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF) % 3 == 1
            )
            ctx.kill_executor(1)
            ctx.resource_manager.restart = lambda container: None
            chosen = ctx.executor_for_partition(victim_p)
            assert chosen.alive
            assert chosen.index != 1
        finally:
            ctx.stop()

    def test_remove_task_hook_idempotent(self, sc):
        def hook(_s, _p, _k):
            pass

        sc.add_task_hook(hook)
        sc.remove_task_hook(hook)
        sc.remove_task_hook(hook)  # double removal: no ValueError
        sc.remove_task_hook(lambda *_: None)  # never registered: no-op

    def test_retry_backoff_advances_driver_clock(self):
        times = {}
        for base in (0.0, 50.0):
            cluster = ClusterConfig(num_executors=2,
                                    executor_mem_bytes=1 << 30)
            ctx = SparkContext(cluster)
            ctx.retry_backoff_base_s = base
            try:
                state = {"failed": False}

                def task(p, tctx, _state=state, _ctx=ctx):
                    if p == 0 and not _state["failed"]:
                        _state["failed"] = True
                        _ctx.kill_executor(tctx.executor.index)
                        tctx.executor.ensure_alive()
                    return p

                got = ctx.scheduler.run_stage(2, task, kind="flaky")
                assert got == [0, 1]
                times[base] = ctx.sim_time()
            finally:
                ctx.stop()
        # One failed attempt: backoff waits base * 2**0 on the driver.
        assert times[50.0] >= times[0.0] + 50.0

    def test_straggler_slowdown_stretches_sim_time(self):
        times = {}
        for factor in (1.0, 40.0):
            ctx = make_context(num_executors=2)
            try:
                for ex in ctx.executors:
                    ex.slowdown = factor
                ctx.parallelize(range(4000), 8).map(
                    lambda x: x + 1).count()
                times[factor] = ctx.sim_time()
            finally:
                ctx.stop()
        assert times[40.0] > times[1.0] * 2

    def test_persistent_task_failure_raises_stage_failed(self):
        ctx = make_context(num_executors=2)
        try:
            def bad_task(p, tctx):
                ctx.kill_executor(tctx.executor.index)
                tctx.executor.ensure_alive()

            with pytest.raises(StageFailedError):
                ctx.scheduler.run_stage(1, bad_task, kind="doomed")
        finally:
            ctx.stop()


class TestKillDuringShuffle:
    """A map-side executor dying after its shuffle write must trigger
    parent-stage recomputation — on the record and the block shuffle."""

    def _run(self, ctx, blocks):
        pairs = ctx.parallelize([(i % 5, 1.0) for i in range(50)], 6)
        if blocks:
            def to_block(it):
                keys, values = (np.asarray(c) for c in zip(*it))
                return ColumnBlock.bucketed((keys, values), keys % 4, 4, ())

            return dict(pairs.shuffle_blocks(HashPartitioner(4), to_block)
                        .map_partitions(lambda it: [
                            (k, float(values[keys == k].sum()))
                            for keys, values in it
                            for k in np.unique(keys).tolist()]).collect())

        def fold(it):
            sums = {}
            for k, v in it:
                sums[k] = sums.get(k, 0.0) + v
            return sums.items()

        return dict(pairs.partition_by(HashPartitioner(4))
                    .map_partitions(fold).collect())

    @pytest.mark.parametrize("blocks", [False, True])
    def test_map_executor_killed_after_write(self, blocks):
        ctx = make_context(num_executors=3)
        try:
            state = {"killed": False}

            def hook(_stage, partition, kind):
                # Kill the executor that just wrote this map output; its
                # shuffle files die with it.
                if kind.startswith("shuffle-") and not state["killed"]:
                    state["killed"] = True
                    ctx.kill_executor(
                        ctx.executor_for_partition(partition).index
                    )

            ctx.add_task_hook(hook)
            got = self._run(ctx, blocks)
            assert got == {k: 10.0 for k in range(5)}
            assert state["killed"]
            assert ctx.metrics.get(TASKS_FAILED) >= 1
        finally:
            ctx.stop()

    @pytest.mark.parametrize("blocks", [False, True])
    def test_clean_run_has_no_failures(self, blocks):
        ctx = make_context(num_executors=3)
        try:
            got = self._run(ctx, blocks)
            assert got == {k: 10.0 for k in range(5)}
            assert ctx.metrics.get(TASKS_FAILED) == 0
        finally:
            ctx.stop()


class TestBlockShuffleRDD:
    """``RDD.shuffle_blocks``: the block shuffle inside the lineage."""

    def test_partition_is_the_fetched_column_tuple(self, sc):
        def to_block(it):
            keys = np.asarray(list(it), dtype=np.int64)
            return ColumnBlock.bucketed((keys, keys * 0.5), keys % 3, 3, ())

        parts = sc.parallelize(range(10), 4).shuffle_blocks(
            HashPartitioner(3), to_block).collect()
        for r, (keys, halves) in enumerate(parts):
            # Map output after map output, original order within.
            assert keys.tolist() == [k for mp in range(4)
                                     for k in range(mp, 10, 4) if k % 3 == r]
            assert np.array_equal(halves, keys * 0.5)

    def test_wrong_width_block_fails_at_write(self, sc):
        def to_block(it):
            keys = np.asarray(list(it), dtype=np.int64)
            return ColumnBlock.bucketed((keys,), keys % 2, 2, ())

        rdd = sc.parallelize(range(10), 4).shuffle_blocks(
            HashPartitioner(3), to_block)
        with pytest.raises(PSGraphError, match="2 buckets for 3 reduce"):
            rdd.collect()
        assert sc.metrics.get(SHUFFLE_BYTES_WRITTEN) == 0


class TestGroupByRecovery:
    """An executor dies between the map and the reduce stage of PSGraph's
    groupBy (``to_neighbor_tables``, cached): the lost blocks — only
    those — are rewritten from lineage and the tables come out the same."""

    MAPS = 6

    def _run(self, kill, tracer=NOOP_TRACER):
        ctx = SparkContext(
            ClusterConfig(num_executors=3, executor_mem_bytes=1 << 40),
            tracer=tracer)
        try:
            src, dst = powerlaw_graph(120, 700, seed=5)
            edges = edges_from_arrays(ctx, src, dst,
                                      num_partitions=self.MAPS)
            tables = to_neighbor_tables(
                edges, symmetric=True, dedupe=True).cache()
            [dep] = tables.narrow_parents[0].shuffle_deps
            victim = ctx.executor_for_partition(self.MAPS - 1)
            owned = [mp for mp in range(self.MAPS)
                     if ctx.executor_for_partition(mp) is victim]
            svc = ctx.shuffle_service
            seen = {"writes": [], "lost": []}

            def hook(_stage, partition, kind):
                if (kill and kind == f"shuffle-{dep.shuffle_id}"
                        and partition == self.MAPS - 1
                        and "killed" not in seen["writes"]):
                    ctx.kill_executor(victim.index)
                    seen["writes"].append("killed")

            def write(sid, mp, *args):
                seen["writes"].append(mp)
                return ShuffleService.write(svc, sid, mp, *args)

            def read(sid, r, n, executor, cost):
                before = (cost.total_s, ctx.metrics.get(SHUFFLE_BYTES_READ))
                try:
                    return ShuffleService.read(svc, sid, r, n, executor,
                                               cost)
                except ShuffleOutputLostError as lost:
                    assert before == (cost.total_s,
                                      ctx.metrics.get(SHUFFLE_BYTES_READ))
                    seen["lost"].append(lost.map_partition)
                    raise

            svc.write, svc.read = write, read
            ctx.add_task_hook(hook)
            blocks = tables.collect()
            again = tables.collect()  # served from the cache
            leftovers = [tag for ex in ctx.executors
                         for tag in ex.container.memory._by_tag
                         if tag.startswith("shuffle-buffer:")]
            counters = [ctx.metrics.get(m) for m in (
                SHUFFLE_RECORDS, SHUFFLE_BYTES_WRITTEN, SHUFFLE_BYTES_READ,
                TASKS_FAILED)]
            return dict(blocks=blocks, again=again, owned=owned, seen=seen,
                        leftovers=leftovers, counters=counters,
                        sim_time=ctx.sim_time())
        finally:
            ctx.stop()

    @staticmethod
    def _arrays(blocks):
        return [[a.tolist() for a in (b.vertices, b.indptr, b.neighbors)]
                for b in blocks]

    def test_only_the_lost_blocks_are_rewritten(self):
        clean, faulted = self._run(kill=False), self._run(kill=True)
        assert clean["seen"]["writes"] == list(range(self.MAPS))
        assert clean["seen"]["lost"] == []
        owned = faulted["owned"]
        assert 0 < len(owned) < self.MAPS
        # Every map output once, the kill, then the victim's blocks again.
        assert faulted["seen"]["writes"] == [
            *range(self.MAPS), "killed", *owned]
        # The first reduce task names the lowest lost map partition,
        # before anything is charged (asserted where it is raised).
        assert faulted["seen"]["lost"] == [min(owned)]
        assert self._arrays(faulted["blocks"]) == self._arrays(
            clean["blocks"])
        assert self._arrays(faulted["again"]) == self._arrays(
            clean["blocks"])
        assert faulted["leftovers"] == clean["leftovers"] == []
        assert faulted["counters"][-1] == 1 and clean["counters"][-1] == 0

    def test_traced_and_untraced_runs_agree(self):
        untraced = self._run(kill=True)
        traced = self._run(kill=True, tracer=Tracer())
        assert traced["sim_time"] == untraced["sim_time"]
        assert traced["counters"] == untraced["counters"]
        assert traced["seen"] == untraced["seen"]


class TestSimTimeAccounting:
    def test_parallel_work_faster_than_serial(self):
        # Same total records, 1 vs 8 executors: sim time shrinks.
        t = {}
        for n in (1, 8):
            ctx = make_context(num_executors=n)
            try:
                ctx.parallelize(range(20000), 8).map(
                    lambda x: x + 1).count()
                t[n] = ctx.sim_time()
            finally:
                ctx.stop()
        assert t[8] < t[1] / 3

    def test_barrier_includes_driver(self, sc):
        sc.parallelize(range(100)).count()
        t = sc.sim_time()
        for ex in sc.executors:
            assert ex.container.clock.now_s <= t + 1e-12


def test_package_never_imports_multiprocessing():
    """The simulator is single-process — the DAG scheduler is the only
    source of ordering — so no ``repro`` module may pull the import in."""
    code = (
        "import sys, pkgutil, importlib, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not m.name.endswith('__main__'):\n"
        "        importlib.import_module(m.name)\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
