"""Unit tests for the RPC fabric and the resource manager."""

import pytest

from repro.common.costs import CostModel
from repro.common.errors import (
    ContainerLostError,
    EndpointNotFoundError,
    ResourceError,
    RpcError,
)
from repro.common.metrics import CONTAINERS_RESTARTED, RPC_CALLS, MetricsRegistry
from repro.common.simclock import TaskCost
from repro.net.rpc import RpcEnv
from repro.yarn.resource_manager import ResourceManager


class Echo:
    def echo(self, x):
        return x

    def double(self, x):
        return [x, x]


class TestRpc:
    def test_call_returns_result(self):
        env = RpcEnv()
        env.register("s0", Echo())
        assert env.call("s0", "echo", 42) == 42

    def test_unknown_endpoint(self):
        env = RpcEnv()
        with pytest.raises(EndpointNotFoundError):
            env.call("ghost", "echo", 1)

    def test_unknown_method(self):
        env = RpcEnv()
        env.register("s0", Echo())
        with pytest.raises(RpcError):
            env.call("s0", "nope")

    def test_dead_endpoint_rejects(self):
        env = RpcEnv()
        env.register("s0", Echo())
        env.kill("s0")
        assert not env.is_alive("s0")
        with pytest.raises(RpcError):
            env.call("s0", "echo", 1)

    def test_revive_with_new_handler(self):
        env = RpcEnv()
        env.register("s0", Echo())
        env.kill("s0")
        env.revive("s0", Echo())
        assert env.call("s0", "echo", 5) == 5

    def test_cost_charged_with_latency_and_bytes(self):
        cm = CostModel(network_bandwidth_bps=1000.0, rpc_latency_s=0.5,
                       serialization_cpu_s_per_byte=0.0)
        env = RpcEnv(cost_model=cm)
        env.register("s0", Echo())
        cost = TaskCost()
        env.call("s0", "echo", 0, cost=cost,
                 request_bytes=500, response_bytes=500)
        assert cost.net_s == pytest.approx(0.5 + 1.0)

    def test_congestion_slows_transfer(self):
        cm = CostModel(network_bandwidth_bps=1000.0, rpc_latency_s=0.0,
                       serialization_cpu_s_per_byte=0.0)
        env = RpcEnv(cost_model=cm)
        env.register("s0", Echo())
        cost = TaskCost()
        env.call("s0", "echo", 0, cost=cost, request_bytes=1000,
                 response_bytes=0, concurrent_clients=10, num_servers=2)
        assert cost.net_s == pytest.approx(5.0)

    def test_metrics_incremented(self):
        m = MetricsRegistry()
        env = RpcEnv(metrics=m)
        env.register("s0", Echo())
        env.call("s0", "echo", 1)
        assert m.get(RPC_CALLS) == 1

    def test_response_bytes_callable(self):
        cm = CostModel(network_bandwidth_bps=1.0, rpc_latency_s=0.0,
                       serialization_cpu_s_per_byte=0.0)
        env = RpcEnv(cost_model=cm)
        env.register("s0", Echo())
        cost = TaskCost()
        env.call("s0", "double", 3, cost=cost, request_bytes=0,
                 response_bytes=lambda r: len(r))
        assert cost.net_s == pytest.approx(2.0)


class TestResourceManager:
    def test_request_grants_container(self):
        rm = ResourceManager()
        c = rm.request("executor", 1000, cores=2)
        assert c.alive
        assert c.memory.capacity == 1000
        assert c.cores == 2

    def test_request_many_names(self):
        rm = ResourceManager()
        cs = rm.request_many("executor", 3, 100)
        assert [c.id for c in cs] == ["executor-0", "executor-1", "executor-2"]

    def test_capacity_enforced(self):
        rm = ResourceManager(capacity_bytes=150)
        rm.request("x", 100)
        with pytest.raises(ResourceError):
            rm.request("x", 100)

    def test_duplicate_name_rejected(self):
        rm = ResourceManager()
        rm.request("x", 10, name="a")
        with pytest.raises(ResourceError):
            rm.request("x", 10, name="a")

    def test_kill_then_ensure_alive_raises(self):
        rm = ResourceManager()
        c = rm.request("executor", 100)
        c.memory.allocate(50)
        rm.kill(c)
        assert not c.alive
        assert c.memory.used == 0  # contents lost
        with pytest.raises(ContainerLostError):
            c.ensure_alive()

    def test_restart_advances_clock_past_cluster_max(self):
        m = MetricsRegistry()
        rm = ResourceManager(metrics=m, restart_delay_s=30)
        a = rm.request("x", 100)
        b = rm.request("x", 100)
        a.clock.advance(100)
        rm.kill(b)
        rm.restart(b)
        assert b.alive
        assert b.restarts == 1
        assert b.clock.now_s == pytest.approx(130)
        assert m.get(CONTAINERS_RESTARTED) == 1

    def test_release_returns_capacity(self):
        rm = ResourceManager(capacity_bytes=100)
        c = rm.request("x", 100)
        rm.release(c)
        rm.request("x", 100)  # fits again
