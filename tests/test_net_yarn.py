"""Unit tests for the RPC fabric and the resource manager."""

import pytest

from repro.common.errors import (
    ContainerLostError,
    EndpointNotFoundError,
    ResourceError,
    RpcError,
)
from repro.common.metrics import (
    CONTAINERS_RESTARTED,
    RPC_BYTES,
    RPC_CALLS,
    MetricsRegistry,
)
from repro.net.rpc import RpcEnv
from repro.yarn.resource_manager import ResourceManager


class Pinger:
    def ping(self):
        return "pong"


def _ping(env, name="s0"):
    return env.call(name, "ping", request_bytes=8, response_bytes=8)


class TestRpc:
    def test_call_returns_result(self):
        env = RpcEnv(None)
        env.register("s0", Pinger())
        assert _ping(env) == "pong"

    def test_unknown_endpoint(self):
        env = RpcEnv(None)
        with pytest.raises(EndpointNotFoundError):
            _ping(env, "ghost")

    def test_unknown_method(self):
        env = RpcEnv(None)
        env.register("s0", Pinger())
        with pytest.raises(RpcError):
            env.call("s0", "nope", request_bytes=8, response_bytes=8)

    def test_dead_endpoint_rejects(self):
        env = RpcEnv(None)
        env.register("s0", Pinger())
        env.kill("s0")
        assert not env.is_alive("s0")
        with pytest.raises(RpcError):
            _ping(env)

    def test_revive_with_new_handler(self):
        env = RpcEnv(None)
        env.register("s0", Pinger())
        env.kill("s0")
        env.revive("s0", Pinger())
        assert _ping(env) == "pong"

    def test_metrics_incremented(self):
        m = MetricsRegistry()
        env = RpcEnv(metrics=m)
        env.register("s0", Pinger())
        _ping(env)
        assert m.get(RPC_CALLS) == 1
        assert m.get(RPC_BYTES) == 16


class TestResourceManager:
    def test_request_grants_container(self):
        rm = ResourceManager(None)
        c = rm.request("executor", 1000)
        assert c.alive
        assert c.memory.capacity == 1000

    def test_request_many_names(self):
        rm = ResourceManager(None)
        cs = rm.request_many("executor", 3, 100)
        assert [c.id for c in cs] == ["executor-0", "executor-1", "executor-2"]

    def test_capacity_enforced(self):
        rm = ResourceManager(None)
        rm.capacity_bytes = 150
        rm.request("x", 100)
        with pytest.raises(ResourceError):
            rm.request("x", 100)

    def test_duplicate_name_rejected(self):
        rm = ResourceManager(None)
        rm.request("x", 10, name="a")
        with pytest.raises(ResourceError):
            rm.request("x", 10, name="a")

    def test_kill_then_ensure_alive_raises(self):
        rm = ResourceManager(None)
        c = rm.request("executor", 100)
        c.memory.allocate(50)
        rm.kill(c)
        assert not c.alive
        assert c.memory.used == 0  # contents lost
        with pytest.raises(ContainerLostError):
            c.ensure_alive()

    def test_restart_advances_clock_past_cluster_max(self):
        m = MetricsRegistry()
        rm = ResourceManager(m)
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
        rm = ResourceManager(None)
        rm.capacity_bytes = 100
        c = rm.request("x", 100)
        rm.release(c)
        rm.request("x", 100)  # fits again
