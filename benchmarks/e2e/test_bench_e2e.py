"""Tests of the benchmark's own machinery (not tier-1; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Unit tests cover the calibrated clock, the span recorder and the oracle
ledger; the ``--smoke`` tests drive ``run.py`` end to end on a tiny sizing
and check the output contract, determinism and the negative path.  No
wall-clock assertion: speed is what the benchmark measures, not a test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import oracles  # noqa: E402
import trace as layer_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ----------------------------------------------------------------------
# calib
# ----------------------------------------------------------------------


def test_probe_is_fixed_work():
    before = calib.probe_ops()
    durations = [calib.probe() for _ in range(3)]
    assert calib.probe_ops() == before
    assert all(d > 0.0 for d in durations)


class FakeHost:
    """A host whose clock runs ``slowdown`` times slower for all work."""

    def __init__(self, slowdown: float) -> None:
        self.slowdown = slowdown
        self.now = 0.0

    def timer(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds * self.slowdown

    def probe(self) -> float:
        self.work(calib.PROBE_REF_S)
        return calib.PROBE_REF_S * self.slowdown


@pytest.mark.parametrize("slowdown", [1.0, 1.5, 0.7])
def test_slowdown_of_probe_and_slice_cancels(slowdown):
    host = FakeHost(slowdown)
    clock = calib.Clock(probe_fn=host.probe, timer=host.timer)

    def body():
        for _ in range(6):          # long enough to be split by checkpoints
            host.work(1.0)
            clock.checkpoint()

    clock.slice("long", body)
    clock.slice("short", host.work, 0.25)
    total = sum(s.cal_s for s in clock.slices)
    assert total == pytest.approx(6.25, rel=0.02)
    assert sum(s.raw_s for s in clock.slices) == pytest.approx(
        6.25 * slowdown, rel=1e-9)
    assert clock.segment_max_s <= calib.PROBE_GAP_S + 1.0 * slowdown + 1e-9
    assert set(clock.self_metrics()) == {
        "bench.probe_median_s", "bench.probe_spread", "bench.slice_max_s"}


def test_slice_that_raises_is_still_timed():
    host = FakeHost(1.0)
    clock = calib.Clock(probe_fn=host.probe, timer=host.timer)

    def boom():
        host.work(0.5)
        raise MemoryError("simulated")

    with pytest.raises(MemoryError):
        clock.slice("oom", boom)
    assert clock.slices[0].raw_s == pytest.approx(0.5)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------


def test_install_uninstall_restores_every_attribute():
    targets = []
    for _layer, target, methods in layer_trace.LAYERS:
        owner = layer_trace.resolve(target)
        for name in (methods if methods is not None
                     else layer_trace._public_functions(owner)):
            targets.append((owner, name, vars(owner)[name]))
    recorder = layer_trace.SpanRecorder()
    with recorder.installed():
        changed = sum(vars(o)[n] is not orig for o, n, orig in targets)
        assert changed == len(targets)
    for owner, name, original in targets:
        assert vars(owner)[name] is original, (owner, name)


def test_self_times_conserve_the_body():
    host = FakeHost(1.0)
    recorder = layer_trace.SpanRecorder(timer=host.timer)

    def leaf():
        host.work(0.2)

    def middle():
        host.work(0.1)
        traced_leaf()
        traced_leaf()

    def root():
        host.work(0.05)
        traced_middle()
        host.work(0.05)

    traced_leaf = recorder.wrapper("leaf", "storage")(leaf)
    traced_middle = recorder.wrapper("middle", "agent")(middle)
    recorder.wrapper("root", "bench")(root)()
    self_s, calls = recorder.self_times()
    assert calls == {"bench": 1, "agent": 1, "storage": 2}
    assert self_s["storage"] == pytest.approx(0.4)
    assert self_s["agent"] == pytest.approx(0.1)
    assert self_s["bench"] == pytest.approx(0.1)     # the unattributed rest
    assert sum(self_s.values()) == pytest.approx(0.6, rel=0.01)


def test_chrome_trace_validates(tmp_path):
    from repro.obs.export import validate_chrome_trace

    host = FakeHost(1.0)
    recorder = layer_trace.SpanRecorder(timer=host.timer)
    inner = recorder.wrapper("inner", "ps.agent")(lambda: host.work(0.1))
    outer = recorder.wrapper("outer", "bench")(lambda: (inner(), inner()))
    outer()
    path = tmp_path / "t.json"
    assert recorder.write_chrome_trace(str(path)) == 3
    assert validate_chrome_trace(json.loads(path.read_text())) == []
    # Over the event budget the deepest level goes first, nesting intact.
    assert recorder.write_chrome_trace(str(path), max_events=1) == 1
    assert validate_chrome_trace(json.loads(path.read_text())) == []


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def test_oracles_on_a_known_graph():
    import numpy as np

    # Two triangles sharing vertex 2, plus a pendant edge 4-5.
    src = np.array([0, 1, 2, 2, 3, 4, 4])
    dst = np.array([1, 2, 0, 3, 4, 2, 5])
    assert oracles.common_neighbor_ref(src, dst).tolist() == [
        1, 1, 1, 1, 1, 1, 0]
    assert oracles.num_components(src, dst) == 1
    ids, ranks = oracles.pagerank_ref(src, dst, 50, start=1.0)
    ids2, ranks2 = oracles.pagerank_ref(src, dst, 50, start=0.15)
    assert ids.tolist() == list(range(6))
    assert np.allclose(ranks, ranks2, atol=1e-3)   # same fixpoint


def test_check_ledger_ratio():
    checks = oracles.Checks()
    assert checks.ratio == 0.0                      # nothing checked yet
    checks.check("a", True)
    checks.check("b", False, "seen 3, wanted 4")
    assert checks.ratio == 0.5 and checks.attempted == 2
    assert [name for name, _ok, _d in checks.failed] == ["b"]


# ----------------------------------------------------------------------
# BENCHMARK.json and the command, at the --smoke sizing
# ----------------------------------------------------------------------


def run_smoke(workload: str, *extra: str, seed: int = 7):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names + WORKLOADS)) == len(names) + len(WORKLOADS)
    assert len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    # The driver's run budget: 4 + 22 runs per workload within 3420 s.
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 15) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_schema(workload):
    code, lines, result = run_smoke(workload)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert got["value"] > 0            # end-to-end metrics are never 0
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        assert len(printed) == 1 and printed[0].split()[-1] == m["unit"]
    assert result["metrics"]["check_pass_ratio"]["value"] == 1.0


def test_same_seed_repeats_exactly_and_seed_changes_inputs(tmp_path):
    def exact(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k not in HOST_DEPENDENT}

    _c, _l, first = run_smoke("serve-stream", "--trace", "1")
    _c, _l, again = run_smoke("serve-stream", "--trace", "1")
    _c, _l, other = run_smoke("serve-stream", "--trace", "1", seed=8)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert exact(first) == exact(again)
    assert exact(first) != exact(other)
    assert first["metrics"]["net.rpc.calls"]["value"] > 0
    from repro.obs.export import validate_chrome_trace

    doc = json.loads((HERE / "out" / "serve-stream.trace.json").read_text())
    assert validate_chrome_trace(doc) == []
    # Conservation: what no layer claims is bench.unattributed_host_ratio,
    # and the layers plus that remainder make up the traced body.
    metrics = first["metrics"]
    layers = sum(metrics[f"{layer}.host_self_s"]["value"]
                 for layer in layer_trace.LAYER_NAMES)
    traced_s = metrics["bench.host_s"]["value"] * (
        1.0 + metrics["bench.trace_overhead_ratio"]["value"])
    rest = metrics["bench.unattributed_host_ratio"]["value"]
    assert layers / traced_s + rest == pytest.approx(1.0, abs=0.01)


#: Per-layer metrics that are host seconds (or derived from them).
HOST_DEPENDENT = {m["name"] for m in SPEC["per_layer"]
                  if m["name"].endswith(".host_self_s")
                  or m["name"].startswith("bench.")}


def test_graphx_never_touches_the_ps():
    _c, _l, result = run_smoke("tg-graphx", "--trace", "1")
    metrics = result["metrics"]
    for name, got in metrics.items():
        if name.startswith(("ps.", "net.rpc.", "torchlite.", "serve",
                            "streaming", "ingest")):
            assert got["value"] == 0, name
    assert metrics["dataflow.shuffle.bytes_written"]["value"] > 0
    assert metrics["graphx.host_self_s"]["value"] > 0


def test_corrupted_output_fails_the_run():
    code, lines, result = run_smoke("tg-psgraph", "--corrupt")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["check_pass_ratio"]["value"] < 1.0
    assert any(ln.startswith("check FAIL") for ln in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own files exist: it must fail, printing no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "gnn-embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert '"metrics"' not in done.stdout
