#!/usr/bin/env python3
"""benchmarks/e2e — the repo's benchmark of record.

    python3 benchmarks/e2e/run.py --workload tg-psgraph --seed 7 \
        --seconds 20 --trace 0

runs one workload in this (single-threaded, hash-seed-pinned) process:
set-up (imports, seeded generation, HDFS staging, oracles, one small
warm-up pass), then three passes over the workload's timed body (two
always complete; the third stops once ``--seconds`` of wall time are
used), then the output checks.  It prints every metric by name and unit and, as
the last line, one JSON object ``{correct, attempted, failed, metrics}``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1`` (untraced, traced, untraced pass;
writes ``out/<workload>.trace.json``).  Exit code 1 when an output check
fails.  Without ``--workload`` it runs all four,
one after another.

Host seconds are *calibrated* (see calib.py); sim seconds and counts are
exact and repeat bit for bit for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Pinned child environment: one thread, fixed hash seed.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: The repeatable part of set-up (seeded generation + HDFS staging) runs
#: this many times and ``setup_s`` takes its median; imports, oracles and
#: the warm-up pass run once.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("tg-psgraph", "tg-graphx", "gnn-embed", "serve-stream")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing for the schema test (<20 s)")
    parser.add_argument("--corrupt", action="store_true",
                        help="negative test: damage one output before the "
                             "checks; the run must report it and exit 1")
    return parser.parse_args(argv)


class WindowClosed(Exception):
    """Raised at a slice boundary once the measurement window is used."""


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one after another, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(
        spec["run_seconds"])

    # ---- set-up -------------------------------------------------------
    t0 = time.perf_counter()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import calib
    import oracles
    import trace as layer_trace
    import workloads

    clock = calib.Clock()
    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    setup_probes = [clock.probe_fn()]
    import_s = time.perf_counter() - t0

    repeats = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.generate(args.seed, size)
        repeats.append(time.perf_counter() - t)
        setup_probes.append(clock.probe_fn())
    t = time.perf_counter()
    expected = workload.expect(inputs, size)
    if not args.smoke:
        # Warm-up: one pass at the smoke sizing, so lazy imports and
        # first-call costs land here and not in the first timed pass.
        workload.run_pass(
            workloads.Pass(calib.Clock(probe_fn=lambda: calib.PROBE_REF_S)),
            workload.generate(args.seed, workloads.SMOKE), workloads.SMOKE)
    once_s = time.perf_counter() - t
    setup_probes.append(clock.probe_fn())
    setup_raw = import_s + statistics.median(repeats) + once_s
    # Inputs and oracle values live until exit: keep the per-slice
    # gc.collect() from walking them every time.
    gc.freeze()
    setup_s = setup_raw * clock.ref_s / statistics.median(setup_probes)

    # ---- the measurement window ---------------------------------------
    recorder = layer_trace.SpanRecorder() if args.trace else None
    deadline = time.perf_counter() + seconds
    untraced = {}            # slice name -> [SliceTime], over every pass
    traced = {}
    repeats_done = []        # completed untraced passes after the first

    def fits(name: str) -> None:
        """Stop a repeat pass at the first slice that, going by the first
        pass, would end outside the measurement window."""
        if time.perf_counter() + untraced[name][0].raw_s > deadline:
            raise WindowClosed

    def one_pass(sink, rec=None, before_slice=None):
        p = workloads.Pass(clock, rec, before_slice)
        seen = len(clock.slices)
        try:
            with (rec.installed() if rec is not None else nullcontext()):
                workload.run_pass(p, inputs, size)
        except WindowClosed:
            p = None
        for s in clock.slices[seen:]:
            sink.setdefault(s.name, []).append(s)
        return p

    # Two untraced passes always complete: the first pays the process's
    # first-touch costs (up to 2x on this VM), so one pass alone would
    # report those.  With --trace 1 the traced pass runs between them.
    first = one_pass(untraced)
    if args.trace:
        # Probes are spans of their own in the traced pass, so one taken
        # inside a slice is not charged to the layer it interrupts.
        clock.probe_fn = recorder.wrapper(
            "probe", layer_trace.PROBE_LAYER)(calib.probe)
        one_pass(traced, recorder)
        clock.probe_fn = calib.probe
    repeats_done.append(one_pass(untraced))
    if not args.trace:
        # The third pass is the last (a fixed count keeps the minimum over
        # passes comparable between runs) and yields to the window.
        p = one_pass(untraced, before_slice=fits)
        if p is not None:
            repeats_done.append(p)

    # ---- checks -------------------------------------------------------
    checks = oracles.Checks()
    if args.corrupt:
        corrupt(first)
    for other in repeats_done:
        checks.check("repeat_pass_is_bit_identical",
                     other.sim_s == first.sim_s
                     and dict(other.counts) == dict(first.counts))
    results = workload.check(checks, first, inputs, expected, size)

    # ---- metrics ------------------------------------------------------
    def total(sink, field: str) -> float:
        """Sum over slices of the quietest pass's reading: first touch,
        bursts and collections only ever add time, so the minimum over
        passes is the steadiest estimate of the slice itself."""
        return sum(min(getattr(s, field) for s in group)
                   for group in sink.values())

    host_s = total(untraced, "cal_s")
    values = {
        "setup_s": setup_s,
        "host_s": host_s,
        "sim_s": first.sim_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_ratio": checks.ratio,
    }
    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        values = layer_values(
            [m["name"] for m in spec[kind]], layer_trace.LAYER_NAMES,
            {**first.counts, **results}, clock, recorder, host_s,
            total(untraced, "raw_s"), total(traced, "cal_s"),
            total(traced, "raw_s"))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write_chrome_trace(
            str(out_dir / f"{args.workload}.trace.json"))
    else:
        values.update(clock.self_metrics())
        values["bench.host_wall_s"] = total(untraced, "raw_s")

    for name, ok, detail in checks.items:
        print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    print(f"passes: {1 + len(repeats_done)} untraced + {int(args.trace)} "
          f"traced, {len(clock.slices)} slices, {len(clock.probes)} probes")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer"] + spec["end_to_end"]}
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in spec[kind]},
    }))
    return 0 if not checks.failed else 1


def corrupt(p) -> None:
    """Damage the first array-like result in place (negative test)."""
    for key, value in sorted(p.results.items()):
        rows = value.get("rows") or value.get("out")
        if isinstance(rows, list) and rows and isinstance(rows[0], tuple):
            rows[0] = (-1,) + rows[0][1:]      # a vertex that does not exist
            return
        if "accuracy" in value:
            value["accuracy"] = 0.0
            return
        if "ranks" in value:
            value["ranks"] = value["ranks"] + 1.0
            return
    raise SystemExit("nothing to corrupt")


def layer_values(names, layers, counts, clock, recorder, host_s, host_raw,
                 traced_s, traced_raw):
    """Every ``per_layer`` metric of BENCHMARK.json (``names``).

    Exact counts and the workload's results come from the untraced first
    pass; a name the workload did not produce reads 0 — that layer, or
    that experiment, did not run (see README).  Host self times come from
    the traced pass.
    """
    values = {name: counts.get(name, 0.0) for name in names}
    ps_ops = (values["ps.pull.calls"] + values["ps.push.calls"]
              + values["ps.psfunc.calls"])
    values["net.rpc.calls_per_ps_op"] = (
        values["net.rpc.calls"] / ps_ops if ps_ops else 0.0)
    hits = counts.get("serve.cache.hits", 0.0)
    lookups = hits + counts.get("serve.cache.misses", 0.0)
    values["serve.cache.hit_ratio"] = hits / lookups if lookups else 0.0

    # Traced seconds -> calibrated seconds with the traced pass's own
    # calibrated/raw ratio, so layer self times add up to traced host_s.
    self_s, calls = recorder.self_times()
    factor = traced_s / traced_raw
    for layer in layers:
        values[f"{layer}.host_calls"] = float(calls.get(layer, 0))
        values[f"{layer}.host_self_s"] = self_s.get(layer, 0.0) * factor
    values.update(clock.self_metrics())
    values["bench.host_wall_s"] = host_raw
    values["bench.host_s"] = host_s
    values["bench.trace_overhead_ratio"] = traced_s / host_s - 1.0
    values["bench.unattributed_host_ratio"] = (
        self_s.get("bench", 0.0) * factor / traced_s)
    return values


if __name__ == "__main__":
    sys.exit(main())
