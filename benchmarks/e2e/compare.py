#!/usr/bin/env python3
"""A/A (or A/B) comparison of two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py --runs 10            # A/A, this tree
    python3 benchmarks/e2e/compare.py --a ../parent --b .  # parent vs change

Runs ``--runs`` pairs per workload, alternating which side goes first,
run *i* of both sides on seed ``--seed0 + i``.  Per workload × end-to-end
metric it prints both medians, both quartile spreads (distance between
the first and third quartile as a share of the median — what the driver
computes), the relative gap of B against A in the metric's *worse*
direction, and a verdict against the bound in BENCHMARK.json:

* ``FAIL``        B's median is worse than A's by more than the bound;
* ``UNRESOLVED``  a side's own spread exceeds the bound, so the gap cannot
                  be told from noise;
* ``PASS``        otherwise.

Raw ``bench.host_wall_s`` is shown beside ``host_s`` to show what the
calibrated clock removed; it is never gated.  Exit code 1 on any FAIL.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RAW_WALL = re.compile(r"^bench\.host_wall_s\s+(\S+)", re.M)


def run_once(tree: Path, spec: dict, workload: str, seed: int,
             seconds: float, smoke: bool) -> Dict[str, float]:
    """One benchmark run in ``tree``; returns its metric values."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {tree} exited "
                         f"{done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    wall = RAW_WALL.search(done.stdout)
    if wall:
        values["bench.host_wall_s"] = float(wall.group(1))
    return values


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)``."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """``(gap, verdict)``; gap > 0 means B is worse than A."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    gap = (med_b - med_a) / med_a if med_a else 0.0
    if better == "higher":
        gap = -gap
    if gap > bound:
        return gap, "FAIL"
    if max(spread(a), spread(b)) > bound:
        return gap, "UNRESOLVED"
    return gap, "PASS"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, default=ROOT,
                        help="checkout of side A (default: this tree)")
    parser.add_argument("--b", type=Path, default=ROOT,
                        help="checkout of side B (default: this tree)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write every run's values here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    spec = json.loads((args.b / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec[
        "run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
    failed = False
    for workload in names:
        sides = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                tree = args.a if side == "A" else args.b
                sides[side].append(run_once(
                    tree.resolve(), spec, workload, args.seed0 + i, seconds,
                    args.smoke))
            print(f"# {workload}: pair {i + 1}/{args.runs} done",
                  file=sys.stderr, flush=True)
        runs[workload] = sides
        print(f"\n== {workload}  ({args.runs} runs per side)")
        print(f"{'metric':20s} {'unit':7s} {'median A':>12s} {'median B':>12s}"
              f" {'spread A':>9s} {'spread B':>9s} {'gap':>8s} {'bound':>6s}"
              f"  verdict")
        rows = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]]
        rows.insert(2, ("bench.host_wall_s", "s", "lower", None))
        for name, unit, better, bound in rows:
            a = [r[name] for r in sides["A"] if name in r]
            b = [r[name] for r in sides["B"] if name in r]
            if not a or not b:
                continue
            if bound is None:
                gap, word = verdict(a, b, better, float("inf"))
                word, shown = "(raw, not gated)", ""
            else:
                gap, word = verdict(a, b, better, bound)
                shown = f"{bound:.3f}"
            failed |= word == "FAIL"
            print(f"{name:20s} {unit:7s} {statistics.median(a):12.6g} "
                  f"{statistics.median(b):12.6g} {spread(a):9.4f} "
                  f"{spread(b):9.4f} {gap:+8.4f} {shown:>6s}  {word}")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
