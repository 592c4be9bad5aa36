"""Micro-benchmark runner: emits and checks ``BENCH_psgraph.json``.

Usage::

    python benchmarks/micro/runner.py --quick --out BENCH_psgraph.json
    python benchmarks/micro/runner.py --quick --out /tmp/new.json \
        --check BENCH_psgraph.json --max-regression 0.30

The regression check compares per-case *speedups* (batched vs boxed in
the same process), not absolute seconds, so it is robust to the host CI
runner being faster or slower than the machine that produced the
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from benchmarks.micro.cases import CASES, run_cases  # noqa: E402


def check_regression(results: list, baseline_path: Path,
                     max_regression: float) -> list:
    """Per-case speedup regressions beyond the threshold; empty = pass."""
    baseline = json.loads(baseline_path.read_text())
    base_by_name = {c["name"]: c for c in baseline.get("cases", [])}
    failures = []
    for case in results:
        base = base_by_name.get(case["name"])
        if base is None:
            continue
        floor = base["speedup"] * (1.0 - max_regression)
        if case["speedup"] < floor:
            failures.append(
                f"{case['name']}: speedup {case['speedup']:.2f}x < "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                f"- {max_regression:.0%} allowance)"
            )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small record counts (CI smoke mode)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_psgraph.json"),
                        help="where to write the results JSON")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="baseline JSON to compare speedups against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="tolerated fractional speedup drop (default 0.30)")
    parser.add_argument("--case", action="append", dest="cases",
                        choices=sorted(CASES), default=None,
                        help="run only this case (repeatable)")
    parser.add_argument("--merge-metrics", default=None, metavar="BASELINE",
                        help="update only the per-case 'metrics' snapshots "
                             "in BASELINE, keeping its timing numbers "
                             "(the snapshots are simulated counters and "
                             "host-independent; the timings are not)")
    args = parser.parse_args(argv)

    results = run_cases(quick=args.quick, names=args.cases)

    if args.merge_metrics:
        base_path = Path(args.merge_metrics)
        baseline = json.loads(base_path.read_text())
        by_name = {c["name"]: c for c in results}
        for case in baseline.get("cases", []):
            fresh = by_name.get(case["name"])
            if fresh is not None:
                case["metrics"] = fresh["metrics"]
        base_path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"merged metrics snapshots into {base_path}")
        return 0
    payload = {
        "bench": "psgraph-columnar-micro",
        "mode": "quick" if args.quick else "full",
        "cases": results,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    width = max(len(c["name"]) for c in results)
    for c in results:
        print(f"{c['name']:{width}s}  {c['records']:>8,} rec  "
              f"boxed {c['boxed_s']:8.3f}s  batched {c['batched_s']:8.3f}s  "
              f"{c['speedup']:6.2f}x  {c['records_per_s']:>12,} rec/s")
    print(f"wrote {out_path}")

    if args.check:
        failures = check_regression(results, Path(args.check),
                                    args.max_regression)
        if failures:
            print("REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"regression check vs {args.check}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
