"""``python -m repro.lint`` / ``repro-lint`` — the linter's front door.

Static pass::

    python -m repro.lint src/repro              # lint the package
    python -m repro.lint --list-rules           # show the rule set
    python -m repro.lint src --disable SIM005   # drop one rule
    python -m repro.lint src --json             # machine-readable output

Dynamic pass::

    python -m repro.lint --dynamic pagerank graphsage --strict
    python -m repro.lint --dynamic pagerank --seed 7 --fail-on-races

Exit codes: 0 clean, 1 violations / determinism failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.dynamic import WORKLOADS, check_determinism
from repro.lint.engine import format_human, format_json, lint_paths
from repro.lint.rules import RULES, get_rules


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=("Simulation-invariant static analyzer and "
                     "determinism harness for the PSGraph reproduction."),
        epilog=("Suppress a finding with `# repro-lint: disable=RULE` on "
                "the offending line, or `# repro-lint: disable-file=RULE` "
                "for a whole module.  See docs/static-analysis.md."),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of human-readable lines")
    parser.add_argument(
        "--enable", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--disable", metavar="RULES",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    parser.add_argument(
        "--dynamic", nargs="+", metavar="WORKLOAD",
        choices=sorted(WORKLOADS),
        help="run the determinism harness on these workloads instead of "
             f"the static pass (choices: {', '.join(sorted(WORKLOADS))})")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for the determinism harness (default: the repo seed)")
    parser.add_argument(
        "--strict", action="store_true",
        help="determinism: fail on any float drift > 0 between the runs")
    parser.add_argument(
        "--fail-on-races", action="store_true",
        help="determinism: also fail when unsynchronized PS access "
             "windows are observed (default: report only)")
    return parser


def _run_static(args: argparse.Namespace) -> int:
    try:
        rules = get_rules(
            args.enable.split(",") if args.enable else None,
            args.disable.split(",") if args.disable else None,
        )
    except KeyError as exc:
        print(f"error: unknown rule {exc.args[0]} "
              f"(known: {', '.join(sorted(RULES))})", file=sys.stderr)
        return 2
    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    violations = lint_paths(paths, rules)
    print(format_json(violations) if args.json
          else format_human(violations))
    return 1 if violations else 0


def _run_dynamic(args: argparse.Namespace) -> int:
    from repro.common.rng import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    reports = []
    failed = False
    for name in args.dynamic:
        report = check_determinism(name, seed, strict=args.strict)
        reports.append(report)
        if not report.ok or (args.fail_on_races and report.races):
            failed = True
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.describe())
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.name:22s} {rule.description}")
        return 0
    if args.dynamic:
        return _run_dynamic(args)
    return _run_static(args)


if __name__ == "__main__":
    sys.exit(main())
