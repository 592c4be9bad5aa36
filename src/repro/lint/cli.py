"""``python -m repro.lint`` / ``repro-lint`` — the linter's front door.

Static pass::

    python -m repro.lint src/repro              # lint the package
    python -m repro.lint --list-rules           # show the rule set
    python -m repro.lint src --disable SIM005   # drop one rule
    python -m repro.lint src --json             # machine-readable output
    python -m repro.lint src --sarif out.sarif  # GitHub code scanning
    python -m repro.lint src --cache .lint-cache.json   # incremental
    python -m repro.lint src --write-baseline   # accept current findings

A committed ``lint-baseline.json`` next to the current working directory
is picked up automatically; findings recorded there don't fail the run,
anything new does.

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

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.dynamic import WORKLOADS, check_determinism
from repro.lint.engine import format_human, format_json, lint_tree
from repro.lint.rules import RULES, get_rules
from repro.lint.sarif import format_sarif


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
        "--sarif", metavar="FILE",
        help="also write the findings as SARIF 2.1.0 to FILE "
             "('-' for stdout)")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline of accepted findings (default: auto-detect "
             f"./{DEFAULT_BASELINE}; pass an empty string to disable)")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0")
    parser.add_argument(
        "--cache", metavar="FILE",
        help="incremental-analysis cache (e.g. .lint-cache.json); "
             "unchanged files are not re-parsed")
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
    violations, _stats = lint_tree(paths, rules, cache_path=args.cache)

    baseline_path: Path | None = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not args.write_baseline and not baseline_path.exists():
            print(f"error: no such baseline: {baseline_path}",
                  file=sys.stderr)
            return 2
    elif args.baseline is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = Path(DEFAULT_BASELINE)

    if args.write_baseline:
        target = baseline_path if baseline_path is not None \
            else Path(DEFAULT_BASELINE)
        entries = write_baseline(violations, target)
        print(f"wrote {target} ({len(entries)} fingerprint"
              f"{'s' if len(entries) != 1 else ''}, "
              f"{len(violations)} finding"
              f"{'s' if len(violations) != 1 else ''})")
        return 0

    suppressed = 0
    if baseline_path is not None:
        violations, suppressed, stale = apply_baseline(
            violations, load_baseline(baseline_path))
        for fp in stale:
            print(f"note: stale baseline entry (finding fixed?): {fp}",
                  file=sys.stderr)

    if args.sarif:
        sarif_text = format_sarif(violations, rules)
        if args.sarif == "-":
            print(sarif_text, end="")
        else:
            Path(args.sarif).write_text(sarif_text, encoding="utf-8")
    if not (args.sarif == "-"):
        print(format_json(violations) if args.json
              else format_human(violations))
        if suppressed and not args.json:
            print(f"repro-lint: {suppressed} baselined finding"
                  f"{'s' if suppressed != 1 else ''} suppressed")
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
