"""repro.lint — simulation-invariant static analysis and dynamic checks.

The reproduction's correctness story rests on invariants no generic linter
knows about: simulated time must come from :class:`~repro.common.simclock.
SimClock` / :class:`~repro.common.simclock.TaskCost` (never the wall clock),
randomness from seeded :mod:`repro.common.rng` streams, IO from the metered
:mod:`repro.hdfs` / RPC fabric, and every run must be bit-for-bit
deterministic so GraphX-vs-PS comparisons stay trustworthy.

Three layers enforce this:

* :mod:`repro.lint.engine` + :mod:`repro.lint.rules` — an AST-based static
  pass (rules SIM001..SIM005) with ``# repro-lint: disable=RULE``
  suppressions and JSON / human output — plus a flow-sensitive rule
  (:mod:`repro.lint.cfg`, :mod:`repro.lint.rules_flow`: SIM101).
* :mod:`repro.lint.dynamic` — a determinism harness that runs a workload
  twice with the same seed and diffs metrics snapshots and obs span
  sequences (``--strict`` fails on any float drift).
* :mod:`repro.lint.races` — a happens-before replay of PS push/pull spans
  that flags stale-read and lost-update windows of async training.

Run both from the command line: ``repro lint src/repro`` or
``repro lint --dynamic pagerank --strict``.  See
``docs/static-analysis.md``.
"""

from repro.lint.engine import (
    LintEngine,
    Violation,
    format_human,
    format_json,
    lint_paths,
)
from repro.lint.rules import RULES, Rule, all_rules, get_rules
from repro.lint.cfg import CFG, build_cfg, cfg_for_source
from repro.lint.dynamic import (
    DeterminismReport,
    RunSnapshot,
    WORKLOADS,
    check_determinism,
    run_workload,
)
from repro.lint.races import (
    FENCE_BARRIER,
    FENCE_STAGE,
    PsAccess,
    RaceReport,
    extract_accesses,
    extract_fences,
    find_races,
    happens_before,
)

__all__ = [
    "LintEngine",
    "Violation",
    "format_human",
    "format_json",
    "lint_paths",
    "CFG",
    "build_cfg",
    "cfg_for_source",
    "RULES",
    "Rule",
    "all_rules",
    "get_rules",
    "DeterminismReport",
    "RunSnapshot",
    "WORKLOADS",
    "check_determinism",
    "run_workload",
    "FENCE_BARRIER",
    "FENCE_STAGE",
    "PsAccess",
    "RaceReport",
    "extract_accesses",
    "extract_fences",
    "find_races",
    "happens_before",
]
