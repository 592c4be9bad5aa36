"""repro.lint — simulation-invariant static analysis.

The reproduction's correctness story rests on invariants no generic linter
knows about: simulated time must come from :class:`~repro.common.simclock.
SimClock` / :class:`~repro.common.simclock.TaskCost` (never the wall clock),
randomness from seeded :mod:`repro.common.rng` streams, and IO from the
metered :mod:`repro.hdfs` / RPC fabric.

:mod:`repro.lint.engine` + :mod:`repro.lint.rules` are an AST-based pass
(rules SIM001..SIM005) with ``# repro-lint: disable=RULE`` suppressions
and JSON / human output, plus a flow-sensitive rule
(:mod:`repro.lint.cfg`, :mod:`repro.lint.rules_flow`: SIM101).  Run it
with ``repro lint src/repro``; see ``docs/static-analysis.md``.  That
every run is bit-for-bit deterministic is checked at run time by
:mod:`repro.obs.determinism` (``repro lint --dynamic pagerank``).
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
]
