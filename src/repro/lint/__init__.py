"""repro.lint — simulation-invariant static analysis.

The reproduction's correctness story rests on one property: a seeded run
repeats bit for bit.  Golden sim-time pins and the committed determinism
ledger (:mod:`repro.obs.determinism`, ``repro lint --dynamic pagerank``)
check it at run time; this package keeps the hazards they cannot see.

:mod:`repro.lint.engine` + :mod:`repro.lint.rules` are an AST-based pass
(SIM001 wall-clock reads, SIM005 closures that mutate driver state) with
``# repro-lint: disable=RULE`` suppressions and JSON / human output,
plus a flow-sensitive rule (:mod:`repro.lint.cfg`,
:mod:`repro.lint.rules_flow`: SIM101).  Every rule runs on every module.
Run it with ``repro lint src/repro``; ``docs/static-analysis.md`` has
the census that decides which hazards need a rule.
"""

from repro.lint.engine import (
    LintEngine,
    Violation,
    format_human,
    format_json,
    lint_paths,
)
from repro.lint.rules import RULES, Rule
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
]
