"""Rule engine for the simulation-invariant linter.

One :class:`LintEngine` holds an ordered set of rules (see
:mod:`repro.lint.rules`); :meth:`LintEngine.lint_source` parses a module
once, hands the tree to every rule, and filters the resulting
:class:`Violation` list through the file's suppression comments.  Every
rule runs on every module.

Suppression syntax (checked per physical line, comma-separated rule ids):

* ``# repro-lint: disable=SIM001`` — suppress on this line only.
* ``# repro-lint: disable=SIM001,SIM005`` — several rules at once.
* ``# repro-lint: disable-file=SIM001`` — suppress for the whole file
  (conventionally placed near the top, with a comment saying why).
* ``disable=all`` / ``disable-file=all`` — every rule.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.lint.rules import RULES, Rule, Violation

# Importing the flow rules registers SIM101 alongside the syntactic
# rules, so every engine user sees the full rule set.
import repro.lint.rules_flow  # noqa: F401  (registration side effect)

#: Matches one suppression comment; group 1 = "disable" | "disable-file",
#: group 2 = comma-separated rule ids (or "all").
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def _parse_suppressions(
    source: str,
) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Extract (file-wide suppressed ids, per-line suppressed ids)."""
    file_wide: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in text:
            continue
        for match in _SUPPRESS_RE.finditer(text):
            kind = match.group(1)
            ids = {r.strip().upper() for r in match.group(2).split(",")}
            if "ALL" in ids:
                ids = {"ALL"}
            if kind == "disable-file":
                file_wide |= ids
            else:
                per_line.setdefault(lineno, set()).update(ids)
    return file_wide, per_line


def _suppressed(v: Violation, file_wide: Set[str],
                per_line: Dict[int, Set[str]]) -> bool:
    if "ALL" in file_wide or v.rule_id in file_wide:
        return True
    line_ids = per_line.get(v.line, ())
    return "ALL" in line_ids or v.rule_id in line_ids


class LintEngine:
    """Runs a set of rules over python sources and collects violations."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: List[Rule] = list(rules if rules is not None
                                      else RULES.values())

    def lint_source(self, source: str, path: str) -> List[Violation]:
        """Lint one module given as text; ``path`` is what violations
        report."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [Violation("SIM000", path, exc.lineno or 0,
                              exc.offset or 0, f"syntax error: {exc.msg}")]
        file_wide, per_line = _parse_suppressions(source)
        out: List[Violation] = []
        for rule in self.rules:
            for node, message in rule.check(tree):
                v = Violation(rule.id, path, getattr(node, "lineno", 0),
                              getattr(node, "col_offset", 0), message)
                if not _suppressed(v, file_wide, per_line):
                    out.append(v)
        out.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
        return out


def iter_python_files(paths: Iterable[str | Path]) -> List[Path]:
    """Expand files/directories into a list of ``.py`` files, sorted."""
    out: List[Path] = []
    for p in paths:
        p = Path(p)
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[Rule] | None = None) -> List[Violation]:
    """Lint every ``.py`` file under ``paths``; returns all violations."""
    engine = LintEngine(rules)
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(engine.lint_source(
            path.read_text(encoding="utf-8"), str(path)))
    return violations


def format_human(violations: Sequence[Violation]) -> str:
    """One line per violation plus a summary line."""
    lines = [v.format() for v in violations]
    n = len(violations)
    lines.append(
        "repro-lint: clean" if n == 0
        else f"repro-lint: {n} violation{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def format_json(violations: Sequence[Violation]) -> str:
    """The violation list as a JSON document."""
    return json.dumps(
        {"violations": [v.to_dict() for v in violations],
         "count": len(violations)},
        indent=2,
    )
