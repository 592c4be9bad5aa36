"""Rule engine for the simulation-invariant linter.

One :class:`LintEngine` holds an ordered set of rules (see
:mod:`repro.lint.rules`); :meth:`LintEngine.lint_source` parses a module
once, hands the tree to every rule, and filters the resulting
:class:`Violation` list through the file's suppression comments.

Suppression syntax (checked per physical line, comma-separated rule ids):

* ``# repro-lint: disable=SIM001`` — suppress on this line only.
* ``# repro-lint: disable=SIM001,SIM004`` — several rules at once.
* ``# repro-lint: disable-file=SIM001`` — suppress for the whole file
  (conventionally placed near the top, with a comment saying why).
* ``disable=all`` / ``disable-file=all`` — every rule.

Paths are matched against the *module-relative* path (``dataflow/rdd.py``,
``experiments/table1.py``) so rule scopes are stable no matter where the
repository checkout lives.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow import FunctionSummary, ProgramIndex
from repro.lint.rules import Rule, Violation, all_rules

# Importing the flow rules registers SIM101 and SIM103..SIM105 alongside the
# syntactic rules, so every engine user sees the full rule set.
import repro.lint.rules_flow  # noqa: F401  (registration side effect)

#: Matches one suppression comment; group 1 = "disable" | "disable-file",
#: group 2 = comma-separated rule ids (or "all").
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def module_relpath(path: str | Path, root: str | Path | None = None) -> str:
    """Path of ``path`` relative to the ``repro`` package, posix-style.

    Falls back to the path relative to ``root`` (the scanned directory),
    then to the bare file name, so rules written against package-relative
    fragments (``"common/"``, ``"experiments/"``) match regardless of the
    checkout location.
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return str(PurePosixPath(*parts[i + 1:]))
    if root is not None:
        try:
            return Path(path).resolve().relative_to(
                Path(root).resolve()
            ).as_posix()
        except ValueError:
            pass
    return Path(path).name


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
    """Runs a set of rules over python sources and collects violations.

    Attributes:
        parse_count: modules parsed through this engine — the
            incremental-mode tests assert a warm cache run re-parses
            only changed files by reading this counter.
    """

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None \
            else all_rules()
        self.parse_count = 0

    def ruleset_key(self) -> str:
        """Hash of the active rule set; part of the cache key, so a
        rule added, removed, or reworded invalidates cached verdicts."""
        h = hashlib.sha256()
        for rule in sorted(self.rules, key=lambda r: r.id):
            h.update(f"{rule.id}|{rule.description};".encode())
        return h.hexdigest()[:16]

    def _parse(self, source: str) -> ast.AST:
        self.parse_count += 1
        return ast.parse(source)

    def lint_source(self, source: str, relpath: str,
                    display_path: str | None = None,
                    program: ProgramIndex | None = None) -> List[Violation]:
        """Lint one module given as text.

        Args:
            source: the module source.
            relpath: package-relative path used for rule scoping.
            display_path: path to report in violations (defaults to
                ``relpath``).
            program: shared cross-module summaries for the flow rules;
                when omitted each flow rule builds a one-module index.
        """
        shown = display_path if display_path is not None else relpath
        try:
            tree = self._parse(source)
        except SyntaxError as exc:
            return [_syntax_violation(shown, exc)]
        return self.lint_parsed(tree, source, relpath, shown, program)

    def lint_parsed(self, tree: ast.AST, source: str, relpath: str,
                    shown: str,
                    program: ProgramIndex | None = None) -> List[Violation]:
        """Lint an already-parsed module (no parse counted here)."""
        file_wide, per_line = _parse_suppressions(source)
        out: List[Violation] = []
        for rule in self.rules:
            if not rule.applies_to(relpath):
                continue
            if program is not None \
                    and getattr(rule, "needs_program", False):
                raw = rule.check_flow(tree, relpath, program)
            else:
                raw = rule.check(tree, relpath)
            for v in raw:
                v = Violation(v.rule_id, shown, v.line, v.col, v.message)
                if not _suppressed(v, file_wide, per_line):
                    out.append(v)
        out.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
        return out

    def lint_file(self, path: str | Path,
                  root: str | Path | None = None) -> List[Violation]:
        """Lint one file on disk."""
        path = Path(path)
        return self.lint_source(
            path.read_text(encoding="utf-8"),
            module_relpath(path, root),
            display_path=str(path),
        )


def _syntax_violation(shown: str, exc: SyntaxError) -> Violation:
    return Violation(
        "SIM000", shown, exc.lineno or 0, exc.offset or 0,
        f"syntax error: {exc.msg}",
    )


def iter_python_files(paths: Iterable[str | Path]) -> List[Tuple[Path, Path]]:
    """Expand files/directories into (file, scan_root) pairs, sorted."""
    out: List[Tuple[Path, Path]] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend((f, p) for f in sorted(p.rglob("*.py")))
        else:
            out.append((p, p.parent))
    return out


# ----------------------------------------------------------------------
# whole-tree lint with shared summaries and an incremental cache
# ----------------------------------------------------------------------

#: Cache file format version; bump on layout changes.
_CACHE_VERSION = 1


@dataclass
class _FileEntry:
    """Working state for one file during :func:`lint_tree`."""

    display: str
    relpath: str
    sha: str
    source: str
    tree: ast.AST | None = None
    cached: Optional[dict] = None          # valid cache record, if any
    summaries: List[dict] = field(default_factory=list)
    syntax_error: Optional[Violation] = None


def _load_cache(cache_path: str | Path,
                ruleset_key: str) -> Optional[dict]:
    path = Path(cache_path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("version") != _CACHE_VERSION \
            or doc.get("ruleset") != ruleset_key:
        return None
    return doc


def lint_tree(paths: Iterable[str | Path],
              rules: Sequence[Rule] | None = None,
              cache_path: str | Path | None = None,
              engine: LintEngine | None = None,
              ) -> Tuple[List[Violation], Dict[str, int]]:
    """Lint a file tree with cross-module summaries, optionally cached.

    Two phases: first every module is summarized into one shared
    :class:`ProgramIndex` (parsing only files whose content hash misses
    the cache — unchanged files restore their serialized summaries),
    then each module is checked with the resolved index.  Cached
    *verdicts* are reused only while the resolved summary table's
    digest is unchanged: the flow rules read nothing else across file
    boundaries, so an edit that alters no function summary cannot
    change another file's findings — while an edit that does alter one
    forces a full re-check.

    Returns ``(violations, stats)`` with stats keys ``files`` (seen),
    ``parsed`` (modules actually parsed) and ``reused`` (files whose
    cached findings were reused verbatim).
    """
    eng = engine if engine is not None else LintEngine(rules)
    key = eng.ruleset_key()
    cache = _load_cache(cache_path, key) if cache_path else None
    cached_files: Dict[str, dict] = cache.get("files", {}) if cache else {}

    program = ProgramIndex()
    entries: List[_FileEntry] = []
    for path, root in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        entry = _FileEntry(
            display=str(path),
            relpath=module_relpath(path, root),
            sha=hashlib.sha256(source.encode("utf-8")).hexdigest(),
            source=source,
        )
        rec = cached_files.get(entry.display)
        if rec is not None and rec.get("sha") == entry.sha:
            entry.cached = rec
            entry.summaries = list(rec.get("summaries", ()))
            program.add_summaries(
                FunctionSummary.from_dict(d) for d in entry.summaries)
        else:
            try:
                entry.tree = eng._parse(source)
            except SyntaxError as exc:
                entry.syntax_error = _syntax_violation(entry.display, exc)
            else:
                entry.summaries = [
                    s.to_dict()
                    for s in program.add_module(entry.relpath, entry.tree)
                ]
        entries.append(entry)

    program.resolve()
    digest = program.digest()
    reuse_verdicts = cache is not None and cache.get("digest") == digest

    violations: List[Violation] = []
    out_files: Dict[str, dict] = {}
    reused = 0
    for entry in entries:
        if entry.syntax_error is not None:
            vs = [entry.syntax_error]
        elif entry.tree is None and entry.cached is not None \
                and reuse_verdicts:
            vs = [
                Violation(row["rule"], row["path"], row["line"],
                          row["col"], row["message"])
                for row in entry.cached.get("violations", ())
            ]
            reused += 1
        else:
            if entry.tree is None:
                # Unchanged file, but a summary somewhere moved: its
                # verdicts may now differ, so re-parse and re-check.
                try:
                    entry.tree = eng._parse(entry.source)
                except SyntaxError as exc:
                    entry.syntax_error = _syntax_violation(
                        entry.display, exc)
            if entry.syntax_error is not None:
                vs = [entry.syntax_error]
            else:
                vs = eng.lint_parsed(entry.tree, entry.source,
                                     entry.relpath, entry.display, program)
        violations.extend(vs)
        out_files[entry.display] = {
            "sha": entry.sha,
            "summaries": entry.summaries,
            "violations": [v.to_dict() for v in vs],
        }

    if cache_path is not None:
        Path(cache_path).write_text(
            json.dumps({
                "version": _CACHE_VERSION,
                "ruleset": key,
                "digest": digest,
                "files": out_files,
            }) + "\n",
            encoding="utf-8",
        )
    stats = {"files": len(entries), "parsed": eng.parse_count,
             "reused": reused}
    return violations, stats


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[Rule] | None = None) -> List[Violation]:
    """Lint every ``.py`` file under ``paths``; returns all violations.

    Cross-module summaries are shared (see :func:`lint_tree`), so the
    flow rules see the whole program even through this simpler API.
    """
    return lint_tree(paths, rules)[0]


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
