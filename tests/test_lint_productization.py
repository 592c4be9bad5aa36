"""Baseline, SARIF, and incremental-cache behavior of the linter.

The SARIF checks validate the emitted log against the structural core
of the 2.1.0 schema (required properties and types, hand-rolled —
the CI image carries no ``jsonschema``); the cache tests assert the
parse counter, which is the property the CI timing budget rests on.
"""

import json
import textwrap
from pathlib import Path

from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.engine import LintEngine, lint_tree
from repro.lint.rules import Violation, get_rules
from repro.lint.sarif import SARIF_VERSION, format_sarif, to_sarif


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _violation(rule="SIM103", path="dataflow/fake.py", line=4,
               message="`gather` moves bytes"):
    return Violation(rule, path, line, 0, message)


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------

def test_baseline_roundtrip(tmp_path):
    vs = [_violation(), _violation(line=9)]  # same fingerprint, count 2
    path = tmp_path / "baseline.json"
    entries = write_baseline(vs, path)
    assert entries == {fingerprint(vs[0]): 2}
    assert load_baseline(path) == entries


def test_apply_baseline_budgets_per_fingerprint(tmp_path):
    accepted = _violation()
    entries = {fingerprint(accepted): 1}
    # One matching finding is absorbed; the second identical one and
    # the unrelated one are new.
    vs = [accepted, _violation(line=30),
          _violation(rule="SIM105", message="leak")]
    fresh, suppressed, stale = apply_baseline(vs, entries)
    assert suppressed == 1
    assert [v.rule_id for v in fresh] == ["SIM103", "SIM105"]
    assert stale == []


def test_apply_baseline_reports_stale_entries():
    gone = _violation(message="fixed long ago")
    fresh, suppressed, stale = apply_baseline(
        [], {fingerprint(gone): 1})
    assert fresh == [] and suppressed == 0
    assert stale == [fingerprint(gone)]


def test_fingerprint_ignores_line_numbers():
    assert fingerprint(_violation(line=4)) == fingerprint(_violation(line=40))
    assert fingerprint(_violation(message="a")) \
        != fingerprint(_violation(message="b"))


# ----------------------------------------------------------------------
# SARIF 2.1.0 structural validation
# ----------------------------------------------------------------------

def _validate_sarif_core(doc):
    """Required-property subset of the SARIF 2.1.0 schema."""
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert isinstance(doc["runs"], list) and doc["runs"]
    for run in doc["runs"]:
        driver = run["tool"]["driver"]  # tool.driver is required
        assert isinstance(driver["name"], str) and driver["name"]
        for rule in driver.get("rules", []):
            assert isinstance(rule["id"], str)
            assert isinstance(rule["shortDescription"]["text"], str)
            assert rule["defaultConfiguration"]["level"] in (
                "none", "note", "warning", "error")
        for result in run.get("results", []):
            assert isinstance(result["message"]["text"], str)
            assert result["level"] in ("none", "note", "warning", "error")
            if "ruleIndex" in result:
                assert driver["rules"][result["ruleIndex"]]["id"] \
                    == result["ruleId"]
            for loc in result.get("locations", []):
                phys = loc["physicalLocation"]
                uri = phys["artifactLocation"]["uri"]
                assert isinstance(uri, str) and "\\" not in uri
                region = phys["region"]
                assert region["startLine"] >= 1   # 1-based per spec
                assert region["startColumn"] >= 1


def test_sarif_log_validates_and_maps_findings():
    rules = get_rules()
    vs = [
        _violation(),
        _violation(rule="SIM105", path="obs\\tracer.py", line=0,
                   message="leak"),
    ]
    doc = to_sarif(vs, rules)
    _validate_sarif_core(doc)
    results = doc["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["SIM103", "SIM105"]
    # Windows separators are normalized, 0-based cols shift to 1-based,
    # line 0 (whole-file findings) clamps to the schema minimum of 1.
    assert results[1]["locations"][0]["physicalLocation"][
        "artifactLocation"]["uri"] == "obs/tracer.py"
    assert results[1]["locations"][0]["physicalLocation"][
        "region"]["startLine"] == 1
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert "SIM001" in rule_ids and "SIM103" in rule_ids


def test_format_sarif_is_json_with_trailing_newline():
    text = format_sarif([_violation()], get_rules())
    assert text.endswith("\n")
    _validate_sarif_core(json.loads(text))


def test_sarif_empty_run_is_still_valid():
    _validate_sarif_core(to_sarif([], get_rules()))


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------

_CLEAN = """\
    def scale(values, k):
        return [v * k for v in values]
"""

_DIRTY = """\
    import numpy as np

    def gather(tctx, parts):
        out = np.concatenate(parts)
        return out
"""


def _tree(tmp_path):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    _write(tmp_path, "pkg/dataflow/b.py", _DIRTY)
    _write(tmp_path, "pkg/dataflow/c.py", "VERSION = 1\n")
    return tmp_path / "pkg"


def test_cold_run_parses_everything_and_finds(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    eng = LintEngine(get_rules())
    vs, stats = lint_tree([root], cache_path=cache, engine=eng)
    assert stats == {"files": 3, "parsed": 3, "reused": 0}
    assert [v.rule_id for v in vs] == ["SIM103"]
    assert cache.exists()


def test_warm_run_parses_nothing(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    lint_tree([root], cache_path=cache)
    eng = LintEngine(get_rules())
    vs, stats = lint_tree([root], cache_path=cache, engine=eng)
    assert stats == {"files": 3, "parsed": 0, "reused": 3}
    # Cached verdicts replay identically, including the finding.
    assert [v.rule_id for v in vs] == ["SIM103"]


def test_touched_file_is_the_only_reparse(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    lint_tree([root], cache_path=cache)
    # A comment-only edit changes the hash but no function summary,
    # so the digest holds and the other files replay from cache.
    target = root / "dataflow" / "c.py"
    target.write_text(target.read_text() + "# release notes\n")
    eng = LintEngine(get_rules())
    vs, stats = lint_tree([root], cache_path=cache, engine=eng)
    assert stats == {"files": 3, "parsed": 1, "reused": 2}
    assert [v.rule_id for v in vs] == ["SIM103"]


def test_summary_change_invalidates_cross_file_verdicts(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    _write(tmp_path, "pkg/dataflow/d.py", """\
        from repro.dataflow.b import gather

        def stage(tctx, parts):
            return gather(tctx, parts)
    """)
    lint_tree([root], cache_path=cache)
    # Fix b.py: gather now charges.  d.py's bytes no longer flow from
    # an unmetered callee, so its verdict must be recomputed even
    # though d.py itself did not change.
    _write(tmp_path, "pkg/dataflow/b.py", """\
        import numpy as np

        def gather(tctx, parts):
            out = np.concatenate(parts)
            tctx.cost.cpu_s += out.nbytes * 1e-9
            return out
    """)
    eng = LintEngine(get_rules())
    vs, stats = lint_tree([root], cache_path=cache, engine=eng)
    assert vs == []
    assert stats["files"] == 4
    assert stats["reused"] == 0       # digest moved: no verdict reuse
    assert stats["parsed"] == 4       # unchanged files re-checked too


def test_cache_rejected_on_ruleset_change(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    lint_tree([root], cache_path=cache, rules=get_rules())
    eng = LintEngine(get_rules(disable=["SIM103"]))
    vs, stats = lint_tree([root], cache_path=cache, engine=eng)
    assert stats["parsed"] == 3       # different ruleset: cold start
    assert vs == []


def test_corrupt_cache_is_ignored(tmp_path):
    root = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{not json", encoding="utf-8")
    vs, stats = lint_tree([root], cache_path=cache)
    assert stats["parsed"] == 3
    assert [v.rule_id for v in vs] == ["SIM103"]
    json.loads(cache.read_text())     # rewritten as a valid cache


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def test_cli_sarif_file_output(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/b.py", _DIRTY)
    out = tmp_path / "findings.sarif"
    code = main([str(tmp_path / "pkg"), "--sarif", str(out),
                 "--baseline", ""])
    assert code == 1
    doc = json.loads(out.read_text())
    _validate_sarif_core(doc)
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["SIM103"]


def test_cli_sarif_stdout(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    code = main([str(tmp_path / "pkg"), "--sarif", "-", "--baseline", ""])
    assert code == 0
    _validate_sarif_core(json.loads(capsys.readouterr().out))


def test_cli_write_then_apply_baseline(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/b.py", _DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main([str(tmp_path / "pkg"), "--write-baseline",
                 "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    # The accepted finding no longer fails the run...
    assert main([str(tmp_path / "pkg"),
                 "--baseline", str(baseline)]) == 0
    assert "1 baselined finding suppressed" in capsys.readouterr().out
    # ...but a new one still does.
    _write(tmp_path, "pkg/dataflow/e.py", """\
        import random

        def place(ps, keys):
            jitter = random.random()
            ps.push(keys, jitter)
    """)
    assert main([str(tmp_path / "pkg"), "--enable",
                 "SIM103,SIM104", "--baseline", str(baseline)]) == 1


def test_cli_missing_baseline_is_usage_error(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    code = main([str(tmp_path / "pkg"),
                 "--baseline", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no such baseline" in capsys.readouterr().err


def test_cli_stale_baseline_entry_noted(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    baseline = tmp_path / "baseline.json"
    write_baseline([_violation()], baseline)
    code = main([str(tmp_path / "pkg"), "--baseline", str(baseline)])
    assert code == 0
    assert "stale baseline entry" in capsys.readouterr().err


def test_cli_cache_flag_roundtrip(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    cache = tmp_path / ".lint-cache.json"
    args = [str(tmp_path / "pkg"), "--cache", str(cache), "--baseline", ""]
    assert main(args) == 0
    doc = json.loads(cache.read_text())
    assert doc["version"] == 1 and doc["files"]
    assert main(args) == 0            # warm run replays cleanly


def test_cli_unknown_rule_lists_known_ids(tmp_path, capsys):
    _write(tmp_path, "pkg/dataflow/a.py", _CLEAN)
    code = main([str(tmp_path / "pkg"), "--enable", "SIM999"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "SIM103" in err


def test_cli_list_rules_includes_flow_tier(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM101", "SIM103", "SIM104", "SIM105"):
        assert rule_id in out
