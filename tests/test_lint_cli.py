"""CLI surface of ``repro lint``, and every documented ``repro`` command."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


def test_list_rules_exits_zero(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM005", "SIM101"):
        assert rule_id in out


def test_clean_tree_exits_zero(tmp_path, capsys):
    pkg = tmp_path / "repro" / "ps"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("x = 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_violations_exit_one_and_json(tmp_path, capsys):
    pkg = tmp_path / "repro" / "ps"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    assert main(["lint", str(tmp_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["violations"][0]["rule"] == "SIM001"


def test_missing_path_is_usage_error():
    assert main(["lint", "definitely/not/here"]) == 2


def test_cli_list_rules_includes_flow_tier(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == ["SIM001", "SIM005", "SIM101"]


_COMMAND = (r"(?:python -m repro|repro) "
            r"(?:run|serve|stream|report|lint|experiments)\b[^`\n]*")


def _documented_commands():
    """Every ``repro`` command line the docs and CI tell a reader to run.

    Inline code spans may wrap across prose lines; fenced blocks and the
    workflow hold one command per (backslash-continued) line.  Spans with
    a ``<placeholder>`` or an ellipsis are prose, not commands.  A
    workflow expression (``${{ matrix.alerts }}``) stands for one integer.
    """
    files = [REPO / "README.md", REPO / "EXPERIMENTS.md",
             *sorted((REPO / "docs").glob("*.md")),
             REPO / ".github" / "workflows" / "ci.yml"]
    for path in files:
        text = path.read_text(encoding="utf-8").replace("\\\n", " ")
        text = re.sub(r"\$\{\{[^}]*\}\}", "0", text)
        spans = re.findall(rf"`({_COMMAND}(?:\n[^`\n]*)*)`", text)
        lines = re.findall(
            rf"^\s*(?:[\w-]+:\s*|- )?(?:PYTHONPATH=\S+\s+)?({_COMMAND})$",
            text, re.MULTILINE)
        for command in spans + lines:
            if not re.search(r"<|…", command):
                yield path.name, " ".join(command.split())


def test_documented_commands_parse():
    commands = list(_documented_commands())
    assert {name for name, _ in commands} >= {
        "README.md", "static-analysis.md", "observability.md", "serving.md",
        "streaming.md", "fault-tolerance.md", "EXPERIMENTS.md", "ci.yml"}
    parser = build_parser()
    for name, command in commands:
        argv = shlex.split(command, comments=True)
        argv = argv[3:] if argv[0] == "python" else argv[1:]
        if len(argv) == 1:
            continue  # a bare subcommand name in prose
        try:
            # --dynamic's `choices` holds each workload name to WORKLOADS.
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name} documents a command the CLI rejects: "
                        f"{command}")
