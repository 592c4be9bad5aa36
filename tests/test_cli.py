"""Tests for the ``repro`` command line."""

import argparse
import json
from pathlib import Path

import pytest

from repro.chaos import FaultSchedule
from repro.cli import ALGORITHMS, BUILTIN_FAULTS, build_parser, main
from repro.datasets.generators import community_graph, powerlaw_graph

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def edge_file(tmp_path):
    src, dst = powerlaw_graph(100, 500, seed=81)
    path = tmp_path / "edges.tsv"
    path.write_text(
        "\n".join(f"{s}\t{d}" for s, d in zip(src, dst)) + "\n"
    )
    return str(path)


def _settable(parser: argparse.ArgumentParser) -> int:
    n = 0
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        n += 1
        if isinstance(action, argparse._SubParsersAction):
            n += sum(_settable(p) for p in action.choices.values())
    return n


class TestParser:
    def test_all_algorithms_constructible(self):
        parser = build_parser()
        for name in ALGORITHMS:
            args = parser.parse_args(["run", name, "--input", "x"])
            assert ALGORITHMS[args.algorithm](args) is not None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sorting-hat", "--input", "x"])

    def test_input_required(self, capsys):
        assert main(["run", "pagerank"]) == 2
        assert "--input" in capsys.readouterr().err

    def test_each_command_keeps_its_own_defaults(self):
        parser = build_parser()
        run = parser.parse_args(["run", "pagerank", "--input", "x"])
        serve = parser.parse_args(["serve"])
        stream = parser.parse_args(["stream"])
        assert (run.seed, run.executors, run.servers, run.executor_gb) == \
            (1, 8, 4, 4.0)
        assert (serve.seed, serve.executors, serve.vertices, serve.edges,
                serve.executor_gb) == (7, 4, 2000, 8000, 1.0)
        assert (stream.seed, stream.vertices, stream.edges,
                stream.server_gb) == (7, 400, 1600, 0.25)

    def test_deleted_flags_are_rejected(self):
        parser = build_parser()
        for argv in (["serve", "--zipf", "1.2"], ["serve", "--dashboard", "x"],
                     ["serve", "--require-alert", "1"],
                     ["stream", "--no-full"], ["stream", "--base-edges", "9"],
                     ["stream", "--input", "x"],
                     ["run", "pagerank", "--input", "x", "--speculation"],
                     ["report", "t.json", "--top", "3"],
                     ["run", "pagerank", "--input", "x", "--trace", "t"],
                     ["serve", "--telemetry", "t"],
                     ["run", "pagerank", "--input", "x", "--metrics", "m"],
                     ["run", "pagerank", "--input", "x", "--timeline"],
                     ["serve", "--report-json", "r"],
                     ["stream", "--report-json", "r"],
                     ["lint", "--dynamic", "pagerank", "--strict"],
                     ["lint", "--dynamic", "pagerank", "--fail-on-races"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_at_most_fifty_three_settable_values(self):
        assert _settable(build_parser()) <= 53

    def test_experiments_parse(self):
        parser = build_parser()
        assert parser.parse_args(["experiments"]).which == "all"
        assert parser.parse_args(["experiments", "table2"]).which == "table2"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiments", "table9"])

    def test_committed_schedule_is_the_builtin_one(self):
        committed = FaultSchedule.load(str(REPO / "examples" /
                                           "chaos-schedule.json"))
        assert committed.faults == FaultSchedule(BUILTIN_FAULTS["run"]).faults


class TestMain:
    def test_pagerank_end_to_end(self, edge_file, tmp_path, capsys):
        out = tmp_path / "ranks.tsv"
        code = main([
            "run", "pagerank", "--input", edge_file, "--output", str(out),
            "--iterations", "5", "--executors", "3", "--servers", "2",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iterations: 5" in stdout
        lines = out.read_text().strip().split("\n")
        assert len(lines) > 50
        v, r = lines[0].split("\t")
        int(v)
        float(r)

    def test_kcore_summary(self, edge_file, capsys):
        code = main([
            "run", "kcore", "--input", edge_file,
            "--executors", "3", "--servers", "2",
        ])
        assert code == 0
        assert "num_vertices" in capsys.readouterr().out

    def test_weighted_fast_unfolding(self, tmp_path, capsys):
        src, dst, _ = community_graph(80, 3, avg_degree=8, seed=82)
        path = tmp_path / "w.tsv"
        path.write_text(
            "\n".join(f"{s}\t{d}\t1.0" for s, d in zip(src, dst)) + "\n"
        )
        code = main([
            "run", "fast-unfolding", "--input", str(path), "--weighted",
            "--executors", "3", "--servers", "2",
        ])
        assert code == 0
        assert "modularity" in capsys.readouterr().out

    def test_generated_graph_with_builtin_chaos(self, capsys):
        code = main([
            "run", "pagerank", "--vertices", "200", "--edges", "1000",
            "--iterations", "6", "--executors", "4", "--servers", "2",
            "--chaos",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: 2 fault(s) fired" in out
        assert "num_vertices: 200" in out


class TestBadInput:
    """An unreadable --input or --chaos is a usage error (exit 2), never
    a traceback; a failed gate keeps exit 1."""

    @pytest.mark.parametrize("command", [["run", "pagerank"], ["serve"]])
    def test_missing_input_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.tsv")
        assert main(command + ["--input", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nonexistent.tsv" in err

    @pytest.mark.parametrize("command", [["run", "pagerank"], ["serve"]])
    def test_malformed_chaos_schedule(self, command, edge_file, tmp_path,
                                      capsys):
        bad = tmp_path / "schedule.json"
        bad.write_text("{not json")
        assert main(command + ["--input", edge_file, "--chaos",
                               str(bad)]) == 2
        assert "invalid fault schedule JSON" in capsys.readouterr().err

    def test_unknown_fault_kind(self, edge_file, tmp_path, capsys):
        bad = tmp_path / "schedule.json"
        bad.write_text(json.dumps({"faults": [{"kind": "meteor"}]}))
        assert main(["run", "pagerank", "--input", edge_file,
                     "--chaos", str(bad)]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    @pytest.mark.parametrize("text, weighted, bad_line", [
        ("0\t1\nx\ty\n", False, 2),
        ("0\t1\n\n5\n", False, 3),
        ("0\t-5\n", False, 1),
        ("0\t1\t0.5\n", False, 1),
        ("0\t1\t0.5\n1\t2\n", True, 2),
        ("0\t1\theavy\n", True, 1),
    ])
    def test_malformed_input_line(self, text, weighted, bad_line, tmp_path,
                                  capsys):
        path = tmp_path / "edges.tsv"
        path.write_text(text)
        record = tmp_path / "record.json"
        argv = ["run", "pagerank", "--input", str(path),
                "--record", str(record)] + ["--weighted"] * weighted
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:{bad_line}: expected 'src dst")
        assert not record.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "pagerank", "--vertices", "0"], "need at least 2 vertices"),
        (["stream", "--executors", "0"], "num_executors must be positive"),
    ])
    def test_bad_setting_inside_a_pipeline(self, argv, message, tmp_path,
                                           capsys):
        record = tmp_path / "record.json"
        assert main(argv + ["--record", str(record)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not record.exists()


class TestStream:
    def test_end_to_end_gate_passes(self, tmp_path, capsys):
        record = tmp_path / "stream.json"
        code = main(["stream", "--vertices", "200", "--edges", "800",
                     "--windows", "2", "--embedding", "--max-ratio", "0.9",
                     "--record", str(record)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstrap :" in out and "window  2 :" in out
        assert "PASS      : cost ratio" in out
        views = tmp_path / "views"
        assert main(["report", str(record), "--out", str(views)]) == 0
        assert sorted(p.name for p in views.iterdir()) == [
            "metrics.json", "report.json", "timeline.txt", "trace.json"]
        doc = json.loads((views / "report.json").read_text())
        assert doc["schema"] == "repro.streaming/v1"
        assert len(doc["windows"]) == 2
        assert all(w["cost_full_s"] > 0 for w in doc["windows"])

    def test_gate_fails_above_the_ratio(self, capsys):
        code = main(["stream", "--vertices", "200", "--edges", "800",
                     "--windows", "1", "--max-ratio", "0.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "error: cost ratio" in captured.err

    def test_gate_fails_without_a_measured_window(self, capsys):
        # summary() reports a 0.0 ratio when no window ran; the gate must
        # not read that as a pass.
        code = main(["stream", "--vertices", "200", "--edges", "800",
                     "--windows", "0", "--max-ratio", "0.25"])
        assert code == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "no window measured a full recompute" in captured.err

    def test_same_flags_same_run(self, capsys):
        argv = ["stream", "--vertices", "150", "--edges", "600",
                "--windows", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCliEmbeddings:
    @pytest.fixture
    def edge_file(self, tmp_path):
        src, dst, _ = community_graph(60, 3, avg_degree=8, seed=103)
        path = tmp_path / "e.tsv"
        path.write_text(
            "\n".join(f"{s}\t{d}" for s, d in zip(src, dst)) + "\n"
        )
        return str(path)

    def test_line_via_cli(self, edge_file, capsys):
        code = main([
            "run", "line", "--input", edge_file, "--dim", "4",
            "--epochs", "1", "--executors", "2", "--servers", "2",
        ])
        assert code == 0
        assert "sim time" in capsys.readouterr().out

    def test_deepwalk_via_cli(self, edge_file, capsys):
        code = main([
            "run", "deepwalk", "--input", edge_file, "--dim", "4",
            "--epochs", "1", "--executors", "2", "--servers", "2",
        ])
        assert code == 0

    def test_connected_components_via_cli(self, edge_file, capsys):
        code = main([
            "run", "connected-components", "--input", edge_file,
            "--executors", "2", "--servers", "2",
        ])
        assert code == 0
        assert "num_components" in capsys.readouterr().out
