"""Tests for the command-line submission tool."""

import pytest

from repro.cli import ALGORITHMS, build_parser, main, make_algorithm
from repro.datasets.generators import community_graph, powerlaw_graph


@pytest.fixture
def edge_file(tmp_path):
    src, dst = powerlaw_graph(100, 500, seed=81)
    path = tmp_path / "edges.tsv"
    path.write_text(
        "\n".join(f"{s}\t{d}" for s, d in zip(src, dst)) + "\n"
    )
    return str(path)


class TestParser:
    def test_all_algorithms_constructible(self):
        parser = build_parser()
        for name in ALGORITHMS:
            args = parser.parse_args([name, "--input", "x"])
            assert make_algorithm(args) is not None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sorting-hat", "--input", "x"])

    def test_input_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank"])


class TestMain:
    def test_pagerank_end_to_end(self, edge_file, tmp_path, capsys):
        out = tmp_path / "ranks.tsv"
        code = main([
            "pagerank", "--input", edge_file, "--output", str(out),
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
            "kcore", "--input", edge_file,
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
            "fast-unfolding", "--input", str(path), "--weighted",
            "--executors", "3", "--servers", "2",
        ])
        assert code == 0
        assert "modularity" in capsys.readouterr().out


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
        from repro.cli import main

        code = main([
            "line", "--input", edge_file, "--dim", "4", "--epochs", "1",
            "--executors", "2", "--servers", "2",
        ])
        assert code == 0
        assert "sim time" in capsys.readouterr().out

    def test_deepwalk_via_cli(self, edge_file, capsys):
        from repro.cli import main

        code = main([
            "deepwalk", "--input", edge_file, "--dim", "4",
            "--epochs", "1", "--executors", "2", "--servers", "2",
        ])
        assert code == 0

    def test_connected_components_via_cli(self, edge_file, capsys):
        from repro.cli import main

        code = main([
            "connected-components", "--input", edge_file,
            "--executors", "2", "--servers", "2",
        ])
        assert code == 0
        assert "num_components" in capsys.readouterr().out
