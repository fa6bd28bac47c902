"""Tests for the command-line interface."""

import gzip
import pickle

import pytest

from repro.cli import main
from repro.datasets.toy import figure2_graph
from repro.graphs.io import write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "fig2.txt"
    write_edge_list(figure2_graph(), path)
    return str(path)


class TestStats:
    def test_stats_from_edges(self, edge_file, capsys):
        assert main(["stats", "--edges", edge_file]) == 0
        out = capsys.readouterr().out
        assert "nodes   13" in out
        assert "k_max   4" in out

    def test_stats_from_dataset(self, capsys):
        assert main(["stats", "--dataset", "brightkite"]) == 0
        assert "nodes   1450" in capsys.readouterr().out

    def test_missing_source(self, capsys):
        assert main(["stats"]) == 2
        err = capsys.readouterr().err
        assert err == "error: provide --dataset NAME or --edges PATH\n"


class TestDecompose:
    def test_coreness_listing(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        assert lines[0] == "1\t1"

    def test_layers_listing(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file, "--layers"]) == 0
        out = capsys.readouterr().out
        assert "\t1,1" in out  # vertex 1 is (1, 1)


class TestAnchor:
    def test_gac(self, edge_file, capsys):
        assert main(["anchor", "--edges", edge_file, "-b", "1"]) == 0
        out = capsys.readouterr().out
        assert "anchors       2" in out
        assert "coreness_gain 4" in out

    def test_heuristic(self, edge_file, capsys):
        assert main(["anchor", "--edges", edge_file, "--method", "Deg", "-b", "2"]) == 0
        assert "coreness_gain" in capsys.readouterr().out

    def test_rand_seeded(self, edge_file, capsys):
        assert main(
            ["anchor", "--edges", edge_file, "--method", "Rand", "-b", "2", "--seed", "1"]
        ) == 0
        first = capsys.readouterr().out
        main(["anchor", "--edges", edge_file, "--method", "Rand", "-b", "2", "--seed", "1"])
        assert capsys.readouterr().out == first

    def test_olak_requires_k(self, edge_file, capsys):
        argv = ["anchor", "--edges", edge_file, "--method", "olak", "-b", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --k is required for olak\n"

    def test_olak(self, edge_file, capsys):
        assert main(
            ["anchor", "--edges", edge_file, "--method", "olak", "--k", "4", "-b", "1"]
        ) == 0
        assert "anchors       5" in capsys.readouterr().out


class TestCascade:
    def test_cascade(self, edge_file, capsys):
        assert main(
            ["cascade", "--edges", edge_file, "--k", "3", "--seeds", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "departed" in out and "rounds" in out

    def test_cascade_with_anchors(self, edge_file, capsys):
        assert main(
            [
                "cascade", "--edges", edge_file, "--k", "3",
                "--seeds", "7", "--anchors", "8",
            ]
        ) == 0
        assert "survivors" in capsys.readouterr().out


class TestBadInput:
    """Bad input exits 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        ("argv", "content"),
        [
            (["stats", "--dataset", "nope"], None),
            (["stats", "--edges", "{missing}"], None),
            (["stats", "--edges", "{file}"], b"foo\n"),
            (["stats", "--edges", "{file}"], b"\xff\xfe\n"),
            (["anchor", "--edges", "{edges}", "-b", "-1"], None),
            (["anchor", "--edges", "{edges}", "-b", "1", "--resume", "{file}"],
             b"not a checkpoint\n"),
            (["anchor", "--edges", "{edges}", "-b", "1", "--resume", "{file}"],
             pickle.dumps({"magic": "repro-checkpoint", "version": 1, "algo": "gac",
                           "fingerprint": "", "params": {}, "payload": {}})),
            (["stats", "--edges", "{gz}"], b"not gzip bytes\n"),
            (["stats", "--edges", "{gz}"], gzip.compress(b"0 1\n1 2\n" * 500)[:40]),
            (["anchor", "--edges", "{edges}", "-b", "1", "--checkpoint-every", "0"],
             None),
            (["anchor", "--edges", "{edges}", "--method", "olak", "--k", "0", "-b", "1"],
             None),
            (["cascade", "--edges", "{edges}", "--k", "3", "--seeds", "a,b"], None),
            (["cascade", "--edges", "{edges}", "--k", "3", "--seeds", "99"], None),
            (["cascade", "--edges", "{edges}", "--k", "3", "--seeds", "7",
              "--anchors", "8,99"], None),
            (["cascade", "--edges", "{edges}", "--k", "-1", "--seeds", "7"], None),
            (["stats", "--edges", "{dir}"], None),
            (["anchor", "--edges", "{edges}", "-b", "1", "--trace-out", "{file}"], None),
            (["anchor", "--edges", "{edges}", "-b", "1", "--workers", "-3"], None),
            (["anchor", "--edges", "{edges}", "--method", "olak", "--k", "3", "-b", "1",
              "--workers", "2"], None),
            (["anchor", "--edges", "{edges}", "--method", "Rand", "-b", "1",
              "--workers", "2"], None),
        ],
        ids=[
            "dataset",
            "missing-file",
            "parse",
            "not-utf8",
            "budget",
            "checkpoint",
            "v1-pickle-checkpoint",
            "not-gzip",
            "truncated-gzip",
            "checkpoint-every",
            "olak-k",
            "cascade-seeds",
            "cascade-unknown-seed",
            "cascade-unknown-anchor",
            "cascade-negative-k",
            "edges-directory",
            "trace-out-without-profile",
            "negative-workers",
            "olak-workers",
            "heuristic-workers",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, edge_file, capsys, argv, content):
        path = tmp_path / "input.txt"
        gz = tmp_path / "input.txt.gz"
        if content is not None:
            path.write_bytes(content)
            gz.write_bytes(content)
        paths = {
            "missing": tmp_path / "missing.txt",
            "file": path,
            "gz": gz,
            "edges": edge_file,
            "dir": tmp_path,
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "brightkite" in out and "livejournal" in out
