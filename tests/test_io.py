"""Unit tests for edge-list I/O."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.graphs.graph import Graph
from repro.graphs.io import iter_edge_list, read_edge_list, write_edge_list


def test_roundtrip(tmp_path, triangle):
    path = tmp_path / "tri.txt"
    write_edge_list(triangle, path, header="a triangle")
    back = read_edge_list(path)
    assert back == triangle
    text = path.read_text()
    assert text.startswith("# a triangle")


def test_gzip_roundtrip(tmp_path, triangle):
    path = tmp_path / "tri.txt.gz"
    write_edge_list(triangle, path)
    with gzip.open(path, "rt") as handle:
        assert "0\t1" in handle.read()
    assert read_edge_list(path) == triangle


def test_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n% other comment\n\n1 2\n2 3\n")
    g = read_edge_list(path)
    assert g.num_edges == 2


def test_extra_fields_ignored(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 1590000000\n")
    assert read_edge_list(path).has_edge(1, 2)


def test_duplicates_and_loops_dropped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n2 1\n1 1\n")
    g = read_edge_list(path)
    assert g.num_edges == 1


def test_self_loop_only_vertex_kept(tmp_path):
    """Regression: a vertex whose only data line is a self-loop must
    still exist in the loaded graph (as an isolated vertex), not vanish."""
    path = tmp_path / "g.txt"
    path.write_text("5 5\n1 2\n2 1\n3 3\n1 1\n")
    g = read_edge_list(path)
    assert set(g.vertices()) == {1, 2, 3, 5}
    assert g.num_edges == 1
    assert g.degree(3) == 0
    assert g.degree(5) == 0
    assert g.has_edge(1, 2)


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1\n")
    with pytest.raises(ParseError, match="expected two fields"):
        read_edge_list(path)


def test_non_integer_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\n")
    with pytest.raises(ParseError, match="non-integer"):
        list(iter_edge_list(path))


def test_write_sorted_and_counted(tmp_path):
    g = Graph.from_edges([(3, 1), (2, 1)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["1\t2", "1\t3"]
    assert "# nodes: 3 edges: 2" in path.read_text()


@settings(max_examples=200, database=None, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_parse_or_raise_parse_error(tmp_path_factory, data):
    """Any byte string loads as a graph or fails as ``ParseError``, nothing else."""
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    path.write_bytes(data)
    try:
        graph = read_edge_list(path)
    except ParseError:
        return
    assert isinstance(graph, Graph)
