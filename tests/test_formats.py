"""Tests for the METIS / JSON serialization formats and the disk cache."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.cache import cache_path, clear_cache, load_cached
from repro.errors import GraphError, ParseError
from repro.graphs.formats import (
    read_adjacency_json,
    read_metis,
    write_adjacency_json,
    write_metis,
)
from repro.graphs.graph import Graph

from conftest import small_random_graph


class TestMetis:
    def test_roundtrip(self, tmp_path):
        g = small_random_graph(1)
        path = tmp_path / "g.metis"
        mapping = write_metis(g, path)
        back = read_metis(path)
        assert back.num_vertices == g.num_vertices
        assert back.num_edges == g.num_edges
        # structure preserved under the relabelling
        for u, v in g.edges():
            mu = next(i for i, w in mapping.items() if w == u)
            mv = next(i for i, w in mapping.items() if w == v)
            assert back.has_edge(mu, mv)

    def test_header(self, tmp_path, triangle):
        path = tmp_path / "t.metis"
        write_metis(triangle, path)
        assert path.read_text().splitlines()[0] == "3 3"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.metis"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_metis(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.metis"
        path.write_text("3\n1 2\n1\n2\n")
        with pytest.raises(ParseError, match="header"):
            read_metis(path)

    def test_line_count_mismatch(self, tmp_path):
        path = tmp_path / "c.metis"
        path.write_text("3 2\n2\n1\n")
        with pytest.raises(ParseError, match="adjacency lines"):
            read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "d.metis"
        path.write_text("2 1\n2\n5\n")
        with pytest.raises(ParseError, match="out of range"):
            read_metis(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "f.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(ParseError, match="m=5"):
            read_metis(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% a comment\n2 1\n2\n1\n")
        assert read_metis(path).num_edges == 1


class TestAdjacencyJson:
    def test_roundtrip(self, tmp_path):
        g = small_random_graph(2)
        path = tmp_path / "g.json"
        write_adjacency_json(g, path)
        assert read_adjacency_json(path) == g

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph()
        g.add_vertex(7)
        g.add_edge(1, 2)
        path = tmp_path / "iso.json"
        write_adjacency_json(g, path)
        assert read_adjacency_json(path) == g

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_adjacency_json(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "y.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError, match="object"):
            read_adjacency_json(path)

    def test_non_list_adjacency(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text('{"1": 5}')
        with pytest.raises(ParseError, match="not a list"):
            read_adjacency_json(path)

    @pytest.mark.parametrize(
        "data",
        [b'{"1": [[1]]}', b'{"1": [{}]}', '{"²": []}'.encode(), b"\xff\xfe",
         b'{"' + b"9" * 5000 + b'": []}', b"[" * 100_000],
        ids=["list-neighbor", "object-neighbor", "superscript-digit", "not-utf8",
             "huge-id", "deep-nesting"],
    )
    def test_bad_bytes_raise_parse_error_naming_the_path(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="bad.json"):
            read_adjacency_json(path)


@pytest.mark.parametrize("reader", [read_metis, read_adjacency_json])
@settings(max_examples=200, database=None, deadline=None)
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_parse_or_raise_parse_error(tmp_path_factory, reader, data):
    """Any byte string loads as a graph or fails as ``ParseError``, nothing else."""
    path = tmp_path_factory.mktemp("fuzz") / "g"
    path.write_bytes(data)
    try:
        graph = reader(path)
    except ParseError:
        return
    assert isinstance(graph, Graph)


@settings(max_examples=100, database=None, deadline=None)
@given(data=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
))
def test_arbitrary_json_parse_or_raise_parse_error(tmp_path_factory, data):
    """Adjacency JSON of any shape reaches the shape checks, not a crash."""
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    try:
        graph = read_adjacency_json(path)
    except ParseError:
        return
    assert isinstance(graph, Graph)


_LABELS = (
    st.integers(min_value=-(10**6), max_value=10**6)
    | st.text(max_size=4)
    | st.from_regex(r"-?[0-9]{1,3}", fullmatch=True)
)


@settings(max_examples=150, database=None, deadline=None)
@given(
    edges=st.lists(st.tuples(_LABELS, _LABELS), max_size=8),
    isolated=st.lists(_LABELS, max_size=3),
)
def test_adjacency_json_labels_round_trip_or_fail_at_write(
    tmp_path_factory, edges, isolated
):
    """int and str labels read back as themselves, or the write refuses."""
    g = Graph()
    for u in isolated:
        g.add_vertex(u)
    for u, v in edges:
        if u != v:
            g.add_edge_if_absent(u, v)
    path = tmp_path_factory.mktemp("labels") / "g.json"
    try:
        write_adjacency_json(g, path)
    except GraphError as exc:
        assert "\n" not in str(exc)
        assert not path.exists()
        # The refusal is earned: the unchecked payload does not read back.
        payload = {
            str(u): sorted(g.neighbors(u), key=repr)
            for u in sorted(g.vertices(), key=repr)
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            back = read_adjacency_json(path)
        except ParseError:
            return
        assert back != g or {(type(u), u) for u in back.vertices()} != {
            (type(u), u) for u in g.vertices()
        }
        return
    back = read_adjacency_json(path)
    assert back == g
    typed = {(type(u), u) for u in g.vertices()}
    assert {(type(u), u) for u in back.vertices()} == typed


@pytest.mark.parametrize(
    "edges",
    [[("a", "1"), ("1", "b")], [((1, 2), (3, 4))], [(1.5, 2)], [(True, "x")]],
    ids=["digit-str", "tuple", "float", "bool"],
)
def test_adjacency_json_rejects_labels_that_change(tmp_path, edges):
    g = Graph.from_edges(edges)
    with pytest.raises(GraphError, match="would not read back"):
        write_adjacency_json(g, tmp_path / "g.json")


class TestDatasetCache:
    def test_miss_then_hit(self, tmp_path):
        first = load_cached("brightkite", cache_dir=tmp_path)
        assert cache_path("brightkite", cache_dir=tmp_path).exists()
        second = load_cached("brightkite", cache_dir=tmp_path)
        assert first == second

    def test_cache_keyed_by_recipe(self, tmp_path):
        path = cache_path("brightkite", cache_dir=tmp_path)
        assert "brightkite-" in path.name
        assert path.suffix == ".json"

    def test_clear(self, tmp_path):
        load_cached("brightkite", cache_dir=tmp_path)
        assert clear_cache(cache_dir=tmp_path) == 1
        assert clear_cache(cache_dir=tmp_path) == 0

    def test_clear_missing_dir(self, tmp_path):
        assert clear_cache(cache_dir=tmp_path / "nope") == 0
