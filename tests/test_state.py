"""Tests for the AnchoredState bundle and the errors hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anchors.incremental import _component, apply_anchor
from repro.anchors.state import AnchoredState
from repro.core.tree import TreeAdjacency
from repro.datasets.toy import figure5b_graph
from repro.errors import (
    BudgetError,
    DatasetError,
    EdgeNotFoundError,
    GraphError,
    ParseError,
    ReproError,
    VertexNotFoundError,
)
from repro.graphs.graph import Graph

from conftest import label_oracle, string_labeled


def _fixed(state, u):
    tables = state.tables
    return tables.fixed[tables.index[u]]


def _same(state, u):
    """``u``'s same-shell row: its ``higher`` and ``loweq`` rows merged."""
    tables = state.tables
    i = tables.index[u]
    return [tables.labels[j] for j in sorted(tables.higher[i] + tables.loweq[i])]


class TestAnchoredState:
    def test_accessors(self):
        g = figure5b_graph()
        state = AnchoredState.build(g)
        assert state.coreness(7) == 3
        assert state.pair(5) == (2, 2)
        assert state.node_id(9) == 7
        assert state.sn(5) == {2, 7}
        assert state.pn(7) == {2}
        assert state.tca(5) == {2: {2}, 7: {7, 8}}

    def test_candidates_exclude_anchors(self):
        g = figure5b_graph()
        state = AnchoredState.build(g, anchors={1, 2})
        assert 1 not in state.candidates()
        assert 2 not in state.candidates()
        assert len(state.candidates()) == g.num_vertices - 2

    def test_with_anchor(self):
        g = figure5b_graph()
        state = AnchoredState.build(g)
        new = state.with_anchor(5)
        assert new.anchors == frozenset({5})
        assert state.anchors == frozenset()

    def test_support_tables(self):
        g = figure5b_graph()
        state = AnchoredState.build(g)
        # u5: neighbors 2 (same shell), 7, 8 (deeper)
        assert _fixed(state, 5) == 2
        assert _same(state, 5) == [2]

    def test_support_tables_with_anchors(self):
        g = figure5b_graph()
        state = AnchoredState.build(g, anchors={2})
        # anchoring 2 lifts u5 to coreness 3: its shell-mates are now
        # 7 and 8, and only the anchor counts as fixed support
        assert state.coreness(5) == 3
        assert set(_same(state, 5)) == {7, 8}
        assert _fixed(state, 5) == 1
        assert 2 not in _same(state, 5)

    def test_empty_graph(self):
        state = AnchoredState.build(Graph())
        assert state.candidates() == []

    def test_holds_only_its_tables(self):
        assert AnchoredState.__slots__ == ("graph", "anchors", "tables")


# ----------------------------------------------------------------------
# The id-native build and the in-place anchoring against the label
# oracle: peel_decomposition (coreness, shell layers),
# CoreComponentTree.build (node ids, CC(T[x])) and TreeAdjacency.


@st.composite
def _anchored_forest(draw):
    """A string-labeled graph of several components, an anchor chain
    across them, isolated vertices, prior anchors and a sequence to anchor.
    """
    graph = Graph()
    n = 0
    for size in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)):
        ids = st.integers(n, n + size - 1)
        for u in range(n, n + size):
            graph.add_vertex(u)
        for u, v in draw(st.lists(st.tuples(ids, ids), max_size=3 * size)):
            if u != v:
                graph.add_edge_if_absent(u, v)
        n += size
    chain = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(4, n)))
    for u, v in zip(chain, chain[1:]):
        graph.add_edge_if_absent(u, v)
    isolated = list(range(n, n + draw(st.integers(0, 2))))
    for u in isolated:
        graph.add_vertex(u)
    prior = chain[: draw(st.integers(0, len(chain)))]
    prior += [u for u in isolated if draw(st.booleans())]
    rest = [u for u in range(n + len(isolated)) if u not in prior]
    sequence = []
    if rest:
        sequence = draw(st.lists(st.sampled_from(rest), unique=True, max_size=3))
    label = "v{}".format
    return (
        string_labeled(graph),
        [label(u) for u in prior],
        [label(u) for u in sequence],
    )


def _assert_matches_label_oracle(state):
    graph, anchors, tables = state.graph, state.anchors, state.tables
    decomposition, tree = label_oracle(graph, anchors)
    adjacency = TreeAdjacency(graph, decomposition, tree, anchors)
    labels = tables.labels
    for u in graph.vertices():
        node = tree.node_of.get(u)
        i = tables.index[u]
        assert state.coreness(u) == decomposition.coreness[u], u
        assert state.pair(u) == decomposition.shell_layer[u], u
        assert state.node_id(u) == (None if node is None else node.node_id), u
        assert state.tca(u) == adjacency.tca[u], u
        assert state.sn(u) == adjacency.sn[u], u
        assert state.pn(u) == adjacency.pn[u], u
        assert tables.fixed[i] == adjacency.fixed_support[u], u
        same = sorted(tables.higher[i] + tables.loweq[i])
        assert [labels[j] for j in same] == adjacency.same_shell[u], u
    return tree


@given(_anchored_forest())
@settings(max_examples=60, deadline=None)
def test_id_native_state_matches_the_label_oracle(case):
    """Build and every anchoring equal the label oracle; the component
    walk is ``CC(T[x])``."""
    graph, prior, sequence = case
    state = AnchoredState.build(graph, prior)
    tree = _assert_matches_label_oracle(state)
    t = state.tables
    for x in sequence:
        component, _ = _component(t.rows, t.core, t.is_anchor, t.index[x])
        expected = tree.node_of[x].subtree_vertices()
        assert [t.labels[i] for i in component] == sorted(expected), x
        apply_anchor(state, x)
        tree = _assert_matches_label_oracle(state)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(GraphError, ReproError)
        assert issubclass(VertexNotFoundError, GraphError)
        assert issubclass(VertexNotFoundError, KeyError)
        assert issubclass(EdgeNotFoundError, GraphError)
        assert issubclass(BudgetError, ValueError)
        assert issubclass(ParseError, ValueError)
        assert issubclass(DatasetError, ReproError)

    def test_payloads(self):
        err = VertexNotFoundError(42)
        assert err.vertex == 42
        edge_err = EdgeNotFoundError(1, 2)
        assert edge_err.edge == (1, 2)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise BudgetError("nope")
