"""Tests for the AnchoredState bundle and the errors hierarchy."""

import pytest

from repro.anchors.state import AnchoredState
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


def _fixed(state, u):
    tables = state.tables
    return tables.fixed[tables.index[u]]


def _same(state, u):
    tables = state.tables
    return [tables.labels[j] for j in tables.same[tables.index[u]]]


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
