"""Unit tests for core decomposition (Algorithm 1) and its helpers."""

import networkx as nx
import pytest

from repro.core.decomposition import (
    core_decomposition,
    coreness_gain,
    degeneracy,
    k_core,
    peel_decomposition,
)
from repro.datasets.toy import figure2_graph, figure5b_graph
from repro.graphs.generators import clique, gnm_random_graph, powerlaw_social_graph
from repro.graphs.graph import Graph
from repro.verify.reference import reference_coreness

from conftest import small_random_graph, string_labeled


class TestCoreness:
    def test_triangle(self, triangle):
        dec = core_decomposition(triangle)
        assert dec.coreness == {0: 2, 1: 2, 2: 2}

    def test_path(self, path4):
        dec = core_decomposition(path4)
        assert all(c == 1 for c in dec.coreness.values())

    def test_isolated_vertex(self):
        g = Graph()
        g.add_vertex(0)
        assert core_decomposition(g).coreness == {0: 0}

    def test_empty_graph(self):
        dec = core_decomposition(Graph())
        assert dec.coreness == {}
        assert dec.max_coreness == 0

    def test_clique(self):
        dec = core_decomposition(clique(6))
        assert all(c == 5 for c in dec.coreness.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = small_random_graph(seed)
        ours = core_decomposition(g).coreness
        theirs = nx.core_number(g.to_networkx())
        assert ours == dict(theirs)

    @pytest.mark.parametrize("seed", range(8))
    def test_peel_matches_bucket(self, seed):
        """Both entry points agree with the independent heap peel, on
        string labels for odd seeds."""
        g = small_random_graph(seed)
        if seed % 2:
            g = string_labeled(g)
        expected = reference_coreness(g)
        assert peel_decomposition(g).coreness == expected
        assert core_decomposition(g).coreness == expected


class TestAnchoredDecomposition:
    def test_anchor_never_capped(self):
        # a pendant path off a triangle: anchoring the far end lifts it
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        base = core_decomposition(g)
        assert base.coreness[3] == base.coreness[4] == 1
        anchored = core_decomposition(g, anchors={4})
        assert anchored.coreness[3] == 2

    def test_anchor_effective_coreness(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        dec = core_decomposition(g, anchors={3})
        assert dec.coreness[3] == 2  # max over neighbors

    def test_isolated_anchor(self):
        g = Graph()
        g.add_vertex(0)
        dec = core_decomposition(g, anchors={0})
        assert dec.coreness[0] == 0

    def test_anchor_excluded_from_max_coreness(self):
        g = Graph.from_edges([(0, 1)])
        dec = core_decomposition(g, anchors={0, 1})
        assert dec.max_coreness == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_peel_matches_bucket_with_anchors(self, seed):
        """Anchored coreness against the independent heap peel, on
        string labels for odd seeds (CSR ids and labels disagree)."""
        g = small_random_graph(seed)
        anchors = {0, 5}
        if seed % 2:
            g = string_labeled(g)
            anchors = {"v0", "v5"}
        expected = reference_coreness(g, frozenset(anchors))
        assert core_decomposition(g, anchors).coreness == expected
        assert peel_decomposition(g, anchors).coreness == expected


class TestShellLayers:
    def test_figure5b_layers(self):
        dec = peel_decomposition(figure5b_graph())
        pairs = dec.shell_layer
        assert pairs[1] == (1, 1)
        assert pairs[2] == pairs[3] == pairs[4] == (2, 1)
        assert pairs[5] == pairs[6] == (2, 2)
        assert all(pairs[u] == (3, 1) for u in (7, 8, 9, 10))

    def test_layers_partition_shells(self):
        g = small_random_graph(2)
        dec = peel_decomposition(g)
        for u, (k, i) in dec.shell_layer.items():
            assert dec.coreness[u] == k
            assert i >= 1

    def test_layer_definition(self):
        """Layer i+1 vertices have degree >= k+1 before layer i is deleted."""
        g = small_random_graph(4)
        dec = peel_decomposition(g)
        for k in range(dec.max_coreness + 1):
            members = {u for u, (ku, _) in dec.shell_layer.items() if ku == k}
            if not members:
                continue
            core_k = dec.k_core_members(k)
            alive = set(core_k)
            layer = 1
            while members & alive:
                frontier = {
                    u
                    for u in members & alive
                    if sum(1 for v in g.neighbors(u) if v in alive) < k + 1
                }
                assert frontier, "peel must make progress"
                for u in frontier:
                    assert dec.shell_layer[u] == (k, layer)
                alive -= frontier
                layer += 1

    def test_order_is_deletion_order(self):
        g = small_random_graph(6)
        dec = peel_decomposition(g)
        assert len(dec.order) == g.num_vertices
        positions = {u: i for i, u in enumerate(dec.order)}
        for u, pu in dec.shell_layer.items():
            for v, pv in dec.shell_layer.items():
                if pu < pv:
                    assert positions[u] < positions[v]


class TestHelpers:
    def test_k_core_subgraph(self):
        g = figure2_graph()
        core3 = k_core(g, 3)
        assert set(core3.vertices()) == {6, 7, 8, 9, 10, 11, 12, 13}
        # degree constraint holds inside the extracted core
        assert all(core3.degree(u) >= 3 for u in core3.vertices())

    def test_k_core_keeps_anchors(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        core = k_core(g, 2, anchors={3})
        assert 3 in core

    def test_degeneracy(self):
        assert degeneracy(clique(5)) == 4
        assert degeneracy(figure2_graph()) == 4

    def test_coreness_gain_empty_set(self, triangle):
        assert coreness_gain(triangle, []) == 0

    def test_coreness_gain_matches_definition(self):
        g = figure2_graph()
        base = core_decomposition(g)
        after = core_decomposition(g, anchors={2})
        expected = sum(
            after.coreness[u] - base.coreness[u] for u in g.vertices() if u != 2
        )
        assert coreness_gain(g, [2]) == expected == 4

    def test_shell_and_members(self):
        g = figure2_graph()
        dec = core_decomposition(g)
        assert dec.shell(3) == {6, 7, 8}
        assert dec.k_core_members(4) == {9, 10, 11, 12, 13}

    def test_layer_of(self):
        dec = peel_decomposition(figure5b_graph())
        assert dec.layer_of(5) == 2


class TestAbsentAnchors:
    """Anchor sets naming vertices outside the graph fail loudly."""

    def test_core_decomposition_rejects_absent_anchor(self, triangle):
        from repro.errors import AnchorNotFoundError

        with pytest.raises(AnchorNotFoundError, match=r"anchor vertices not in the graph: 99"):
            core_decomposition(triangle, anchors=[99])

    def test_peel_decomposition_rejects_absent_anchor(self, triangle):
        from repro.errors import AnchorNotFoundError

        with pytest.raises(AnchorNotFoundError):
            peel_decomposition(triangle, anchors=[0, 99])

    def test_all_missing_anchors_are_listed(self, triangle):
        from repro.errors import AnchorNotFoundError

        with pytest.raises(AnchorNotFoundError) as excinfo:
            core_decomposition(triangle, anchors=[99, 0, 42])
        assert excinfo.value.missing == [42, 99]

    def test_error_is_a_graph_error(self, triangle):
        from repro.errors import AnchorNotFoundError, GraphError

        with pytest.raises(GraphError):
            core_decomposition(triangle, anchors=[99])
        assert issubclass(AnchorNotFoundError, GraphError)

    def test_present_anchors_still_work(self, triangle):
        dec = core_decomposition(triangle, anchors=[0])
        assert dec.coreness[0] == 2
