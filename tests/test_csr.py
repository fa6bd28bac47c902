"""Tests for the interned CSR view and its flat-array kernels.

Every substrate kernel runs on the CSR view, so the contract under test
is agreement with oracles that walk the adjacency-set ``Graph`` and
never touch the view (the "dict path"): coreness against the heap peel
of :mod:`repro.verify.reference`, shell layers and deletion order
against the dict batch peel in ``peel_oracle``, and the tree plus its
``tca``/``sn``/``pn`` adjacency against a brute-force build from
Definitions 4.2–4.4 — on every graph, including the awkward ones
(disconnected, isolated vertices, non-integer labels, anchors).
"""

import random

import pytest

from repro.anchors.gac import gac
from repro.core.decomposition import (
    _sort_key,
    core_decomposition,
    peel_decomposition,
)
from repro.core.tree import CoreComponentTree, TreeAdjacency
from repro.errors import GraphError
from repro.graphs.components import restricted_component
from repro.graphs.csr import CSRGraph, csr_view, peel_layers
from repro.graphs.generators import clique, disjoint_union, gnm_random_graph
from repro.graphs.graph import Graph
from repro.verify.reference import reference_coreness

from conftest import small_random_graph
from peel_oracle import dict_peel_decomposition


def _awkward_graph(seed: int) -> Graph:
    """A random graph with disconnected components and isolated vertices."""
    rng = random.Random(seed)
    g = disjoint_union(
        small_random_graph(seed, n=25, m=50),
        gnm_random_graph(rng.randint(5, 15), rng.randint(4, 20), seed + 1),
    )
    for _ in range(rng.randint(1, 4)):
        g.add_vertex(1000 + rng.randint(0, 50))
    return g


def _some_anchors(g: Graph) -> list:
    return sorted(g.vertices())[:: max(1, g.num_vertices // 3)][:3]


def _assert_peel_matches_oracles(g: Graph, anchors=()) -> None:
    fast = peel_decomposition(g, anchors=anchors)
    slow = dict_peel_decomposition(g, anchors=anchors)
    assert fast.coreness == reference_coreness(g, frozenset(anchors))
    assert fast.coreness == slow.coreness
    assert fast.shell_layer == slow.shell_layer
    assert fast.order == slow.order


class TestCSRStructure:
    def test_interning_is_sorted(self, triangle):
        csr = csr_view(triangle)
        assert csr.labels == sorted(triangle.vertices())
        assert csr.index == {u: i for i, u in enumerate(csr.labels)}

    def test_rows_sorted_and_symmetric(self):
        g = small_random_graph(7)
        csr = csr_view(g)
        assert csr.num_vertices == g.num_vertices
        assert csr.num_edges == g.num_edges
        for i, u in enumerate(csr.labels):
            row = list(csr.row(i))
            assert row == sorted(row)
            assert {csr.labels[j] for j in row} == g.neighbors(u)

    def test_string_labels_interned_after_ints(self):
        g = Graph.from_edges([("b", "a"), (2, 1), (1, "a")])
        csr = csr_view(g)
        assert csr.labels == [1, 2, "a", "b"]

    def test_view_interned_until_mutation(self, triangle):
        first = csr_view(triangle)
        assert csr_view(triangle) is first  # cached, same snapshot
        triangle.add_edge(0, 3)
        second = csr_view(triangle)
        assert second is not first
        assert second.num_vertices == 4

    def test_unorderable_labels_raise_graph_error(self):
        g = Graph.from_edges([(1j, 2j), (2j, 3j), (1j, 3j)])  # complex: no order
        for run in (core_decomposition, peel_decomposition, lambda g: gac(g, 1)):
            with pytest.raises(GraphError, match="complex") as info:
                run(g)
            assert "\n" not in str(info.value)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_vertices == 0
        assert peel_layers(csr) == ([], [], [])


def _brute_force_tree_nodes(g: Graph, decomposition) -> dict:
    """Tree node id -> (k, vertices), straight from the definition.

    A node is a maximal set of coreness-``k`` vertices connected inside
    the k-core, where anchors sit in every core as connectors but are
    members of no node.
    """
    coreness = decomposition.coreness
    anchors = set(decomposition.anchors)
    nodes = {}
    placed = set()
    for u in sorted(g.vertices(), key=_sort_key):
        if u in anchors or u in placed:
            continue
        k = coreness[u]
        core = {v for v in g.vertices() if v in anchors or coreness[v] >= k}
        reach = restricted_component(core, u, g.neighbors)
        members = {v for v in reach if v not in anchors and coreness[v] == k}
        placed |= members
        nodes[min(members, key=_sort_key)] = (k, members)
    return nodes


def _assert_tree_matches_definitions(g: Graph, anchors=()) -> None:
    anchor_set = frozenset(anchors)
    decomposition = peel_decomposition(g, anchors=anchor_set)
    tree = CoreComponentTree.build(g, decomposition)
    tree.validate(g, decomposition)
    expected = _brute_force_tree_nodes(g, decomposition)
    assert {nid: (node.k, node.vertices) for nid, node in tree.nodes.items()} == (
        expected
    )

    adjacency = TreeAdjacency(g, decomposition, tree, anchors=anchor_set)
    coreness = decomposition.coreness
    node_id = {u: node.node_id for u, node in tree.node_of.items()}
    for u in g.vertices():
        cu = coreness[u]
        members = [v for v in g.neighbors(u) if v not in anchor_set]
        tca: dict = {}
        for v in members:
            tca.setdefault(node_id[v], set()).add(v)
        # Definitions 4.2-4.4: tca groups u's neighbors by tree node; sn
        # and pn split the adjacent nodes at u's own coreness.
        assert adjacency.tca[u] == tca
        assert adjacency.sn[u] == {node_id[v] for v in members if coreness[v] >= cu}
        assert adjacency.pn[u] == {node_id[v] for v in members if coreness[v] < cu}
        assert adjacency.fixed_support[u] == (
            len(g.neighbors(u)) - len(members)
            + sum(1 for v in members if coreness[v] > cu)
        )
        assert adjacency.same_shell[u] == sorted(
            (v for v in members if coreness[v] == cu), key=_sort_key
        )


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_coreness_matches_dict_path(self, seed):
        g = _awkward_graph(seed)
        assert core_decomposition(g).coreness == reference_coreness(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_peel_matches_dict_path(self, seed):
        _assert_peel_matches_oracles(_awkward_graph(seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_anchored_equivalence(self, seed):
        g = _awkward_graph(seed)
        anchors = _some_anchors(g)
        fast = core_decomposition(g, anchors=anchors)
        assert fast.coreness == reference_coreness(g, frozenset(anchors))
        _assert_peel_matches_oracles(g, anchors)

    def test_string_labelled_graph(self):
        g = Graph.from_edges(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("x", "y")]
        )
        g.add_vertex("lonely")
        assert core_decomposition(g).coreness == reference_coreness(g)
        _assert_peel_matches_oracles(g)
        _assert_tree_matches_definitions(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_build_matches_dict_path(self, seed):
        g = _awkward_graph(seed)
        _assert_tree_matches_definitions(g)
        _assert_tree_matches_definitions(g, _some_anchors(g))

    def test_clique_plus_isolates(self):
        g = clique(6)
        g.add_vertex(99)
        g.add_vertex(98)
        assert core_decomposition(g).coreness == reference_coreness(g)
        _assert_peel_matches_oracles(g)
