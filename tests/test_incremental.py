"""Tests for the in-place local subtree rebuild (Algorithm 3 lines 7-10).

The oracle: after any sequence of `apply_anchor` calls, every per-id
table of the mutated state equals a fresh `AnchoredState.build` field
by field, the label views (corenesses, shell-layer pairs, tree node
ids, `tca`/`sn`/`pn`) equal the from-scratch `peel_decomposition`,
`CoreComponentTree` and `TreeAdjacency`, and the returned removals
match the pure-functional `result_reuse`.
"""

import sys

import pytest

from repro import obs
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.reuse import result_reuse
from repro.anchors.state import AnchoredState
from repro.core.tree import TreeAdjacency
from repro.datasets import registry
from repro.datasets.toy import figure2_graph
from repro.errors import VertexNotFoundError
from repro.olak.olak import olak

from conftest import label_oracle, small_random_graph, string_labeled


#: Every maintained per-id table, compared one by one (row order
#: included): an oracle of its own, not ``FlatTables.FIELDS``.
TABLE_FIELDS = (
    "core",
    "layer",
    "keys",
    "is_anchor",
    "nid",
    "fixed",
    "higher",
    "loweq",
    "tca_ids",
    "sn_ids",
    "pn_ids",
)


def assert_states_equal(actual: AnchoredState, expected: AnchoredState) -> None:
    assert actual.anchors == expected.anchors
    # every per-id table, against a fresh build, row order included
    tables = actual.tables
    fresh = expected.tables
    labels = tables.labels
    for name in TABLE_FIELDS:
        ours = getattr(tables, name)
        theirs = getattr(fresh, name)
        assert len(ours) == len(theirs), name
        for i, (a, b) in enumerate(zip(ours, theirs)):
            assert a == b, (name, labels[i])
    # the label views against the from-scratch label oracle: peel,
    # core component tree, TreeAdjacency
    decomposition, tree = label_oracle(actual.graph, actual.anchors)
    tree.validate(actual.graph, decomposition)
    oracle = TreeAdjacency(
        actual.graph, decomposition, tree, anchors=actual.anchors
    )
    index = tables.index
    for u in actual.graph.vertices():
        assert actual.coreness(u) == decomposition.coreness[u], u
        assert actual.pair(u) == decomposition.shell_layer[u], u
        node = tree.node_of.get(u)
        assert actual.node_id(u) == (None if node is None else node.node_id), u
        assert actual.tca(u) == oracle.tca[u], u
        assert actual.sn(u) == oracle.sn[u], u
        assert actual.pn(u) == oracle.pn[u], u
        i = index[u]
        assert tables.fixed[i] == oracle.fixed_support[u], u
        same = sorted(tables.higher[i] + tables.loweq[i])
        assert [labels[j] for j in same] == oracle.same_shell[u], u


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_anchor(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[seed % g.num_vertices]
        apply_anchor(state, x)
        assert_states_equal(state, AnchoredState.build(g, {x}))

    @pytest.mark.parametrize("seed", range(6))
    def test_anchor_sequence(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        anchors = []
        for x in sorted(g.vertices())[:4]:
            apply_anchor(state, x)
            anchors.append(x)
            assert_states_equal(state, AnchoredState.build(g, anchors))

    def test_figure2(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        apply_anchor(state, 2)
        assert_states_equal(state, AnchoredState.build(g, {2}))
        apply_anchor(state, 5)
        assert_states_equal(state, AnchoredState.build(g, {2, 5}))

    def test_already_anchored_rejected(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        apply_anchor(state, 2)
        with pytest.raises(ValueError):
            apply_anchor(state, 2)

    def test_unknown_vertex_rejected(self):
        state = AnchoredState.build(figure2_graph())
        tables = state.tables
        before = list(tables.core)
        with pytest.raises(VertexNotFoundError, match="999"):
            apply_anchor(state, 999)
        assert state.anchors == frozenset() and tables.core == before


class TestRemovalsMatchResultReuse:
    @pytest.mark.parametrize("seed", range(8))
    def test_first_anchor(self, seed):
        g = small_random_graph(seed)
        x = sorted(g.vertices())[(seed * 3) % g.num_vertices]
        old = AnchoredState.build(g)
        expected = result_reuse(old, old.with_anchor(x), x)

        state = AnchoredState.build(g)
        removals = apply_anchor(state, x).removals
        assert removals == expected, (seed, x)

    @pytest.mark.parametrize("seed", range(4))
    def test_second_anchor(self, seed):
        g = small_random_graph(seed)
        first, second = sorted(g.vertices())[:2]
        old = AnchoredState.build(g, {first})
        expected = result_reuse(old, old.with_anchor(second), second)

        state = AnchoredState.build(g)
        apply_anchor(state, first)
        removals = apply_anchor(state, second).removals
        assert removals == expected, seed

    @pytest.mark.parametrize("seed", range(4))
    def test_anchor_sequence(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        anchors: list = []
        for x in sorted(g.vertices())[1::3][:4]:
            old = AnchoredState.build(g, anchors)
            expected = result_reuse(old, old.with_anchor(x), x)
            assert apply_anchor(state, x).removals == expected, (seed, x)
            anchors.append(x)

    def test_replica_rounds_with_widened_suspects(self):
        """GAC's first anchors on a string-labeled replica: lines 12-16 of
        Algorithm 3 (vertices that join an affected vertex's new node)
        contribute removals here, unlike on the small random graphs."""
        graph = string_labeled(registry.load("brightkite"))
        state = AnchoredState.build(graph)
        anchors: list = []
        for x in ["v1167", "v725", "v1087"]:
            old = AnchoredState.build(graph, anchors)
            expected = result_reuse(old, old.with_anchor(x), x)
            assert apply_anchor(state, x).removals == expected, x
            anchors.append(x)

    def test_skippable(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        assert apply_anchor(state, 2, compute_removals=False).removals == {}


# ----------------------------------------------------------------------
# Structural work bound: the table upkeep walks the rows of Δ only.


def _signatures(state):
    tables = state.tables
    return list(zip(tables.is_anchor, tables.core, tables.layer, tables.nid))


def _record_rounds(monkeypatch, module, rounds):
    """Wrap ``module.apply_anchor`` to record per-round work figures."""
    real = module.apply_anchor

    def recording(state, x, compute_removals=True):
        csr = state.tables.csr
        index = csr.index
        degree = csr.degree
        _, tree = label_oracle(state.graph, state.anchors)
        component = [index[v] for v in tree.node_of[x].subtree_vertices()]
        neighborhood = set(component)
        for i in component:
            neighborhood.update(csr.row(i))
        before = _signatures(state)
        window = obs.window()
        removals = real(state, x, compute_removals)
        touched = window.counter(obs.TOUCHED_EDGES)
        after = _signatures(state)
        delta = [i for i, (b, a) in enumerate(zip(before, after)) if b != a]
        assert index[x] in delta
        rounds.append(
            (
                touched,
                sum(degree(i) for i in delta) + degree(index[x]),
                sum(degree(i) for i in neighborhood),
            )
        )
        return removals

    monkeypatch.setattr(module, "apply_anchor", recording)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: gac(registry.load("livejournal"), 3), id="gac-livejournal"),
        pytest.param(lambda: gac(registry.load("gowalla"), 3), id="gac-gowalla"),
        pytest.param(lambda: olak(registry.load("youtube"), 10, 3), id="olak-youtube-k10"),
    ],
)
def test_touched_edges_bounded_by_delta_degrees(monkeypatch, run):
    """Each round walks at most Σ_{v∈Δ} deg v + deg x adjacency entries,
    below the Σ deg over component ∪ N(component) a row refresh pays."""
    rounds: list[tuple[int, int, int]] = []
    _record_rounds(monkeypatch, sys.modules["repro.anchors.gac"], rounds)
    _record_rounds(monkeypatch, sys.modules["repro.olak.olak"], rounds)
    run()
    assert len(rounds) == 3
    for touched, delta_bound, neighborhood_work in rounds:
        assert 0 < touched <= delta_bound, rounds
        assert touched < neighborhood_work, rounds
