"""Tests for follower computation (Algorithms 4/5) against the oracle."""

import pytest

from repro.anchors.followers import (
    FollowerCounters,
    find_followers,
    followers_naive,
)
from repro.anchors.state import AnchoredState
from repro.core.decomposition import core_decomposition
from repro.datasets.toy import figure2_graph, figure5b_graph
from repro.errors import VertexNotFoundError

from conftest import label_oracle, small_random_graph


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_anchor_matches_naive(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        base = core_decomposition(g)
        for x in g.vertices():
            fast = find_followers(state, x).all_members()
            assert fast == followers_naive(g, x, base=base), (seed, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_with_existing_anchors(self, seed):
        g = small_random_graph(seed)
        anchors = {0, 3}
        state = AnchoredState.build(g, anchors)
        base = core_decomposition(g, anchors)
        for x in g.vertices():
            if x in anchors:
                continue
            fast = find_followers(state, x).all_members()
            assert fast == followers_naive(g, x, anchors=anchors, base=base), (seed, x)

    def test_candidate_already_anchored(self):
        g = small_random_graph(0)
        state = AnchoredState.build(g, {5})
        with pytest.raises(ValueError):
            find_followers(state, 5)

    def test_naive_candidate_already_anchored(self):
        g = small_random_graph(0)
        with pytest.raises(ValueError, match="already anchored"):
            followers_naive(g, 5, anchors={5, 7})


class TestPaperExamples:
    def test_figure2_table1(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        assert find_followers(state, 1).all_members() == {2, 3, 4}
        assert find_followers(state, 5).all_members() == {6, 7, 8}
        assert find_followers(state, 2).all_members() == {3, 4, 7, 8}

    def test_example_4_16_no_followers(self):
        """Anchoring u1 in Figure 5(b): the cascade discards everyone."""
        g = figure5b_graph()
        state = AnchoredState.build(g)
        counters = FollowerCounters()
        report = find_followers(state, 1, counters=counters)
        assert report.total == 0
        # the trace explores exactly u2, u5, u6
        assert counters.visited_vertices == 3
        assert counters.explored_nodes == 1

    def test_follower_counts_per_node(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        report = find_followers(state, 2)
        # node ids are CSR ids; the tree names the same node by its label
        labels = state.tables.labels
        _, tree = label_oracle(g)
        by_node = {
            tree.nodes[labels[nid]].k: count for nid, count in report.counts.items()
        }
        assert by_node == {2: 2, 3: 2}


class TestReportAndFilters:
    def test_unknown_vertex(self):
        state = AnchoredState.build(figure2_graph())
        with pytest.raises(VertexNotFoundError, match="999"):
            find_followers(state, 999)

    def test_report_total(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        report = find_followers(state, 2)
        assert report.total == 4
        assert report.anchor == 2

    def test_only_coreness_filter(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        # anchoring u2 has followers in shells 2 and 3; filter each
        at2 = find_followers(state, 2, only_coreness=2).all_members()
        at3 = find_followers(state, 2, only_coreness=3).all_members()
        assert at2 == {3, 4}
        assert at3 == {7, 8}

    def test_reusable_counts_short_circuit(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        full = find_followers(state, 2)
        some_node = next(iter(full.counts))
        counters = FollowerCounters()
        report = find_followers(
            state, 2, reusable_counts={some_node: full.counts[some_node]},
            counters=counters,
        )
        assert report.total == full.total
        assert counters.reused_nodes == 1
        assert some_node not in report.members  # reused: count only

    def test_counters_accumulate(self):
        g = small_random_graph(1)
        state = AnchoredState.build(g)
        counters = FollowerCounters()
        for x in list(g.vertices())[:5]:
            find_followers(state, x, counters=counters)
        assert counters.evaluated_candidates == 5
        merged = FollowerCounters()
        merged.merge(counters)
        assert merged.visited_vertices == counters.visited_vertices


class TestTheorems:
    @pytest.mark.parametrize("seed", range(6))
    def test_theorem_4_6_increase_at_most_one(self, seed):
        g = small_random_graph(seed)
        base = core_decomposition(g)
        for x in list(g.vertices())[:10]:
            after = core_decomposition(g, {x})
            for u in g.vertices():
                if u != x:
                    assert after.coreness[u] - base.coreness[u] in (0, 1), (x, u)

    @pytest.mark.parametrize("seed", range(6))
    def test_theorem_4_7_followers_in_sn_nodes(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        base = core_decomposition(g)
        _, tree = label_oracle(g)
        for x in g.vertices():
            allowed = set()
            for nid in state.sn(x):
                allowed |= tree.nodes[nid].vertices
            assert followers_naive(g, x, base=base) <= allowed, x

    @pytest.mark.parametrize("seed", range(6))
    def test_theorem_4_14_followers_upstair_reachable(self, seed):
        from repro.core.layers import upstair_reachable

        g = small_random_graph(seed)
        decomposition, _ = label_oracle(g)
        base = core_decomposition(g)
        for x in g.vertices():
            reachable = upstair_reachable(g, decomposition, x)
            assert followers_naive(g, x, base=base) <= reachable, x
