"""Tests for the follower-count upper bound (Equations 1-3, Theorem 4.17)."""

import pytest

from repro.anchors.bounds import compute_upper_bounds, refined_total
from repro.anchors.followers import find_followers
from repro.anchors.state import AnchoredState
from repro.core.decomposition import peel_decomposition
from repro.datasets.toy import figure2_graph, figure5b_graph
from repro.graphs.graph import Graph

from conftest import small_random_graph


def _parts(bounds, i):
    """Each node's part of ``UB_sigma`` of id ``i`` (what a cached 0 takes off)."""
    t = bounds.tables
    nodes = dict.fromkeys([t.nid[i], *t.sn_ids[i]])
    return {nid: bounds.total[i] - refined_total(i, bounds, {nid: 0}) for nid in nodes}


class TestDominance:
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_dominates_follower_count(self, seed):
        """Theorem 4.17: UB_sigma(x) >= |F(x)| for every vertex."""
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for x in g.vertices():
            i = state.tables.index[x]
            report = find_followers(state, x)
            assert bounds.total[i] >= report.total, (seed, x)
            # per-node dominance too
            for nid, count in report.counts.items():
                assert _parts(bounds, i).get(nid, 0) >= count, (seed, x, nid)

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_dominates_with_anchors(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g, {1})
        bounds = compute_upper_bounds(state)
        for x in state.candidates():
            i = state.tables.index[x]
            assert bounds.total[i] >= find_followers(state, x).total


class TestHandComputed:
    def test_chain_graph(self):
        """A 3-chain in one shell: UB counts each hop's subtree."""
        # path 0-1-2-3 hanging off a triangle keeps one shell with layers
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        # vertices 0,1,2 are the 1-shell chain, layers 1,2,3
        pairs = peel_decomposition(g).shell_layer
        assert pairs[0] < pairs[1] < pairs[2]
        # UB for 0: own-node chain 1 -> 2 (+ their cross bounds)
        own = {u: bounds.own[i] for u, i in state.tables.index.items()}
        assert own[2] >= 0
        assert own[1] == own[2] + 1
        assert own[0] == own[1] + 1

    def test_figure5b_anchor_u1(self):
        g = figure5b_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        # u1's only route is u2 -> {u5, u6}; each of those has no onward
        # same-shell edge, but u5/u6 have cross-node parts not counted in
        # u1's bound (Eq 2 uses the neighbor's own-node bound only).
        index = state.tables.index
        assert bounds.own[index[5]] == 0 and bounds.own[index[6]] == 0
        assert bounds.own[index[2]] == 2  # u5 and u6
        assert bounds.total[index[1]] == 3  # (own[2] + 1) through the cross edge

    def test_figure2_anchor_u2(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        assert bounds.total[state.tables.index[2]] >= 4  # true follower count is 4

    def test_anchors_excluded(self):
        g = figure2_graph()
        state = AnchoredState.build(g, {3})
        bounds = compute_upper_bounds(state)
        i = state.tables.index[3]
        assert bounds.own[i] == 0 and bounds.total[i] == 0
        assert all(bounds.total[j] >= 0 for j in range(len(bounds.total)))


class TestRefinement:
    def test_refined_never_exceeds_plain(self):
        g = small_random_graph(2)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for x in g.vertices():
            i = state.tables.index[x]
            report = find_followers(state, x)
            refined = refined_total(i, bounds, dict(report.counts))
            assert refined <= bounds.total[i]
            assert refined >= report.total

    def test_refined_with_empty_cache_is_plain(self):
        g = small_random_graph(2)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for i in range(g.num_vertices):
            assert refined_total(i, bounds, {}) == bounds.total[i]

    def test_refined_exact_when_fully_cached(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        i = state.tables.index[2]
        report = find_followers(state, 2)
        # all parts replaced by exact counts -> equals |F| when every
        # part id appears in the report (zero-count nodes included)
        counts = {nid: report.counts.get(nid, 0) for nid in _parts(bounds, i)}
        assert refined_total(i, bounds, counts) == report.total
