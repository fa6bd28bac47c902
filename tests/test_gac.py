"""Tests for the GAC greedy driver (Algorithm 6) and its variants."""

import pytest

from repro.anchors.gac import baseline, gac, gac_u, gac_u_r, greedy_anchored_coreness
from repro.core.decomposition import coreness_gain
from repro.datasets.toy import figure2_graph, nonsubmodular_graph
from repro.errors import BudgetError
from repro.graphs.generators import clique
from repro.graphs.graph import Graph

from conftest import small_random_graph


class TestVariantEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_variants_identical_under_id_ties(self, seed):
        g = small_random_graph(seed)
        ref = baseline(g, 4, tie_break="id")
        for fn in (gac, gac_u, gac_u_r):
            res = fn(g, 4, tie_break="id")
            assert res.anchors == ref.anchors, fn.__name__
            assert res.gains == ref.gains, fn.__name__

    @pytest.mark.parametrize("seed", range(6))
    def test_total_gain_matches_core_decomposition(self, seed):
        g = small_random_graph(seed)
        res = gac(g, 4)
        assert res.total_gain == coreness_gain(g, res.anchors)

    def test_marginal_gain_accounts_for_anchored_followers(self):
        """Anchoring a previous follower removes its own contribution."""
        g = figure2_graph()
        res = gac(g, 3, tie_break="id")
        assert res.total_gain == coreness_gain(g, res.anchors)


class TestGreedyBehaviour:
    def test_figure2_first_anchor(self):
        res = gac(figure2_graph(), 1)
        assert res.gains == [4]
        assert res.anchors[0] in {2, 3}  # both achieve the optimum of 4

    def test_nonsubmodular_pair_found(self):
        # greedy can't see the {1, 6} synergy, but anchoring any clique
        # neighbor pair still yields a valid greedy outcome
        g = nonsubmodular_graph()
        res = gac(g, 2, tie_break="id")
        assert res.total_gain == coreness_gain(g, res.anchors)

    def test_stops_when_every_marginal_gain_is_negative(self):
        """Two triangles joined by an edge, a separate edge and an isolated
        vertex: GAC's fourth anchor raises the bridge vertex 3 as a
        follower, so anchoring 3 itself would lose that gain and the run
        ends one anchor short, untruncated. GAC-U ranks by degree, anchors
        3 first and fills the budget."""
        g = Graph.from_edges(
            [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (7, 8)]
        )
        g.add_vertex(9)
        res = gac(g, 9)
        assert len(res.anchors) == 8
        assert 3 not in res.anchors
        assert not res.truncated
        assert len(gac_u(g, 9).anchors) == 9

    def test_followers_recorded(self):
        res = gac(figure2_graph(), 1)
        anchor = res.anchors[0]
        assert res.followers[anchor]
        assert len(res.followers[anchor]) == res.gains[0]

    def test_traces_populated(self):
        res = gac(figure2_graph(), 2)
        assert len(res.traces) == 2
        for trace in res.traces:
            assert trace.elapsed_seconds >= 0
            assert trace.candidate_count > 0
        total = res.total_counters()
        assert total.evaluated_candidates > 0

    def test_zero_budget(self):
        res = gac(figure2_graph(), 0)
        assert res.anchors == []
        assert res.total_gain == 0

    def test_initial_anchors_excluded(self):
        g = figure2_graph()
        res = gac(g, 2, initial_anchors=[2])
        assert 2 not in res.anchors

    def test_initial_anchor_gain_relative_to_baseline(self):
        g = figure2_graph()
        res = gac(g, 1, initial_anchors=[2], tie_break="id")
        # gain is relative to the already-anchored graph
        got = coreness_gain(g, [2, *res.anchors]) - coreness_gain(g, [2])
        assert res.total_gain == got

    def test_whole_clique_anchoring(self):
        # anchoring everything is allowed: gains become zero eventually
        g = clique(4)
        res = gac(g, 4, tie_break="id")
        assert len(res.anchors) == 4

    def test_time_limit_truncates(self):
        g = small_random_graph(0, n=60, m=150)
        res = greedy_anchored_coreness(g, 50, time_limit=0.0)
        assert res.truncated
        assert len(res.anchors) < 50

    def test_time_limit_expires_mid_iteration(self, monkeypatch):
        """Regression: the deadline is honoured *inside* the candidate
        scan, and an iteration cut off mid-scan records no partial
        winner. A fake clock advancing one second per reading makes the
        very first candidate check overshoot a generous limit that the
        iteration-boundary check alone would never notice."""
        import sys

        # the re-exported ``gac`` function shadows the submodule on
        # attribute access; go through sys.modules instead
        gac_module = sys.modules["repro.anchors.gac"]
        ticks = iter(range(10_000))

        def fake_clock() -> float:
            return float(next(ticks))

        monkeypatch.setattr(gac_module, "_clock", fake_clock)
        g = small_random_graph(0, n=60, m=150)
        res = greedy_anchored_coreness(g, 50, time_limit=5.0)
        assert res.truncated
        assert res.anchors == []  # expired mid-scan: no partial winner
        assert res.gains == []


class TestValidation:
    def test_negative_budget(self):
        with pytest.raises(BudgetError):
            gac(figure2_graph(), -1)

    def test_budget_exceeds_vertices(self):
        with pytest.raises(BudgetError):
            gac(clique(3), 4)

    def test_budget_accounts_for_initial_anchors(self):
        with pytest.raises(BudgetError):
            gac(clique(3), 3, initial_anchors=[0])

    def test_unknown_tie_break(self):
        with pytest.raises(ValueError):
            gac(figure2_graph(), 1, tie_break="bogus")


class TestTieBreaks:
    def test_id_deterministic(self):
        g = small_random_graph(2)
        assert gac(g, 3, tie_break="id").anchors == gac(g, 3, tie_break="id").anchors

    def test_random_seeded_deterministic(self):
        g = small_random_graph(2)
        a = gac(g, 3, tie_break="random", seed=5).anchors
        b = gac(g, 3, tie_break="random", seed=5).anchors
        assert a == b

    @pytest.mark.parametrize("tie", ["ub", "degree", "random", "id"])
    def test_all_ties_reach_same_gain_sequence_start(self, tie):
        """The first anchor's gain is tie-independent (it is the max)."""
        g = small_random_graph(4)
        res = gac(g, 1, tie_break=tie, seed=0)
        ref = gac(g, 1, tie_break="id")
        assert res.gains == ref.gains
