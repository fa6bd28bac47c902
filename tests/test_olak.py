"""Tests for the OLAK anchored k-core baseline."""

import pytest

from repro.core.decomposition import core_decomposition
from repro.datasets.toy import figure2_graph
from repro.errors import BudgetError
from repro.olak.olak import olak, olak_sweep

from conftest import Killed, kill_after_round, small_random_graph, string_labeled


class TestTable1Rows:
    def test_k3_anchors_u1(self):
        """AK with k=3, b=1 on Figure 2 anchors u1 (followers u2,u3,u4)."""
        res = olak(figure2_graph(), k=3, budget=1)
        assert res.anchors == [1]
        assert res.followers[1] == {2, 3, 4}
        assert res.kcore_growth == 3

    def test_k4_anchors_u5(self):
        res = olak(figure2_graph(), k=4, budget=1)
        assert res.anchors == [5]
        assert res.followers[5] == {6, 7, 8}


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_growth_matches_kcore_diff(self, seed):
        g = small_random_graph(seed)
        base = core_decomposition(g)
        k = max(2, base.max_coreness)
        res = olak(g, k, 3)
        before = {u for u in g.vertices() if base.coreness[u] >= k}
        after_dec = core_decomposition(g, set(res.anchors))
        after = {
            u
            for u in g.vertices()
            if u not in res.anchor_set and after_dec.coreness[u] >= k
        }
        assert len(after - before) == res.kcore_growth

    def test_coreness_gain_reported(self, tmp_path):
        g = figure2_graph()
        res = olak(g, 3, 1)
        from repro.core.decomposition import coreness_gain

        assert res.coreness_gain == coreness_gain(g, res.anchors) == 3
        # Read off the maintained tables: equal to a fresh decomposition
        # on string labels (ids and labels disagree) and after a resume.
        g = string_labeled(small_random_graph(3))
        res = olak(g, 3, 4)
        assert len(res.anchors) == 4
        assert res.coreness_gain == coreness_gain(g, res.anchors) > 0
        path = tmp_path / "olak.ckpt"
        with kill_after_round(2), pytest.raises(Killed):
            olak(g, 3, 4, checkpoint=path)
        resumed = olak(g, 3, 4, resume=path)
        assert resumed.anchors == res.anchors
        assert resumed.coreness_gain == coreness_gain(g, resumed.anchors)

    def test_candidates_below_k_only(self):
        g = figure2_graph()
        res = olak(g, 3, 2)
        base = core_decomposition(g)
        for a in res.anchors:
            assert base.coreness[a] < 3

    def test_anchors_distinct(self):
        g = small_random_graph(1)
        res = olak(g, 3, 4)
        assert len(set(res.anchors)) == len(res.anchors)


class TestSweep:
    def test_sweep_covers_core_range(self):
        g = figure2_graph()
        results = olak_sweep(g, budget=1)
        assert set(results) == set(range(2, 6))  # k_max = 4
        assert all(res.k == k for k, res in results.items())

    def test_sweep_explicit_ks(self):
        g = figure2_graph()
        results = olak_sweep(g, budget=1, k_values=[3])
        assert list(results) == [3]


class TestValidation:
    def test_bad_budget(self):
        with pytest.raises(BudgetError):
            olak(figure2_graph(), 3, -1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            olak(figure2_graph(), 0, 1)
