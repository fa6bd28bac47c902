"""Tests for the cross-iteration reuse mechanism (Algorithm 3).

The central correctness property (Theorem 4.9): after anchoring ``x``,
every cached per-node follower count that *survives* invalidation equals
the count a fresh computation produces in the new state.
"""

import importlib

import pytest

from repro.anchors.followers import find_followers
from repro.anchors.gac import gac
from repro.anchors.reuse import FollowerCache, result_reuse
from repro.anchors.state import AnchoredState
from repro.datasets import registry

from conftest import Killed, kill_after_round, small_random_graph, string_labeled

gac_mod = importlib.import_module("repro.anchors.gac")


def _graph(seed):
    """Labels that are not CSR ids: the cache must be keyed by id."""
    return string_labeled(small_random_graph(seed))


def _store(cache, state, u):
    """Cache ``u``'s fresh per-node counts as the greedy scan does."""
    report = find_followers(state, u)
    cache.store(state.tables.index[u], report.counts, state.tables.core)
    return report


def _valid(cache, state, u):
    return cache.valid_counts(state.tables.index[u], state)


class TestFollowerCache:
    def test_store_and_valid(self):
        state = AnchoredState.build(_graph(0))
        cache = FollowerCache()
        report = _store(cache, state, "v1")
        assert _valid(cache, state, "v1") == report.counts
        assert list(cache.entries) == [state.tables.index["v1"]]

    def test_valid_counts_empty_for_unknown(self):
        state = AnchoredState.build(_graph(0))
        assert _valid(FollowerCache(), state, "v1") == {}

    def test_apply_removals(self):
        state = AnchoredState.build(_graph(0))
        cache = FollowerCache()
        report = _store(cache, state, "v1")
        nids = list(report.counts)
        dropped = cache.apply_removals({state.tables.index["v1"]: set(nids)})
        assert dropped == len(nids)
        assert _valid(cache, state, "v1") == {}

    def test_rows_after_a_run_map_ints_to_ints(self, monkeypatch, tmp_path):
        """After ``gac(gowalla, 20)`` every ``entries`` / ``cores`` /
        ``live`` row maps ints to ints — no per-entry tuple — and a
        checkpoint + resume rewrites the uninterrupted run's last
        checkpoint byte for byte."""
        caches = []

        class Recording(FollowerCache):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                caches.append(self)

        monkeypatch.setattr(gac_mod, "FollowerCache", Recording)
        monkeypatch.setattr(gac_mod, "_clock", lambda: 0.0)
        graph = registry.load("gowalla")
        whole = tmp_path / "whole.ckpt"
        gac(graph, 20, seed=0, checkpoint=whole)
        (cache,) = caches
        for name in ("entries", "cores", "live"):
            rows = getattr(cache, name)
            assert rows, name
            for i, row in rows.items():
                assert type(i) is int and type(row) is dict, (name, i)
                for nid, value in row.items():
                    assert type(nid) is int and type(value) is int, (name, i, nid)
        assert list(cache.entries) == list(cache.cores)
        for i, row in cache.entries.items():
            assert list(row) == list(cache.cores[i]), i
        part = tmp_path / "part.ckpt"
        with kill_after_round(10), pytest.raises(Killed):
            gac(graph, 20, seed=0, checkpoint=part)
        gac(graph, 20, seed=0, checkpoint=part, resume=part)
        assert part.read_bytes() == whole.read_bytes()

    def test_forget(self):
        state = AnchoredState.build(_graph(0))
        cache = FollowerCache()
        _store(cache, state, "v1")
        cache.forget(state.tables.index["v1"])
        assert _valid(cache, state, "v1") == {}

    def test_coreness_mismatch_rejected(self):
        state = AnchoredState.build(_graph(0))
        cache = FollowerCache()
        report = find_followers(state, "v1")
        wrong_k = [k + 1 for k in state.tables.core]
        cache.store(state.tables.index["v1"], report.counts, wrong_k)
        assert _valid(cache, state, "v1") == {}


class TestResultReuse:
    def test_rejects_wrong_anchor(self):
        old = AnchoredState.build(_graph(0))
        new = old.with_anchor("v1")
        with pytest.raises(ValueError):
            result_reuse(old, new, "v2")

    @pytest.mark.parametrize("seed", range(10))
    def test_surviving_cache_entries_are_correct(self, seed):
        """Theorem 4.9: reused counts equal freshly computed counts."""
        g = _graph(seed)
        old = AnchoredState.build(g)
        cache = FollowerCache()
        totals = {u: _store(cache, old, u).total for u in g.vertices()}
        # anchor the vertex with the most followers (max churn)
        x = max(sorted(g.vertices()), key=totals.__getitem__)
        new = old.with_anchor(x)
        removals = result_reuse(old, new, x)
        cache.apply_removals(removals)
        cache.forget(old.tables.index[x])
        for u in g.vertices():
            if u == x:
                continue
            surviving = _valid(cache, new, u)
            fresh = find_followers(new, u)
            for nid, count in surviving.items():
                assert fresh.counts.get(nid) == count, (seed, x, u, nid)

    @pytest.mark.parametrize("seed", range(6))
    def test_reused_totals_match_fresh_totals(self, seed):
        """End-to-end: totals computed with reuse == totals without."""
        g = _graph(seed)
        old = AnchoredState.build(g)
        cache = FollowerCache()
        for u in g.vertices():
            _store(cache, old, u)
        x = sorted(g.vertices())[0]
        new = old.with_anchor(x)
        cache.apply_removals(result_reuse(old, new, x))
        cache.forget(old.tables.index[x])
        for u in g.vertices():
            if u == x:
                continue
            cached = _valid(cache, new, u)
            with_reuse = find_followers(new, u, reusable_counts=cached)
            without = find_followers(new, u)
            assert with_reuse.total == without.total, (seed, u)

    def test_three_iterations_of_reuse(self):
        """Cache entries surviving several anchorings stay correct."""
        g = _graph(3)
        state = AnchoredState.build(g)
        cache = FollowerCache()
        for u in g.vertices():
            _store(cache, state, u)
        for x in sorted(g.vertices())[:3]:
            new = state.with_anchor(x)
            cache.apply_removals(result_reuse(state, new, x))
            cache.forget(state.tables.index[x])
            state = new
            for u in g.vertices():
                if u in state.anchors:
                    continue
                surviving = _valid(cache, state, u)
                fresh = find_followers(state, u)
                for nid, count in surviving.items():
                    assert fresh.counts.get(nid) == count, (x, u, nid)
                cache.store(state.tables.index[u], fresh.counts, state.tables.core)


#: Two anchorings, then a third whose component members move into
#: another node: row v5 keeps the count it cached for node v0 from
#: outside it, and that count is stale once v5 is a member.
_MOVED_INTO_NODE = [
    ("v0", "v1"), ("v0", "v2"), ("v0", "v4"), ("v0", "v5"), ("v0", "v6"),
    ("v0", "v8"), ("v0", "v9"), ("v1", "v10"), ("v1", "v2"), ("v1", "v4"),
    ("v1", "v5"), ("v1", "v8"), ("v2", "v10"), ("v2", "v3"), ("v2", "v4"),
    ("v2", "v6"), ("v2", "v9"), ("v3", "v10"), ("v3", "v4"), ("v3", "v7"),
    ("v4", "v10"), ("v5", "v10"), ("v5", "v7"), ("v5", "v9"), ("v6", "v10"),
    ("v6", "v7"), ("v7", "v10"), ("v7", "v8"), ("v8", "v9"), ("v8", "v10"),
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: Algorithm 3's removals keep a row's count for the "
    "node it has just moved into (CHANGES.md FOUND)",
)
def test_no_stale_count_after_a_member_moves_into_a_cached_node():
    from repro.anchors.incremental import apply_anchor
    from repro.graphs.graph import Graph

    graph = Graph.from_edges(_MOVED_INTO_NODE)
    state = AnchoredState.build(graph, ["v1", "v6", "v9"])
    cache = FollowerCache()
    for x in ["v4", "v2", "v3"]:
        for u in state.candidates():
            _store(cache, state, u)
        removals = apply_anchor(state, x).removals
        cache.apply_removals(removals)
        cache.forget(state.tables.index[x])
    for u in state.candidates():
        fresh = find_followers(state, u).counts
        for nid, count in _valid(cache, state, u).items():
            assert fresh[nid] == count, (u, nid)
