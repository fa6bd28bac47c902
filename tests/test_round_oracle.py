"""The count-only GAC candidate round against the per-candidate scan.

``_oracle_select_best`` below is the candidate round as it ran before
the round became id-native: label-keyed candidates sorted by
``(-refined, sort key)``, one ``valid_counts`` per candidate in the
refined-bound pass and again in the scan, one ``find_followers`` per
evaluated candidate, ``FollowerCache.store`` of each report with node
corenesses read off the tree, and a ``continue`` through the pruned
tail. The production round (``gac._select_best``) must pick the same
candidate with the same gain, leave the same cache rows (row order
included) and report the same Figure-13 counters, round by round —
while counting each served cache entry once per candidate per round,
and ``break``-ing at the first pruned candidate. The graphs carry
string labels, so CSR ids and labels disagree and a label used where
an id belongs shows.
"""

from __future__ import annotations

import copy
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.anchors import followers as followers_mod
from repro.anchors.bounds import compute_upper_bounds, refined_total
from repro.anchors.followers import FollowerCounters, find_followers
from repro.anchors.gac import greedy_anchored_coreness
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import Tally
from repro.anchors.reuse import FollowerCache
from repro.anchors.state import AnchoredState
from repro.core.decomposition import _sort_key
from repro.verify.dict_explorer import dict_stream

from conftest import (
    graph_strategy,
    label_oracle,
    needs_fork,
    small_random_graph,
    string_labeled,
)

gac_mod = importlib.import_module("repro.anchors.gac")

FAST = settings(max_examples=30, deadline=None)

#: (use_upper_bounds, reuse) of GAC, GAC-U and GAC-U-R.
VARIANTS = {"gac": (True, True), "gac_u": (False, True), "gac_u_r": (False, False)}


class _SmallestWins:
    """Tie value wrapper: ``a > b`` when a's key is smaller."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __gt__(self, other: "_SmallestWins") -> bool:
        return self.key < other.key


def _oracle_tie(tie_break, state, refined):
    if tie_break == "ub" and refined:
        return lambda u: refined[u]
    if tie_break in ("ub", "degree"):
        return lambda u: state.graph.degree(u)
    assert tie_break == "id"
    return lambda u: _SmallestWins(_sort_key(u))


def _oracle_select_best(
    state, cache, *, base_coreness, use_upper_bounds, reuse, tie_break
):
    """The per-candidate label-keyed round (tree follower method).

    ``base_coreness`` is label-keyed; the cache and the bounds take ids.
    """
    candidates = state.candidates()
    if not candidates:
        return None, 0
    index = state.tables.index
    refined = {}
    if use_upper_bounds:
        bounds = compute_upper_bounds(state)
        for u in candidates:
            cached = cache.valid_counts(index[u], state) if reuse else {}
            refined[u] = refined_total(index[u], bounds, cached)
        order = sorted(candidates, key=lambda u: (-refined[u], _sort_key(u)))
    else:
        order = sorted(candidates, key=_sort_key)
    tie_of = _oracle_tie(tie_break, state, refined)
    decomposition, tree = label_oracle(state.graph, state.anchors)
    node_k = {index[nid]: node.k for nid, node in tree.nodes.items()}
    best, best_gain, best_tie = None, -1, None
    for u in order:
        if use_upper_bounds and refined[u] < best_gain:
            obs.add(obs.PRUNED_CANDIDATES)
            continue
        cached = cache.valid_counts(index[u], state) if reuse else None
        report = find_followers(state, u, reusable_counts=cached)
        if reuse:
            cache.store(index[u], report.counts, node_k)
        gain = report.total - (decomposition.coreness[u] - base_coreness[u])
        if gain > best_gain:
            best, best_gain, best_tie = u, gain, tie_of(u)
        elif gain == best_gain and best is not None:
            tie = tie_of(u)
            if tie > best_tie:
                best, best_tie = u, tie
    return best, best_gain


def _rows(cache):
    """The cache as nested item lists: equality includes row order."""
    return [(u, list(row.items())) for u, row in cache.entries.items()]


def _expected_served(state, cache):
    """Valid cache entries over all candidates: each counted once."""
    index = state.tables.index
    with obs.suspended():
        return sum(
            len(cache.valid_counts(index[u], state)) for u in state.candidates()
        )


def _commit(state, cache, best, reuse):
    i = state.tables.index[best]
    removals = apply_anchor(state, best, compute_removals=reuse).removals
    if reuse:
        cache.apply_removals(removals)
        cache.forget(i)
    else:
        cache.clear()


@st.composite
def _round_case(draw):
    graph = string_labeled(draw(graph_strategy(max_vertices=18)))
    n = graph.num_vertices
    prior = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1).map("v{}".format),
            max_size=min(3, n - 1),
            unique=True,
        )
    )
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    tie_break = draw(st.sampled_from(["ub", "degree", "id"]))
    return graph, prior, variant, tie_break


@given(_round_case())
@FAST
def test_round_matches_per_candidate_oracle(case):
    graph, prior, variant, tie_break = case
    use_upper_bounds, reuse = VARIANTS[variant]
    state = AnchoredState.build(graph, prior)
    base = dict(label_oracle(graph, prior)[0].coreness)
    base_ids = [base[u] for u in state.tables.labels]
    cache = FollowerCache()
    upkeep = gac_mod.RoundUpkeep(use_upper_bounds=use_upper_bounds, reuse=reuse)
    for _ in range(3):
        candidates = len(state.candidates())
        if not candidates:
            break
        oracle_cache = copy.deepcopy(cache)
        window = obs.window()
        expected = _oracle_select_best(
            state,
            oracle_cache,
            base_coreness=base,
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            tie_break=tie_break,
        )
        oracle_counters = FollowerCounters.from_window(window)

        served = _expected_served(state, cache) if reuse else 0
        window = obs.window()
        best_id, gain, expired = gac_mod._select_best(
            state,
            cache,
            upkeep=upkeep,
            base_coreness=base_ids,
            follower_method="tree",
            tie_break=tie_break,
            rng=random.Random(0),
        )
        counters = FollowerCounters.from_window(window)
        best = None if best_id is None else state.tables.labels[best_id]

        assert not expired
        assert (best, gain) == expected
        assert _rows(cache) == _rows(oracle_cache)
        assert counters == oracle_counters
        # The break accounts for the whole pruned tail.
        assert counters.pruned_candidates + counters.evaluated_candidates == candidates
        assert window.counter(obs.REUSE_SERVED) == served
        if best is None:  # every remaining gain is negative
            break
        upkeep.anchor(state, cache, best)


@given(_round_case())
@FAST
def test_kernel_count_is_the_survivor_count(case):
    """Both kernels: ``count == len(survivors)``; counts need no sets."""
    graph, prior, _, _ = case
    state = AnchoredState.build(graph, prior)
    tables = state.tables
    ids = [tables.index[x] for x in state.candidates()]
    for stream in (followers_mod._flat_stream, dict_stream):
        members = {}
        full, bare = Tally(), Tally()
        counted = list(stream(state, ids, bare))
        for (i, counts, total), again in zip(
            stream(state, ids, full, members=members), counted
        ):
            assert list(counts) == tables.sn_ids[i]
            assert counts == {nid: len(members[nid]) for nid in counts}
            assert total == sum(counts.values())
            assert again == (i, counts, total)
            members.clear()
        assert full.take() == bare.take()


def _oracle_run(graph, budget, variant, tie_break):
    """Whole greedy run on the oracle round: per-round picks and counters."""
    use_upper_bounds, reuse = VARIANTS[variant]
    state = AnchoredState.build(graph)
    base = dict(label_oracle(graph)[0].coreness)
    cache = FollowerCache()
    picks, rounds, served = [], [], 0
    for _ in range(budget):
        if reuse:
            served += _expected_served(state, cache)
        window = obs.window()
        best, gain = _oracle_select_best(
            state,
            cache,
            base_coreness=base,
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            tie_break=tie_break,
        )
        rounds.append(FollowerCounters.from_window(window))
        picks.append((best, gain))
        _commit(state, cache, best, reuse)
    return picks, rounds, served


def _run(graph, budget, variant, tie_break, workers):
    use_upper_bounds, reuse = VARIANTS[variant]
    window = obs.window()
    result = greedy_anchored_coreness(
        graph,
        budget,
        use_upper_bounds=use_upper_bounds,
        reuse=reuse,
        tie_break=tie_break,
        workers=workers,
    )
    picks = list(zip(result.anchors, result.gains))
    return picks, [t.counters for t in result.traces], window.counter(obs.REUSE_SERVED)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_whole_run_matches_oracle_with_dict_kernel(variant, monkeypatch):
    """Serial runs on either kernel equal the oracle's, served count included."""
    graph = string_labeled(small_random_graph(3, n=60, m=180))
    expected = _oracle_run(graph, 4, variant, "ub")
    assert _run(graph, 4, variant, "ub", 0) == expected
    monkeypatch.setattr(followers_mod, "_stream", dict_stream)
    assert _run(graph, 4, variant, "ub", 0) == expected


@needs_fork
@pytest.mark.parametrize("variant", ["gac", "gac_u"])
def test_parallel_round_counts_served_once(variant, monkeypatch):
    """The pool's replay reports the serial round's counters and served count."""
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
    graph = string_labeled(small_random_graph(3, n=60, m=180))
    expected = _oracle_run(graph, 3, variant, "id")
    assert _run(graph, 3, variant, "id", 2) == expected
    assert _run(graph, 3, variant, "id", 0) == expected
