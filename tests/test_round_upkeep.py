"""The GAC round's upkeep across anchorings against fresh builds.

:class:`~repro.anchors.gac.RoundUpkeep` keeps the Eq. 1–3 bounds, the
cache's live rows and the refined bounds from one round to the next and
updates them from each anchoring's Δ. The from-scratch builders —
``compute_upper_bounds``, ``FollowerCache.served`` (a full ``_live``
pass) and ``refined_total`` — are the oracle: after every anchoring the
kept values must equal them, and whole runs must equal runs that
rebuild everything every round (what the round did before it kept
anything), for every variant, across a kill and resume, and with two
workers.
"""

from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.anchors.bounds import UpperBounds, compute_upper_bounds, refined_total
from repro.anchors.gac import gac, gac_u, gac_u_r, greedy_anchored_coreness
from repro.anchors.incremental import apply_anchor
from repro.anchors.reuse import FollowerCache
from repro.anchors.state import AnchoredState
from repro.datasets import registry
from repro.errors import VerificationError
from repro.olak.olak import olak

from conftest import (
    Killed,
    graph_strategy,
    kill_after_round,
    needs_fork,
    small_random_graph,
    string_labeled,
)

gac_mod = importlib.import_module("repro.anchors.gac")

FAST = settings(max_examples=60, deadline=None)

#: (use_upper_bounds, reuse) of GAC, GAC-U and GAC-U-R.
VARIANTS = {"gac": (True, True), "gac_u": (False, True), "gac_u_r": (False, False)}


def _assert_fresh(state, cache, upkeep):
    """The kept bounds, live rows and refined bounds equal fresh builds."""
    with obs.suspended():
        rows = cache.served(state)
        assert cache.live == rows
        if upkeep.bounds is None:
            return
        fresh = compute_upper_bounds(state)
        assert upkeep.bounds.own == fresh.own
        assert upkeep.bounds.total == fresh.total
        for i, anchored in enumerate(state.tables.is_anchor):
            if not anchored:
                expected = refined_total(i, fresh, rows.get(i, {}))
                assert upkeep.refined[i] == expected, state.tables.labels[i]


@st.composite
def _upkeep_case(draw):
    graph = string_labeled(draw(graph_strategy(max_vertices=36, max_extra_edges=100)))
    labels = sorted(graph.vertices())
    prior = set(
        draw(st.lists(st.sampled_from(labels), max_size=min(3, len(labels) - 1)))
    )
    edges = sorted(graph.edges())
    if edges and len(prior) + 2 < len(labels) and draw(st.booleans()):
        # Both ends of one edge: an anchor-anchor edge.
        prior.update(draw(st.sampled_from(edges)))
    picks = draw(st.lists(st.integers(min_value=0, max_value=10**6), max_size=8))
    variant = draw(st.sampled_from(["gac", "gac_u"]))
    return graph, sorted(prior), picks, variant


@given(_upkeep_case())
@FAST
def test_kept_state_equals_fresh_after_every_anchoring(case):
    """Winners and arbitrary candidates alike: after every ``apply_anchor``
    the kept bounds, live rows and refined bounds are the fresh ones."""
    graph, prior, picks, variant = case
    use_upper_bounds, reuse = VARIANTS[variant]
    state = AnchoredState.build(graph, prior)
    base = list(state.tables.core)
    cache = FollowerCache()
    upkeep = gac_mod.RoundUpkeep(use_upper_bounds=use_upper_bounds, reuse=reuse)
    for pick in picks:
        candidates = [i for i, a in enumerate(state.tables.is_anchor) if not a]
        if not candidates:
            break
        best, _, _ = gac_mod._select_best(
            state,
            cache,
            upkeep=upkeep,
            base_coreness=base,
            follower_method="tree",
            tie_break="ub",
            rng=random.Random(0),
        )
        # Alternate the round's winner with an arbitrary candidate, so Δ
        # also comes from anchorings the greedy would not make.
        if best is None or not pick % 2:
            best = candidates[pick % len(candidates)]
        upkeep.anchor(state, cache, state.tables.labels[best])
        _assert_fresh(state, cache, upkeep)


@pytest.mark.parametrize("name,budget", [("arxiv", 20), ("livejournal", 6)])
def test_kept_state_equals_fresh_on_replicas(name, budget, monkeypatch):
    """Replica rounds rename tree nodes away from the anchor (a merge one
    level down), which moves a neighbor's term between a served and an
    unserved node with neither the row nor the total changing."""
    anchor = gac_mod.RoundUpkeep.anchor
    rounds = []

    def checked(self, state, cache, x):
        anchor(self, state, cache, x)
        _assert_fresh(state, cache, self)
        rounds.append(x)

    monkeypatch.setattr(gac_mod.RoundUpkeep, "anchor", checked)
    gac(registry.load(name), budget)
    assert len(rounds) == budget


def _fresh_every_round(monkeypatch):
    """Make every round rebuild its bounds, rows and refined bounds."""
    anchor = gac_mod.RoundUpkeep.anchor

    def rebuild(self, state, cache, x):
        anchor(self, state, cache, x)
        self.built = False

    monkeypatch.setattr(gac_mod.RoundUpkeep, "anchor", rebuild)


def _outcome(run):
    window = obs.window()
    result = run()
    return (
        result.anchors,
        result.gains,
        result.followers,
        [trace.counters for trace in result.traces],
        window.counter(obs.REUSE_SERVED),
        window.counter(obs.REUSE_DROPPED),
    )


def _both(monkeypatch, run):
    """``run``'s outcome with the kept upkeep, then rebuilt every round."""
    kept = _outcome(run)
    with monkeypatch.context() as patched:
        _fresh_every_round(patched)
        fresh = _outcome(run)
    return kept, fresh


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("seed", range(3))
def test_runs_equal_rebuilding_every_round(variant, seed, monkeypatch):
    graph = string_labeled(small_random_graph(seed, n=60, m=180))
    prior = sorted(graph.vertices())[:2]
    use_upper_bounds, reuse = VARIANTS[variant]

    def run():
        return greedy_anchored_coreness(
            graph,
            6,
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            initial_anchors=prior,
        )

    kept, fresh = _both(monkeypatch, run)
    assert kept == fresh


def test_resumed_run_equals_rebuilding_every_round(monkeypatch, tmp_path):
    graph = string_labeled(small_random_graph(1, n=60, m=180))
    path = tmp_path / "run.ckpt"

    def run():
        with kill_after_round(2), pytest.raises(Killed):
            gac(graph, 5, checkpoint=path)
        return gac(graph, 5, checkpoint=path, resume=path)

    kept, fresh = _both(monkeypatch, run)
    assert kept == fresh
    with monkeypatch.context() as patched:
        _fresh_every_round(patched)
        uninterrupted = _outcome(lambda: gac(graph, 5))
    assert kept[:4] == uninterrupted[:4]


@needs_fork
@pytest.mark.parametrize("variant", ["gac", "gac_u"])
def test_two_workers_equal_rebuilding_every_round(variant, monkeypatch):
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
    graph = string_labeled(small_random_graph(3, n=60, m=180))
    run = {"gac": gac, "gac_u": gac_u}[variant]
    kept, fresh = _both(monkeypatch, lambda: run(graph, 4, workers=2))
    assert kept == fresh
    assert _outcome(lambda: run(graph, 4)) == kept


def test_verification_catches_a_stale_bound(monkeypatch):
    """Under verification a skipped bounds update fails the round."""
    monkeypatch.setattr(UpperBounds, "update", lambda self, changed: set())
    graph = string_labeled(small_random_graph(0, n=60, m=180))
    with pytest.raises(VerificationError, match="round-upkeep"):
        gac(graph, 4, verify=True)


def _recomputed_per_round(monkeypatch):
    rounds: list[int] = []
    update = UpperBounds.update

    def counting(self, changed):
        window = obs.window()
        moved = update(self, changed)
        rounds.append(window.counter(obs.BOUNDS_RECOMPUTED))
        return moved

    monkeypatch.setattr(UpperBounds, "update", counting)
    return rounds


def test_bounds_recomputed_is_a_tenth_of_n_per_round(monkeypatch):
    """On livejournal b=6 each anchoring recomputes Eq. 1 for at most
    n/10 ids, and the run does the same work as rebuilding, counter for
    counter."""
    graph = registry.load("livejournal")
    rounds = _recomputed_per_round(monkeypatch)
    window = obs.window()
    result = gac(graph, 6)
    assert result.total_gain == 258
    assert len(rounds) == 6
    assert all(0 < r <= graph.num_vertices // 10 for r in rounds), rounds
    assert {
        name: window.counter(name)
        for name in (
            obs.REUSE_SERVED,
            obs.EVALUATED_CANDIDATES,
            obs.EXPLORED_NODES,
            obs.VISITED_VERTICES,
            obs.PRUNED_CANDIDATES,
            obs.REUSE_DROPPED,
        )
    } == {
        obs.REUSE_SERVED: 58126,
        obs.EVALUATED_CANDIDATES: 24211,
        obs.EXPLORED_NODES: 66115,
        obs.VISITED_VERTICES: 186449,
        obs.PRUNED_CANDIDATES: 11174,
        obs.REUSE_DROPPED: 54484,
    }


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda g: gac_u_r(g, 3), id="gac_u_r"),
        pytest.param(lambda g: gac_u(g, 3), id="gac_u"),
        pytest.param(lambda g: olak(g, 3, 3), id="olak"),
    ],
)
def test_no_bounds_upkeep_without_pruning(monkeypatch, run):
    rounds = _recomputed_per_round(monkeypatch)
    window = obs.window()
    run(registry.load("brightkite"))
    assert rounds == []
    assert window.counter(obs.BOUNDS_RECOMPUTED) == 0


def test_apply_anchor_hands_back_delta():
    """Δ's previous signatures are what the tables held before."""
    graph = string_labeled(small_random_graph(2))
    state = AnchoredState.build(graph)
    t = state.tables
    before = list(zip(t.is_anchor, t.core, t.layer, t.nid))
    x = sorted(graph.vertices())[5]
    changed = apply_anchor(state, x).changed
    after = list(zip(t.is_anchor, t.core, t.layer, t.nid))
    assert changed == {i: b for i, (b, a) in enumerate(zip(before, after)) if b != a}
    assert t.index[x] in changed
