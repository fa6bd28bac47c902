"""Tests for the flat follower kernel against the dict oracle.

The flat kernel is the only search production runs; ``DictExplorer``
is kept as the oracle it must match byte for byte. These tests pin
GAC identity across worker counts (with the Figure-13 counters and the
reference-peel gain), GAC and OLAK counter parity with the oracle
substituted into :func:`repro.anchors.followers.find_followers`, and
the incremental flat-table maintenance (``apply_update``) across
several anchorings against the oracle on a fresh build. See
``docs/kernels.md`` for the contract.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.anchors import followers as followers_mod
from repro.anchors import kernels
from repro.anchors.followers import FollowerCounters, find_followers
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import flat_explorer
from repro.anchors.state import AnchoredState
from repro.core.decomposition import _sort_key
from repro.datasets import registry
from repro.olak.olak import olak
from repro.verify.dict_explorer import DictExplorer
from repro.verify.reference import reference_gain

from conftest import graph_strategy, string_labeled


FAST = settings(max_examples=25, deadline=None)


class TestSelection:
    def test_default_is_flat(self):
        assert kernels.resolve_kernel() == "flat"
        assert kernels.resolve_kernel("flat") == "flat"

    @pytest.mark.parametrize("name", ["dict", "cuda"])
    def test_unknown_name_fails_loudly(self, name):
        # The dict backend is a test oracle, never a selectable kernel.
        with pytest.raises(ValueError, match=name):
            kernels.resolve_kernel(name)


# ----------------------------------------------------------------------
# Byte-identity against the dict oracle and across worker counts:
# anchors, gains, follower sets, Figure-13 counters. The oracle is
# substituted for the flat kernel through ``followers._explorer``.


def _gac_observables(result):
    return (
        result.anchors,
        result.gains,
        result.followers,
        result.truncated,
        [vars(t.counters) for t in result.traces],
        [t.candidate_count for t in result.traces],
    )


class TestMatrixIdentity:
    def test_gac_identical_across_kernels_and_workers(self, monkeypatch):
        graph = registry.load("arxiv")
        with monkeypatch.context() as patch:
            patch.setattr(followers_mod, "_explorer", DictExplorer)
            base = gac(graph, 3, workers=0)
        assert sum(base.gains) == reference_gain(graph, frozenset(base.anchors))
        reference = _gac_observables(base)
        for workers in (0, 2, 4):
            observed = _gac_observables(gac(graph, 3, workers=workers))
            assert observed == reference, workers

    def test_olak_identical_across_kernels(self, monkeypatch):
        graph = registry.load("arxiv")

        def observed():
            result = olak(graph, 3, 3)
            return (
                result.anchors,
                result.followers,
                result.kcore_growth,
                result.coreness_gain,
            )

        flat = observed()
        monkeypatch.setattr(followers_mod, "_explorer", DictExplorer)
        assert observed() == flat


# ----------------------------------------------------------------------
# Counter parity through the registry window (the Figure-13 facade)


def _windowed_gac(graph):
    window = obs.window()
    result = gac(graph, 5, workers=0)
    return vars(FollowerCounters.from_window(window)), result.anchors, result.gains


def test_counters_from_window_parity_across_backends_arxiv_b5(monkeypatch):
    """The arxiv b=5 run reports identical counters on flat and the oracle.

    ``FollowerCounters.from_window`` reads registry deltas, so this
    also proves the kernel increments the *registry* like the oracle —
    not just the per-trace accumulators.
    """
    graph = registry.load("arxiv")
    flat = _windowed_gac(graph)
    monkeypatch.setattr(followers_mod, "_explorer", DictExplorer)
    assert _windowed_gac(graph) == flat


def test_oracle_seam_reaches_the_dict_backend(monkeypatch):
    """The substitution really runs ``DictExplorer``, not the flat kernel."""
    built = []

    class Recording(DictExplorer):
        def __init__(self, state, x):
            built.append(x)
            super().__init__(state, x)

    monkeypatch.setattr(followers_mod, "_explorer", Recording)
    graph = registry.load("arxiv")
    state = AnchoredState.build(graph)
    x = sorted(graph.vertices(), key=_sort_key)[0]
    find_followers(state, x)
    assert built == [x]


# ----------------------------------------------------------------------
# Incremental table maintenance: after a sequence of apply_anchor calls
# the cached flat tables must answer exactly like the dict oracle on a
# from-scratch build (covers core moves, layer-only moves staling
# neighbor splits, support-row and sn_ids refresh).


def _explore_all(explorer, state, x):
    """Every ``sn(x)`` node explored: (node id, count, heap pops, survivors)."""
    tables = state.tables
    xid = tables.index[x]
    own = tables.nid[xid]
    todo = [(nid, nid == own) for nid in tables.sn_ids[xid]]
    return explorer(state, xid).explore_nodes(todo, True)


@st.composite
def _graph_and_anchors(draw):
    graph = string_labeled(draw(graph_strategy(max_vertices=16)))
    anchors = draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_vertices - 1).map("v{}".format),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    return graph, anchors


@given(_graph_and_anchors())
@FAST
def test_incremental_tables_match_fresh_build(pair):
    graph, anchors = pair
    assume(graph.num_vertices > len(anchors))
    state = AnchoredState.build(graph)
    tables = state.tables
    for x in anchors:
        apply_anchor(state, x)
    assert state.tables is tables  # updated in place, never rebuilt
    fresh = AnchoredState.build(graph, anchors)
    for u in sorted(graph.vertices()):
        if u in anchors:
            continue
        assert _explore_all(flat_explorer, state, u) == _explore_all(
            DictExplorer, fresh, u
        ), u
        incremental = find_followers(state, u)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(followers_mod, "_explorer", DictExplorer)
            scratch = find_followers(fresh, u)
        assert incremental.counts == scratch.counts, u
        assert incremental.members == scratch.members, u


def test_no_tca_bucket_holds_an_anchor():
    """The kernel seeds from ``tca`` buckets unfiltered: neither the build
    nor ``apply_anchor``'s patches may leave an anchor in one."""
    graph = registry.load("gowalla")
    anchors = gac(graph, 5).anchors
    state = AnchoredState.build(graph)
    for x in anchors:
        apply_anchor(state, x)
        tables = state.tables
        for row in tables.tca_ids:
            for bucket in row.values():
                assert not any(tables.is_anchor[v] for v in bucket), x
    fresh = AnchoredState.build(graph, anchors)
    assert fresh.tables.tca_ids == state.tables.tca_ids
