"""Tests for the interchangeable follower-search kernels.

Backend selection precedence and loud failure on typos, byte-identity
of GAC and OLAK across the full ``kernel x workers`` matrix, counter
parity through ``FollowerCounters.from_window``, and correctness of the
incremental flat-table maintenance (``apply_update``) against a fresh
build. See ``docs/kernels.md`` for the contract these tests pin.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import obs
from repro.anchors import kernels
from repro.anchors.followers import FollowerCounters, find_followers
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.state import AnchoredState
from repro.datasets import registry
from repro.olak.olak import olak
from repro.verify.reference import reference_gain

from conftest import graph_and_vertex


FAST = settings(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# Selection precedence: kwarg > REPRO_KERNEL > default


class TestSelection:
    def test_default_is_flat(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_KERNEL, raising=False)
        assert kernels.requested_kernel() == "flat"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "dict")
        assert kernels.requested_kernel() == "dict"

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "dict")
        assert kernels.requested_kernel("flat") == "flat"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "  ")
        assert kernels.requested_kernel() == "flat"

    @pytest.mark.parametrize("source", ["kwarg", "env"])
    def test_unknown_name_fails_loudly(self, monkeypatch, source):
        if source == "env":
            monkeypatch.setenv(kernels.ENV_KERNEL, "cuda")
            with pytest.raises(ValueError, match="cuda"):
                kernels.requested_kernel()
        else:
            with pytest.raises(ValueError, match="cuda"):
                kernels.requested_kernel("cuda")


# ----------------------------------------------------------------------
# Byte-identity across the kernel x workers matrix (the tentpole
# contract): anchors, gains, follower totals, Figure-13 counters.


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
    def test_gac_identical_across_kernels_and_workers(self):
        graph = registry.load("arxiv")
        base = gac(graph, 3, kernel="dict", workers=0)
        assert sum(base.gains) == reference_gain(graph, frozenset(base.anchors))
        reference = _gac_observables(base)
        for kernel in kernels.KERNELS:
            for workers in (0, 2, 4):
                if kernel == "dict" and workers == 0:
                    continue
                observed = _gac_observables(
                    gac(graph, 3, kernel=kernel, workers=workers)
                )
                assert observed == reference, (kernel, workers)

    def test_olak_identical_across_kernels(self):
        graph = registry.load("arxiv")
        reference = None
        for kernel in kernels.KERNELS:
            result = olak(graph, 3, 3, kernel=kernel)
            observed = (
                result.anchors,
                result.followers,
                result.kcore_growth,
                result.coreness_gain,
            )
            if reference is None:
                reference = observed
            else:
                assert observed == reference, kernel


# ----------------------------------------------------------------------
# Counter parity through the registry window (the Figure-13 facade)


def test_counters_from_window_parity_across_backends_arxiv_b5():
    """The arxiv b=5 run reports identical counters from every backend.

    ``FollowerCounters.from_window`` reads registry deltas, so this
    also proves the backends increment the *registry* identically —
    not just the per-trace accumulators.
    """
    graph = registry.load("arxiv")
    reference = None
    for kernel in kernels.KERNELS:
        window = obs.window()
        result = gac(graph, 5, kernel=kernel, workers=0)
        observed = (
            vars(FollowerCounters.from_window(window)),
            result.anchors,
            result.gains,
        )
        if reference is None:
            reference = observed
        else:
            assert observed == reference, kernel


# ----------------------------------------------------------------------
# Incremental table maintenance: after apply_anchor the cached flat
# tables must answer exactly like a from-scratch build (covers core
# moves, layer-only moves staling neighbor splits, support-row and
# sn_ids refresh).


@given(graph_and_vertex(max_vertices=16))
@FAST
def test_incremental_tables_match_fresh_build(pair):
    graph, x = pair
    state = AnchoredState.build(graph)
    # Warm the cached tables pre-anchor so apply_anchor takes the
    # incremental apply_update path instead of a rebuild.
    seed = next(iter(sorted(graph.vertices())))
    find_followers(state, seed, kernel="flat")
    assert state.kernel_tables is not None
    apply_anchor(state, x)
    fresh = AnchoredState.build(graph, {x})
    for u in sorted(graph.vertices()):
        if u == x:
            continue
        incremental = find_followers(state, u, kernel="flat")
        scratch = find_followers(fresh, u, kernel="dict")
        assert incremental.counts == scratch.counts, u
        assert incremental.members == scratch.members, u
