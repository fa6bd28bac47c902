"""Tests for repro.verify — the runtime invariant checker.

Two halves: the enablement machinery (env flag, forcing, suspension,
size caps) and the invariants themselves. Each invariant is tested
positively (a correct pipeline passes with ``verify=True``) and
negatively (a seeded corruption raises ``VerificationError``) — a
checker that never fires is worse than none.
"""

from __future__ import annotations

import pytest

from repro import verify
from repro.anchors.gac import gac, greedy_anchored_coreness
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import FlatTables
from repro.anchors.state import AnchoredState
from repro.core.decomposition import (
    CoreDecomposition,
    core_decomposition,
    peel_decomposition,
)
from repro.errors import VerificationError
from repro.graphs.graph import Graph
from repro.olak.olak import olak
from repro.verify.invariants import (
    verify_anchor_state,
    verify_cache_counts,
    verify_decomposition,
    verify_follower_report,
    verify_greedy_total,
    verify_olak_selection,
    verify_selection,
    verify_shell_layers,
)
from repro.verify.reference import reference_coreness, reference_followers

from conftest import small_random_graph, string_labeled


def _gac_module():
    # ``repro.anchors`` re-exports the ``gac`` function, which shadows the
    # submodule on attribute access; go through sys.modules instead.
    import sys

    return sys.modules["repro.anchors.gac"]


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verify.enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "OFF"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert not verify.enabled()

    @pytest.mark.parametrize("value", ["1", "true", "full", "on"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert verify.enabled()

    def test_verification_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with verify.verification(False):
            assert not verify.enabled()
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        with verify.verification(True):
            assert verify.enabled()
        assert not verify.enabled()

    def test_suspended_beats_forcing(self):
        with verify.verification(True):
            with verify.suspended():
                assert not verify.enabled()
            assert verify.enabled()

    def test_edge_limit_scaling(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        monkeypatch.delenv("REPRO_VERIFY_LIMIT", raising=False)
        assert verify.edge_limit() == 4000
        assert verify.edge_limit(2) == 2000
        monkeypatch.setenv("REPRO_VERIFY_LIMIT", "100")
        assert verify.edge_limit() == 100
        monkeypatch.setenv("REPRO_VERIFY", "full")
        assert verify.edge_limit(8) > 10**12


class TestReference:
    """The reference implementations agree with the production paths."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_coreness_matches_bucket(self, seed):
        """The heap peel against both production entry points, with and
        without anchors, on integer and string labels."""
        g = small_random_graph(seed)
        if seed >= 2:
            g = string_labeled(g)
        anchors = frozenset(sorted(g.vertices())[:2]) if seed % 2 else frozenset()
        expected = reference_coreness(g, anchors)
        assert core_decomposition(g, anchors).coreness == expected
        assert peel_decomposition(g, anchors).coreness == expected

    def test_reference_followers_match_naive(self):
        from repro.anchors.followers import followers_naive

        g = small_random_graph(1)
        x = next(iter(sorted(g.vertices())))
        assert reference_followers(g, x, frozenset()) == followers_naive(g, x)


class TestDecompositionInvariants:
    def test_clean_decomposition_passes(self):
        g = small_random_graph(2)
        dec = peel_decomposition(g)
        verify_decomposition(g, frozenset(), dec)
        verify_shell_layers(g, dec)

    def test_corrupted_coreness_fails(self):
        g = small_random_graph(2)
        dec = core_decomposition(g)
        bad = dict(dec.coreness)
        victim = sorted(bad)[0]
        bad[victim] += 1
        with pytest.raises(VerificationError):
            verify_decomposition(g, frozenset(), CoreDecomposition(coreness=bad))

    def test_missing_vertex_fails(self):
        g = small_random_graph(2)
        bad = dict(core_decomposition(g).coreness)
        bad.pop(sorted(bad)[0])
        with pytest.raises(VerificationError, match="coreness-total"):
            verify_decomposition(g, frozenset(), CoreDecomposition(coreness=bad))

    def test_corrupted_layer_fails(self):
        g = small_random_graph(3)
        dec = peel_decomposition(g)
        bad_pairs = dict(dec.shell_layer)
        victim = sorted(bad_pairs)[0]
        bad_pairs[victim] = (bad_pairs[victim][0], bad_pairs[victim][1] + 41)
        corrupted = CoreDecomposition(
            coreness=dec.coreness, shell_layer=bad_pairs, order=dec.order
        )
        with pytest.raises(VerificationError):
            verify_shell_layers(g, corrupted)

    def test_anchor_in_wrong_layer_fails(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        dec = peel_decomposition(g, anchors=[3])
        bad_pairs = dict(dec.shell_layer)
        bad_pairs[3] = (bad_pairs[3][0], 7)
        corrupted = CoreDecomposition(
            coreness=dec.coreness, shell_layer=bad_pairs, anchors=frozenset([3])
        )
        with pytest.raises(VerificationError, match="anchor-layer-zero"):
            verify_shell_layers(g, corrupted)

    def test_decomposition_verify_kwarg_end_to_end(self):
        g = small_random_graph(4)
        core_decomposition(g, verify=True)
        peel_decomposition(g, list(g.vertices())[:1], verify=True)


class TestFollowerInvariants:
    def test_correct_report_passes(self):
        g = small_random_graph(5)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[0]
        expected = reference_followers(g, x, frozenset())
        verify_follower_report(state, x, len(expected), set(expected))

    def test_wrong_total_fails(self):
        g = small_random_graph(5)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[0]
        expected = reference_followers(g, x, frozenset())
        with pytest.raises(VerificationError, match="find-followers-exact"):
            verify_follower_report(state, x, len(expected) + 1, set(expected))

    def test_spurious_member_fails(self):
        g = small_random_graph(5)
        state = AnchoredState.build(g)
        x, *rest = sorted(g.vertices())
        expected = reference_followers(g, x, frozenset())
        intruder = next(v for v in rest if v not in expected)
        with pytest.raises(VerificationError, match="find-followers-exact"):
            verify_follower_report(
                state, x, len(expected) + 1, set(expected) | {intruder}
            )

    def test_stale_cache_count_fails(self):
        from repro.anchors.followers import find_followers

        g = small_random_graph(6)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[0]
        report = find_followers(state, x)
        nid = sorted(report.counts)[0]
        stale = {nid: report.counts[nid] + 1}
        with pytest.raises(VerificationError, match="reuse-cache-count"):
            verify_cache_counts(state, state.tables.index[x], stale)

    def test_valid_cache_count_passes(self):
        from repro.anchors.followers import find_followers

        g = small_random_graph(6)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[0]
        report = find_followers(state, x)
        verify_cache_counts(state, state.tables.index[x], dict(report.counts))


class TestSelectionInvariants:
    def test_wrong_gain_fails(self):
        g = small_random_graph(7)
        state = AnchoredState.build(g)
        base = list(state.tables.core)
        some = sorted(state.candidates())[0]
        with pytest.raises(VerificationError, match="pruning-soundness"):
            verify_selection(state, base, some, -41)

    def test_true_argmax_passes(self):
        g = small_random_graph(7)
        state = AnchoredState.build(g)
        base = list(state.tables.core)
        best, gain = None, -1
        for u in sorted(state.candidates()):
            followers = reference_followers(g, u, frozenset())
            if len(followers) > gain:
                best, gain = u, len(followers)
        verify_selection(state, base, best, gain)

    def test_wrong_greedy_total_fails(self):
        g = small_random_graph(8)
        result = gac(g, 2, tie_break="id")
        with pytest.raises(VerificationError, match="greedy-total-gain"):
            verify_greedy_total(
                g, frozenset(), result.anchors, result.total_gain + 1
            )

    def test_correct_greedy_total_passes(self):
        g = small_random_graph(8)
        result = gac(g, 2, tie_break="id")
        verify_greedy_total(g, frozenset(), result.anchors, result.total_gain)

    def test_wrong_olak_followers_fail(self):
        g = small_random_graph(9)
        result = olak(g, 2, 1)
        if not result.anchors:
            pytest.skip("no useful anchor on this graph")
        state = AnchoredState.build(g)
        best = result.anchors[0]
        wrong = frozenset(sorted(g.vertices())[:1]) ^ result.followers[best]
        with pytest.raises(VerificationError, match="olak-shell-followers"):
            verify_olak_selection(state, 2, best, wrong)


class TestAnchorStateInvariant:
    def test_in_place_anchoring_passes(self):
        g = small_random_graph(6, n=30, m=70)
        state = AnchoredState.build(g)
        for x in sorted(g.vertices())[:3]:
            apply_anchor(state, x)
            verify_anchor_state(state)

    def test_corrupted_row_order_fails(self):
        g = small_random_graph(6, n=30, m=70)
        state = AnchoredState.build(g)
        apply_anchor(state, 0)
        higher = state.tables.higher
        i = next(i for i, row in enumerate(higher) if len(row) > 1)
        higher[i].reverse()
        with pytest.raises(VerificationError, match="per-id higher"):
            verify_anchor_state(state)

    def test_corrupted_loweq_row_fails(self):
        g = small_random_graph(6, n=30, m=70)
        state = AnchoredState.build(g)
        apply_anchor(state, 0)
        loweq = state.tables.loweq
        i = next(i for i, row in enumerate(loweq) if row)
        loweq[i].pop()
        with pytest.raises(VerificationError, match="same-shell row"):
            verify_anchor_state(state)

    def test_stale_anchor_coreness_fails(self):
        """The label oracle, not only a fresh id-native build, is consulted."""
        g = small_random_graph(6, n=30, m=70)
        state = AnchoredState.build(g)
        apply_anchor(state, 0)
        state.tables.core[state.tables.index[0]] += 1
        with pytest.raises(VerificationError, match="coreness of 0"):
            verify_anchor_state(state)

    def test_hook_catches_a_dropped_patch(self, monkeypatch):
        """apply_anchor's own hook fires when neighbor patches are lost."""
        monkeypatch.setattr(FlatTables, "_patch", lambda self, u, v, prev: None)
        g = small_random_graph(6, n=30, m=70)
        state = AnchoredState.build(g)
        with verify.verification(True):
            with pytest.raises(VerificationError, match="anchor-state"):
                for x in sorted(g.vertices())[:3]:
                    apply_anchor(state, x)


class TestPipelineHooks:
    """verify=True threads through the public entry points end to end."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gac_verified_run(self, seed):
        g = small_random_graph(seed, n=24, m=50)
        result = greedy_anchored_coreness(g, 2, tie_break="id", verify=True)
        assert len(result.anchors) <= 2

    def test_gac_variants_verified(self):
        g = small_random_graph(3, n=20, m=40)
        totals = {
            greedy_anchored_coreness(
                g, 2, use_upper_bounds=ub, reuse=r, tie_break="id", verify=True
            ).total_gain
            for ub in (True, False)
            for r in (True, False)
        }
        assert len(totals) == 1  # all ablations agree under verification

    def test_olak_verified_run(self):
        g = small_random_graph(4, n=24, m=50)
        result = olak(g, 2, 2, verify=True)
        assert result.kcore_growth >= 0

    def test_hook_catches_injected_selection_bug(self, monkeypatch):
        """The gac.py hook itself fires when selection misreports a gain."""
        gac_module = _gac_module()
        real = gac_module._select_best

        def lying_select(state, cache, **kwargs):
            best, gain, expired = real(state, cache, **kwargs)
            return best, (gain + 1 if best is not None else gain), expired

        monkeypatch.setattr(gac_module, "_select_best", lying_select)
        g = small_random_graph(5, n=20, m=40)
        with pytest.raises(VerificationError, match="pruning-soundness"):
            greedy_anchored_coreness(g, 1, tie_break="id", verify=True)

    def test_verify_false_suppresses_env(self, monkeypatch):
        """verify=False must win over REPRO_VERIFY=1 (escape hatch)."""
        gac_module = _gac_module()
        real = gac_module._select_best

        def lying_select(state, cache, **kwargs):
            best, gain, expired = real(state, cache, **kwargs)
            return best, (gain + 1 if best is not None else gain), expired

        monkeypatch.setattr(gac_module, "_select_best", lying_select)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        g = small_random_graph(5, n=20, m=40)
        result = greedy_anchored_coreness(g, 1, tie_break="id", verify=False)
        assert result.anchors  # the lie goes unchecked, by request
