"""Tests for the flat follower kernel against the dict oracle.

The flat kernel's candidate stream is the only search production runs;
``dict_stream`` (the stream contract on ``DictExplorer``) is kept as the
oracle it must match byte for byte. These tests pin GAC identity across
worker counts (with the Figure-13 counters and the reference-peel
gain), GAC and OLAK counter parity with the oracle substituted through
the ``repro.anchors.followers._stream`` seam, the stream itself against
the oracle (any id order, served rows, abandoned streams), and the
incremental flat-table maintenance (``apply_update``) across several
anchorings against the oracle on a fresh build. See
``docs/kernels.md`` for the contract.
"""

from __future__ import annotations

import importlib
import itertools
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.anchors import followers as followers_mod
from repro.anchors import kernels
from repro.anchors.followers import FollowerCounters, find_followers
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import Tally
from repro.anchors.state import AnchoredState
from repro.core.decomposition import _sort_key
from repro.datasets import registry
from repro.olak.olak import olak
from repro.verify.dict_explorer import DictExplorer, dict_stream
from repro.verify.reference import reference_gain

from conftest import graph_strategy, needs_fork, string_labeled

gac_mod = importlib.import_module("repro.anchors.gac")
flat_stream = followers_mod._flat_stream


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
# substituted for the flat kernel through ``followers._stream``.


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
            patch.setattr(followers_mod, "_stream", dict_stream)
            base = gac(graph, 3, workers=0)
        assert sum(base.gains) == reference_gain(graph, frozenset(base.anchors))
        reference = _gac_observables(base)
        for workers in (0, 2, 4):
            observed = _gac_observables(gac(graph, 3, workers=workers))
            assert observed == reference, workers

    def test_olak_identical_across_kernels(self, monkeypatch):
        graph = registry.load("arxiv")

        def observed():
            # k = 9: arxiv has no candidate below k = 5
            result = olak(graph, 9, 3)
            return (
                result.anchors,
                result.followers,
                result.kcore_growth,
                result.coreness_gain,
            )

        flat = observed()
        monkeypatch.setattr(followers_mod, "_stream", dict_stream)
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
    monkeypatch.setattr(followers_mod, "_stream", dict_stream)
    assert _windowed_gac(graph) == flat


@needs_fork
def test_oracle_seam_reaches_the_dict_backend(monkeypatch, tmp_path):
    """The substitution really runs ``DictExplorer``, not the flat kernel:
    in ``find_followers``, GAC's round, OLAK's round and the pool's
    forked evaluator (which records into a file: it runs in a worker)."""
    parent = os.getpid()
    log = tmp_path / "built.txt"
    init = DictExplorer.__init__

    def recording(self, state, xid):
        with log.open("a") as out:
            out.write(f"{os.getpid()} {xid}\n")
        init(self, state, xid)

    def built():
        lines = log.read_text().split() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), int(xid)) for pid, xid in zip(lines[::2], lines[1::2])]

    monkeypatch.setattr(DictExplorer, "__init__", recording)
    monkeypatch.setattr(followers_mod, "_stream", dict_stream)
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
    graph = registry.load("arxiv")
    state = AnchoredState.build(graph)
    x = sorted(graph.vertices(), key=_sort_key)[0]
    find_followers(state, x)
    # (twice under REPRO_VERIFY, whose check re-searches the candidate)
    assert set(built()) == {(parent, state.tables.index[x])}
    gac(graph, 1, workers=0)
    assert len(built()) > 1  # the round's candidates and the winner
    olak(graph, 9, 1)  # 38 candidates in arxiv's 8-shell
    assert len(built()) > 1
    gac(graph, 1, workers=2, verify=False)  # a verified run stays serial
    assert any(pid != parent for pid, _ in built())


# ----------------------------------------------------------------------
# The candidate stream against the oracle's, candidate by candidate:
# per-node counts (served ones first), totals, survivor sets and the
# Figure-13 tallies, for any id order and any served rows.


def _evaluations(stream, state, ids, served=None):
    """Per candidate: (id, counts in order, total, survivor sets, tallies)."""
    tally = Tally()
    members = {}
    out = []
    for i, counts, total in stream(state, ids, tally, served, members=members):
        out.append((i, list(counts.items()), total, dict(members), tally.take()))
        members.clear()
    return out


@st.composite
def _stream_case(draw):
    graph = string_labeled(draw(graph_strategy(max_vertices=16)))
    labels = sorted(graph.vertices())
    anchors = draw(st.lists(st.sampled_from(labels), max_size=2, unique=True))
    assume(len(anchors) < len(labels))
    state = AnchoredState.build(graph, anchors)
    tables = state.tables
    candidates = [i for i, a in enumerate(tables.is_anchor) if not a]
    ids = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=12))
    served = {}
    for i in sorted(set(ids)):
        nodes = draw(st.lists(st.sampled_from(tables.sn_ids[i]), unique=True)) if (
            tables.sn_ids[i]
        ) else []
        if nodes:
            served[i] = {nid: draw(st.integers(0, 9)) for nid in nodes}
    stop = draw(st.integers(0, len(ids)))
    return state, ids, served, stop


@given(_stream_case())
@FAST
def test_stream_matches_the_oracle_per_candidate(case):
    """Any id order (repeats included) and random served rows: the flat
    stream yields what the oracle's does, candidate by candidate. A
    stream abandoned after ``stop`` candidates, a second stream run to
    the end meanwhile, and the first one resumed afterwards must all
    still match: no generation word is aliased."""
    state, ids, served, stop = case
    expected = _evaluations(dict_stream, state, ids, served)
    assert _evaluations(flat_stream, state, ids, served) == expected
    assert _evaluations(flat_stream, state, ids) == _evaluations(
        dict_stream, state, ids
    )

    tally = Tally()
    members = {}
    first = flat_stream(state, iter(ids), tally, served, members=members)
    head = []
    for i, counts, total in itertools.islice(first, stop):
        head.append((i, list(counts.items()), total, dict(members), tally.take()))
        members.clear()
    assert head == expected[:stop]
    assert _evaluations(flat_stream, state, ids, served) == expected
    tail = []
    for i, counts, total in first:
        tail.append((i, list(counts.items()), total, dict(members), tally.take()))
        members.clear()
    assert head + tail == expected


# ----------------------------------------------------------------------
# Incremental table maintenance: after a sequence of apply_anchor calls
# the cached flat tables must answer exactly like the dict oracle on a
# from-scratch build (covers core moves, layer-only moves staling
# neighbor splits and sn_ids refresh).


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
        xid = tables.index[u]
        assert _evaluations(flat_stream, state, [xid]) == _evaluations(
            dict_stream, fresh, [xid]
        ), u
        incremental = find_followers(state, u)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(followers_mod, "_stream", dict_stream)
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
