"""Property-based tests (hypothesis) for the core invariants.

Every theorem the implementation relies on is stated here as a property
over randomly generated graphs.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anchors.bounds import compute_upper_bounds
from repro.anchors.followers import find_followers, followers_naive
from repro.anchors.gac import gac
from repro.anchors.reuse import FollowerCache, result_reuse
from repro.anchors.state import AnchoredState
from repro.core.decomposition import (
    core_decomposition,
    coreness_gain,
    peel_decomposition,
)
from repro.core.layers import upstair_reachable
from repro.core.tree import CoreComponentTree

from conftest import graph_and_vertex, graph_strategy

FAST = settings(max_examples=40, deadline=None)
SLOW = settings(max_examples=20, deadline=None)


@given(graph_strategy())
@FAST
def test_kcore_degree_constraint(graph):
    """Every vertex of the k-core has >= k neighbors inside it."""
    dec = core_decomposition(graph)
    for k in range(1, dec.max_coreness + 1):
        members = dec.k_core_members(k)
        for u in members:
            assert sum(1 for v in graph.neighbors(u) if v in members) >= k


@given(graph_strategy())
@FAST
def test_kcore_maximality(graph):
    """No vertex outside the k-core could survive inside it."""
    dec = core_decomposition(graph)
    for k in range(1, dec.max_coreness + 1):
        members = dec.k_core_members(k)
        # greedily try to re-add excluded vertices: none may stabilize
        outside = set(graph.vertices()) - members
        candidate = members | outside
        changed = True
        while changed:
            changed = False
            for u in list(candidate):
                if sum(1 for v in graph.neighbors(u) if v in candidate) < k:
                    candidate.discard(u)
                    changed = True
        assert candidate == members


@given(graph_strategy())
@FAST
def test_coreness_at_most_degree(graph):
    dec = core_decomposition(graph)
    for u in graph.vertices():
        assert 0 <= dec.coreness[u] <= graph.degree(u)


@given(graph_strategy(), st.integers(min_value=0, max_value=10 ** 6))
@SLOW
def test_coreness_monotone_under_edge_addition(graph, seed):
    """Adding an edge never decreases any vertex's coreness."""
    import random

    rng = random.Random(seed)
    before = core_decomposition(graph).coreness
    vertices = sorted(graph.vertices())
    if len(vertices) < 2:
        return
    u, v = rng.sample(vertices, 2)
    if graph.has_edge(u, v):
        return
    g2 = graph.copy()
    g2.add_edge(u, v)
    after = core_decomposition(g2).coreness
    assert all(after[w] >= before[w] for w in vertices)


@given(graph_and_vertex())
@FAST
def test_theorem_4_6_single_anchor_plus_one(pair):
    """One anchor raises any other vertex's coreness by at most 1."""
    graph, x = pair
    before = core_decomposition(graph).coreness
    after = core_decomposition(graph, {x}).coreness
    for u in graph.vertices():
        if u != x:
            assert after[u] - before[u] in (0, 1)


@given(graph_and_vertex())
@FAST
def test_fast_followers_match_oracle(pair):
    """Algorithm 4 equals the brute-force oracle."""
    graph, x = pair
    state = AnchoredState.build(graph)
    fast = find_followers(state, x).all_members()
    assert fast == followers_naive(graph, x)


@given(graph_and_vertex())
@FAST
def test_theorem_4_14_followers_upstair_reachable(pair):
    graph, x = pair
    dec = peel_decomposition(graph)
    assert followers_naive(graph, x) <= upstair_reachable(graph, dec, x)


@given(graph_and_vertex())
@FAST
def test_theorem_4_17_upper_bound_dominates(pair):
    graph, x = pair
    state = AnchoredState.build(graph)
    bounds = compute_upper_bounds(state)
    assert bounds.total[x] >= find_followers(state, x).total


@given(graph_strategy())
@FAST
def test_tree_invariants(graph):
    dec = peel_decomposition(graph)
    tree = CoreComponentTree.build(graph, dec)
    tree.validate(graph, dec)


@given(graph_and_vertex())
@SLOW
def test_reuse_preserves_counts(pair):
    """Theorem 4.9 as a property: surviving cache entries stay exact."""
    graph, x = pair
    old = AnchoredState.build(graph)
    cache = FollowerCache()
    node_k = {nid: node.k for nid, node in old.tree.nodes.items()}
    for u in graph.vertices():
        cache.store(find_followers(old, u), node_k)
    new = old.with_anchor(x)
    cache.apply_removals(result_reuse(old, new, x))
    cache.forget(x)
    for u in graph.vertices():
        if u == x:
            continue
        fresh = find_followers(new, u)
        for nid, count in cache.valid_counts(u, new).items():
            assert fresh.counts.get(nid) == count


@given(graph_strategy(max_vertices=16), st.integers(min_value=1, max_value=3))
@SLOW
def test_greedy_total_equals_definition(graph, budget):
    """GreedyResult.total_gain always equals g(A, G) by Definition 2.4."""
    budget = min(budget, graph.num_vertices)
    result = gac(graph, budget, tie_break="id")
    assert result.total_gain == coreness_gain(graph, result.anchors)


@given(graph_strategy(max_vertices=16))
@SLOW
def test_anchoring_never_decreases_coreness(graph):
    """Anchoring is pure reinforcement: no vertex ever loses coreness."""
    before = core_decomposition(graph).coreness
    anchors = sorted(graph.vertices())[:2]
    after = core_decomposition(graph, anchors).coreness
    for u in graph.vertices():
        if u not in anchors:
            assert after[u] >= before[u]


@given(
    graph_strategy(max_vertices=14),
    st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)),
        min_size=1,
        max_size=15,
    ),
)
@SLOW
def test_maintenance_tracks_recompute(graph, edits):
    """CoreMaintainer stays exact under arbitrary edit sequences."""
    from repro.core.maintenance import CoreMaintainer

    maintainer = CoreMaintainer(graph)
    for u, v in edits:
        if u == v:
            continue
        if maintainer.graph.has_edge(u, v):
            maintainer.remove_edge(u, v)
        else:
            maintainer.insert_edge(u, v)
    maintainer.validate()


@given(graph_strategy(max_vertices=18))
@FAST
def test_distributed_matches_coreness(graph):
    """The h-index iteration's fixed point is the coreness."""
    from repro.distributed import distributed_core_decomposition

    run = distributed_core_decomposition(graph)
    assert run.estimates == core_decomposition(graph).coreness


@given(graph_strategy(max_vertices=16), st.integers(min_value=1, max_value=4))
@SLOW
def test_cascade_equilibrium_is_kcore(graph, k):
    """With no seeds the departure cascade settles on the k-core."""
    from repro.cascade import departure_cascade

    result = departure_cascade(graph, k, seeds=[])
    dec = core_decomposition(graph)
    assert result.survivors == {u for u in graph.vertices() if dec.coreness[u] >= k}


@given(graph_strategy(max_vertices=14))
@SLOW
def test_onion_layers_partition_vertices(graph):
    """Every vertex lands in exactly one onion layer."""
    from repro.analysis.onion import onion_spectrum

    spectrum = onion_spectrum(graph)
    assert sum(spectrum.layer_sizes.values()) == graph.num_vertices


@given(graph_strategy(max_vertices=16))
@SLOW
def test_truss_matches_networkx(graph):
    """Truss decomposition agrees with networkx on every k."""
    import networkx as nx

    from repro.truss.decomposition import canonical_edge, truss_decomposition

    dec = truss_decomposition(graph)
    nxg = graph.to_networkx()
    for k in range(2, dec.max_trussness + 2):
        ours = dec.k_truss_edges(k)
        theirs = {canonical_edge(u, v) for u, v in nx.k_truss(nxg, k).edges()}
        assert ours == theirs, k


@given(graph_and_vertex(max_vertices=18), st.integers(min_value=2, max_value=5))
@SLOW
def test_olak_restricted_followers_match_kcore_diff(pair, k):
    """The shell-restricted follower search equals the k-core diff."""
    graph, x = pair
    base = core_decomposition(graph)
    if base.coreness[x] >= k:
        return
    state = AnchoredState.build(graph)
    fast = find_followers(state, x, only_coreness=k - 1).all_members()
    before = {u for u in graph.vertices() if base.coreness[u] >= k}
    after = core_decomposition(graph, {x})
    naive = {
        u for u in graph.vertices() if u != x and after.coreness[u] >= k
    } - before
    assert fast == naive


@given(
    graph_strategy(max_vertices=20),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["id", "random"]),
)
@SLOW
def test_kill_and_resume_matches_the_uninterrupted_oracle(
    graph, kill_round, tie_break
):
    """The differential harness: killing a GAC run at *any* round
    boundary (via the ``gac.round_commit`` fault site) and resuming
    from its checkpoint reproduces the uninterrupted oracle exactly —
    anchors, marginal gains, follower sets, and Figure-13 counter
    traces, RNG stream included for ``tie_break="random"``."""
    from repro.faults import FaultInjected

    def fingerprint(result):
        return (
            result.anchors,
            result.gains,
            result.followers,
            [vars(t.counters) for t in result.traces],
            [t.candidate_count for t in result.traces],
        )

    budget = min(4, graph.num_vertices)
    oracle = gac(graph, budget, tie_break=tie_break, seed=11)
    if not oracle.anchors:
        return  # nothing to kill: the greedy never reaches a round boundary
    kill_round = min(kill_round, len(oracle.anchors))
    # hypothesis reuses function-scoped tmp_path across examples; a
    # per-example TemporaryDirectory keeps checkpoints isolated instead
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prop.ckpt")
        with pytest.raises(FaultInjected):
            gac(
                graph,
                budget,
                tie_break=tie_break,
                seed=11,
                checkpoint=path,
                faults=f"gac.round_commit=raise@{kill_round}",
            )
        resumed = gac(graph, budget, tie_break=tie_break, seed=11, resume=path)
    assert fingerprint(resumed) == fingerprint(oracle)


# ----------------------------------------------------------------------
# Follower-kernel differential harness (docs/kernels.md): the flat
# kernel must be byte-identical to the dict oracle — explored node ids,
# survivor sets, heap pops, AND the Figure-13 counters — on random
# graphs including the corners the flat tables care about
# (disconnected components, isolated vertices, rejected self-loops).

from repro import obs
from repro.anchors import followers as followers_mod
from repro.anchors.followers import FollowerCounters
from repro.anchors.kernels.dict_backend import DictExplorer
from repro.anchors.kernels.flat_backend import flat_explorer
from repro.core.decomposition import _sort_key
from repro.graphs.graph import Graph, GraphError



@st.composite
def kernel_corner_graph_and_vertex(draw, max_vertices: int = 20, max_edges: int = 40):
    """Random graphs hitting the kernel corners.

    Unlike :func:`conftest.graph_strategy` there is no connecting
    backbone, so isolated vertices and disconnected components are
    common; self-loop insertions are *attempted* and must be rejected by
    the Graph API (the kernels assume simple graphs — the flat backend's
    pre-discard-x trick is only sound without self-loops).
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = Graph()
    for u in range(n):
        graph.add_vertex(u)
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            with pytest.raises(GraphError):
                graph.add_edge(u, v)
        else:
            graph.add_edge_if_absent(u, v)
    x = draw(st.integers(min_value=0, max_value=n - 1))
    return graph, x


def _kernel_observables(graph, x):
    """Everything the byte-identity contract covers, for one search."""
    state = AnchoredState.build(graph)
    window = obs.window()
    report = find_followers(state, x)
    return report.counts, report.members, vars(FollowerCounters.from_window(window))


def _oracle_observables(graph, x):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(followers_mod, "_explorer", DictExplorer)
        return _kernel_observables(graph, x)


@given(kernel_corner_graph_and_vertex())
@FAST
def test_kernel_backends_byte_identical(pair):
    """The flat kernel agrees with the dict oracle to the byte."""
    graph, x = pair
    state = AnchoredState.build(graph)
    own = state.node_id(x)
    todo = [(nid, nid == own) for nid in sorted(state.sn(x), key=_sort_key)]
    assert flat_explorer(state, x).explore_nodes(todo) == DictExplorer(
        state, x
    ).explore_nodes(todo)
    assert _kernel_observables(graph, x) == _oracle_observables(graph, x)
    # ...and the oracle itself agrees with brute force.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(followers_mod, "_explorer", DictExplorer)
        members = find_followers(AnchoredState.build(graph), x).all_members()
    assert members == followers_naive(graph, x)


@given(kernel_corner_graph_and_vertex(max_vertices=14))
@SLOW
def test_kernel_backends_identical_through_gac(pair):
    """Whole greedy runs (anchors, gains, counters) match the oracle."""
    graph, _ = pair
    budget = min(3, graph.num_vertices)

    def observed():
        result = gac(graph, budget)
        return (
            result.anchors,
            result.gains,
            result.followers,
            [vars(t.counters) for t in result.traces],
        )

    flat = observed()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(followers_mod, "_explorer", DictExplorer)
        assert observed() == flat


@given(graph_and_vertex(max_vertices=16))
@SLOW
def test_in_place_anchor_matches_fresh_build(pair):
    """apply_anchor's mutated state equals a from-scratch build."""
    from repro.anchors.incremental import apply_anchor

    graph, x = pair
    state = AnchoredState.build(graph)
    apply_anchor(state, x)
    fresh = AnchoredState.build(graph, {x})
    assert state.decomposition.coreness == fresh.decomposition.coreness
    assert state.decomposition.shell_layer == fresh.decomposition.shell_layer
    assert set(state.tree.nodes) == set(fresh.tree.nodes)
    for u in graph.vertices():
        assert state.adjacency.sn[u] == fresh.adjacency.sn[u]
        assert state.fixed_support[u] == fresh.fixed_support[u]
