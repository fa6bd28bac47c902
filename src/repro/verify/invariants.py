"""The invariant checks wired into the hot paths.

Every function is a no-op unless :func:`repro.verify.enabled` is true
at its call site (the hot paths gate the calls), suspends verification
while its own reference machinery runs (the references call the very
functions being validated), and raises
:class:`repro.errors.VerificationError` on the first violated
invariant. Expensive checks are size-capped — see
:func:`repro.verify.edge_limit` — so ``REPRO_VERIFY=1`` stays usable on
the full test suite; ``REPRO_VERIFY=full`` lifts the caps.

Checked invariants (see ``docs/verification.md``):

* coreness satisfies the k-core degree condition and matches an
  independent heap-peel recompute;
* shell-layer pairs are consistent with the peel order: layers ladder
  down to 1 through same-shell neighbors, and the deletion order is
  monotone in ``(coreness, layer)``;
* ``FindFollowers`` output equals the followers obtained from full
  re-decomposition;
* the Algorithm-3 reuse cache never serves a count that a fresh
  exploration would contradict (no stale tree nodes);
* the bounds, live cache rows and refined bounds the GAC round keeps
  across rounds equal a from-scratch build for the current state;
* the state an in-place anchoring leaves behind equals the from-scratch
  label-keyed oracle (peel, tree nodes, adjacency) and, table by table,
  a fresh id-native build for the same anchors;
* upper-bound pruning never discards a candidate whose true marginal
  gain exceeds the selected one, i.e. the greedy pick is a true argmax;
* the greedy run's summed marginal gains equal the coreness gain of
  its final anchor set.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro import verify
from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import CoreComponentTree, TreeAdjacency
from repro.errors import VerificationError
from repro.graphs.graph import Graph, Vertex
from repro.verify.reference import reference_coreness, reference_followers

if TYPE_CHECKING:  # pragma: no cover - annotation-only import, avoids a cycle
    from repro.anchors.bounds import UpperBounds
    from repro.anchors.reuse import FollowerCache
    from repro.anchors.state import AnchoredState

__all__ = [
    "verify_anchor_state",
    "verify_cache_counts",
    "verify_decomposition",
    "verify_follower_report",
    "verify_greedy_total",
    "verify_olak_selection",
    "verify_resume_replay",
    "verify_round_upkeep",
    "verify_selection",
    "verify_shell_layers",
]


def _fail(invariant: str, detail: str) -> None:
    raise VerificationError(f"invariant {invariant!r} violated: {detail}")


def verify_decomposition(
    graph: Graph, anchors: frozenset[Vertex], decomposition: CoreDecomposition
) -> None:
    """Coreness degree condition, anchor placement, and reference match."""
    with verify.suspended():
        coreness = decomposition.coreness
        missing = [u for u in graph.vertices() if u not in coreness]
        if missing:
            _fail("coreness-total", f"{len(missing)} vertices have no coreness")
        for u in graph.vertices():
            if u in anchors:
                continue
            cu = coreness[u]
            support = sum(
                1
                for v in graph.neighbors(u)
                if v in anchors or coreness[v] >= cu
            )
            if support < cu:
                _fail(
                    "kcore-degree-condition",
                    f"vertex {u!r} has coreness {cu} but only {support} "
                    f"neighbors in the {cu}-core",
                )
        for a in sorted(anchors, key=repr):
            expected = max(
                (coreness[v] for v in graph.neighbors(a) if v not in anchors),
                default=0,
            )
            if coreness[a] != expected:
                _fail(
                    "anchor-effective-coreness",
                    f"anchor {a!r} has coreness {coreness[a]}, expected "
                    f"{expected} (max over non-anchor neighbors)",
                )
        if graph.num_edges <= verify.edge_limit():
            reference = reference_coreness(graph, anchors)
            for u in graph.vertices():
                if coreness[u] != reference[u]:
                    _fail(
                        "coreness-reference-match",
                        f"vertex {u!r}: fast path says {coreness[u]}, "
                        f"reference heap peel says {reference[u]}",
                    )


def verify_shell_layers(graph: Graph, decomposition: CoreDecomposition) -> None:
    """Shell-layer pairs are monotone and consistent with the peel order."""
    with verify.suspended():
        anchors = decomposition.anchors
        coreness = decomposition.coreness
        pairs = decomposition.shell_layer
        order = decomposition.order
        for u in graph.vertices():
            if u not in pairs:
                _fail("shell-layer-total", f"vertex {u!r} has no shell-layer pair")
            k, layer = pairs[u]
            if k != coreness[u]:
                _fail(
                    "shell-layer-shell",
                    f"vertex {u!r}: pair {pairs[u]} disagrees with coreness "
                    f"{coreness[u]}",
                )
            if u in anchors:
                if layer != 0:
                    _fail(
                        "anchor-layer-zero",
                        f"anchor {u!r} must sit in layer 0, got {layer}",
                    )
                continue
            if layer < 1:
                _fail(
                    "layer-positive",
                    f"non-anchor {u!r} must have layer >= 1, got {layer}",
                )
            if layer > 1:
                # The batched peel only moves a vertex into batch i when a
                # same-shell neighbor fell in batch i - 1.
                has_ladder = any(
                    v not in anchors and pairs[v] == (k, layer - 1)
                    for v in graph.neighbors(u)
                )
                if not has_ladder:
                    _fail(
                        "layer-ladder",
                        f"vertex {u!r} in layer {layer} of shell {k} has no "
                        f"same-shell neighbor in layer {layer - 1}",
                    )
        if order:
            if len(order) != graph.num_vertices:
                _fail(
                    "order-total",
                    f"deletion order has {len(order)} entries for "
                    f"{graph.num_vertices} vertices",
                )
            non_anchor_pairs = [pairs[u] for u in order if u not in anchors]
            if any(
                earlier > later
                for earlier, later in zip(non_anchor_pairs, non_anchor_pairs[1:])
            ):
                _fail(
                    "order-monotone",
                    "deletion order is not monotone in (coreness, layer)",
                )
            tail = order[len(order) - len(anchors) :]
            if anchors and set(tail) != set(anchors):
                _fail("order-anchors-last", "anchors must close the deletion order")


def verify_follower_report(
    state: "AnchoredState", x: Vertex, total: int, members: set[Vertex]
) -> None:
    """``FindFollowers`` equals followers from full re-decomposition."""
    graph = state.graph
    if graph.num_edges > verify.edge_limit(2):
        return
    with verify.suspended():
        base = reference_coreness(graph, state.anchors)
        expected = reference_followers(graph, x, state.anchors, base=base)
        if total != len(expected) or members != expected:
            extra = sorted(members - expected, key=repr)
            lost = sorted(expected - members, key=repr)
            _fail(
                "find-followers-exact",
                f"candidate {x!r}: tree search found {total} followers, "
                f"re-decomposition found {len(expected)} "
                f"(spurious={extra[:5]}, missed={lost[:5]})",
            )


def verify_cache_counts(
    state: "AnchoredState", i: int, counts: Mapping[int, int]
) -> None:
    """A served cache entry of candidate id ``i`` matches a fresh exploration."""
    if not counts or state.graph.num_edges > verify.edge_limit(2):
        return
    with verify.suspended():
        from repro.anchors.followers import find_followers

        u = state.tables.labels[i]
        fresh = find_followers(state, u)
        for nid, count in sorted(counts.items()):
            actual = fresh.counts.get(nid)
            if actual is None:
                _fail(
                    "reuse-cache-live-node",
                    f"cache served node {nid!r} for candidate {u!r} but the "
                    "node is no longer in sn(u) — stale tree node",
                )
            elif actual != count:
                _fail(
                    "reuse-cache-count",
                    f"cache served |F[{u!r}][{nid!r}]| = {count} but a fresh "
                    f"exploration finds {actual} — stale count",
                )


def verify_round_upkeep(
    state: "AnchoredState",
    cache: "FollowerCache",
    bounds: "UpperBounds | None",
    refined: Sequence[int],
) -> None:
    """What the GAC round kept across an anchoring equals a fresh build.

    The live cache rows equal :meth:`FollowerCache.served` — a full
    ``_live`` pass, which also checks every served count against a
    fresh exploration — and, with pruning, ``own`` / ``total`` equal
    :func:`compute_upper_bounds` and every candidate's refined bound
    equals :func:`refined_total` over its live row.
    """
    fresh_rows = cache.served(state)
    with verify.suspended():
        from repro.anchors.bounds import compute_upper_bounds, refined_total

        labels = state.tables.labels
        if cache.live != fresh_rows:
            i = next(
                i
                for i in sorted(cache.live.keys() | fresh_rows.keys())
                if cache.live.get(i) != fresh_rows.get(i)
            )
            _fail(
                "round-upkeep-live-rows",
                f"kept cache row of {labels[i]!r} is {cache.live.get(i)!r}, a "
                f"full validation gives {fresh_rows.get(i)!r}",
            )
        if bounds is None:
            return
        fresh = compute_upper_bounds(state)
        for name, ours, theirs in (
            ("own", bounds.own, fresh.own),
            ("total", bounds.total, fresh.total),
        ):
            if ours != theirs:
                i = next(i for i in range(len(ours)) if ours[i] != theirs[i])
                _fail(
                    "round-upkeep-bounds",
                    f"kept {name} bound of {labels[i]!r} is {ours[i]}, a fresh "
                    f"pass gives {theirs[i]}",
                )
        for i, anchored in enumerate(state.tables.is_anchor):
            if anchored:
                continue
            expected = refined_total(i, fresh, fresh_rows.get(i, {}))
            if refined[i] != expected:
                _fail(
                    "round-upkeep-refined",
                    f"kept refined bound of {labels[i]!r} is {refined[i]}, a "
                    f"fresh refinement gives {expected}",
                )


def verify_anchor_state(state: "AnchoredState") -> None:
    """An in-place anchoring left exactly the state a fresh build has:
    the label views equal the from-scratch label oracle (peel, tree,
    ``TreeAdjacency``), every per-id table a fresh id-native build's."""
    graph = state.graph
    if graph.num_edges > verify.edge_limit(2):
        return
    with verify.suspended():
        from repro.anchors.state import AnchoredState

        anchors = state.anchors
        decomposition = peel_decomposition(graph, anchors)
        tree = CoreComponentTree.build(graph, decomposition)
        oracle = TreeAdjacency(graph, decomposition, tree, anchors)
        tables = state.tables
        labels = tables.labels
        for u in labels:
            i = tables.index[u]
            node = tree.node_of.get(u)
            node_id = None if node is None else node.node_id
            views = (
                ("coreness", state.coreness(u), decomposition.coreness[u]),
                ("shell-layer pair", state.pair(u), decomposition.shell_layer[u]),
                ("anchor flag", bool(tables.is_anchor[i]), u in anchors),
                ("tree node", state.node_id(u), node_id),
                ("tca", state.tca(u), oracle.tca[u]),
                ("sn", state.sn(u), oracle.sn[u]),
                ("pn", state.pn(u), oracle.pn[u]),
                ("fixed support", tables.fixed[i], oracle.fixed_support[u]),
                (
                    "same-shell row",
                    [labels[j] for j in sorted(tables.higher[i] + tables.loweq[i])],
                    oracle.same_shell[u],
                ),
            )
            for name, ours, theirs in views:
                if ours != theirs:
                    _fail(
                        "anchor-state-oracle",
                        f"{name} of {u!r} is {ours!r} after anchoring, the "
                        f"from-scratch label oracle has {theirs!r}",
                    )
        fresh = AnchoredState.build(graph, anchors)
        for name in tables.FIELDS:
            ours = getattr(tables, name)
            theirs = getattr(fresh.tables, name)
            if ours != theirs:
                i = next(i for i in range(len(ours)) if ours[i] != theirs[i])
                _fail(
                    "anchor-state-tables",
                    f"per-id {name} of {labels[i]!r} is {ours[i]!r} after "
                    f"anchoring, a fresh build has {theirs[i]!r}",
                )


def verify_selection(
    state: "AnchoredState",
    base_coreness: Sequence[int],
    best: Vertex,
    best_gain: int,
) -> None:
    """The greedy pick is a true argmax — pruning discarded no winner."""
    graph = state.graph
    if graph.num_edges > verify.edge_limit(8):
        return
    with verify.suspended():
        current = reference_coreness(graph, state.anchors)
        top: int | None = None
        top_vertex: Vertex | None = None
        for u, base in zip(state.tables.labels, base_coreness):
            if u in state.anchors:
                continue
            followers = reference_followers(graph, u, state.anchors, base=current)
            gain = len(followers) - (current[u] - base)
            if top is None or gain > top:
                top, top_vertex = gain, u
        if top is None:
            _fail("selection-nonempty", "no candidates but a vertex was selected")
        if best_gain != top:
            relation = "under" if best_gain < top else "over"
            _fail(
                "pruning-soundness",
                f"greedy selected {best!r} with gain {best_gain} but candidate "
                f"{top_vertex!r} has true gain {top} — upper-bound pruning "
                f"{relation}shot the argmax",
            )


def verify_greedy_total(
    graph: Graph, initial: frozenset[Vertex], anchors: list[Vertex], total_gain: int
) -> None:
    """Summed marginal gains telescope to the final coreness gain."""
    if graph.num_edges > verify.edge_limit(2):
        return
    with verify.suspended():
        base = reference_coreness(graph, initial)
        final_set = initial | frozenset(anchors)
        final = reference_coreness(graph, final_set)
        expected = sum(
            final[u] - base[u] for u in graph.vertices() if u not in final_set
        )
        if total_gain != expected:
            _fail(
                "greedy-total-gain",
                f"greedy accumulated {total_gain} marginal gain but the final "
                f"anchor set yields g(A, G) = {expected}",
            )


def verify_resume_replay(
    graph: Graph,
    initial: frozenset[Vertex],
    anchors: "list[Vertex]",
    gains: "list[int]",
    *,
    use_upper_bounds: bool,
    reuse: bool,
    follower_method: str,
    tie_break: str,
    seed: int | None,
) -> None:
    """A resumed prefix replays to the same greedy trace from scratch.

    Reruns the greedy with ``budget = len(anchors)`` — serial, checks
    off, observability muted — and demands the same anchors in the same
    order with the same marginal gains. A mismatch means the checkpoint
    restored state (RNG position, reuse cache, baseline corenesses)
    that the uninterrupted trajectory would not have produced.
    """
    if not anchors or graph.num_edges > verify.edge_limit(4):
        return
    with verify.suspended():
        from repro.anchors.gac import greedy_anchored_coreness

        replay = greedy_anchored_coreness(
            graph,
            len(anchors),
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            follower_method=follower_method,  # type: ignore[arg-type]
            tie_break=tie_break,  # type: ignore[arg-type]
            seed=seed,
            initial_anchors=initial,
            verify=False,
            workers=0,
        )
    if replay.anchors != anchors or replay.gains != gains:
        _fail(
            "resume-replay",
            f"checkpointed prefix (anchors={anchors[:5]}..., gains="
            f"{gains[:5]}...) does not replay: a fresh run selects "
            f"anchors={replay.anchors[:5]}..., gains={replay.gains[:5]}...",
        )


def verify_olak_selection(
    state: "AnchoredState", k: int, best: Vertex, members: frozenset[Vertex]
) -> None:
    """OLAK's shell-restricted followers match the re-decomposition diff."""
    graph = state.graph
    if graph.num_edges > verify.edge_limit(2):
        return
    with verify.suspended():
        current = reference_coreness(graph, state.anchors)
        followers = reference_followers(graph, best, state.anchors, base=current)
        expected = {u for u in followers if current[u] == k - 1}
        if members != expected:
            _fail(
                "olak-shell-followers",
                f"anchor {best!r} at k={k}: shell-restricted search found "
                f"{sorted(members, key=repr)[:5]}..., re-decomposition found "
                f"{sorted(expected, key=repr)[:5]}...",
            )
