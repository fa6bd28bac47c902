"""In-place anchoring: the paper's local subtree rebuild (Algorithm 3).

`AnchoredState.with_anchor` rebuilds every structure globally — simple,
but O(m) per greedy iteration regardless of how little changed. The
paper instead re-decomposes only ``CC(T[x])`` — the core component of
the anchored vertex — and splices the rebuilt subtree into the tree
(Algorithm 3 lines 7-10). This module implements that fast path.

Locality rests on two facts:

* a k-core component's decomposition (corenesses *and* shell layers) is
  independent of the rest of the graph, so re-peeling the component's
  induced subgraph — plus the already-anchored vertices adjacent to it,
  which supply permanent support — reproduces the global values;
* anchors live in no tree node (see ``CoreComponentTree.build``), so an
  anchoring never forces tree surgery outside the rebuilt subtree.

`apply_anchor` mutates the state. Its correctness oracle — structural
equality with a fresh ``AnchoredState.build`` — runs in the test suite
over random anchor sequences.
"""

from __future__ import annotations

from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import CoreComponentTree, NodeId, TreeAdjacency, _sort_key
from repro.graphs.graph import Vertex


def apply_anchor(
    state: AnchoredState, x: Vertex, compute_removals: bool = True
) -> dict[Vertex, set[NodeId]]:
    """Anchor ``x`` in place; returns Algorithm 3's cache removals.

    Args:
        state: the state to mutate (``x`` must not already be anchored).
        x: the vertex to anchor.
        compute_removals: skip the invalidation bookkeeping when the
            caller runs without a follower cache (GAC-U-R).

    Returns:
        ``removals[u]`` — old node ids whose cached ``F[u][id]`` counts
        must be dropped (empty when ``compute_removals`` is false).
    """
    if x in state.anchors:
        raise ValueError(f"{x!r} is already anchored")
    graph = state.graph
    tree = state.tree
    old_node = tree.node_of[x]
    component = old_node.subtree_vertices()

    # ---- Algorithm 3 lines 1-6: invalidation from the old structures.
    removals: dict[Vertex, set[NodeId]] = {}
    affected: set[Vertex] = set()
    if compute_removals:
        for nid in state.sn(x):  # lint: order-ok set union is commutative
            affected |= tree.nodes[nid].vertices
        _invalidate(state.adjacency, tree, affected, removals)
    old_ids = {v: tree.node_of[v].node_id for v in component}

    # ---- Lines 7-10: re-decompose the component locally and splice.
    # Anchors adjacent to the component supply permanent support and act
    # as connectors; anchor-anchor chains extend that connectivity, so
    # the induced subgraph takes the closure of adjacent anchors.
    new_anchors = state.anchors | {x}
    boundary_anchors = {
        a
        for v in component
        for a in graph.neighbors(v)
        if a in state.anchors
    }
    closure = set(boundary_anchors)
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        for b in graph.neighbors(a):  # lint: order-ok closure BFS builds a set
            if b in state.anchors and b not in closure:
                closure.add(b)
                frontier.append(b)
    sub = graph.subgraph(component | closure)
    local = peel_decomposition(sub, closure | {x})
    coreness = state.decomposition.coreness
    shell_layer = state.decomposition.shell_layer
    for v in component:
        if v == x:
            continue
        coreness[v] = local.coreness[v]
        shell_layer[v] = local.shell_layer[v]
    # Anchor effective corenesses are defined over *global* non-anchor
    # neighborhoods; refresh every anchor whose neighborhood changed.
    state.anchors = new_anchors
    for a in sorted(boundary_anchors | {x}, key=_sort_key):
        eff = max(
            (
                coreness[v]
                for v in graph.neighbors(a)
                if v not in new_anchors
            ),
            default=0,
        )
        coreness[a] = eff
        shell_layer[a] = (eff, 0)
    state.decomposition = CoreDecomposition(
        coreness=coreness,
        shell_layer=shell_layer,
        order=[],  # the global deletion order is not maintained in place
        anchors=new_anchors,
    )

    subtree = CoreComponentTree.build(sub, local)
    old_parent = old_node.parent
    for node in _all_subtree_nodes(old_node):
        tree.nodes.pop(node.node_id, None)
    tree.node_of.pop(x, None)
    # Anchors connect at every level, so the component stays one piece
    # (x itself now connects whatever it used to): the rebuilt subtree
    # replaces the old one under the same parent.
    if old_parent is None:
        tree.roots = [r for r in tree.roots if r is not old_node]
        for root in subtree.roots:
            root.parent = None
            tree.roots.append(root)
        tree.roots.sort(key=lambda nd: _sort_key(nd.node_id))
    else:
        old_parent.children = [c for c in old_parent.children if c is not old_node]
        for root in subtree.roots:
            root.parent = old_parent
            old_parent.children.append(root)
        old_parent.children.sort(key=lambda c: _sort_key(c.node_id))
    for nid, node in subtree.nodes.items():
        tree.nodes[nid] = node
    for v, node in subtree.node_of.items():
        tree.node_of[v] = node

    # ---- Refresh adjacency/support for the component's neighborhood.
    touched = set(component)
    for v in component:
        touched |= graph.neighbors(v)
    _refresh_adjacency(state, touched)
    # Keep the flat kernel tables (if this state has been searched yet)
    # in sync with the same increment.
    if state.kernel_tables is not None:
        state.kernel_tables.apply_update(state, touched)

    # ---- Lines 12-16: invalidation from the new structures.
    if compute_removals:
        widened: set[Vertex] = set()
        for v in affected:  # lint: order-ok set union is commutative
            if v in new_anchors:
                continue
            widened |= tree.node_of[v].vertices
        # removals accumulate into per-vertex sets; scan order is free
        for v in widened - affected:  # lint: order-ok commutative set inserts
            vid = old_ids.get(v)
            if vid is None:
                continue
            removals.setdefault(v, set()).add(vid)
            tca_v = state.adjacency.tca[v]
            for nid2 in state.adjacency.pn[v]:
                for u in tca_v[nid2]:
                    removals.setdefault(u, set()).add(vid)
    return removals


def _invalidate(
    adjacency: TreeAdjacency,
    tree: CoreComponentTree,
    affected: set[Vertex],
    removals: dict[Vertex, set[NodeId]],
) -> None:
    """Lines 3-6: each affected vertex's node id dies for itself and for
    its lower-coreness neighbors."""
    for v in affected:  # lint: order-ok commutative set inserts
        vid = tree.node_of[v].node_id
        removals.setdefault(v, set()).add(vid)
        tca_v = adjacency.tca[v]
        for nid2 in adjacency.pn[v]:
            for u in tca_v[nid2]:
                removals.setdefault(u, set()).add(vid)


def _all_subtree_nodes(root) -> list:
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def _refresh_adjacency(state: AnchoredState, touched: set[Vertex]) -> None:
    """Recompute tca/sn/pn and the support tables for ``touched``.

    Mirrors the tracked :class:`TreeAdjacency` pass: anchored neighbors
    are bucketed nowhere and counted as fixed support.
    """
    graph = state.graph
    anchors = state.anchors
    coreness = state.decomposition.coreness
    node_of = state.tree.node_of
    adjacency = state.adjacency
    for u in touched:  # lint: order-ok per-vertex updates are independent
        cu = coreness[u]
        tca_u: dict[NodeId, set[Vertex]] = {}
        sn_u: set[NodeId] = set()
        pn_u: set[NodeId] = set()
        fixed = 0
        same: list[Vertex] = []
        # Canonical neighbor order keeps same_shell lists identical to a
        # fresh TreeAdjacency build (and stable across hash seeds).
        for v in sorted(graph.neighbors(u), key=_sort_key):
            if v in anchors:
                fixed += 1
                continue
            nid = node_of[v].node_id
            bucket = tca_u.get(nid)
            if bucket is None:
                tca_u[nid] = {v}
            else:
                bucket.add(v)
            cv = coreness[v]
            if cv >= cu:
                sn_u.add(nid)
            else:
                pn_u.add(nid)
            if cv > cu:
                fixed += 1
            elif cv == cu:
                same.append(v)
        adjacency.tca[u] = tca_u
        adjacency.sn[u] = sn_u
        adjacency.pn[u] = pn_u
        state.fixed_support[u] = fixed
        state.same_shell[u] = same
