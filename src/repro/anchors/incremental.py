"""In-place anchoring: the paper's local subtree rebuild (Algorithm 3).

`AnchoredState.with_anchor` rebuilds every structure from scratch —
O(m) per greedy iteration regardless of how little changed. The paper
instead re-decomposes only ``CC(T[x])`` — the core component of the
anchored vertex — and splices the rebuilt subtree into the tree
(Algorithm 3 lines 7-10). This module implements that fast path in two
steps:

1. **Re-peel on CSR ids.** The component, plus the already-anchored
   vertices adjacent to it (and their anchor-anchor closure), is
   re-peeled and re-treed on the interned CSR rows under an id mask —
   no induced subgraph, no second CSR view.
2. **Edge deltas.** Δ is the set of vertices whose coreness,
   shell-layer pair, tree node id or anchor flag changed: ``x``, the
   boundary anchors whose effective coreness moved, and the component
   vertices the re-peel moved. Only Δ's rows are rebuilt, and Δ's
   entries in its neighbors' rows are patched in place
   (:meth:`~repro.anchors.kernels.flat_backend.FlatTables.apply_update`),
   so the table upkeep costs O(Σ_{v∈Δ} deg v) — the
   ``incremental.touched_edges`` counter.

Locality rests on two facts:

* a k-core component's decomposition (corenesses *and* shell layers) is
  independent of the rest of the graph, so re-peeling the component's
  induced subgraph — plus the already-anchored vertices adjacent to it,
  which supply permanent support — reproduces the global values;
* anchors live in no tree node (see ``CoreComponentTree.build``), so an
  anchoring never forces tree surgery outside the rebuilt subtree.

`apply_anchor` mutates the state. Its correctness oracle — equality of
every per-id table, the decomposition and the tree with a fresh
``AnchoredState.build`` — runs in the test suite over random anchor
sequences, and after every anchoring under ``REPRO_VERIFY=1``
(:func:`repro.verify.invariants.verify_anchor_state`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import FlatTables, Signature
from repro.anchors.reuse import Removals
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition
from repro.core.tree import CoreComponentTree, TreeNode, _sort_key
from repro.graphs.csr import peel_layers
from repro.graphs.graph import Vertex
from repro.verify import enabled as _verify_enabled


def apply_anchor(
    state: AnchoredState, x: Vertex, compute_removals: bool = True
) -> Removals:
    """Anchor ``x`` in place; returns Algorithm 3's cache removals.

    The round's one label step besides ``FlatTables``: the re-treed
    nodes enter as CSR ids (Δ), Δ goes back to the label-keyed dicts.

    Args:
        state: the state to mutate (``x`` must not already be anchored).
        x: the vertex to anchor.
        compute_removals: skip the invalidation bookkeeping when the
            caller runs without a follower cache (GAC-U-R).

    Returns:
        ``removals[u]`` — per vertex id, old node ids whose cached
        ``F[u][id]`` counts must be dropped (empty when
        ``compute_removals`` is false).
    """
    if x in state.anchors:
        raise ValueError(f"{x!r} is already anchored")
    tables = state.tables
    tree = state.tree
    index = tables.index
    labels = tables.labels
    rows = tables.rows
    is_anchor = tables.is_anchor
    nid = tables.nid
    xid = index[x]
    old_node = tree.node_of[x]
    component = sorted(index[v] for v in old_node.subtree_vertices())

    # ---- Algorithm 3 lines 1-6: invalidation from the old structures.
    # The nodes of sn(x) lie in x's component (they are adjacent to x at
    # coreness >= c(x)), so their members are found by scanning it.
    removals: Removals = {}
    adjacent = set(tables.sn_ids[xid]) if compute_removals else set()
    affected = [i for i in component if nid[i] in adjacent] if adjacent else []
    _invalidate(tables, [(i, nid[i]) for i in affected], removals)

    # ---- Lines 7-10: re-peel the component on CSR ids and splice.
    # Anchors adjacent to the component supply permanent support and act
    # as connectors; anchor-anchor chains extend that connectivity, so
    # the mask takes the closure of adjacent anchors.
    boundary = sorted({a for i in component for a in rows[i] if is_anchor[a]})
    closure = set(boundary)
    frontier = list(boundary)
    while frontier:
        a = frontier.pop()
        for b in rows[a]:
            if is_anchor[b] and b not in closure:
                closure.add(b)
                frontier.append(b)
    members = [i for i in component if i != xid]
    anchor_ids = sorted(closure | {xid})
    csr = tables.csr
    local_core, local_layer, _ = peel_layers(csr, anchor_ids, members)
    _obs.add(_obs.PEEL_POPS, len(members))
    subtree = CoreComponentTree.from_ids(csr, members, local_core, anchor_ids)
    _splice(tree, old_node, subtree)
    tree.node_of.pop(x, None)

    # ---- Δ: every vertex whose row-relevant values moved.
    core = tables.core
    layer = tables.layer
    node_of = tree.node_of
    id_of = index.__getitem__
    new_nid: dict[int, int] = {}
    delta: dict[int, Signature] = {}
    for i in members:
        new_nid[i] = node = id_of(node_of[labels[i]].node_id)
        if local_core[i] != core[i] or local_layer[i] != layer[i] or node != nid[i]:
            delta[i] = (0, local_core[i], local_layer[i], node)
    # Anchor effective corenesses are defined over *global* non-anchor
    # neighborhoods (x is an anchor from here on); refresh x and every
    # anchor adjacent to the re-peeled component.
    new_core = {i: local_core[i] for i in members}
    for a in [xid, *boundary]:
        eff = max(
            (
                new_core.get(j, core[j])
                for j in rows[a]
                if not is_anchor[j] and j != xid
            ),
            default=0,
        )
        if a == xid or eff != core[a]:
            delta[a] = (1, eff, 0, None)
    # Lines 12-16's suspects, named while ``nid`` is still old: members
    # now sharing a node with an affected vertex (x, an anchor, joins none).
    joined = {new_nid[i] for i in affected if i != xid}
    dying = [
        (i, nid[i]) for i in members if new_nid[i] in joined and nid[i] not in adjacent
    ] if joined else []

    # ---- Commit: label-keyed decomposition, then the per-id tables.
    new_anchors = state.anchors | {x}
    state.anchors = new_anchors
    coreness = state.decomposition.coreness
    shell_layer = state.decomposition.shell_layer
    for i, (_, c, lay, _) in delta.items():
        v = labels[i]
        coreness[v] = c
        shell_layer[v] = (c, lay)
    state.decomposition = CoreDecomposition(
        coreness=coreness,
        shell_layer=shell_layer,
        order=[],  # the global deletion order is not maintained in place
        anchors=new_anchors,
    )
    _obs.add(_obs.TOUCHED_EDGES, tables.apply_update(delta))

    # ---- Lines 12-16: invalidation from the new structures.
    _invalidate(tables, dying, removals)
    if _verify_enabled():
        from repro.verify.invariants import verify_anchor_state

        verify_anchor_state(state)
    return removals


def _invalidate(
    tables: FlatTables,
    dying: Iterable[tuple[int, int | None]],
    removals: Removals,
) -> None:
    """Lines 3-6 / 13-16: each ``(v, vid)`` node id dies for ``v`` and
    for ``v``'s lower-coreness neighbors (per the current tables)."""
    tca_ids = tables.tca_ids
    pn_ids = tables.pn_ids
    for v, vid in dying:
        assert vid is not None  # a node member is never an anchor
        removals.setdefault(v, set()).add(vid)
        tca_v = tca_ids[v]
        for nid2 in pn_ids[v]:
            for j in tca_v[nid2]:
                removals.setdefault(j, set()).add(vid)


def _splice(
    tree: CoreComponentTree, old_node: TreeNode, subtree: CoreComponentTree
) -> None:
    """Replace ``old_node``'s subtree by ``subtree``'s roots, in place.

    Anchors connect at every level, so the component stays one piece
    (the new anchor itself now connects whatever it used to): the
    rebuilt roots hang under the same parent.
    """
    stack = [old_node]
    while stack:
        node = stack.pop()
        tree.nodes.pop(node.node_id, None)
        stack.extend(node.children)
    old_parent = old_node.parent
    if old_parent is None:
        siblings = [r for r in tree.roots if r is not old_node]
    else:
        siblings = [c for c in old_parent.children if c is not old_node]
    for root in subtree.roots:
        root.parent = old_parent
        siblings.append(root)
    siblings.sort(key=lambda nd: _sort_key(nd.node_id))
    if old_parent is None:
        tree.roots = siblings
    else:
        old_parent.children = siblings
    tree.nodes.update(subtree.nodes)
    tree.node_of.update(subtree.node_of)
